//! Frame ports: the in-process edge queues between operator tasks.
//!
//! A port replaces the old crossbeam channel behind an edge. It differs in
//! one crucial way: the *push discipline adapts to the caller's context*.
//!
//! * **Scheduler workers never block.** A worker that blocks on a full
//!   queue can deadlock the whole pool (the consumer that would drain the
//!   queue may be waiting behind the blocked worker). Pushes from worker
//!   threads therefore always append and report saturation; the task yields
//!   ([`SliceState::Pending`](crate::scheduler::SliceState)) when its
//!   outputs are saturated, which bounds queue growth to the capacity plus
//!   one slice's burst. A feed intake pulls from its joint subscription
//!   only while its port has room: what waits behind a full port is excess,
//!   and the subscription applies the connection's ingestion policy to it
//!   (Chapter 7).
//! * **Dedicated threads block.** The TCP ingress reader — the only
//!   producer that is not a task — uses the classic bounded-queue blocking
//!   send: it stops reading, the kernel socket buffers fill, and the wire's
//!   sending side sees its own port saturate.
//!
//! Wakers are wired statically at job-wiring time: the consumer task's
//! waker fires on empty→non-empty, producers' wakers fire when the queue
//! drains back below capacity.

use crate::operator::StopToken;
use crate::scheduler::{on_worker_thread, Waker};
use asterix_common::sync::{Condvar, Mutex};
use asterix_common::{DataFrame, IngestError, IngestResult};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Message on an inter-task edge.
#[derive(Debug)]
pub enum TaskMsg {
    /// A data frame.
    Frame(DataFrame),
    /// Graceful end-of-stream from one producer.
    Close,
    /// Abnormal termination signal.
    Fail,
}

/// The consumer of this port is gone; no send can ever succeed again.
#[derive(Debug, PartialEq, Eq)]
pub struct PortClosed;

/// Result of a non-blocking [`PortReceiver::pop`].
#[derive(Debug)]
pub enum PortPop {
    /// A message.
    Msg(TaskMsg),
    /// Nothing queued right now; producers are still attached.
    Empty,
    /// Queue drained and every producer is gone.
    Disconnected,
}

struct PortState {
    queue: VecDeque<TaskMsg>,
    senders: usize,
    rx_alive: bool,
}

#[derive(Default)]
struct PortWakers {
    consumer: Option<Waker>,
    producers: Vec<Waker>,
}

struct PortInner {
    state: Mutex<PortState>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
    wakers: Mutex<PortWakers>,
}

impl PortInner {
    fn wake_consumer(&self) {
        if let Some(w) = self.wakers.lock().consumer.clone() {
            w.wake();
        }
        self.not_empty.notify_all();
    }

    fn wake_producers(&self) {
        for w in self.wakers.lock().producers.iter() {
            w.wake_now();
        }
        self.not_full.notify_all();
    }
}

/// Create a port with the given soft capacity (minimum 1).
pub fn frame_port(capacity: usize) -> (PortSender, PortReceiver) {
    let inner = Arc::new(PortInner {
        state: Mutex::new(PortState {
            queue: VecDeque::new(),
            senders: 1,
            rx_alive: true,
        }),
        capacity: capacity.max(1),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        wakers: Mutex::new(PortWakers::default()),
    });
    (
        PortSender {
            inner: Arc::clone(&inner),
        },
        PortReceiver { inner },
    )
}

/// Producer half of a port; cloneable (multiple producers per consumer).
pub struct PortSender {
    inner: Arc<PortInner>,
}

impl PortSender {
    /// Append a message regardless of saturation (worker-safe: never
    /// blocks). Errors only if the consumer is gone.
    pub fn push(&self, msg: TaskMsg) -> Result<(), PortClosed> {
        let mut st = self.inner.state.lock();
        if !st.rx_alive {
            return Err(PortClosed);
        }
        let was_empty = st.queue.is_empty();
        st.queue.push_back(msg);
        drop(st);
        if was_empty {
            self.inner.wake_consumer();
        }
        Ok(())
    }

    /// Blocking append: waits until the queue is below capacity. Must only
    /// be called from dedicated threads, never from scheduler workers.
    pub fn push_blocking(&self, msg: TaskMsg) -> Result<(), PortClosed> {
        let mut st = self.inner.state.lock();
        loop {
            if !st.rx_alive {
                return Err(PortClosed);
            }
            if st.queue.len() < self.inner.capacity {
                let was_empty = st.queue.is_empty();
                st.queue.push_back(msg);
                drop(st);
                if was_empty {
                    self.inner.wake_consumer();
                }
                return Ok(());
            }
            self.inner.not_full.wait(&mut st);
        }
    }

    /// Send a frame with the discipline appropriate to the calling thread:
    /// append-and-report on a scheduler worker, blocking back-pressure on a
    /// dedicated thread.
    pub fn send_frame(&self, frame: DataFrame) -> IngestResult<()> {
        let r = if on_worker_thread() {
            self.push(TaskMsg::Frame(frame))
        } else {
            self.push_blocking(TaskMsg::Frame(frame))
        };
        r.map_err(|_| IngestError::Disconnected("consumer gone".into()))
    }

    /// Signal graceful end-of-stream.
    pub fn send_close(&self) -> IngestResult<()> {
        self.push(TaskMsg::Close)
            .map_err(|_| IngestError::Disconnected("consumer gone".into()))
    }

    /// Signal abnormal termination (best effort).
    pub fn send_fail(&self) {
        let _ = self.push(TaskMsg::Fail);
    }

    /// Is the queue at or over capacity? Cooperative producers yield when
    /// this is true.
    pub fn is_saturated(&self) -> bool {
        self.inner.state.lock().queue.len() >= self.inner.capacity
    }

    /// Register a producer-task waker, fired when the queue drains back
    /// below capacity.
    pub fn attach_producer_waker(&self, w: Waker) {
        self.inner.wakers.lock().producers.push(w);
    }

    /// Queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Clone for PortSender {
    fn clone(&self) -> Self {
        self.inner.state.lock().senders += 1;
        PortSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PortSender {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            // the consumer must observe the disconnect even while idle
            self.inner.wake_consumer();
        }
    }
}

impl std::fmt::Debug for PortSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PortSender(len={})", self.len())
    }
}

/// Consumer half of a port.
pub struct PortReceiver {
    inner: Arc<PortInner>,
}

impl PortReceiver {
    /// Non-blocking pop (the cooperative consumer path).
    pub fn pop(&self) -> PortPop {
        let mut st = self.inner.state.lock();
        let before = st.queue.len();
        match st.queue.pop_front() {
            Some(msg) => {
                let crossed = before >= self.inner.capacity && st.queue.len() < self.inner.capacity;
                drop(st);
                if crossed {
                    self.inner.wake_producers();
                }
                PortPop::Msg(msg)
            }
            None => {
                if st.senders == 0 {
                    PortPop::Disconnected
                } else {
                    PortPop::Empty
                }
            }
        }
    }

    /// Blocking pop with timeout, for dedicated consumer threads (the TCP
    /// egress pump). Returns `Empty` on timeout.
    pub fn pop_wait(&self, timeout: Duration) -> PortPop {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            let before = st.queue.len();
            if let Some(msg) = st.queue.pop_front() {
                let crossed = before >= self.inner.capacity && st.queue.len() < self.inner.capacity;
                drop(st);
                if crossed {
                    self.inner.wake_producers();
                }
                return PortPop::Msg(msg);
            }
            if st.senders == 0 {
                return PortPop::Disconnected;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return PortPop::Empty;
            }
            self.inner.not_empty.wait_for(&mut st, deadline - now);
        }
    }

    /// Queued messages.
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A wiring hook that can outlive the receiver's move into its task.
    pub fn hook(&self) -> PortHook {
        PortHook {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PortReceiver {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        st.rx_alive = false;
        st.queue.clear();
        drop(st);
        // unblock and notify producers so they observe the disconnect
        self.inner.wake_producers();
    }
}

impl std::fmt::Debug for PortReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PortReceiver(len={})", self.len())
    }
}

/// Wiring handle for a port's waker slots (see [`PortReceiver::hook`]).
#[derive(Clone)]
pub struct PortHook {
    inner: Arc<PortInner>,
}

impl PortHook {
    /// Set the consumer-task waker, fired on empty→non-empty.
    pub fn set_consumer_waker(&self, w: Waker) {
        self.inner.wakers.lock().consumer = Some(w);
    }
}

/// Watches a set of downstream port senders for saturation; cooperative
/// producer tasks consult this after each slice of work and yield while any
/// downstream queue is over capacity.
#[derive(Clone, Default)]
pub struct SaturationProbe {
    ports: Vec<PortSender>,
}

impl SaturationProbe {
    /// Probe over the given downstream senders.
    pub fn new(ports: Vec<PortSender>) -> Self {
        SaturationProbe { ports }
    }

    /// Is any downstream queue saturated?
    pub fn saturated(&self) -> bool {
        self.ports.iter().any(|p| p.is_saturated())
    }

    /// Register `w` to fire when any watched queue drains below capacity.
    pub fn attach_producer_waker(&self, w: &Waker) {
        for p in &self.ports {
            p.attach_producer_waker(w.clone());
        }
    }
}

impl std::fmt::Debug for SaturationProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SaturationProbe({} ports)", self.ports.len())
    }
}

/// A stop token that can be fired by node-death watchers; re-exported here
/// for wiring convenience.
pub type PortStopToken = StopToken;

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::{Record, RecordId};

    fn frame(n: u64) -> DataFrame {
        DataFrame::from_records(
            (0..n)
                .map(|i| Record::tracked(RecordId(i), 0, "x"))
                .collect(),
        )
    }

    #[test]
    fn push_pop_roundtrip() {
        let (tx, rx) = frame_port(2);
        tx.push(TaskMsg::Frame(frame(3))).unwrap();
        tx.push(TaskMsg::Close).unwrap();
        assert!(matches!(rx.pop(), PortPop::Msg(TaskMsg::Frame(_))));
        assert!(matches!(rx.pop(), PortPop::Msg(TaskMsg::Close)));
        assert!(matches!(rx.pop(), PortPop::Empty));
    }

    #[test]
    fn worker_push_exceeds_capacity_and_reports_saturation() {
        let (tx, _rx) = frame_port(2);
        for _ in 0..5 {
            tx.push(TaskMsg::Frame(frame(1))).unwrap();
        }
        assert_eq!(tx.len(), 5);
        assert!(tx.is_saturated());
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = frame_port(2);
        tx.push(TaskMsg::Frame(frame(1))).unwrap();
        drop(tx);
        assert!(matches!(rx.pop(), PortPop::Msg(_)));
        assert!(matches!(rx.pop(), PortPop::Disconnected));
    }

    #[test]
    fn receiver_drop_errors_senders() {
        let (tx, rx) = frame_port(1);
        drop(rx);
        assert_eq!(tx.push(TaskMsg::Close), Err(PortClosed));
        assert_eq!(tx.push_blocking(TaskMsg::Close), Err(PortClosed));
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let (tx, rx) = frame_port(1);
        tx.push(TaskMsg::Frame(frame(1))).unwrap();
        let t = std::thread::spawn(move || tx.push_blocking(TaskMsg::Frame(frame(1))));
        std::thread::sleep(Duration::from_millis(10));
        assert!(matches!(rx.pop(), PortPop::Msg(_)));
        t.join().unwrap().unwrap();
        assert!(matches!(rx.pop(), PortPop::Msg(_)));
    }

    #[test]
    fn pop_wait_times_out_then_delivers() {
        let (tx, rx) = frame_port(1);
        assert!(matches!(
            rx.pop_wait(Duration::from_millis(5)),
            PortPop::Empty
        ));
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            tx.push(TaskMsg::Close).unwrap();
        });
        assert!(matches!(
            rx.pop_wait(Duration::from_secs(5)),
            PortPop::Msg(TaskMsg::Close)
        ));
        t.join().unwrap();
    }
}
