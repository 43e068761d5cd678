//! Feed joints (§5.4).
//!
//! "A feed joint is a shared queue attached at the end of an operator such
//! that all data frames output by the operator are deposited into the
//! queue ... it acts as a bridge for data to flow from an ingestion
//! pipeline to another." Joints give the cascade network its two essential
//! properties (§5.4.1):
//!
//! * **Guaranteed delivery** — every data frame reaches every registered
//!   subscriber; a frame is wrapped in a *Data Bucket* carrying a counter
//!   initialized to the subscriber count, and the bucket is reclaimed only
//!   when every subscriber has consumed it.
//! * **Congestion isolation** — each subscriber consumes from its own queue
//!   at its own pace; a slow path never stalls the others.
//!
//! With a single subscriber the joint runs in *short-circuited* mode: no
//! bucket bookkeeping, frames are forwarded directly. The mode switches
//! dynamically as subscribers come and go.
//!
//! In this implementation a joint is a *durable rendezvous point* owned by
//! its node's Feed Manager: it outlives the jobs writing to and reading
//! from it. Subscriptions are keyed, and a rebuilt pipeline re-attaches to
//! its old subscription — the queue contents accumulated while the pipeline
//! was down are exactly the paper's "buffer mode" during failure recovery.

use asterix_common::sync::{handoff, Mutex};
use asterix_common::{DataFrame, IngestResult, SimClock, SimDuration};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A frame wrapped for shared-mode delivery.
#[derive(Debug)]
pub struct DataBucket {
    frame: DataFrame,
    /// Subscribers that have not yet consumed the content.
    pending: AtomicUsize,
}

impl DataBucket {
    /// Remaining consumers.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }
}

/// Message on a subscriber queue.
#[derive(Debug)]
enum JointMsg {
    /// Shared-mode delivery.
    Bucket(Arc<DataBucket>),
    /// Short-circuited single-subscriber delivery.
    Direct(DataFrame),
    /// The joint was retired; no more data will ever arrive.
    Retired,
}

struct SubEntry {
    tx: handoff::Sender<JointMsg>,
    /// kept so re-attaching subscribers can share the receiver and resume
    /// the same queue (the entry's reference also keeps the queue alive
    /// across pipeline rebuilds)
    rx: Arc<handoff::Receiver<JointMsg>>,
    queued_bytes: Arc<AtomicU64>,
}

/// Per-subscriber queue bound, in messages. Congestion isolation holds up
/// to this depth; past it, deposits exert backpressure on the producing
/// pipeline instead of growing memory without bound.
const SUBSCRIBER_QUEUE_CAP: usize = 1024;

struct JointInner {
    subscribers: HashMap<String, SubEntry>,
    retired: bool,
}

/// Statistics of a joint's lifetime.
#[derive(Debug, Default)]
pub struct JointStats {
    /// Frames routed through the joint.
    pub frames_routed: AtomicU64,
    /// Buckets allocated in shared mode.
    pub buckets_created: AtomicU64,
    /// Buckets fully consumed and reclaimed.
    pub buckets_reclaimed: AtomicU64,
    /// Frames delivered in short-circuited mode.
    pub short_circuited: AtomicU64,
}

/// A feed joint.
pub struct FeedJoint {
    /// Symbolic id: `<feed>` or `<feed>:f1:...:fN` (§5.3.1).
    pub id: String,
    inner: Mutex<JointInner>,
    /// Lifetime statistics.
    pub stats: JointStats,
}

impl FeedJoint {
    /// New joint with the given symbolic id.
    pub fn new(id: impl Into<String>) -> Arc<FeedJoint> {
        Arc::new(FeedJoint {
            id: id.into(),
            inner: Mutex::new(JointInner {
                subscribers: HashMap::new(),
                retired: false,
            }),
            stats: JointStats::default(),
        })
    }

    /// Register (or re-attach to) the subscription under `key`. A fresh key
    /// creates an empty queue; an existing key resumes its queue — including
    /// anything that accumulated while no consumer was attached.
    pub fn subscribe(self: &Arc<Self>, key: impl Into<String>) -> JointSubscription {
        let key = key.into();
        let mut inner = self.inner.lock();
        let entry = inner.subscribers.entry(key.clone()).or_insert_with(|| {
            let (tx, rx) = handoff::bounded(SUBSCRIBER_QUEUE_CAP);
            SubEntry {
                tx,
                rx: Arc::new(rx),
                queued_bytes: Arc::new(AtomicU64::new(0)),
            }
        });
        JointSubscription {
            key,
            rx: Arc::clone(&entry.rx),
            queued_bytes: Arc::clone(&entry.queued_bytes),
            joint: Arc::clone(self),
        }
    }

    /// Remove the subscription under `key` (graceful disconnect). Queued
    /// frames for that subscriber are dropped; shared buckets they held are
    /// decremented so other subscribers are unaffected.
    pub fn unsubscribe(&self, key: &str) {
        let entry = self.inner.lock().subscribers.remove(key);
        if let Some(entry) = entry {
            // drain this subscriber's queue, releasing bucket holds
            while let Some(msg) = entry.rx.try_recv() {
                if let JointMsg::Bucket(b) = msg {
                    if b.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                        // relaxed-ok: standalone stat; reclamation itself is
                        // ordered by the SeqCst refcount decrement above
                        self.stats.buckets_reclaimed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// Remove the subscription under `key` and return the frames still
    /// queued for it, in arrival order. This is the harvesting half of the
    /// elastic repartitioning protocol: when scaling moves a partition off a
    /// node, its successor subscribes elsewhere and would otherwise never
    /// see frames buffered here. Shared-bucket holds are released exactly as
    /// in [`FeedJoint::unsubscribe`], so the other subscribers are
    /// unaffected; the returned frames are re-parked as zombie state on the
    /// successor's node.
    pub fn detach_queued(&self, key: &str) -> Vec<DataFrame> {
        let entry = self.inner.lock().subscribers.remove(key);
        let mut frames = Vec::new();
        if let Some(entry) = entry {
            while let Some(msg) = entry.rx.try_recv() {
                match msg {
                    JointMsg::Direct(frame) => frames.push(frame),
                    JointMsg::Bucket(b) => {
                        frames.push(b.frame.clone());
                        if b.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                            // relaxed-ok: standalone stat; reclamation is
                            // ordered by the SeqCst refcount decrement above
                            self.stats.buckets_reclaimed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    JointMsg::Retired => {}
                }
            }
        }
        frames
    }

    /// Current number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner.lock().subscribers.len()
    }

    /// True if at least one subscriber is registered.
    pub fn has_subscribers(&self) -> bool {
        self.subscriber_count() > 0
    }

    /// Frames queued for the slowest subscriber (none once retired: deposits
    /// then fail instead of waiting).
    pub fn backlog(&self) -> usize {
        let inner = self.inner.lock();
        if inner.retired {
            return 0;
        }
        let fullest = inner.subscribers.values().map(|e| e.tx.len()).max();
        fullest.unwrap_or(0)
    }

    /// Frames the fullest subscriber queue can still take before a
    /// [`FeedJoint::deposit`] blocks. A depositor running on a scheduler
    /// worker probes this first and yields while there is no room for its
    /// next burst — blocking there would park a worker the draining
    /// subscriber may need. A point-in-time read: exact for a joint's lone
    /// depositor, while depositors racing on one joint can each overshoot
    /// by their own burst.
    pub fn headroom(&self) -> usize {
        SUBSCRIBER_QUEUE_CAP.saturating_sub(self.backlog())
    }

    /// Deposit a frame: short-circuit to a single subscriber, or wrap in a
    /// shared data bucket for many. No subscribers → the frame is dropped
    /// (the collect operator defers adaptor creation until someone
    /// subscribes, so this only happens in teardown windows).
    ///
    /// Sends happen on *bounded* queues and outside the joint lock: a full
    /// subscriber queue blocks only this depositor (backpressure on the
    /// producing pipeline), never other joint operations. The tradeoff is a
    /// narrow teardown race — a deposit that passed the retired check may
    /// land after a concurrent [`FeedJoint::retire`] notification; consumers
    /// treat `Retired` as terminal, so such a frame is dropped, equivalent
    /// to depositing just after retirement.
    pub fn deposit(&self, frame: DataFrame) -> IngestResult<()> {
        // snapshot the delivery plan under the lock, send outside it
        let targets: Vec<(handoff::Sender<JointMsg>, Arc<AtomicU64>)> = {
            let inner = self.inner.lock();
            if inner.retired {
                return Err(asterix_common::IngestError::Disconnected(format!(
                    "joint {} retired",
                    self.id
                )));
            }
            // relaxed-ok: routing/backpressure stats; frame contents are
            // published by the channel send, not by these counters
            self.stats.frames_routed.fetch_add(1, Ordering::Relaxed);
            inner
                .subscribers
                .values()
                .map(|e| (e.tx.clone(), Arc::clone(&e.queued_bytes)))
                .collect()
        };
        match targets.len() {
            0 => Ok(()),
            1 => {
                let (tx, queued_bytes) = &targets[0];
                // relaxed-ok: backpressure stat, see above
                queued_bytes.fetch_add(frame.size_bytes() as u64, Ordering::Relaxed);
                // relaxed-ok: routing stat, see above
                self.stats.short_circuited.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(JointMsg::Direct(frame));
                Ok(())
            }
            n => {
                let bucket = Arc::new(DataBucket {
                    pending: AtomicUsize::new(n),
                    frame,
                });
                // relaxed-ok: routing stat, see above
                self.stats.buckets_created.fetch_add(1, Ordering::Relaxed);
                for (tx, queued_bytes) in &targets {
                    // relaxed-ok: backpressure stat, see above
                    queued_bytes.fetch_add(bucket.frame.size_bytes() as u64, Ordering::Relaxed);
                    let _ = tx.send(JointMsg::Bucket(Arc::clone(&bucket)));
                }
                Ok(())
            }
        }
    }

    /// Retire the joint: all subscribers see end-of-stream, further deposits
    /// error. Used when a feed is dismantled entirely.
    ///
    /// The end-of-stream marker is sent with `try_send` so a subscriber
    /// whose queue is already full cannot wedge teardown; such a subscriber
    /// still observes retirement because [`JointSubscription::recv`] checks
    /// the retired flag once its queue drains empty.
    pub fn retire(&self) {
        let senders: Vec<handoff::Sender<JointMsg>> = {
            let mut inner = self.inner.lock();
            inner.retired = true;
            inner.subscribers.values().map(|e| e.tx.clone()).collect()
        };
        for tx in senders {
            let _ = tx.try_send(JointMsg::Retired);
        }
    }

    /// Has the joint been retired?
    pub fn is_retired(&self) -> bool {
        self.inner.lock().retired
    }
}

impl std::fmt::Debug for FeedJoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FeedJoint('{}', {} subscribers)",
            self.id,
            self.subscriber_count()
        )
    }
}

/// Outcome of one receive attempt on a subscription.
#[derive(Debug)]
pub enum JointRecv {
    /// A frame arrived.
    Frame(DataFrame),
    /// Nothing within the timeout.
    Timeout,
    /// The joint was retired; no more data will arrive.
    Retired,
}

/// A consumer's handle on its joint subscription.
pub struct JointSubscription {
    /// Subscription key (stable across pipeline rebuilds).
    pub key: String,
    rx: Arc<handoff::Receiver<JointMsg>>,
    queued_bytes: Arc<AtomicU64>,
    joint: Arc<FeedJoint>,
}

impl JointSubscription {
    fn on_msg(&self, msg: JointMsg) -> JointRecv {
        match msg {
            JointMsg::Direct(frame) => {
                // relaxed-ok: backpressure stat; the frame arrived via the
                // channel, nothing synchronises through this counter
                self.queued_bytes
                    .fetch_sub(frame.size_bytes() as u64, Ordering::Relaxed);
                JointRecv::Frame(frame)
            }
            JointMsg::Bucket(bucket) => {
                // relaxed-ok: backpressure stat, see above
                self.queued_bytes
                    .fetch_sub(bucket.frame.size_bytes() as u64, Ordering::Relaxed);
                // consume: clone the content (payload bytes are refcounted,
                // so this is shallow for the heavy part) and release our hold
                let frame = bucket.frame.clone();
                if bucket.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                    // relaxed-ok: standalone stat; reclamation is ordered by
                    // the SeqCst refcount decrement above
                    self.joint
                        .stats
                        .buckets_reclaimed
                        .fetch_add(1, Ordering::Relaxed);
                }
                JointRecv::Frame(frame)
            }
            JointMsg::Retired => JointRecv::Retired,
        }
    }

    /// Receive the next frame, waiting up to `timeout` of sim-time.
    pub fn recv(&self, clock: &SimClock, timeout: SimDuration) -> JointRecv {
        match self.rx.recv_timeout(clock.to_real(timeout)) {
            Ok(msg) => self.on_msg(msg),
            Err(handoff::RecvTimeoutError::Timeout) => {
                // an empty queue on a retired joint means end-of-stream even
                // if the Retired marker was squeezed out by a full queue
                if self.joint.is_retired() {
                    JointRecv::Retired
                } else {
                    JointRecv::Timeout
                }
            }
            Err(handoff::RecvTimeoutError::Disconnected) => JointRecv::Retired,
        }
    }

    /// Receive without blocking: `None` when the queue is empty. Cooperative
    /// intake tasks poll this from the scheduler instead of parking a whole
    /// OS thread in [`JointSubscription::recv`].
    pub fn try_recv(&self) -> Option<JointRecv> {
        match self.rx.try_recv() {
            Some(msg) => Some(self.on_msg(msg)),
            None if self.joint.is_retired() => Some(JointRecv::Retired),
            None => None,
        }
    }

    /// Bytes currently waiting in this subscription's queue.
    pub fn queued_bytes(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone gauge
        self.queued_bytes.load(Ordering::Relaxed)
    }

    /// The joint this subscription belongs to.
    pub fn joint(&self) -> &Arc<FeedJoint> {
        &self.joint
    }

    /// Gracefully end the subscription.
    pub fn unsubscribe(self) {
        self.joint.unsubscribe(&self.key);
    }
}

impl std::fmt::Debug for JointSubscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JointSubscription('{}' on {})", self.key, self.joint.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::{Record, RecordId};

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(ids.map(|i| Record::tracked(RecordId(i), 0, "x")).collect())
    }

    fn clock() -> SimClock {
        SimClock::with_scale(1000.0) // real time so recv timeouts are exact
    }

    fn drain(sub: &JointSubscription, n: usize) -> Vec<DataFrame> {
        let c = clock();
        (0..n)
            .map(|_| match sub.recv(&c, SimDuration::from_secs(2)) {
                JointRecv::Frame(f) => f,
                other => panic!("expected frame, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn short_circuit_single_subscriber() {
        let joint = FeedJoint::new("TwitterFeed");
        let sub = joint.subscribe("conn1");
        joint.deposit(frame(0..3)).unwrap();
        let got = drain(&sub, 1);
        assert_eq!(got[0].len(), 3);
        assert_eq!(joint.stats.short_circuited.load(Ordering::Relaxed), 1);
        assert_eq!(joint.stats.buckets_created.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn shared_mode_guarantees_delivery_to_all() {
        let joint = FeedJoint::new("TwitterFeed");
        let s1 = joint.subscribe("conn1");
        let s2 = joint.subscribe("conn2");
        joint.deposit(frame(0..5)).unwrap();
        joint.deposit(frame(5..10)).unwrap();
        let f1 = drain(&s1, 2);
        let f2 = drain(&s2, 2);
        assert_eq!(f1[0].records(), f2[0].records());
        assert_eq!(f1[1].records(), f2[1].records());
        assert_eq!(joint.stats.buckets_created.load(Ordering::Relaxed), 2);
        assert_eq!(joint.stats.buckets_reclaimed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn mode_switches_dynamically() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        joint.deposit(frame(0..1)).unwrap();
        let s2 = joint.subscribe("b");
        joint.deposit(frame(1..2)).unwrap();
        joint.unsubscribe("b");
        drop(s2);
        joint.deposit(frame(2..3)).unwrap();
        assert_eq!(joint.stats.short_circuited.load(Ordering::Relaxed), 2);
        assert_eq!(joint.stats.buckets_created.load(Ordering::Relaxed), 1);
        // subscriber a saw all three frames
        assert_eq!(drain(&s1, 3).len(), 3);
    }

    #[test]
    fn congestion_isolation_slow_subscriber_does_not_block() {
        let joint = FeedJoint::new("F");
        let fast = joint.subscribe("fast");
        let _slow = joint.subscribe("slow"); // never consumes
        for i in 0..50 {
            joint.deposit(frame(i * 10..i * 10 + 10)).unwrap();
        }
        // fast subscriber can consume everything immediately
        assert_eq!(drain(&fast, 50).len(), 50);
        // buckets not reclaimed while slow holds them
        assert_eq!(joint.stats.buckets_reclaimed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unsubscribe_releases_bucket_holds() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        let _s2 = joint.subscribe("b");
        joint.deposit(frame(0..1)).unwrap();
        drain(&s1, 1);
        assert_eq!(joint.stats.buckets_reclaimed.load(Ordering::Relaxed), 0);
        joint.unsubscribe("b");
        assert_eq!(joint.stats.buckets_reclaimed.load(Ordering::Relaxed), 1);
        assert_eq!(joint.subscriber_count(), 1);
    }

    #[test]
    fn reattach_resumes_the_same_queue() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("conn1");
        joint.deposit(frame(0..2)).unwrap();
        drop(s1); // consumer died without unsubscribing (pipeline failure)
        joint.deposit(frame(2..4)).unwrap(); // buffer mode: queue accumulates
        let s1b = joint.subscribe("conn1"); // rebuilt pipeline re-attaches
        let got = drain(&s1b, 2);
        assert_eq!(got[0].records()[0].id, RecordId(0));
        assert_eq!(got[1].records()[0].id, RecordId(2));
    }

    #[test]
    fn queued_bytes_tracks_backlog() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        assert_eq!(sub.queued_bytes(), 0);
        joint.deposit(frame(0..10)).unwrap();
        assert!(sub.queued_bytes() > 0);
        drain(&sub, 1);
        assert_eq!(sub.queued_bytes(), 0);
    }

    #[test]
    fn headroom_follows_the_fullest_subscriber_queue() {
        let joint = FeedJoint::new("F");
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP, "nobody to wait for");
        let fast = joint.subscribe("fast");
        let _slow = joint.subscribe("slow"); // never consumes
        for i in 0..3 {
            joint.deposit(frame(i..i + 1)).unwrap();
        }
        drain(&fast, 3);
        assert_eq!(joint.backlog(), 3);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP - 3);
        // a retired joint fails deposits instead of making them wait
        joint.retire();
        assert_eq!(joint.backlog(), 0);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP);
    }

    #[test]
    fn detach_queued_harvests_frames_and_releases_buckets() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        let _s2 = joint.subscribe("b");
        joint.deposit(frame(0..2)).unwrap();
        joint.deposit(frame(2..4)).unwrap();
        drain(&s1, 2); // `a` consumed both; `b` still holds its copies
        let harvested = joint.detach_queued("b");
        assert_eq!(harvested.len(), 2);
        assert_eq!(harvested[0].records()[0].id, RecordId(0));
        assert_eq!(harvested[1].records()[0].id, RecordId(2));
        assert_eq!(joint.stats.buckets_reclaimed.load(Ordering::Relaxed), 2);
        assert_eq!(joint.subscriber_count(), 1);
        // detaching an unknown key is a harmless no-op
        assert!(joint.detach_queued("nope").is_empty());
    }

    #[test]
    fn deposit_with_no_subscribers_drops() {
        let joint = FeedJoint::new("F");
        joint.deposit(frame(0..5)).unwrap();
        assert_eq!(joint.stats.frames_routed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn retire_ends_streams_and_rejects_deposits() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        joint.retire();
        assert!(joint.is_retired());
        match sub.recv(&clock(), SimDuration::from_secs(1)) {
            JointRecv::Retired => {}
            other => panic!("expected retired, got {other:?}"),
        }
        assert!(joint.deposit(frame(0..1)).is_err());
    }

    #[test]
    fn timeout_when_empty() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        match sub.recv(&clock(), SimDuration::from_millis(10)) {
            JointRecv::Timeout => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
