//! The in-process socket: the one wire every push source writes into and
//! every push adaptor reads from ("push mode involves just one initial
//! request by the adaptor to the data source", §4.1).
//!
//! A socket is bound at an address ("host:port" style) in one
//! process-global registry, the simulation's network. It is a bounded
//! channel of [`Line`]s and a doorbell, its one wake path: a reader about
//! to park arms it ([`SocketReader::arm`]), and the next ring fires the
//! reader's wake hook. [`bind_socket`] hands the sending end to the caller
//! (a client pushing lines); [`bind_on_attach`] hands it to a start closure
//! at the first [`attach`], so a source that pushes on its own (TweetGen)
//! starts only once a reader exists. The registry holds the receiving end:
//! a reader that goes away (a collect job rebuilt during a repartition)
//! leaves the buffer intact, and the next attach resumes the stream. The
//! stream ends once every sender is gone and the buffer is drained.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;
use crate::{IngestError, IngestResult, SimInstant};
use crossbeam_channel::{Receiver, SendError, Sender, TrySendError};
use std::collections::HashMap;
use std::sync::Arc;

/// The hook that wakes a parked reader.
pub type Wake = Arc<dyn Fn() + Send + Sync>;

/// One line on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The text: one JSON/ADM record.
    pub text: String,
    /// The sim-instant a stamping source (TweetGen) generated it; it rides
    /// with the record to the store, which derives ingestion lag from it.
    pub gen_at: Option<SimInstant>,
}

/// A socket's wake path: armed by a reader that found the socket empty,
/// fired (once) by the next ring, and by the close whether armed or not.
#[derive(Default)]
struct Doorbell {
    armed: AtomicBool,
    wake: Mutex<Option<Wake>>,
}

impl Doorbell {
    fn ring(&self, close: bool) {
        if close || self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            let wake = self.wake.lock().clone();
            if let Some(wake) = wake {
                wake();
            }
        }
    }
}

/// The senders' hold on the doorbell: the last one dropped, after its channel end, rings it.
struct Senders(Arc<Doorbell>);

impl Drop for Senders {
    fn drop(&mut self) {
        self.0.ring(true);
    }
}

/// A bound socket, as the registry holds it.
struct Socket {
    lines: Receiver<Line>,
    bell: Arc<Doorbell>,
    /// What the first attach runs (a source's start), then nothing.
    start: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// A source's start: it gets the socket's sending end.
type Start = Box<dyn FnOnce(SocketSender) + Send>;

static SOCKETS: Mutex<Option<HashMap<String, Arc<Socket>>>> = Mutex::new(None);

/// The sending end of a bound socket; clones share it.
#[derive(Clone)]
pub struct SocketSender {
    tx: Sender<Line>,
    bell: Arc<Senders>,
}

impl SocketSender {
    /// Send one unstamped line, waiting while the buffer is full, and ring;
    /// an error hands the line back once no reader can ever read it.
    pub fn send(&self, text: String) -> Result<(), SendError<String>> {
        let sent = self.tx.send(Line { text, gen_at: None });
        sent.map_err(|SendError(l)| SendError(l.text))?;
        self.ring();
        Ok(())
    }

    /// Put a line generated at `at` on the wire without waiting: a push
    /// source cannot be held back, so `Full` is a line the wire drops. It
    /// does not ring; a source sending a batch rings once after it.
    pub fn try_send_stamped(&self, text: String, at: SimInstant) -> Result<(), TrySendError<Line>> {
        let gen_at = Some(at);
        self.tx.try_send(Line { text, gen_at })
    }

    /// Wake the reader if it parked on an empty socket.
    pub fn ring(&self) {
        self.bell.0.ring(false);
    }

    /// Lines in the socket's buffer.
    pub fn len(&self) -> usize {
        self.tx.len()
    }

    /// Is the socket's buffer empty?
    pub fn is_empty(&self) -> bool {
        self.tx.is_empty()
    }
}

/// Bind a socket of `capacity` lines at `addr` whose first attach runs
/// `start`, if any, and return its sending end.
fn bind(addr: &str, capacity: usize, start: Option<Start>) -> IngestResult<SocketSender> {
    let (tx, lines) = crossbeam_channel::bounded(capacity);
    let bell = Arc::new(Senders(Arc::default()));
    let tx = SocketSender { tx, bell };
    let (bell, source) = (Arc::clone(&tx.bell.0), tx.clone());
    let start = Mutex::new(start.map(|start| Box::new(move || start(source)) as Box<_>));
    let mut reg = SOCKETS.lock();
    let map = reg.get_or_insert_with(HashMap::new);
    if map.contains_key(addr) {
        return Err(IngestError::Config(format!("address {addr} already bound")));
    }
    map.insert(addr.to_string(), Arc::new(Socket { lines, bell, start }));
    Ok(tx)
}

/// Bind a socket of `capacity` lines at `addr` that a producer pushes lines
/// into through the returned sender. Errors if the address is taken.
pub fn bind_socket(addr: &str, capacity: usize) -> IngestResult<SocketSender> {
    bind(addr, capacity, None)
}

/// Bind a socket of `capacity` lines at `addr` whose sending end goes to
/// `start` when the first reader attaches. Errors if the address is taken.
pub fn bind_on_attach(
    addr: &str,
    capacity: usize,
    start: impl FnOnce(SocketSender) + Send + 'static,
) -> IngestResult<()> {
    bind(addr, capacity, Some(Box::new(start))).map(drop)
}

/// Remove a socket binding: attached readers keep reading what is
/// buffered, no new reader can attach.
pub fn unbind_socket(addr: &str) {
    if let Some(map) = SOCKETS.lock().as_mut() {
        map.remove(addr);
    }
}

/// The reading end of a bound socket ([`attach`]).
pub struct SocketReader {
    /// The socket's lines, oldest first; disconnected once every sender is
    /// gone and the buffer is drained.
    pub lines: Receiver<Line>,
    bell: Arc<Doorbell>,
}

impl SocketReader {
    /// Make `wake` the socket's wake hook, replacing an earlier reader's.
    pub fn set_wake(&self, wake: Wake) {
        *self.bell.wake.lock() = Some(wake);
    }

    /// Arm the doorbell before parking on an empty socket, then look once
    /// more: true if a line landed in between — read it now, do not park.
    pub fn arm(&self) -> bool {
        self.bell.armed.store(true, Ordering::SeqCst);
        !self.lines.is_empty()
    }
}

/// Attach a reader to the socket bound at `addr`: the one initial request
/// of a push adaptor. The first attach starts a source bound with
/// [`bind_on_attach`]; a later one resumes the same stream.
pub fn attach(addr: &str) -> IngestResult<SocketReader> {
    let socket = SOCKETS.lock().as_ref().and_then(|m| m.get(addr)).cloned();
    let socket =
        socket.ok_or_else(|| IngestError::Disconnected(format!("no socket bound at {addr}")))?;
    let start = socket.start.lock().take();
    if let Some(start) = start {
        start();
    }
    Ok(SocketReader {
        lines: socket.lines.clone(),
        bell: Arc::clone(&socket.bell),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn one_namespace_and_unbound_addresses_fail() {
        let _tx = bind_socket("wire:1", 4).unwrap();
        assert!(bind_socket("wire:1", 4).is_err());
        assert!(bind_on_attach("wire:1", 4, |_| {}).is_err());
        unbind_socket("wire:1");
        assert!(attach("wire:1").is_err(), "unbound");
        assert!(attach("nowhere:1").is_err());
    }

    #[test]
    fn the_first_attach_starts_the_source_and_later_ones_resume() {
        let starts = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&starts);
        bind_on_attach("wire:2", 8, move |tx| {
            counted.fetch_add(1, Ordering::SeqCst);
            for i in 0..3 {
                tx.try_send_stamped(format!("{i}"), SimInstant(i)).unwrap();
            }
        })
        .unwrap();
        assert_eq!(starts.load(Ordering::SeqCst), 0, "nothing before a reader");
        let first = attach("wire:2").unwrap();
        assert_eq!(first.lines.recv().unwrap().gen_at, Some(SimInstant(0)));
        drop(first);
        let second = attach("wire:2").unwrap();
        let rest: Vec<Line> = second.lines.iter().collect();
        assert_eq!(starts.load(Ordering::SeqCst), 1, "started once");
        let texts: Vec<&str> = rest.iter().map(|l| l.text.as_str()).collect();
        assert_eq!(texts, ["1", "2"], "the buffer survived the reader swap");
        unbind_socket("wire:2");
    }

    #[test]
    fn an_armed_reader_is_woken_once_by_the_next_ring() {
        let tx = bind_socket("wire:3", 8).unwrap();
        let reader = attach("wire:3").unwrap();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        reader.set_wake(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        tx.send("a".into()).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 0, "not armed: no wake");
        assert!(reader.arm(), "a line is waiting: do not park");
        reader.lines.recv().unwrap();
        assert!(!reader.arm(), "empty: park");
        assert!(tx.try_send_stamped("b".into(), SimInstant(7)).is_ok());
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            0,
            "a stamped send does not ring"
        );
        tx.ring();
        tx.send("c".into()).unwrap();
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "one wake per arming");
        let full = bind_socket("wire:4", 1).unwrap();
        full.try_send_stamped("x".into(), SimInstant(1)).unwrap();
        let dropped = full.try_send_stamped("y".into(), SimInstant(2));
        assert!(matches!(dropped, Err(TrySendError::Full(_))));
        unbind_socket("wire:3");
        unbind_socket("wire:4");
    }
}
