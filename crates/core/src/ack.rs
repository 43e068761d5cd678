//! At-least-once semantics (§5.6).
//!
//! "To provide at least once semantics, each record arriving from the data
//! source is augmented with a tracking id at the intake stage. Subsequent
//! to persisting a record (log record has been written to the local disk),
//! the store operator instance constructs an ack message with the tracking
//! id. Over a fixed-width time-window, the ack messages for all records
//! that were sourced from a given feed adaptor instance are grouped and
//! encoded together as a single message ... A record that has been output
//! by the intake stage is held at its intake node until an ack message for
//! the record is received from the store stage. When an ack is received,
//! the record is dropped and memory is reclaimed. On a timeout, the records
//! without an ack are replayed."

use asterix_common::ids::IdGen;
use asterix_common::sync::Mutex;
use asterix_common::{Record, RecordId, SimClock, SimDuration, SimInstant};
use crossbeam_channel::{Receiver, Sender};
use std::collections::HashMap;
use std::time::Duration;

static TRACKING_IDS: IdGen = IdGen::new();

/// A group of acks for records sourced from one intake partition, encoded
/// as one message to reduce network bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckBatch {
    /// The intake partition (≙ feed adaptor instance) the records came from.
    pub source: u32,
    /// Acked tracking ids.
    pub ids: Vec<RecordId>,
}

/// Store-side ack grouping: buffers ids per source over a time window, and
/// sends them at the window's end — on the next ack, or on the deadline
/// [`AckSender::flush_due`] names when no ack comes.
pub struct AckSender {
    txs: Vec<Sender<AckBatch>>,
    window: SimDuration,
    clock: SimClock,
    buffered: HashMap<u32, Vec<RecordId>>,
    window_start: SimInstant,
}

impl AckSender {
    /// Sender that flushes grouped acks every `window` to the per-partition
    /// channels in `txs` (index = intake partition).
    pub fn new(txs: Vec<Sender<AckBatch>>, window: SimDuration, clock: SimClock) -> AckSender {
        let window_start = clock.now();
        AckSender {
            txs,
            window,
            clock,
            buffered: HashMap::new(),
            window_start,
        }
    }

    /// Ack one persisted record.
    pub fn ack(&mut self, record: &Record) {
        if record.is_tracked() {
            self.buffered
                .entry(record.adaptor)
                .or_default()
                .push(record.id);
        }
        let now = self.clock.now();
        if now.since(self.window_start) >= self.window {
            self.flush();
            self.window_start = now;
        }
    }

    /// Send the buffered groups if their window has ended; otherwise the
    /// real time until it ends (`None` when nothing is buffered).
    pub fn flush_due(&mut self) -> Option<Duration> {
        if self.buffered.is_empty() {
            return None;
        }
        let now = self.clock.now();
        let end = self.window_start.plus(self.window);
        if now < end {
            return Some(self.clock.to_real(end.since(now)));
        }
        self.flush();
        self.window_start = now;
        None
    }

    /// Send all buffered groups now.
    pub fn flush(&mut self) {
        for (source, ids) in self.buffered.drain() {
            if let Some(tx) = self.txs.get(source as usize) {
                let _ = tx.send(AckBatch { source, ids });
            }
        }
    }
}

impl Drop for AckSender {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for AckSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AckSender({} partitions)", self.txs.len())
    }
}

struct Pending {
    record: Record,
    deadline: SimInstant,
    attempts: u32,
}

/// Intake-side tracker: holds copies of in-flight records and replays the
/// unacked ones after a timeout. Replays back off exponentially (×2 per
/// attempt, capped at 32× the base timeout) so a long backlog drain does
/// not snowball into a replay storm.
pub struct AckTracker {
    partition: u32,
    rx: Receiver<AckBatch>,
    timeout: SimDuration,
    clock: SimClock,
    pending: Mutex<HashMap<RecordId, Pending>>,
}

impl AckTracker {
    /// Tracker for intake `partition`, consuming acks from `rx`.
    pub fn new(
        partition: u32,
        rx: Receiver<AckBatch>,
        timeout: SimDuration,
        clock: SimClock,
    ) -> AckTracker {
        AckTracker {
            partition,
            rx,
            timeout,
            clock,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// Assign a tracking id (if untracked), stamp the record with this
    /// partition as its source, and hold a copy until acked.
    pub fn track(&self, record: &Record) -> Record {
        let id = if record.is_tracked() {
            record.id
        } else {
            TRACKING_IDS.next()
        };
        let tracked = Record::tracked(id, self.partition, record.payload.clone());
        self.pending.lock().insert(
            id,
            Pending {
                record: tracked.clone(),
                deadline: self.clock.now().plus(self.timeout),
                attempts: 0,
            },
        );
        tracked
    }

    /// Drain the ack channel, dropping acked records.
    pub fn process_acks(&self) {
        let mut pending = self.pending.lock();
        while let Ok(batch) = self.rx.try_recv() {
            for id in batch.ids {
                pending.remove(&id);
            }
        }
    }

    /// Real time until the earliest unacked record is due for a replay;
    /// `None` when nothing awaits an ack.
    pub fn next_replay_in(&self) -> Option<Duration> {
        let due = self.pending.lock().values().map(|p| p.deadline).min()?;
        Some(self.clock.to_real(due.since(self.clock.now())))
    }

    /// Records past their ack deadline. Each is re-armed with an
    /// exponentially backed-off deadline and returned for re-emission.
    pub fn due_replays(&self) -> Vec<Record> {
        let now = self.clock.now();
        let mut pending = self.pending.lock();
        let mut due = Vec::new();
        for p in pending.values_mut() {
            if now >= p.deadline {
                p.attempts = (p.attempts + 1).min(5);
                let backoff = asterix_common::SimDuration(self.timeout.0 << p.attempts);
                p.deadline = now.plus(backoff);
                due.push(p.record.clone());
            }
        }
        due
    }

    /// Take every record still awaiting an ack, clearing the tracker. Used
    /// when an intake instance dies hard: the unacked in-flight records are
    /// handed back to its joint subscription so the successor re-emits them,
    /// closing the at-least-once window for records that were sitting in
    /// the intake's output port when the node went down (§6.2.2). Oldest
    /// first: ids are handed out in tracking order.
    pub fn drain_pending(&self) -> Vec<Record> {
        let mut pending: Vec<Record> = self.pending.lock().drain().map(|(_, p)| p.record).collect();
        pending.sort_unstable_by_key(|r| r.id);
        pending
    }

    /// Records still awaiting acks.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }
}

impl std::fmt::Debug for AckTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "AckTracker(partition={}, pending={})",
            self.partition,
            self.pending_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::with_scale(10.0)
    }

    fn rec(payload: &str) -> Record {
        Record::untracked(0, payload.to_string())
    }

    #[test]
    fn track_assigns_unique_ids_and_stamps_partition() {
        let (_tx, rx) = crossbeam_channel::unbounded();
        let t = AckTracker::new(3, rx, SimDuration::from_secs(1), clock());
        let a = t.track(&rec("a"));
        let b = t.track(&rec("b"));
        assert!(a.is_tracked());
        assert_ne!(a.id, b.id);
        assert_eq!(a.adaptor, 3);
        assert_eq!(t.pending_count(), 2);
    }

    #[test]
    fn acks_release_pending_records() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let t = AckTracker::new(0, rx, SimDuration::from_secs(1), clock());
        let a = t.track(&rec("a"));
        let b = t.track(&rec("b"));
        tx.send(AckBatch {
            source: 0,
            ids: vec![a.id],
        })
        .unwrap();
        t.process_acks();
        assert_eq!(t.pending_count(), 1);
        tx.send(AckBatch {
            source: 0,
            ids: vec![b.id],
        })
        .unwrap();
        t.process_acks();
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn unacked_records_replay_after_timeout() {
        let c = clock();
        let (_tx, rx) = crossbeam_channel::unbounded();
        let t = AckTracker::new(0, rx, SimDuration::from_millis(500), c.clone());
        let a = t.track(&rec("a"));
        assert!(t.due_replays().is_empty(), "not due yet");
        c.sleep(SimDuration::from_millis(600));
        let due = t.due_replays();
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].id, a.id);
        // deadline re-armed with exponential backoff: not due after one more
        // base timeout...
        assert!(t.due_replays().is_empty());
        c.sleep(SimDuration::from_millis(600));
        assert!(t.due_replays().is_empty(), "backoff doubled the deadline");
        // ...but due again after the doubled timeout elapses
        c.sleep(SimDuration::from_millis(600));
        let again = t.due_replays();
        assert_eq!(again.len(), 1);
        assert_eq!(again[0].id, a.id, "the same record, replayed again");
    }

    #[test]
    fn drain_pending_takes_unacked_records() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let t = AckTracker::new(0, rx, SimDuration::from_secs(1), clock());
        let a = t.track(&rec("a"));
        let b = t.track(&rec("b"));
        tx.send(AckBatch {
            source: 0,
            ids: vec![a.id],
        })
        .unwrap();
        t.process_acks();
        let drained = t.drain_pending();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].id, b.id);
        assert_eq!(t.pending_count(), 0);
    }

    #[test]
    fn sender_groups_by_source_and_windows() {
        let c = clock();
        let (tx0, rx0) = crossbeam_channel::unbounded();
        let (tx1, rx1) = crossbeam_channel::unbounded();
        let mut s = AckSender::new(vec![tx0, tx1], SimDuration::from_millis(200), c.clone());
        s.ack(&Record::tracked(RecordId(1), 0, "x"));
        s.ack(&Record::tracked(RecordId(2), 1, "y"));
        s.ack(&Record::tracked(RecordId(3), 0, "z"));
        assert!(rx0.try_recv().is_err(), "window not elapsed");
        c.sleep(SimDuration::from_millis(250));
        s.ack(&Record::tracked(RecordId(4), 0, "w")); // triggers window flush
        let b0 = rx0.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(b0.source, 0);
        assert!(b0.ids.contains(&RecordId(1)) && b0.ids.contains(&RecordId(3)));
        let b1 = rx1.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(b1.ids, vec![RecordId(2)]);
    }

    #[test]
    fn sender_flushes_on_drop() {
        let (tx, rx) = crossbeam_channel::unbounded();
        {
            let mut s = AckSender::new(vec![tx], SimDuration::from_secs(100), clock());
            s.ack(&Record::tracked(RecordId(9), 0, "x"));
        }
        let b = rx.try_recv().unwrap();
        assert_eq!(b.ids, vec![RecordId(9)]);
    }

    #[test]
    fn untracked_records_are_not_acked() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let mut s = AckSender::new(vec![tx], SimDuration::from_millis(1), clock());
        s.ack(&rec("no id"));
        s.flush();
        assert!(rx.try_recv().is_err());
    }
}
