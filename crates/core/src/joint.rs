//! Feed joints (§5.4).
//!
//! "A feed joint is a shared queue attached at the end of an operator such
//! that all data frames output by the operator are deposited into the
//! queue ... it acts as a bridge for data to flow from an ingestion
//! pipeline to another." Joints give the cascade network its two essential
//! properties (§5.4.1):
//!
//! * **Guaranteed delivery** — every data frame reaches every registered
//!   subscriber. A deposit is one `Arc<DataFrame>` pushed onto every
//!   subscriber queue: the `Arc` is the paper's *data bucket* and its
//!   reference count the bucket's count of consumers yet to come. A
//!   consumer takes the frame itself when it holds the last reference and
//!   a shallow clone (refcounted payloads) otherwise, so one path serves
//!   one subscriber or many.
//! * **Congestion isolation** — each subscriber consumes from its own queue
//!   at its own pace; a slow path never stalls the others.
//!
//! A joint is a *durable rendezvous point* owned by its node's Feed
//! Manager: it outlives the jobs writing to and reading from it.
//! Subscriptions are keyed (`<prefix>#p<n>`), and a subscription is the
//! node's one custody queue for its key. A rebuilt pipeline re-attaches to
//! its old subscription — what accumulated while it was down is the
//! paper's "buffer mode" during failure recovery — and a dying consumer
//! hands the frames it took but did not finish back to the head of its own
//! subscription ([`FeedJoint::hand_back`]): the paper's *zombie state*
//! (§6.2.2). Handed-back frames carry a mark, so the successor takes them
//! first and knows they are not new arrivals.
//!
//! Nothing here blocks. The queue bound is soft: depositors probe
//! [`FeedJoint::headroom`] and yield while it is short, and a deposit into
//! a full queue still lands.

use asterix_common::sync::Mutex;
use asterix_common::{DataFrame, IngestError, IngestResult};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A frame in a subscription's custody.
#[derive(Debug, Clone, PartialEq)]
pub struct HeldFrame {
    /// The frame.
    pub frame: DataFrame,
    /// A consumer took it once already (and counted its records then) and
    /// handed it back when it died.
    pub handed_back: bool,
}

impl HeldFrame {
    /// `frame`, marked as handed back.
    pub fn handed_back(frame: DataFrame) -> HeldFrame {
        HeldFrame {
            frame,
            handed_back: true,
        }
    }
}

/// A queue entry: the shared bucket and the hand-back mark.
struct Queued {
    frame: Arc<DataFrame>,
    handed_back: bool,
}

impl Queued {
    /// The frame by value: the last holder of the bucket takes it, the
    /// others clone it.
    fn take(self) -> HeldFrame {
        let frame = Arc::try_unwrap(self.frame).unwrap_or_else(|shared| (*shared).clone());
        HeldFrame {
            frame,
            handed_back: self.handed_back,
        }
    }
}

/// One subscription's queue, shared by the joint and every handle on it.
type Queue = Arc<Mutex<VecDeque<Queued>>>;

/// Per-subscriber queue bound, in frames. Congestion isolation holds up to
/// this depth; past it, depositors yield (they read [`FeedJoint::headroom`])
/// instead of growing memory without bound.
const SUBSCRIBER_QUEUE_CAP: usize = 1024;

struct JointInner {
    subscribers: HashMap<String, Queue>,
    retired: bool,
}

/// A feed joint.
pub struct FeedJoint {
    /// Symbolic id: `<feed>` or `<feed>:f1:...:fN` (§5.3.1).
    pub id: String,
    inner: Mutex<JointInner>,
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
        })
    }

    /// Register (or re-attach to) the subscription under `key`. A fresh key
    /// creates an empty queue; an existing key resumes its queue — including
    /// anything that accumulated while no consumer was attached.
    pub fn subscribe(self: &Arc<Self>, key: impl Into<String>) -> JointSubscription {
        let key = key.into();
        let queue = {
            let mut inner = self.inner.lock();
            Arc::clone(inner.subscribers.entry(key.clone()).or_default())
        };
        JointSubscription {
            key,
            queue,
            joint: Arc::clone(self),
        }
    }

    /// Remove the subscription under `key` (graceful disconnect) and drop
    /// the frames queued for it; other subscribers are unaffected.
    pub fn unsubscribe(&self, key: &str) {
        let queue = self.inner.lock().subscribers.remove(key);
        if let Some(queue) = queue {
            queue.lock().clear();
        }
    }

    /// Remove the subscription under `key` and return its frames in queue
    /// order, marks kept. When scaling moves a partition off a node, its
    /// successor subscribes elsewhere; the controller hands these frames
    /// back to the successor's subscription there.
    pub fn detach_queued(&self, key: &str) -> Vec<HeldFrame> {
        let queue = self.inner.lock().subscribers.remove(key);
        let Some(queue) = queue else {
            return Vec::new();
        };
        let drained: Vec<Queued> = queue.lock().drain(..).collect();
        drained.into_iter().map(Queued::take).collect()
    }

    /// Put `frames` at the head of the subscription under `key`, in order,
    /// ahead of everything queued there, creating the subscription if it
    /// is missing. A retired joint drops them: no consumer will come.
    pub fn hand_back(&self, key: &str, frames: Vec<HeldFrame>) {
        let queue = {
            let mut inner = self.inner.lock();
            if inner.retired {
                return;
            }
            Arc::clone(inner.subscribers.entry(key.to_string()).or_default())
        };
        let mut queue = queue.lock();
        for held in frames.into_iter().rev() {
            queue.push_front(Queued {
                frame: Arc::new(held.frame),
                handed_back: held.handed_back,
            });
        }
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
    /// then fail).
    pub fn backlog(&self) -> usize {
        let inner = self.inner.lock();
        if inner.retired {
            return 0;
        }
        let fullest = inner.subscribers.values().map(|q| q.lock().len()).max();
        fullest.unwrap_or(0)
    }

    /// Frames the fullest subscriber queue can still take within its bound.
    /// A depositor running on a scheduler worker probes this first and
    /// yields while there is no room for its next burst. A point-in-time
    /// read: exact for a joint's lone depositor, while depositors racing on
    /// one joint can each overshoot by their own burst.
    pub fn headroom(&self) -> usize {
        SUBSCRIBER_QUEUE_CAP.saturating_sub(self.backlog())
    }

    /// Deposit a frame onto every subscriber queue; it never waits. No
    /// subscribers → the frame is dropped (the collect operator defers
    /// adaptor creation until someone subscribes, so this only happens in
    /// teardown windows).
    pub fn deposit(&self, frame: DataFrame) -> IngestResult<()> {
        let inner = self.inner.lock();
        if inner.retired {
            return Err(IngestError::Disconnected(format!(
                "joint {} retired",
                self.id
            )));
        }
        let frame = Arc::new(frame);
        for queue in inner.subscribers.values() {
            queue.lock().push_back(Queued {
                frame: Arc::clone(&frame),
                handed_back: false,
            });
        }
        Ok(())
    }

    /// Retire the joint: further deposits and hand-backs fail, and each
    /// subscriber sees end-of-stream once its queue is empty. Used when a
    /// feed is dismantled entirely.
    pub fn retire(&self) {
        self.inner.lock().retired = true;
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

/// What a subscription yields.
#[derive(Debug)]
pub enum JointRecv {
    /// A frame the producer deposited.
    Frame(DataFrame),
    /// A frame a predecessor consumer took, did not finish and handed back.
    HandedBack(DataFrame),
    /// The joint was retired and the queue is empty; no more data will
    /// arrive.
    Retired,
}

/// A consumer's handle on its joint subscription.
pub struct JointSubscription {
    /// Subscription key (stable across pipeline rebuilds).
    pub key: String,
    queue: Queue,
    joint: Arc<FeedJoint>,
}

impl JointSubscription {
    /// Take the next frame without waiting: `None` when the queue is empty.
    pub fn try_recv(&self) -> Option<JointRecv> {
        // the queue lock is released here, before the joint lock is taken:
        // deposits lock the joint first
        let next = self.queue.lock().pop_front();
        let Some(next) = next else {
            return self.joint.is_retired().then_some(JointRecv::Retired);
        };
        let held = next.take();
        Some(match held.handed_back {
            true => JointRecv::HandedBack(held.frame),
            false => JointRecv::Frame(held.frame),
        })
    }

    /// Hand `frames` back to the head of this subscription, marked, for
    /// whoever consumes it next ([`FeedJoint::hand_back`]).
    pub fn hand_back(&self, frames: Vec<DataFrame>) {
        let held = frames.into_iter().map(HeldFrame::handed_back).collect();
        self.joint.hand_back(&self.key, held);
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

    /// Everything queued for `sub`, as (first record id, handed back).
    fn drain(sub: &JointSubscription) -> Vec<(u64, bool)> {
        let mut got = Vec::new();
        loop {
            match sub.try_recv() {
                Some(JointRecv::Frame(f)) => got.push((f.records()[0].id.raw(), false)),
                Some(JointRecv::HandedBack(f)) => got.push((f.records()[0].id.raw(), true)),
                Some(JointRecv::Retired) | None => return got,
            }
        }
    }

    fn fresh(ids: &[u64]) -> Vec<(u64, bool)> {
        ids.iter().map(|&i| (i, false)).collect()
    }

    #[test]
    fn single_subscriber_gets_every_frame_in_order() {
        let joint = FeedJoint::new("TwitterFeed");
        let sub = joint.subscribe("conn1");
        joint.deposit(frame(0..3)).unwrap();
        joint.deposit(frame(3..5)).unwrap();
        let first = match sub.try_recv() {
            Some(JointRecv::Frame(f)) => f,
            other => panic!("expected a frame, got {other:?}"),
        };
        assert_eq!(first, frame(0..3), "the frame itself, records intact");
        assert_eq!(drain(&sub), fresh(&[3]));
    }

    #[test]
    fn shared_mode_guarantees_delivery_to_all() {
        let joint = FeedJoint::new("TwitterFeed");
        let s1 = joint.subscribe("conn1");
        let s2 = joint.subscribe("conn2");
        joint.deposit(frame(0..5)).unwrap();
        joint.deposit(frame(5..10)).unwrap();
        assert_eq!(drain(&s1), fresh(&[0, 5]));
        assert_eq!(drain(&s2), fresh(&[0, 5]));
    }

    #[test]
    fn subscribers_coming_and_going_see_what_was_deposited_meanwhile() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        joint.deposit(frame(0..1)).unwrap();
        let s2 = joint.subscribe("b");
        joint.deposit(frame(1..2)).unwrap();
        assert_eq!(drain(&s2), fresh(&[1]), "b joined after frame 0");
        joint.unsubscribe("b");
        joint.deposit(frame(2..3)).unwrap();
        assert_eq!(drain(&s2), fresh(&[]), "b left before frame 2");
        assert_eq!(drain(&s1), fresh(&[0, 1, 2]), "a saw all three");
    }

    #[test]
    fn congestion_isolation_slow_subscriber_does_not_block() {
        let joint = FeedJoint::new("F");
        let fast = joint.subscribe("fast");
        let slow = joint.subscribe("slow");
        for i in 0..50 {
            joint.deposit(frame(i * 10..i * 10 + 10)).unwrap();
        }
        // the fast subscriber consumes everything at once...
        assert_eq!(drain(&fast).len(), 50);
        // ...while the slow one still holds all 50
        assert_eq!(joint.backlog(), 50);
        assert_eq!(drain(&slow).len(), 50);
    }

    #[test]
    fn unsubscribe_drops_only_that_queue() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        let s2 = joint.subscribe("b");
        joint.deposit(frame(0..1)).unwrap();
        joint.unsubscribe("b");
        assert_eq!(joint.subscriber_count(), 1);
        assert_eq!(drain(&s2), fresh(&[]), "b's queued frame is gone");
        assert_eq!(drain(&s1), fresh(&[0]), "a still has its copy");
    }

    #[test]
    fn reattach_resumes_the_same_queue() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("conn1");
        joint.deposit(frame(0..2)).unwrap();
        drop(s1); // consumer died without unsubscribing (pipeline failure)
        joint.deposit(frame(2..4)).unwrap(); // buffer mode: queue accumulates
        let s1b = joint.subscribe("conn1"); // rebuilt pipeline re-attaches
        assert_eq!(drain(&s1b), fresh(&[0, 2]));
    }

    #[test]
    fn a_deposit_never_waits_and_a_full_queue_reads_no_headroom() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("stalled");
        for i in 0..SUBSCRIBER_QUEUE_CAP as u64 {
            joint.deposit(frame(i..i + 1)).unwrap();
        }
        assert_eq!(joint.headroom(), 0);
        // past the bound the deposit still lands, at once
        joint.deposit(frame(5000..5001)).unwrap();
        assert_eq!(joint.backlog(), SUBSCRIBER_QUEUE_CAP + 1);
        assert_eq!(joint.headroom(), 0);
        assert_eq!(drain(&sub).len(), SUBSCRIBER_QUEUE_CAP + 1);
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
        drain(&fast);
        assert_eq!(joint.backlog(), 3);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP - 3);
        // a retired joint fails deposits instead of counting them
        joint.retire();
        assert_eq!(joint.backlog(), 0);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP);
    }

    #[test]
    fn handed_back_frames_come_out_first_and_marked() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("p#p0");
        joint.deposit(frame(20..30)).unwrap();
        joint.deposit(frame(30..40)).unwrap();
        sub.hand_back(vec![frame(0..10), frame(10..20)]);
        assert_eq!(
            drain(&sub),
            vec![(0, true), (10, true), (20, false), (30, false)]
        );
    }

    #[test]
    fn hand_back_creates_a_missing_subscription() {
        let joint = FeedJoint::new("F");
        joint.hand_back("p#p1", vec![HeldFrame::handed_back(frame(0..1))]);
        assert_eq!(joint.subscriber_count(), 1);
        // the successor subscribes later and finds the frame waiting
        let sub = joint.subscribe("p#p1");
        assert_eq!(drain(&sub), vec![(0, true)]);
    }

    #[test]
    fn detach_queued_keeps_marks_and_order() {
        let joint = FeedJoint::new("F");
        let s1 = joint.subscribe("a");
        let _s2 = joint.subscribe("b");
        joint.deposit(frame(10..20)).unwrap();
        joint.deposit(frame(20..30)).unwrap();
        joint.hand_back("b", vec![HeldFrame::handed_back(frame(0..10))]);
        assert_eq!(drain(&s1), fresh(&[10, 20]), "`a` is unaffected");
        let detached = joint.detach_queued("b");
        let got: Vec<(u64, bool)> = detached
            .iter()
            .map(|h| (h.frame.records()[0].id.raw(), h.handed_back))
            .collect();
        assert_eq!(got, vec![(0, true), (10, false), (20, false)]);
        assert_eq!(joint.subscriber_count(), 1);
        // handed on to a successor's subscription, marks and order hold
        let successor = FeedJoint::new("F");
        let sub = successor.subscribe("b'");
        successor.deposit(frame(90..91)).unwrap();
        successor.hand_back("b'", detached);
        assert_eq!(
            drain(&sub),
            vec![(0, true), (10, false), (20, false), (90, false)]
        );
        // detaching an unknown key is a harmless no-op
        assert!(joint.detach_queued("nope").is_empty());
    }

    #[test]
    fn a_retired_joint_drops_handed_back_frames() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        joint.retire();
        sub.hand_back(vec![frame(0..5)]);
        assert!(matches!(sub.try_recv(), Some(JointRecv::Retired)));
        joint.hand_back("b", vec![HeldFrame::handed_back(frame(0..5))]);
        assert_eq!(joint.subscriber_count(), 1, "no entry created");
    }

    #[test]
    fn deposit_with_no_subscribers_drops() {
        let joint = FeedJoint::new("F");
        joint.deposit(frame(0..5)).unwrap();
        let late = joint.subscribe("late");
        assert!(late.try_recv().is_none(), "nothing was kept for later");
    }

    #[test]
    fn retire_ends_streams_after_the_queue_and_rejects_deposits() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        assert!(sub.try_recv().is_none(), "empty, not ended");
        joint.deposit(frame(0..1)).unwrap();
        joint.retire();
        assert!(joint.is_retired());
        assert!(matches!(sub.try_recv(), Some(JointRecv::Frame(_))));
        assert!(matches!(sub.try_recv(), Some(JointRecv::Retired)));
        assert!(joint.deposit(frame(1..2)).is_err());
    }
}
