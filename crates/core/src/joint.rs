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
//!
//! Nobody polls a joint on a timer either; both sides are woken:
//!
//! * a subscription carries its consumer's [`WakeHook`], fired when its
//!   queue goes from empty to not empty — by a deposit or a hand-back — and
//!   when the joint retires;
//! * a depositor that has to wait for its subscribers (its queue is full,
//!   it holds a partial frame behind a backlog, nobody has subscribed yet)
//!   registers a [`JointDepositor`] and arms it; it is woken when a
//!   subscriber drains its queue empty or the set of subscribers changes.

use asterix_common::sync::atomic::{AtomicBool, Ordering};
use asterix_common::sync::Mutex;
use asterix_common::{DataFrame, IngestError, IngestResult};
use asterix_hyracks::WakeHook;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

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

/// One subscription's queue and its consumer's waker.
#[derive(Default)]
struct SubQueue {
    frames: VecDeque<Queued>,
    /// Fired on the queue's empty → not-empty edge.
    waker: Option<WakeHook>,
}

impl SubQueue {
    /// The waker to fire after `frames` were added to this queue, if it
    /// was empty before.
    fn woken_by_push(&self, pushed: usize) -> Option<WakeHook> {
        (self.frames.len() == pushed && pushed > 0)
            .then(|| self.waker.clone())
            .flatten()
    }
}

/// One subscription's queue, shared by the joint and every handle on it.
type Queue = Arc<Mutex<SubQueue>>;

/// A depositor's waker and whether it waits for a drain.
struct DepositorSlot {
    wake: WakeHook,
    armed: AtomicBool,
}

/// A depositor's handle on a joint ([`FeedJoint::depositor`]); dropping it
/// unregisters the depositor's waker.
pub struct JointDepositor {
    joint: Arc<FeedJoint>,
    slot: Arc<DepositorSlot>,
}

impl JointDepositor {
    /// The joint deposited into.
    pub fn joint(&self) -> &Arc<FeedJoint> {
        &self.joint
    }

    /// Does `blocked` hold for the joint? If so, the depositor is woken
    /// once, the next time a subscriber drains its queue empty or the
    /// subscribers change. The waker is armed before `blocked` is read the
    /// second, deciding time, so a drain in between still wakes.
    pub fn waits_while(&self, blocked: impl Fn(&FeedJoint) -> bool) -> bool {
        if !blocked(&self.joint) {
            return false;
        }
        self.slot.armed.store(true, Ordering::SeqCst);
        blocked(&self.joint)
    }
}

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
    depositors: Mutex<Vec<Weak<DepositorSlot>>>,
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
            depositors: Mutex::new(Vec::new()),
        })
    }

    /// Register (or re-attach to) the subscription under `key`. A fresh key
    /// creates an empty queue; an existing key resumes its queue — including
    /// anything that accumulated while no consumer was attached. It sets no
    /// waker, and leaves a waking consumer's in place: the controller
    /// subscribes this way on an intake's behalf, racing the intake's own
    /// [`FeedJoint::subscribe_waking`].
    pub fn subscribe(self: &Arc<Self>, key: impl Into<String>) -> JointSubscription {
        self.attach(key.into(), None)
    }

    /// [`FeedJoint::subscribe`] for a consumer that parks while its queue is
    /// empty: `wake` fires when a deposit or hand-back makes it non-empty
    /// and when the joint retires. It replaces a predecessor's waker.
    pub fn subscribe_waking(
        self: &Arc<Self>,
        key: impl Into<String>,
        wake: WakeHook,
    ) -> JointSubscription {
        self.attach(key.into(), Some(wake))
    }

    fn attach(self: &Arc<Self>, key: String, wake: Option<WakeHook>) -> JointSubscription {
        let queue = {
            let mut inner = self.inner.lock();
            Arc::clone(inner.subscribers.entry(key.clone()).or_default())
        };
        if wake.is_some() {
            queue.lock().waker = wake;
        }
        // a depositor may be waiting for its first subscriber
        self.wake_depositors();
        JointSubscription {
            key,
            queue,
            joint: Arc::clone(self),
        }
    }

    /// Register a depositor, woken by `wake` when it waits
    /// ([`JointDepositor::waits_while`]) and a subscriber drains its queue
    /// empty or the subscribers change.
    pub fn depositor(self: &Arc<Self>, wake: WakeHook) -> JointDepositor {
        let slot = Arc::new(DepositorSlot {
            wake,
            armed: AtomicBool::new(false),
        });
        let mut depositors = self.depositors.lock();
        depositors.retain(|d| d.strong_count() > 0);
        depositors.push(Arc::downgrade(&slot));
        JointDepositor {
            joint: Arc::clone(self),
            slot,
        }
    }

    /// Fire every armed depositor once.
    fn wake_depositors(&self) {
        let armed: Vec<Arc<DepositorSlot>> = self
            .depositors
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .filter(|d| d.armed.swap(false, Ordering::SeqCst))
            .collect();
        for d in armed {
            (d.wake)();
        }
    }

    /// Remove the subscription under `key` (graceful disconnect) and drop
    /// the frames queued for it; other subscribers are unaffected.
    pub fn unsubscribe(&self, key: &str) {
        let queue = self.inner.lock().subscribers.remove(key);
        if let Some(queue) = queue {
            queue.lock().frames.clear();
            self.wake_depositors();
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
        let drained: Vec<Queued> = queue.lock().frames.drain(..).collect();
        self.wake_depositors();
        drained.into_iter().map(Queued::take).collect()
    }

    /// Put `frames` at the head of the subscription under `key`, in order,
    /// ahead of everything queued there, creating the subscription if it
    /// is missing, and wake its consumer if the queue was empty. A retired
    /// joint drops them: no consumer will come.
    pub fn hand_back(&self, key: &str, frames: Vec<HeldFrame>) {
        let queue = {
            let mut inner = self.inner.lock();
            if inner.retired {
                return;
            }
            Arc::clone(inner.subscribers.entry(key.to_string()).or_default())
        };
        let wake = {
            let mut queue = queue.lock();
            let pushed = frames.len();
            for held in frames.into_iter().rev() {
                queue.frames.push_front(Queued {
                    frame: Arc::new(held.frame),
                    handed_back: held.handed_back,
                });
            }
            queue.woken_by_push(pushed)
        };
        if let Some(wake) = wake {
            wake();
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
        let fullest = inner
            .subscribers
            .values()
            .map(|q| q.lock().frames.len())
            .max();
        fullest.unwrap_or(0)
    }

    /// Frames queued for the fastest subscriber: 0 while some subscriber
    /// (or nobody) waits for the next frame.
    pub fn shortest_backlog(&self) -> usize {
        let inner = self.inner.lock();
        let shortest = inner
            .subscribers
            .values()
            .map(|q| q.lock().frames.len())
            .min();
        shortest.unwrap_or(0)
    }

    /// Frames the fullest subscriber queue can still take within its bound.
    /// A depositor running on a scheduler worker probes this first and
    /// yields while there is no room for its next burst. A point-in-time
    /// read: exact for a joint's lone depositor, while depositors racing on
    /// one joint can each overshoot by their own burst.
    pub fn headroom(&self) -> usize {
        SUBSCRIBER_QUEUE_CAP.saturating_sub(self.backlog())
    }

    /// Deposit a frame onto every subscriber queue; it never waits, and it
    /// wakes each subscriber whose queue was empty. No subscribers → the
    /// frame is dropped (the collect operator defers adaptor creation until
    /// someone subscribes, so this only happens in teardown windows).
    pub fn deposit(&self, frame: DataFrame) -> IngestResult<()> {
        let mut woken = Vec::new();
        {
            let inner = self.inner.lock();
            if inner.retired {
                return Err(IngestError::Disconnected(format!(
                    "joint {} retired",
                    self.id
                )));
            }
            let frame = Arc::new(frame);
            for queue in inner.subscribers.values() {
                let mut queue = queue.lock();
                queue.frames.push_back(Queued {
                    frame: Arc::clone(&frame),
                    handed_back: false,
                });
                woken.extend(queue.woken_by_push(1));
            }
        }
        for wake in woken {
            wake();
        }
        Ok(())
    }

    /// Retire the joint: further deposits and hand-backs fail, and each
    /// subscriber — woken now — sees end-of-stream once its queue is empty.
    /// Used when a feed is dismantled entirely.
    pub fn retire(&self) {
        let woken: Vec<WakeHook> = {
            let mut inner = self.inner.lock();
            inner.retired = true;
            inner
                .subscribers
                .values()
                .filter_map(|q| q.lock().waker.clone())
                .collect()
        };
        for wake in woken {
            wake();
        }
        self.wake_depositors();
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
    /// Taking the last frame wakes the joint's armed depositors.
    pub fn try_recv(&self) -> Option<JointRecv> {
        // the queue lock is released here, before the joint lock is taken:
        // deposits lock the joint first
        let (next, drained) = {
            let mut queue = self.queue.lock();
            let next = queue.frames.pop_front();
            (next, queue.frames.is_empty())
        };
        let Some(next) = next else {
            return self.joint.is_retired().then_some(JointRecv::Retired);
        };
        if drained {
            self.joint.wake_depositors();
        }
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

    /// A wake hook and the number of times it fired.
    fn counting_hook() -> (WakeHook, Arc<std::sync::atomic::AtomicUsize>) {
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = Arc::clone(&fired);
        let hook: WakeHook = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        (hook, fired)
    }

    #[test]
    fn a_deposit_into_an_empty_queue_wakes_its_subscriber_once() {
        let joint = FeedJoint::new("F");
        let (hook, fired) = counting_hook();
        let sub = joint.subscribe_waking("a", hook);
        let _polling = joint.subscribe("b"); // no waker: nothing to fire
                                             // subscribing without a waker (as the controller does on an
                                             // intake's behalf) keeps the consumer's
        drop(joint.subscribe("a"));
        joint.deposit(frame(0..1)).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "empty → non-empty");
        joint.deposit(frame(1..2)).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "already non-empty");
        assert_eq!(drain(&sub), fresh(&[0, 1]));
        joint.deposit(frame(2..3)).unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 2, "empty again");
    }

    #[test]
    fn draining_a_queue_empty_wakes_the_waiting_depositors() {
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe("a");
        let (hook, fired) = counting_hook();
        let depositor = joint.depositor(hook);
        let (idle_hook, idle_fired) = counting_hook();
        let _idle = joint.depositor(idle_hook); // never waits
        joint.deposit(frame(0..1)).unwrap();
        joint.deposit(frame(1..2)).unwrap();
        assert!(depositor.waits_while(|j| j.backlog() > 0));
        assert!(matches!(sub.try_recv(), Some(JointRecv::Frame(_))));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "one frame still queued");
        assert!(matches!(sub.try_recv(), Some(JointRecv::Frame(_))));
        assert_eq!(fired.load(Ordering::SeqCst), 1, "drained empty");
        assert_eq!(idle_fired.load(Ordering::SeqCst), 0, "it did not wait");
        // a wait is woken once: the next drain finds nobody waiting
        joint.deposit(frame(2..3)).unwrap();
        assert!(sub.try_recv().is_some());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // a condition that does not hold arms nothing
        assert!(!depositor.waits_while(|j| j.backlog() > 0));
        joint.deposit(frame(3..4)).unwrap();
        assert!(sub.try_recv().is_some());
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // a new subscriber is what a depositor waits for before the first
        assert!(depositor.waits_while(|j| j.subscriber_count() < 2));
        let _second = joint.subscribe("b");
        assert_eq!(fired.load(Ordering::SeqCst), 2, "subscribe wakes");
        // a dropped depositor is forgotten
        drop(depositor);
        assert!(joint
            .depositors
            .lock()
            .iter()
            .any(|d| d.strong_count() == 0));
        let _third = joint.depositor(counting_hook().0);
        assert_eq!(joint.depositors.lock().len(), 2, "pruned on register");
    }

    #[test]
    fn hand_back_and_retire_wake_the_subscriber() {
        let joint = FeedJoint::new("F");
        let (hook, fired) = counting_hook();
        let sub = joint.subscribe_waking("p#p0", hook);
        sub.hand_back(vec![frame(0..10), frame(10..20)]);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hand-back into empty");
        assert_eq!(drain(&sub), vec![(0, true), (10, true)]);
        let (waiting, depositor_fired) = counting_hook();
        let depositor = joint.depositor(waiting);
        assert!(depositor.waits_while(|j| !j.is_retired()));
        joint.retire();
        assert_eq!(fired.load(Ordering::SeqCst), 2, "retire wakes");
        assert_eq!(depositor_fired.load(Ordering::SeqCst), 1);
        assert!(matches!(sub.try_recv(), Some(JointRecv::Retired)));
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
