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
//! A subscription is also its consumer's one *excess* queue (Chapter 7): a
//! push source cannot be slowed down (§4). Its first [`IN_MEMORY_FRAMES`]
//! frames wait in memory; a frame deposited past them is excess, and the
//! connection's policy, which the subscription carries ([`ExcessPolicy`]),
//! decides its fate at once (Table 4.2): Spill appends it to the
//! subscription's [`SpillFile`] (FIFO: while the file holds anything every
//! arrival goes there, and the consumer takes memory first), Discard drops
//! it, Throttle samples it, and Basic and Elastic buffer it — the only two
//! policies that may back-pressure a source. Nothing here blocks: the queue
//! bound is soft, depositors probe [`FeedJoint::headroom`], which reads only
//! the subscriptions that buffer their excess, and yield while it is short.
//!
//! Nobody polls a joint on a timer either; both sides are woken:
//!
//! * a subscription carries its consumer's [`WakeHook`], fired when its
//!   queue goes from empty to not empty — by a deposit or a hand-back —,
//!   when its policy ends the feed and when the joint retires;
//! * a depositor that has to wait for its subscribers (its queue is full,
//!   it holds a partial frame behind a backlog, nobody has subscribed yet)
//!   registers a [`JointDepositor`] and arms it; it is woken when a
//!   subscriber drains its queue empty or the set of subscribers changes.

use crate::metrics::FeedMetrics;
use crate::policy::{ExcessStrategy, IngestionPolicy};
use asterix_common::sync::atomic::{AtomicBool, Ordering};
use asterix_common::sync::Mutex;
use asterix_common::{DataFrame, FeedId, IngestError, IngestResult};
use asterix_hyracks::job::DEFAULT_QUEUE_CAPACITY;
use asterix_hyracks::WakeHook;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Weak};

/// Frames a subscription holds in memory before what arrives is excess:
/// the port's worth its consumer, an intake, writes into.
pub const IN_MEMORY_FRAMES: usize = DEFAULT_QUEUE_CAPACITY;

/// Per-subscriber queue bound, in frames. Congestion isolation holds up to
/// this depth; past it, depositors yield (they read [`FeedJoint::headroom`])
/// instead of growing memory without bound.
pub const SUBSCRIBER_QUEUE_CAP: usize = 1024;

/// Serialized frames on the simulated local disk. A segment is one frame in
/// the shared record codec ([`DataFrame::encode_into`]): the payload bytes
/// go to disk and come back verbatim.
#[derive(Debug, Default)]
pub struct SpillFile {
    segments: VecDeque<Vec<u8>>,
    bytes: usize,
}

impl SpillFile {
    /// Append a frame (serialized). The generation stamp spills with each
    /// record so ingestion lag keeps counting time spent on disk.
    pub fn push(&mut self, frame: &DataFrame) {
        let mut buf = Vec::with_capacity(frame.size_bytes() + 16);
        frame.encode_into(&mut buf);
        self.bytes += buf.len();
        self.segments.push_back(buf);
    }

    /// Read back the oldest frame; a truncated or corrupt segment is a
    /// storage error (and is gone from the file).
    pub fn pop(&mut self) -> Option<IngestResult<DataFrame>> {
        let buf = self.segments.pop_front()?;
        self.bytes -= buf.len();
        Some(
            DataFrame::decode(&buf)
                .map_err(|e| IngestError::Storage(format!("corrupt spill segment: {e}"))),
        )
    }

    /// Bytes currently on disk.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Spilled frames waiting.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Any spilled frames waiting?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// What a subscription does with its excess: its connection's ingestion
/// policy, the metrics it counts into, and the feed a blown budget ends.
#[derive(Clone)]
pub struct ExcessPolicy {
    /// The connection's policy.
    pub policy: IngestionPolicy,
    /// The connection's metrics.
    pub metrics: Arc<FeedMetrics>,
    /// The feed `FeedTerminated` names.
    pub feed: FeedId,
}

impl ExcessPolicy {
    /// `policy` counting into `metrics` on behalf of `feed`.
    pub fn new(policy: IngestionPolicy, metrics: Arc<FeedMetrics>, feed: FeedId) -> ExcessPolicy {
        ExcessPolicy {
            policy,
            metrics,
            feed,
        }
    }
}

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
    fn fresh(frame: Arc<DataFrame>) -> Queued {
        Queued {
            frame,
            handed_back: false,
        }
    }

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

/// Throttle's sampler, seeded alike in every subscription.
struct Sampler(SmallRng);

impl Default for Sampler {
    fn default() -> Sampler {
        Sampler(SmallRng::seed_from_u64(0xF10C))
    }
}

/// One subscription's queue — memory, then buffered excess, then the spill
/// file, taken in that order — its policy and its consumer's waker.
#[derive(Default)]
struct SubQueue {
    /// Deposited while nothing was excess, and what consumers handed back.
    frames: VecDeque<Queued>,
    /// The excess the policy keeps in memory, and its bytes.
    excess: VecDeque<Queued>,
    excess_bytes: usize,
    /// The excess the policy spilled.
    spill: SpillFile,
    /// Fired on the queue's empty → not-empty edge and when the policy
    /// ends the feed.
    waker: Option<WakeHook>,
    /// Set when a consumer subscribes; without one, excess is buffered with
    /// no budget.
    policy: Option<Arc<ExcessPolicy>>,
    rng: Sampler,
    /// The current excess episode has bumped `elastic_scaleouts`.
    signalled: bool,
    /// The policy ended the feed: every take returns this, nothing queues.
    ended: Option<IngestError>,
}

impl SubQueue {
    /// Frames queued, in memory and spilled.
    fn len(&self) -> usize {
        self.frames.len() + self.excess.len() + self.spill.len()
    }

    /// Frames that hold depositors: none under a policy that spills, drops
    /// or samples its excess.
    fn holding(&self) -> usize {
        let strategy = self
            .policy
            .as_ref()
            .map(|p| p.policy.primary_excess_strategy());
        match strategy.unwrap_or(ExcessStrategy::Buffer) {
            ExcessStrategy::Buffer | ExcessStrategy::Elastic => {
                self.frames.len() + self.excess.len()
            }
            _ => 0,
        }
    }

    /// The waker to fire after frames were added, if the queue was empty
    /// (`before` frames) and now is not.
    fn woken_after(&self, before: usize) -> Option<WakeHook> {
        (before == 0 && self.len() > 0)
            .then(|| self.waker.clone())
            .flatten()
    }

    /// Queue a deposited frame, or hand it to the policy as excess; the
    /// consumer's waker if it has something new to take.
    fn push(&mut self, frame: &Arc<DataFrame>) -> Option<WakeHook> {
        if self.ended.is_some() {
            return None;
        }
        let before = self.len();
        if self.excess.is_empty() && self.spill.is_empty() && self.frames.len() < IN_MEMORY_FRAMES {
            self.frames.push_back(Queued::fresh(Arc::clone(frame)));
            return self.woken_after(before);
        }
        self.police(frame);
        self.publish();
        match self.ended {
            Some(_) => self.waker.clone(),
            None => self.woken_after(before),
        }
    }

    /// Apply the policy to one excess frame (Table 4.2).
    fn police(&mut self, frame: &Arc<DataFrame>) {
        let Some(p) = self.policy.clone() else {
            return self.buffer(frame, None);
        };
        let (policy, m) = (&p.policy, &p.metrics);
        match policy.primary_excess_strategy() {
            ExcessStrategy::Buffer => self.buffer(frame, Some(&p)),
            ExcessStrategy::Elastic => {
                if !std::mem::replace(&mut self.signalled, true) {
                    m.elastic_scaleouts.add(1);
                }
                self.buffer(frame, Some(&p))
            }
            ExcessStrategy::Spill => {
                let room = |max| self.spill.bytes() + frame.size_bytes() <= max;
                if policy.max_spill_bytes.is_none_or(room) {
                    self.spill(frame, m);
                } else if policy.overflow_strategy() == ExcessStrategy::Throttle {
                    self.throttle(frame, &p);
                } else {
                    // the spill is full: its overflow strategy (Listing 4.6)
                    m.records_discarded.add(frame.len() as u64);
                }
            }
            ExcessStrategy::Discard => m.records_discarded.add(frame.len() as u64),
            ExcessStrategy::Throttle => self.throttle(frame, &p),
        }
    }

    /// Keep `frame` in memory, or end the feed if that exceeds the memory
    /// budget of `policy`.
    fn buffer(&mut self, frame: &Arc<DataFrame>, policy: Option<&ExcessPolicy>) {
        let size = frame.size_bytes();
        let blown = |p: &&ExcessPolicy| self.excess_bytes + size > p.policy.memory_budget_bytes;
        if let Some(p) = policy.filter(blown) {
            let (name, budget) = (&p.policy.name, p.policy.memory_budget_bytes);
            let reason = format!("policy {name}: in-memory excess buffer exceeded {budget} bytes");
            self.ended = Some(IngestError::FeedTerminated {
                feed: p.feed,
                reason,
            });
            return;
        }
        self.excess_bytes += size;
        self.excess.push_back(Queued::fresh(Arc::clone(frame)));
    }

    fn spill(&mut self, frame: &DataFrame, metrics: &FeedMetrics) {
        metrics.records_spilled.add(frame.len() as u64);
        self.spill.push(frame);
    }

    /// Keep a sample of `frame`'s records, queued behind the older excess
    /// and within the queue's bound.
    fn throttle(&mut self, frame: &DataFrame, p: &ExcessPolicy) {
        let keep = p.policy.throttle_keep_fraction;
        let rng = &mut self.rng.0;
        let kept: Vec<_> = (frame.records().iter())
            .filter(|_| rng.gen::<f64>() < keep)
            .cloned()
            .collect();
        let mut dropped = frame.len() - kept.len();
        if !kept.is_empty() {
            let kept = DataFrame::from_records(kept);
            if !self.spill.is_empty() {
                self.spill(&kept, &p.metrics);
            } else if self.frames.len() + self.excess.len() < SUBSCRIBER_QUEUE_CAP {
                self.excess_bytes += kept.size_bytes();
                self.excess.push_back(Queued::fresh(Arc::new(kept)));
            } else {
                dropped = frame.len();
            }
        }
        p.metrics.records_throttled.add(dropped as u64);
    }

    /// Refresh this queue's share of the gauges the governor samples: the
    /// excess bytes in memory and on disk, and the excess frames (in memory
    /// and spilled).
    fn publish(&self) {
        if let Some(p) = &self.policy {
            let frames = self.excess.len() + self.spill.len();
            p.metrics
                .excess_share(p, [self.excess_bytes, self.spill.bytes(), frames]);
        }
    }

    /// The oldest frame: memory, then excess, then the spill file. A spilled
    /// segment that no longer decodes is an error (and is gone).
    fn pop(&mut self) -> Option<IngestResult<Queued>> {
        if let Some(e) = &self.ended {
            return Some(Err(e.clone()));
        }
        if let Some(next) = self.frames.pop_front() {
            return Some(Ok(next));
        }
        let next = match self.excess.pop_front() {
            Some(next) => {
                self.excess_bytes -= next.frame.size_bytes();
                Ok(next)
            }
            None => {
                let frame = self.spill.pop()?;
                if let (Ok(frame), Some(p)) = (&frame, &self.policy) {
                    p.metrics.records_despilled.add(frame.len() as u64);
                }
                frame.map(|f| Queued::fresh(Arc::new(f)))
            }
        };
        // the excess drained: the next excess frame starts a new episode
        self.signalled &= self.excess.len() + self.spill.len() > 0;
        self.publish();
        Some(next)
    }

    /// Empty the queue: every intact frame, in the order it would be taken.
    fn take_all(&mut self) -> Vec<Queued> {
        self.ended = None;
        let mut all = Vec::with_capacity(self.len());
        while let Some(next) = self.pop() {
            all.extend(next.ok());
        }
        all
    }

    /// Drop everything queued.
    fn clear(&mut self) {
        *self = SubQueue {
            policy: self.policy.take(),
            ..SubQueue::default()
        };
        self.publish();
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
    /// anything that accumulated while no consumer was attached. It leaves
    /// the queue's policy and waker as they are.
    pub fn subscribe(self: &Arc<Self>, key: impl Into<String>) -> JointSubscription {
        self.attach(key.into(), None, None)
    }

    /// [`FeedJoint::subscribe`] under `policy`. It sets no waker, and leaves
    /// a waking consumer's in place: the controller subscribes this way on
    /// an intake's behalf, racing the intake's own
    /// [`FeedJoint::subscribe_waking`].
    pub fn subscribe_policed(
        self: &Arc<Self>,
        key: impl Into<String>,
        policy: ExcessPolicy,
    ) -> JointSubscription {
        self.attach(key.into(), None, Some(policy))
    }

    /// [`FeedJoint::subscribe_policed`] for a consumer that parks while its
    /// queue is empty: `wake` fires when a deposit or hand-back makes it
    /// non-empty, when the policy ends the feed and when the joint retires.
    /// It replaces a predecessor's waker.
    pub fn subscribe_waking(
        self: &Arc<Self>,
        key: impl Into<String>,
        wake: WakeHook,
        policy: ExcessPolicy,
    ) -> JointSubscription {
        self.attach(key.into(), Some(wake), Some(policy))
    }

    fn attach(
        self: &Arc<Self>,
        key: String,
        wake: Option<WakeHook>,
        policy: Option<ExcessPolicy>,
    ) -> JointSubscription {
        let queue = {
            let mut inner = self.inner.lock();
            Arc::clone(inner.subscribers.entry(key.clone()).or_default())
        };
        {
            let mut queue = queue.lock();
            if wake.is_some() {
                queue.waker = wake;
            }
            if let Some(policy) = policy {
                queue.policy = Some(Arc::new(policy));
            }
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

    /// Remove the subscription under `key` from the joint: nothing more is
    /// deposited for it, and the subscribers' set changed.
    fn remove(&self, key: &str) -> Option<Queue> {
        let queue = self.inner.lock().subscribers.remove(key);
        if queue.is_some() {
            self.wake_depositors();
        }
        queue
    }

    /// Remove the subscription under `key` and drop what it holds, spill
    /// included; other subscribers are unaffected.
    pub fn unsubscribe(&self, key: &str) {
        if let Some(queue) = self.remove(key) {
            queue.lock().clear();
        }
    }

    /// Remove the subscription under `key` and return what it holds in the
    /// order it would be taken — memory, marks kept, then the spilled
    /// frames, decoded. When scaling moves a partition off a node, its
    /// successor subscribes elsewhere; the controller hands these frames
    /// back to the successor's subscription there.
    pub fn detach_queued(&self, key: &str) -> Vec<HeldFrame> {
        let Some(queue) = self.remove(key) else {
            return Vec::new();
        };
        let drained = queue.lock().take_all();
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
            let before = queue.len();
            for held in frames.into_iter().rev() {
                queue.frames.push_front(Queued {
                    frame: Arc::new(held.frame),
                    handed_back: held.handed_back,
                });
            }
            queue.woken_after(before)
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

    /// `per_queue` of every subscriber queue, folded by `pick`; `None` with
    /// no subscriber, and once retired (deposits then fail).
    fn fold_queues(
        &self,
        per_queue: fn(&SubQueue) -> usize,
        pick: fn(usize, usize) -> usize,
    ) -> Option<usize> {
        let inner = self.inner.lock();
        if inner.retired {
            return None;
        }
        let counts = inner.subscribers.values().map(|q| per_queue(&q.lock()));
        counts.reduce(pick)
    }

    /// Frames queued for the slowest subscriber, spilled ones included.
    pub fn backlog(&self) -> usize {
        self.fold_queues(SubQueue::len, usize::max).unwrap_or(0)
    }

    /// Frames queued for the fastest subscriber: 0 while some subscriber
    /// (or nobody) waits for the next frame.
    pub fn shortest_backlog(&self) -> usize {
        self.fold_queues(SubQueue::len, usize::min).unwrap_or(0)
    }

    /// Frames the fullest subscriber queue that holds depositors (Basic,
    /// Elastic) can still take within its bound. A depositor running on a
    /// scheduler worker probes this first and yields while there is no room
    /// for its next burst. A point-in-time read: exact for a joint's lone
    /// depositor, while depositors racing on one joint can each overshoot
    /// by their own burst.
    pub fn headroom(&self) -> usize {
        let fullest = self.fold_queues(SubQueue::holding, usize::max);
        SUBSCRIBER_QUEUE_CAP.saturating_sub(fullest.unwrap_or(0))
    }

    /// Deposit a frame onto every subscriber queue, each applying its
    /// policy to it if it is excess; it never waits, and it wakes each
    /// subscriber that has something new to take. No subscribers → the
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
                woken.extend(queue.lock().push(&frame));
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
    /// The subscription cannot go on: its policy ended the feed, or a
    /// spilled segment no longer decodes.
    Failed(IngestError),
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
            let next = queue.pop();
            (next, queue.len() == 0)
        };
        let Some(next) = next else {
            return self.joint.is_retired().then_some(JointRecv::Retired);
        };
        if drained {
            self.joint.wake_depositors();
        }
        Some(match next.map(Queued::take) {
            Ok(held) if held.handed_back => JointRecv::HandedBack(held.frame),
            Ok(held) => JointRecv::Frame(held.frame),
            Err(e) => JointRecv::Failed(e),
        })
    }

    /// Hand `frames` back to the head of this subscription, marked, for
    /// whoever consumes it next ([`FeedJoint::hand_back`]).
    pub fn hand_back(&self, frames: Vec<DataFrame>) {
        let held = frames.into_iter().map(HeldFrame::handed_back).collect();
        self.joint.hand_back(&self.key, held);
    }

    /// Leave the joint gracefully: nothing more is deposited here, while
    /// what the subscription holds can still be taken.
    pub fn leave(&self) {
        self.joint.remove(&self.key);
    }

    /// End the subscription and drop what it holds.
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
    use crate::metrics::{detached, Readings};
    use asterix_common::{Record, RecordId, SimInstant};

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
                Some(JointRecv::Failed(e)) => panic!("{e}"),
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

    /// `policy` counting into fresh metrics, for the feed `FeedId(7)`.
    fn policed(policy: IngestionPolicy) -> (ExcessPolicy, Readings) {
        let (m, readings) = detached();
        (ExcessPolicy::new(policy, m, FeedId(7)), readings)
    }

    /// A joint with one subscription under `policy`, and its metrics.
    fn one_sub(policy: IngestionPolicy) -> (Arc<FeedJoint>, JointSubscription, Readings) {
        let joint = FeedJoint::new("F");
        let (policy, m) = policed(policy);
        let sub = joint.subscribe_policed("p#p0", policy);
        (joint, sub, m)
    }

    /// Deposit the ten-record frames numbered `frames`: ids `10 * n ..`.
    fn offer(joint: &FeedJoint, frames: std::ops::Range<u64>) {
        for n in frames {
            joint.deposit(frame(n * 10..n * 10 + 10)).unwrap();
        }
    }

    /// Take up to `n` frames; the ids of their records.
    fn take(sub: &JointSubscription, n: usize) -> Vec<u64> {
        let mut ids = Vec::new();
        for _ in 0..n {
            match sub.try_recv() {
                Some(JointRecv::Frame(f)) => ids.extend(f.records().iter().map(|r| r.id.raw())),
                None => break,
                other => panic!("{other:?}"),
            }
        }
        ids
    }

    /// Every frame's records, until the queue is empty.
    fn take_all(sub: &JointSubscription) -> Vec<u64> {
        take(sub, usize::MAX)
    }

    /// Excess starts past the memory window: frames past it.
    const M: u64 = IN_MEMORY_FRAMES as u64;

    #[test]
    fn a_deposit_into_an_empty_queue_wakes_its_subscriber_once() {
        let joint = FeedJoint::new("F");
        let (hook, fired) = counting_hook();
        let sub = joint.subscribe_waking("a", hook, policed(IngestionPolicy::basic()).0);
        // no waker: nothing to fire
        let _polling = joint.subscribe("b");
        // subscribing without a waker (as the controller does on an
        // intake's behalf) keeps the consumer's
        drop(joint.subscribe_policed("a", policed(IngestionPolicy::basic()).0));
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
        let sub = joint.subscribe_waking("p#p0", hook, policed(IngestionPolicy::spill()).0);
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
    #[test]
    fn basic_buffers_excess_and_holds_its_depositors() {
        let (joint, sub, m) = one_sub(IngestionPolicy::basic());
        offer(&joint, 0..M + 8);
        assert_eq!(m.get("handoff_queue_frames"), 8, "frames past the window");
        assert!(m.get("buffer_bytes") > 0);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP - M as usize - 8);
        assert!(
            take_all(&sub).into_iter().eq(0..(M + 8) * 10),
            "nothing lost"
        );
        assert_eq!(m.get("handoff_queue_frames"), 0);
        assert_eq!(m.get("buffer_bytes"), 0);
    }

    /// A subscription that leaves, and is dropped with its joint, takes its
    /// share of the excess gauges along: nothing holds those frames now.
    #[test]
    fn a_dropped_subscription_withdraws_its_excess_share() {
        let (joint, sub, m) = one_sub(IngestionPolicy::basic());
        offer(&joint, 0..M + 4);
        let held = 4 * frame(0..10).size_bytes() as u64;
        let read = || [m.get("handoff_queue_frames"), m.get("buffer_bytes")];
        assert_eq!(read(), [4, held]);
        sub.leave();
        drop((sub, joint));
        assert_eq!(read(), [0, 0], "the dropped subscription's share");
    }

    #[test]
    fn budget_blowout_ends_the_feed_with_its_real_id() {
        let (mut policy, _) = policed(IngestionPolicy::basic());
        policy.policy.memory_budget_bytes = 2000;
        let joint = FeedJoint::new("F");
        let (hook, fired) = counting_hook();
        let sub = joint.subscribe_waking("p#p0", hook, policy);
        let other = joint.subscribe("other");
        offer(&joint, 0..M);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // the excess buffer blows its budget: the depositor goes on
        offer(&joint, M..M + 100);
        assert_eq!(fired.load(Ordering::SeqCst), 2, "the consumer is told");
        match sub.try_recv() {
            Some(JointRecv::Failed(IngestError::FeedTerminated { feed, .. })) => {
                assert_eq!(feed, FeedId(7), "error must name the real feed")
            }
            other => panic!("expected FeedTerminated, got {other:?}"),
        }
        assert!(
            matches!(sub.try_recv(), Some(JointRecv::Failed(_))),
            "sticky"
        );
        assert_eq!(
            take_all(&other).len(),
            (M as usize + 100) * 10,
            "unaffected"
        );
    }

    #[test]
    fn discard_drops_excess_and_resumes() {
        let (joint, sub, m) = one_sub(IngestionPolicy::discard());
        offer(&joint, 0..M + 8);
        assert_eq!(m.get("records_discarded"), 80);
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP, "never holds");
        assert_eq!(take_all(&sub).len(), M as usize * 10, "the window");
        // the consumer caught up: the next frame flows again
        offer(&joint, 100..101);
        assert_eq!(take_all(&sub), (1000..1010).collect::<Vec<_>>());
        assert_eq!(m.get("records_discarded"), 80);
    }

    #[test]
    fn spill_defers_and_despills_in_order() {
        let (joint, sub, m) = one_sub(IngestionPolicy::spill());
        offer(&joint, 0..M + 8);
        assert_eq!(m.get("records_spilled"), 80);
        assert!(m.get("spill_bytes") > 0);
        assert_eq!(m.get("handoff_queue_frames"), 8, "one segment per frame");
        assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP, "never holds");
        assert_eq!(joint.backlog(), M as usize + 8, "spilled frames count");
        // the window drains below its bound, yet arrivals go behind the
        // spilled frames while any wait
        let mut ids = take(&sub, 4);
        offer(&joint, M + 8..M + 10);
        assert_eq!(m.get("records_spilled"), 100);
        ids.extend(take_all(&sub));
        assert!(ids.into_iter().eq(0..(M + 10) * 10), "no loss, no reorder");
        assert_eq!(m.get("records_despilled"), m.get("records_spilled"));
        assert_eq!(m.get("spill_bytes"), 0);
        assert_eq!(m.get("handoff_queue_frames"), 0);
    }

    /// The intake partitions of one connection count into one metrics
    /// block: the byte gauges read the sum of their excess, the frames
    /// gauge the fullest partition's, no matter which wrote last.
    #[test]
    fn excess_gauges_sum_the_connections_bytes_and_read_its_fullest_queue() {
        let (metrics, m) = detached();
        let excess = |policy| ExcessPolicy::new(policy, Arc::clone(&metrics), FeedId(7));
        let joint = FeedJoint::new("F");
        let buffering = joint.subscribe_policed("c#p0", excess(IngestionPolicy::basic()));
        let spilling = joint.subscribe_policed("c#p1", excess(IngestionPolicy::spill()));
        offer(&joint, 0..M + 4);
        let mut spill = SpillFile::default();
        (M..M + 4).for_each(|n| spill.push(&frame(n * 10..n * 10 + 10)));
        let buffered = 4 * frame(0..10).size_bytes() as u64;
        let read = || {
            let gauges = ["buffer_bytes", "spill_bytes", "handoff_queue_frames"];
            gauges.map(|g| m.get(g))
        };
        assert_eq!(read(), [buffered, spill.bytes() as u64, 4]);
        // the spilling partition takes two of its excess frames
        take(&spilling, M as usize + 2);
        (0..2).for_each(|_| drop(spill.pop()));
        assert_eq!(
            read(),
            [buffered, spill.bytes() as u64, 4],
            "4 is the fullest"
        );
        // policed anew (a rebuilt intake), a partition counts once
        drop(joint.subscribe_policed("c#p1", excess(IngestionPolicy::spill())));
        take(&spilling, 1);
        drop(spill.pop());
        assert_eq!(read(), [buffered, spill.bytes() as u64, 4]);
        // a partition that goes withdraws its share, and only its own
        buffering.unsubscribe();
        assert_eq!(read(), [0, spill.bytes() as u64, 1]);
        take_all(&spilling);
        assert_eq!(read(), [0, 0, 0]);
    }

    #[test]
    fn spill_overflow_escalates_to_discard() {
        let (mut policy, m) = policed(IngestionPolicy::spill());
        policy.policy.max_spill_bytes = Some(2000);
        let joint = FeedJoint::new("F");
        let sub = joint.subscribe_policed("p#p0", policy);
        offer(&joint, 0..M + 50);
        let delivered = take_all(&sub).len() as u64;
        assert!(m.get("records_discarded") > 0);
        assert!(m.get("records_spilled") > 0);
        assert_eq!(delivered + m.get("records_discarded"), (M + 50) * 10);
    }

    fn spill_then_throttle() -> (Arc<FeedJoint>, JointSubscription, Readings) {
        let mut params = std::collections::BTreeMap::new();
        params.insert("max.spill.size.on.disk".into(), "2000".into());
        params.insert("excess.records.throttle".into(), "true".into());
        let policy = IngestionPolicy::spill()
            .extend("Spill_then_Throttle", &params)
            .unwrap();
        one_sub(policy)
    }

    #[test]
    fn spill_then_throttle_custom_policy() {
        let (joint, sub, m) = spill_then_throttle();
        offer(&joint, 0..M + 50);
        let delivered = take_all(&sub).len() as u64;
        assert!(m.get("records_spilled") > 0, "spill first");
        assert!(m.get("records_throttled") > 0, "then throttle");
        assert_eq!(delivered + m.get("records_throttled"), (M + 50) * 10);
    }

    #[test]
    fn throttle_samples_uniformly_and_never_holds_the_depositor() {
        // a consumer taking one frame per two offered keeps the window full
        let (joint, sub, m) = one_sub(IngestionPolicy::throttle());
        offer(&joint, 0..M);
        let mut delivered = 0;
        for n in M..M + 100 {
            offer(&joint, n..n + 1);
            assert_eq!(joint.headroom(), SUBSCRIBER_QUEUE_CAP, "never holds");
            if n % 2 == 0 {
                delivered += take(&sub, 1).len() as u64;
            }
        }
        delivered += take_all(&sub).len() as u64;
        let dropped = m.get("records_throttled");
        assert!(dropped > 0);
        assert_eq!(delivered + dropped, (M + 100) * 10);
        // keep fraction is 0.5: roughly half of the excess records dropped
        let ratio = dropped as f64 / 1000.0;
        assert!(ratio > 0.2 && ratio < 0.8, "drop ratio {ratio}");
    }

    #[test]
    fn throttle_keeps_no_more_than_the_queue_bound() {
        let (joint, sub, m) = one_sub(IngestionPolicy::throttle());
        let offered = SUBSCRIBER_QUEUE_CAP as u64 * 3;
        offer(&joint, 0..offered);
        let delivered = take_all(&sub).len() as u64;
        assert!(delivered <= SUBSCRIBER_QUEUE_CAP as u64 * 10);
        assert_eq!(delivered + m.get("records_throttled"), offered * 10);
    }

    #[test]
    fn throttle_defers_kept_records_behind_older_data() {
        // kept records must not overtake spilled frames: FIFO holds
        let (joint, sub, m) = spill_then_throttle();
        let mut ids = Vec::new();
        for n in 0..M + 40 {
            offer(&joint, n..n + 1);
            if n % 2 == 0 {
                ids.extend(take(&sub, 1));
            }
        }
        assert!(m.get("records_throttled") > 0, "the spill overflowed");
        ids.extend(take_all(&sub));
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "throttled records overtook older data: {ids:?}"
        );
    }

    #[test]
    fn elastic_signals_once_per_episode_and_rearms() {
        let (joint, sub, m) = one_sub(IngestionPolicy::elastic());
        // episode 1: the consumer stalls, the excess signals once
        offer(&joint, 0..M + 10);
        assert_eq!(m.get("elastic_scaleouts"), 1, "signalled exactly once");
        offer(&joint, M + 10..M + 15);
        assert_eq!(m.get("elastic_scaleouts"), 1, "one signal per episode");
        assert!(joint.headroom() < SUBSCRIBER_QUEUE_CAP, "it holds");
        // draining signals nothing, and the episode ends with the excess
        let mut delivered = take_all(&sub).len();
        assert_eq!(m.get("elastic_scaleouts"), 1, "draining signals nothing");
        // episode 2: the consumer stalls again — re-armed by itself
        offer(&joint, 0..M + 10);
        assert_eq!(m.get("elastic_scaleouts"), 2, "second episode signals");
        delivered += take_all(&sub).len();
        assert_eq!(delivered as u64, (2 * M + 25) * 10, "buffered everything");
    }

    #[test]
    fn detach_queued_returns_the_spill_after_memory() {
        let (joint, sub, m) = one_sub(IngestionPolicy::spill());
        offer(&joint, 0..M + 3);
        sub.hand_back(vec![frame(1000..1010)]);
        let detached = joint.detach_queued("p#p0");
        let firsts: Vec<(u64, bool)> = (detached.iter())
            .map(|h| (h.frame.records()[0].id.raw(), h.handed_back))
            .collect();
        let window = (0..M + 3).map(|n| (n * 10, false));
        let expected: Vec<_> = std::iter::once((1000, true)).chain(window).collect();
        assert_eq!(firsts, expected, "memory, marks kept, then the spill");
        assert_eq!(m.get("records_despilled"), m.get("records_spilled"));
        assert_eq!(m.get("spill_bytes"), 0);
    }

    #[test]
    fn spill_file_roundtrip() {
        let mut sf = SpillFile::default();
        assert!(sf.is_empty());
        let f1 = frame(0..5);
        let f2 = frame(5..7);
        sf.push(&f1);
        sf.push(&f2);
        assert!(sf.bytes() > 0);
        assert_eq!(sf.len(), 2);
        assert_eq!(sf.pop().unwrap().unwrap(), f1);
        assert_eq!(sf.pop().unwrap().unwrap(), f2);
        assert!(sf.pop().is_none());
        assert_eq!(sf.bytes(), 0);
    }

    #[test]
    fn spill_preserves_generation_stamps() {
        let mut sf = SpillFile::default();
        let stamped = Record::tracked(RecordId(1), 0, "{\"id\":1}").stamped(SimInstant(42));
        let plain = Record::tracked(RecordId(2), 0, "{\"id\":2}");
        sf.push(&DataFrame::from_records(vec![stamped, plain]));
        let back = sf.pop().unwrap().unwrap();
        assert_eq!(back.records()[0].gen_at, Some(SimInstant(42)));
        assert_eq!(back.records()[1].gen_at, None);
    }

    #[test]
    fn corrupt_spill_segment_is_a_feed_error_not_a_panic() {
        let (joint, sub, _m) = one_sub(IngestionPolicy::spill());
        offer(&joint, 0..M + 10);
        {
            // tear the head segment in half, as a damaged spill file would be
            let mut queue = sub.queue.lock();
            let spill = &mut queue.spill;
            let head = spill.segments.front_mut().unwrap();
            let torn = head.len() / 2;
            spill.bytes -= head.len() - torn;
            head.truncate(torn);
        }
        assert_eq!(
            take(&sub, M as usize).len(),
            M as usize * 10,
            "memory first"
        );
        match sub.try_recv() {
            Some(JointRecv::Failed(IngestError::Storage(_))) => {}
            other => panic!("expected a storage error, got {other:?}"),
        }
        let rest = take_all(&sub);
        assert_eq!(
            rest.len(),
            90,
            "intact segments behind the torn one survive"
        );
        assert_eq!(rest[0], (M + 1) * 10);
    }
}
