//! Work-stealing cooperative task runtime.
//!
//! Real Hyracks multiplexes many operator activities over a fixed pool of
//! node-controller worker threads; our earlier executor instead dedicated
//! one OS thread to every operator partition, which caps the engine at tens
//! of concurrent feeds. This module provides the replacement: a sharded
//! work-stealing scheduler onto which an operator partition is submitted as
//! a lightweight cooperative [`Task`].
//!
//! ## Execution model
//!
//! A task exposes a single poll-style entry point, [`Task::run_slice`],
//! which does a bounded amount of work and reports:
//!
//! * [`SliceState::Ready`] — progress was made and more work is available
//!   right now; the task is requeued on the worker's local deque.
//! * [`SliceState::Pending`] — the task is blocked (empty input queue,
//!   saturated output queue). It parks until a [`Waker`] fires or the
//!   optional deadline elapses. Executor tasks always pass a deadline so
//!   stop requests and node deaths are observed within a bounded delay even
//!   if no wake arrives (the timer is a safety net, not the wake path).
//! * [`SliceState::Done`] — the task finished; its body is dropped (closing
//!   its output ports) and joiners are released.
//!
//! ## Scheduling policy
//!
//! Each worker owns a local deque; new/externally-woken tasks land in a
//! global injector. A worker takes from its local deque first (FIFO, so
//! pipeline stages interleave), then the injector, then due timers, and
//! finally steals from the *back* of a sibling's deque. Idle workers park
//! on a condvar with a timeout bounded by the next timer deadline.
//!
//! ## No blocking escape hatch
//!
//! Everything the executor runs is a task on this pool; there is no
//! facade-thread way to run an operator that blocks. A producer that can
//! only be read with a blocking call wraps its own thread and channel
//! *outside* the engine (as TweetGen and `bind_socket` clients do) and the
//! operator polls the channel.

use asterix_common::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use asterix_common::sync::{thread as sync_thread, Condvar, Mutex};
use asterix_common::{IngestError, IngestResult, MetricsRegistry};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Outcome of one [`Task::run_slice`] call.
#[derive(Debug)]
pub enum SliceState {
    /// Progress was made and more work is immediately available.
    Ready,
    /// Blocked; park until woken or until the deadline (if any) elapses.
    /// Executor tasks always pass `Some` so stop/node-death is re-checked
    /// within a bounded delay.
    Pending(Option<Duration>),
    /// Finished with this result; the task body is dropped.
    Done(IngestResult<()>),
}

/// A cooperative task: one operator partition's incremental drive loop.
pub trait Task: Send {
    /// Perform a bounded amount of work.
    fn run_slice(&mut self) -> SliceState;
}

// Task lifecycle states (AtomicU32 in TaskCore).
const IDLE: u32 = 0; // parked; a wake enqueues it
const QUEUED: u32 = 1; // sitting in a deque or the injector
const RUNNING: u32 = 2; // a worker is inside run_slice
const RUNNING_DIRTY: u32 = 3; // woken while running; requeue after the slice
const DONE: u32 = 4; // completed; result available

struct TaskCore {
    name: String,
    state: AtomicU32,
    /// The task body; `None` after completion.
    body: Mutex<Option<Box<dyn Task>>>,
    result: Mutex<Option<IngestResult<()>>>,
    done_cv: Condvar,
}

impl TaskCore {
    fn complete(&self, r: IngestResult<()>) {
        let mut slot = self.result.lock();
        if slot.is_none() {
            *slot = Some(r);
        }
        drop(slot);
        self.state.store(DONE, Ordering::SeqCst);
        self.done_cv.notify_all();
    }
}

/// Handle to a spawned task: join it, test completion, or mint wakers.
#[derive(Clone)]
pub struct TaskHandle {
    core: Arc<TaskCore>,
    sched: Weak<SchedulerInner>,
}

impl TaskHandle {
    /// Block until the task completes; returns its result.
    pub fn join(&self) -> IngestResult<()> {
        let mut slot = self.core.result.lock();
        loop {
            if let Some(r) = slot.as_ref() {
                return r.clone();
            }
            self.core.done_cv.wait(&mut slot);
        }
    }

    /// Has the task completed?
    pub fn is_finished(&self) -> bool {
        self.core.state.load(Ordering::SeqCst) == DONE
    }

    /// The task's display name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// A waker that requeues this task when fired.
    pub fn waker(&self) -> Waker {
        Waker {
            core: Arc::clone(&self.core),
            sched: self.sched.clone(),
        }
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaskHandle('{}')", self.core.name)
    }
}

/// Requeues its task when fired. Cloneable and cheap; firing a waker on a
/// queued, running-dirty or completed task is a no-op, so spurious wakes
/// are always safe.
#[derive(Clone)]
pub struct Waker {
    core: Arc<TaskCore>,
    sched: Weak<SchedulerInner>,
}

impl Waker {
    /// Make the task runnable (if it is parked) or mark it dirty (if it is
    /// mid-slice, so it requeues after the slice).
    pub fn wake(&self) {
        loop {
            match self.core.state.load(Ordering::SeqCst) {
                IDLE => {
                    if self
                        .core
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        if let Some(sched) = self.sched.upgrade() {
                            sched.enqueue(Arc::clone(&self.core));
                        } else {
                            // scheduler is gone; nothing will ever poll this
                            // task again — fail it so joiners don't hang
                            self.core
                                .complete(Err(IngestError::Plan("scheduler shut down".into())));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .core
                        .state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // QUEUED / RUNNING_DIRTY / DONE: nothing to do
                _ => return,
            }
        }
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Waker('{}')", self.core.name)
    }
}

struct TimerEntry {
    deadline: Instant,
    core: Arc<TaskCore>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest deadline
        other.deadline.cmp(&self.deadline)
    }
}

struct SchedMetrics {
    tasks_spawned: asterix_common::Counter,
    polls: asterix_common::Counter,
    yields: asterix_common::Counter,
    steals: asterix_common::Counter,
}

struct SchedulerInner {
    /// Unique id for worker-thread-affinity checks across schedulers.
    id: u64,
    injector: Mutex<VecDeque<Arc<TaskCore>>>,
    locals: Vec<Mutex<VecDeque<Arc<TaskCore>>>>,
    timers: Mutex<BinaryHeap<TimerEntry>>,
    park: Mutex<()>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    parked: AtomicUsize,
    /// Live task registry so shutdown can fail stragglers (joiners must not
    /// hang once the worker pool is gone).
    live: Mutex<Vec<Weak<TaskCore>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    m: SchedMetrics,
}

// lint-allow: static-atomic (process-wide scheduler-id source; carries no
// payload, only uniqueness)
static SCHED_IDS: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    /// (scheduler id, worker index) when the current thread is a pool worker.
    static WORKER: std::cell::Cell<(u64, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// True when the calling thread is a scheduler worker (of any scheduler).
///
/// Frame ports use this to pick their push discipline: worker threads must
/// never block (a blocked worker can deadlock the pool), so they get
/// append-and-report-saturation semantics, while dedicated threads get the
/// classic blocking back-pressure send.
pub fn on_worker_thread() -> bool {
    WORKER.with(|w| w.get().0 != 0)
}

/// Handle to a work-stealing worker pool. Cloneable; all clones share the
/// same pool.
#[derive(Clone)]
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
}

impl Scheduler {
    /// Start a pool of `workers` threads (minimum 1), registering its
    /// instruments in `registry` under `scheduler.*`.
    pub fn new(workers: usize, registry: &MetricsRegistry) -> Scheduler {
        let workers = workers.max(1);
        // relaxed-ok: id uniqueness only, no payload is published through it
        let id = SCHED_IDS.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(SchedulerInner {
            id,
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            timers: Mutex::new(BinaryHeap::new()),
            park: Mutex::new(()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
            live: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            m: SchedMetrics {
                tasks_spawned: registry.counter("scheduler.tasks_spawned", &[]),
                polls: registry.counter("scheduler.polls", &[]),
                yields: registry.counter("scheduler.yields", &[]),
                steals: registry.counter("scheduler.steals", &[]),
            },
        });
        registry.gauge("scheduler.workers", &[]).set(workers as u64);
        let weak = Arc::downgrade(&inner);
        registry.gauge_fn("scheduler.parked", &[], {
            let weak = weak.clone();
            move || {
                weak.upgrade()
                    .map_or(0, |s| s.parked.load(Ordering::SeqCst) as u64)
            }
        });
        registry.gauge_fn("scheduler.queue.global_depth", &[], {
            let weak = weak.clone();
            move || weak.upgrade().map_or(0, |s| s.injector.lock().len() as u64)
        });
        registry.gauge_fn("scheduler.queue.local_depth", &[], {
            let weak = weak.clone();
            move || {
                weak.upgrade()
                    .map_or(0, |s| s.locals.iter().map(|d| d.lock().len() as u64).sum())
            }
        });
        let mut joins = inner.workers.lock();
        for i in 0..workers {
            let inner2 = Arc::clone(&inner);
            let join = sync_thread::spawn_named(format!("ws-worker-{id}-{i}"), move || {
                worker_loop(inner2, i)
            })
            .expect("spawn scheduler worker");
            joins.push(join);
        }
        drop(joins);
        Scheduler { inner }
    }

    /// Pool size used when the caller has no preference: the machine's
    /// parallelism, clamped to [2, 8] so tests behave the same on laptops
    /// and CI runners.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8)
    }

    /// Number of worker threads in this pool.
    pub fn worker_count(&self) -> usize {
        self.inner.locals.len()
    }

    /// Register a task without queueing it. The caller wires wakers into
    /// the task's ports, then kicks it with `handle.waker().wake()`. This
    /// two-phase start closes the gap where a task runs (and parks) before
    /// its wakers are attached.
    pub fn create_task(&self, name: impl Into<String>, body: Box<dyn Task>) -> TaskHandle {
        let core = Arc::new(TaskCore {
            name: name.into(),
            state: AtomicU32::new(IDLE),
            body: Mutex::new(Some(body)),
            result: Mutex::new(None),
            done_cv: Condvar::new(),
        });
        self.inner.m.tasks_spawned.inc();
        self.register(&core);
        TaskHandle {
            core,
            sched: Arc::downgrade(&self.inner),
        }
    }

    /// Register and immediately queue a task.
    pub fn spawn(&self, name: impl Into<String>, body: Box<dyn Task>) -> TaskHandle {
        let h = self.create_task(name, body);
        h.waker().wake();
        h
    }

    /// Run `f` every `interval` as a cooperative task — the housekeeping
    /// shape (control loops, monitors): no dedicated thread, parks between
    /// ticks, re-checks within `interval` of a wake. `f` returning `true`
    /// schedules the next tick; `false` completes the task. A waker from
    /// the handle fires a tick early (used to make shutdown prompt).
    pub fn spawn_periodic(
        &self,
        name: impl Into<String>,
        interval: Duration,
        f: impl FnMut() -> bool + Send + 'static,
    ) -> TaskHandle {
        struct Periodic<F> {
            interval: Duration,
            f: F,
        }
        impl<F: FnMut() -> bool + Send> Task for Periodic<F> {
            fn run_slice(&mut self) -> SliceState {
                if (self.f)() {
                    SliceState::Pending(Some(self.interval))
                } else {
                    SliceState::Done(Ok(()))
                }
            }
        }
        self.spawn(name, Box::new(Periodic { interval, f }))
    }

    /// Stop the pool: workers exit, then every unfinished task is failed so
    /// joiners cannot hang.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.inner.park.lock();
        }
        self.inner.work_cv.notify_all();
        let joins: Vec<_> = std::mem::take(&mut *self.inner.workers.lock());
        for j in joins {
            let _ = j.join();
        }
        let live: Vec<_> = std::mem::take(&mut *self.inner.live.lock());
        for w in live {
            if let Some(core) = w.upgrade() {
                if core.state.load(Ordering::SeqCst) != DONE && core.body.lock().is_some() {
                    *core.body.lock() = None; // drop the body: closes its ports
                    core.complete(Err(IngestError::Plan("scheduler shut down".into())));
                }
            }
        }
    }

    fn register(&self, core: &Arc<TaskCore>) {
        let mut live = self.inner.live.lock();
        if live.len() % 256 == 255 {
            live.retain(|w| w.upgrade().is_some());
        }
        live.push(Arc::downgrade(core));
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scheduler({} workers)", self.inner.locals.len())
    }
}

impl SchedulerInner {
    /// Queue a runnable task: on a worker of this pool, push to its local
    /// deque; anywhere else, to the global injector.
    fn enqueue(self: &Arc<Self>, core: Arc<TaskCore>) {
        let (wid, widx) = WORKER.with(|w| w.get());
        if wid == self.id {
            self.locals[widx].lock().push_back(core);
        } else {
            self.injector.lock().push_back(core);
        }
        if self.parked.load(Ordering::SeqCst) > 0 {
            // serialize with parking workers so the notify cannot be lost
            let _g = self.park.lock();
            drop(_g);
            self.work_cv.notify_one();
        }
    }

    fn register_timer(&self, deadline: Instant, core: Arc<TaskCore>) {
        self.timers.lock().push(TimerEntry { deadline, core });
        // a parked worker may be waiting past this deadline; re-arm it
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.park.lock();
            drop(_g);
            self.work_cv.notify_one();
        }
    }

    /// Pop one due timer whose task is actually parked. Stale entries
    /// (tasks woken by other means, rescheduled, or done) are discarded.
    fn pop_due_timer(&self, now: Instant) -> Option<Arc<TaskCore>> {
        let mut timers = self.timers.lock();
        while let Some(top) = timers.peek() {
            if top.deadline > now {
                return None;
            }
            let entry = timers.pop().expect("peeked entry");
            if entry
                .core
                .state
                .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(entry.core);
            }
        }
        None
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.timers.lock().peek().map(|t| t.deadline)
    }

    fn find_work(&self, idx: usize) -> Option<Arc<TaskCore>> {
        if let Some(c) = self.locals[idx].lock().pop_front() {
            return Some(c);
        }
        if let Some(c) = self.injector.lock().pop_front() {
            return Some(c);
        }
        if let Some(c) = self.pop_due_timer(Instant::now()) {
            return Some(c);
        }
        let n = self.locals.len();
        for off in 1..n {
            let j = (idx + off) % n;
            if let Some(mut victim) = self.locals[j].try_lock() {
                if let Some(c) = victim.pop_back() {
                    self.m.steals.inc();
                    return Some(c);
                }
            }
        }
        None
    }

    fn run_one(self: &Arc<Self>, idx: usize, core: Arc<TaskCore>) {
        core.state.store(RUNNING, Ordering::SeqCst);
        let mut body_guard = core.body.lock();
        let Some(body) = body_guard.as_mut() else {
            // completed by shutdown or a stale queue entry: nothing to run
            drop(body_guard);
            if core.state.load(Ordering::SeqCst) != DONE {
                core.complete(Err(IngestError::Plan("task body missing".into())));
            }
            return;
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body.run_slice()));
        self.m.polls.inc();
        match outcome {
            Err(_) => {
                // a panicking operator must not take the worker down; drop
                // its body (closing ports) and report the failure
                *body_guard = None;
                drop(body_guard);
                core.complete(Err(IngestError::Plan(format!(
                    "task '{}' panicked",
                    core.name
                ))));
            }
            Ok(SliceState::Ready) => {
                drop(body_guard);
                core.state.store(QUEUED, Ordering::SeqCst);
                self.locals[idx].lock().push_back(core);
                if self.parked.load(Ordering::SeqCst) > 0 {
                    let _g = self.park.lock();
                    drop(_g);
                    self.work_cv.notify_one();
                }
            }
            Ok(SliceState::Pending(deadline)) => {
                drop(body_guard);
                self.m.yields.inc();
                match core
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => {
                        if let Some(d) = deadline {
                            self.register_timer(Instant::now() + d, core);
                        }
                    }
                    Err(_) => {
                        // woken mid-slice (RUNNING_DIRTY): requeue at once
                        core.state.store(QUEUED, Ordering::SeqCst);
                        self.locals[idx].lock().push_back(core);
                    }
                }
            }
            Ok(SliceState::Done(r)) => {
                *body_guard = None; // drop the body first: closes its ports
                drop(body_guard);
                core.complete(r);
            }
        }
    }
}

/// Shortest timed park: fine enough to meet a deadline that is less than a
/// millisecond away (what is left to a collect's flush tick), coarse enough
/// not to spin.
const MIN_PARK: Duration = Duration::from_micros(50);

fn worker_loop(inner: Arc<SchedulerInner>, idx: usize) {
    WORKER.with(|w| w.set((inner.id, idx)));
    let max_park = Duration::from_millis(100);
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match inner.find_work(idx) {
            Some(core) => inner.run_one(idx, core),
            None => {
                let mut guard = inner.park.lock();
                // re-check under the park lock: an enqueue between our scan
                // and this lock acquisition must not be missed
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let more = !inner.injector.lock().is_empty()
                    || !inner.locals[idx].lock().is_empty()
                    || inner.next_deadline().is_some_and(|d| d <= Instant::now());
                if more {
                    continue;
                }
                let timeout = inner
                    .next_deadline()
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(max_park)
                    .min(max_park);
                inner.parked.fetch_add(1, Ordering::SeqCst);
                let _ = inner.work_cv.wait_for(&mut guard, timeout.max(MIN_PARK));
                inner.parked.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    fn sched(workers: usize) -> (Scheduler, MetricsRegistry) {
        let reg = MetricsRegistry::new();
        (Scheduler::new(workers, &reg), reg)
    }

    struct CountTask {
        left: usize,
        hits: Arc<StdAtomicUsize>,
    }

    impl Task for CountTask {
        fn run_slice(&mut self) -> SliceState {
            if self.left == 0 {
                return SliceState::Done(Ok(()));
            }
            self.left -= 1;
            self.hits.fetch_add(1, Ordering::SeqCst);
            SliceState::Ready
        }
    }

    #[test]
    fn spawn_periodic_ticks_until_false_and_wakes_early() {
        let (s, _reg) = sched(2);
        let ticks = Arc::new(StdAtomicUsize::new(0));
        let t = Arc::clone(&ticks);
        // long interval: without early wakes this would take ~minutes
        let h = s.spawn_periodic("ticker", Duration::from_secs(60), move || {
            t.fetch_add(1, Ordering::SeqCst) + 1 < 3
        });
        // first tick fires on spawn
        let deadline = Instant::now() + Duration::from_secs(10);
        while ticks.load(Ordering::SeqCst) < 1 {
            assert!(Instant::now() < deadline, "first tick never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        // a wake runs the next tick well before the interval elapses
        h.waker().wake();
        while ticks.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "woken tick never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        h.waker().wake(); // third tick returns false → task completes
        h.join().expect("periodic task ok");
        assert_eq!(ticks.load(Ordering::SeqCst), 3);
        s.shutdown();
    }

    #[test]
    fn tasks_run_to_completion_and_join() {
        let (s, reg) = sched(2);
        let hits = Arc::new(StdAtomicUsize::new(0));
        let handles: Vec<_> = (0..20)
            .map(|i| {
                s.spawn(
                    format!("count-{i}"),
                    Box::new(CountTask {
                        left: 5,
                        hits: Arc::clone(&hits),
                    }),
                )
            })
            .collect();
        for h in &handles {
            h.join().expect("task ok");
            assert!(h.is_finished());
        }
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("scheduler.tasks_spawned"), 20);
        assert!(snap.counter("scheduler.polls") >= 120);
        s.shutdown();
    }

    #[test]
    fn pending_task_wakes_by_waker() {
        let (s, _reg) = sched(1);
        struct Gate {
            open: Arc<AtomicBool>,
        }
        impl Task for Gate {
            fn run_slice(&mut self) -> SliceState {
                if self.open.load(Ordering::SeqCst) {
                    SliceState::Done(Ok(()))
                } else {
                    // no deadline: only the waker can release this task
                    SliceState::Pending(None)
                }
            }
        }
        let open = Arc::new(AtomicBool::new(false));
        let h = s.spawn(
            "gate",
            Box::new(Gate {
                open: Arc::clone(&open),
            }),
        );
        std::thread::sleep(Duration::from_millis(20));
        assert!(!h.is_finished());
        open.store(true, Ordering::SeqCst);
        h.waker().wake();
        h.join().expect("gate opens");
        s.shutdown();
    }

    #[test]
    fn pending_deadline_is_a_safety_net() {
        let (s, _reg) = sched(1);
        struct Sleepy {
            polls: usize,
        }
        impl Task for Sleepy {
            fn run_slice(&mut self) -> SliceState {
                self.polls += 1;
                if self.polls >= 3 {
                    SliceState::Done(Ok(()))
                } else {
                    SliceState::Pending(Some(Duration::from_millis(5)))
                }
            }
        }
        let h = s.spawn("sleepy", Box::new(Sleepy { polls: 0 }));
        h.join().expect("timer re-polls the task");
        s.shutdown();
    }

    #[test]
    fn panicking_task_fails_without_killing_workers() {
        let (s, _reg) = sched(1);
        struct Boom;
        impl Task for Boom {
            fn run_slice(&mut self) -> SliceState {
                panic!("injected operator panic");
            }
        }
        let h = s.spawn("boom", Box::new(Boom));
        assert!(h.join().is_err());
        // the single worker survived and still runs tasks
        let hits = Arc::new(StdAtomicUsize::new(0));
        let h2 = s.spawn(
            "after",
            Box::new(CountTask {
                left: 1,
                hits: Arc::clone(&hits),
            }),
        );
        h2.join().expect("worker alive");
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        s.shutdown();
    }

    #[test]
    fn shutdown_fails_unfinished_tasks() {
        let (s, _reg) = sched(1);
        struct Forever;
        impl Task for Forever {
            fn run_slice(&mut self) -> SliceState {
                SliceState::Pending(Some(Duration::from_millis(50)))
            }
        }
        let h = s.spawn("forever", Box::new(Forever));
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        assert!(h.join().is_err(), "shutdown fails parked tasks");
    }

    #[test]
    fn work_is_stolen_across_workers() {
        let (s, reg) = sched(4);
        // one external spawn seeds the injector; tasks that fan out further
        // work do so onto their own worker's local deque, so completing the
        // batch quickly requires the other workers to steal
        struct Spin {
            left: usize,
        }
        impl Task for Spin {
            fn run_slice(&mut self) -> SliceState {
                if self.left == 0 {
                    return SliceState::Done(Ok(()));
                }
                self.left -= 1;
                std::thread::sleep(Duration::from_micros(200));
                SliceState::Ready
            }
        }
        let handles: Vec<_> = (0..32)
            .map(|i| s.spawn(format!("spin-{i}"), Box::new(Spin { left: 50 })))
            .collect();
        for h in handles {
            h.join().expect("spin done");
        }
        // with 4 workers and 32 interleaved tasks, at least some stealing
        // or parking/unparking must have occurred; assert the instruments
        // are wired rather than a specific schedule
        let snap = reg.snapshot();
        assert!(snap.counter("scheduler.polls") > 0);
        assert_eq!(snap.gauge("scheduler.workers"), Some(4));
        s.shutdown();
    }
}
