//! Operator runtime interfaces and built-in operators.
//!
//! Mirrors Hyracks' push model (§5.2): "Each operator in a Hyracks job is
//! provided with an `IFrameWriter` handle that it uses to send output data
//! frames downstream". Operators come in two shapes, and the engine runs
//! both the same way — as a cooperative task polled in bounded slices:
//!
//! * [`SourceOperator`] — owns the writer its descriptor was handed and
//!   produces into it one never-blocking [`SourceOperator::poll`] at a time
//!   (a feed adaptor host, an intake, a tuple source) until its
//!   [`StopToken`] fires or its input is exhausted;
//! * [`UnaryOperator`] — consumes frames pushed by an upstream operator and
//!   emits frames into the writer the engine passes along.

use asterix_common::{DataFrame, IngestResult, Record};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The push-side handle: the Rust analogue of Hyracks' `IFrameWriter`.
pub trait FrameWriter: Send {
    /// Begin the stream.
    fn open(&mut self) -> IngestResult<()>;
    /// Push one frame downstream.
    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()>;
    /// Graceful end-of-stream: the downstream operator may flush and commit.
    fn close(&mut self) -> IngestResult<()>;
    /// Abnormal termination: the downstream operator should abandon work.
    fn fail(&mut self);
    /// True when the downstream queue(s) behind this writer are at capacity.
    ///
    /// Cooperative tasks consult this to *yield* instead of blocking — the
    /// scheduler re-runs them once a consumer drains. Writers with no
    /// bounded queue report `false` (never saturated).
    fn is_saturated(&self) -> bool {
        false
    }
}

/// A writer that drops everything (used behind `NullSink` and in tests).
#[derive(Debug, Default)]
pub struct DevNull;

impl FrameWriter for DevNull {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }
    fn next_frame(&mut self, _frame: DataFrame) -> IngestResult<()> {
        Ok(())
    }
    fn close(&mut self) -> IngestResult<()> {
        Ok(())
    }
    fn fail(&mut self) {}
}

/// How a task was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMode {
    /// Still running.
    Running,
    /// Graceful: drain in-flight work, release resources cleanly
    /// (a `disconnect feed`).
    Graceful,
    /// Abandon: exit immediately, *preserving* shared state such as joint
    /// subscriptions for a successor incarnation (pipeline rebuilds during
    /// failure recovery or elastic restructuring).
    Abandon,
}

/// Cooperative cancellation token shared by a task and its controller.
#[derive(Debug, Clone, Default)]
pub struct StopToken {
    flag: Arc<std::sync::atomic::AtomicU8>,
}

impl StopToken {
    /// Fresh, un-fired token.
    pub fn new() -> Self {
        StopToken::default()
    }

    /// Request a graceful stop.
    pub fn stop(&self) {
        // never downgrade an abandon to graceful
        let _ = self
            .flag
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Request an immediate abandon.
    pub fn stop_abandon(&self) {
        self.flag.store(2, Ordering::SeqCst);
    }

    /// Has any stop been requested?
    pub fn is_stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst) != 0
    }

    /// The current mode.
    pub fn mode(&self) -> StopMode {
        match self.flag.load(Ordering::SeqCst) {
            0 => StopMode::Running,
            1 => StopMode::Graceful,
            _ => StopMode::Abandon,
        }
    }
}

/// One step of a source (see [`SourceOperator::poll`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePoll {
    /// Made progress; poll again at once.
    Produced,
    /// Nothing to do right now: the task parks until its waker fires
    /// ([`TaskContext::waker`](crate::executor::TaskContext), which the
    /// source gave whatever it waits on, and which a stop request and the
    /// node's death ring too), or until the given wait when the source knows
    /// its next deadline (a replay instant, a pause). There is no other
    /// timer: a source that waits on something that cannot wake it waits
    /// for good.
    Idle(Option<Duration>),
    /// Input exhausted and the output closed; the task is finished.
    Done,
}

/// A self-driving operator. It owns the output writer `instantiate` was
/// handed: it opens it before the first frame and closes it when it returns
/// [`SourcePoll::Done`]. After an `Err` the engine drops the source, and
/// downstream sees the writer vanish without a close — an abnormal end.
pub trait SourceOperator: Send {
    /// Do a bounded amount of work and return; must never block or sleep —
    /// the calling thread is a scheduler worker shared with every other
    /// task. A source that has to wait for something returns
    /// [`SourcePoll::Idle`] and is polled again later.
    fn poll(&mut self, stop: &StopToken) -> IngestResult<SourcePoll>;
}

/// A frame-at-a-time operator.
pub trait UnaryOperator: Send {
    /// Called once before the first frame.
    fn open(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
    /// Process one input frame, pushing any output frames.
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()>;
    /// Graceful end of input; flush any buffered output.
    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
    /// Abnormal termination of the pipeline this operator belongs to.
    fn fail(&mut self) {}
    /// True when writers the operator owns itself (outside its job edge)
    /// have no room for another slice of output; its task then yields like
    /// one whose output port is full. Whatever reports `true` must wake the
    /// task when it has room again.
    fn is_saturated(&self) -> bool {
        false
    }
    /// How long the operator must wait before it takes its next frame (a
    /// modelled capacity's unspent budget, [`Paced`]); `None` when it can
    /// take one now. Its task parks on a timer meanwhile, holding no worker.
    fn busy_for(&self) -> Option<Duration> {
        None
    }
    /// Called when the input is empty, before the task parks: time-driven
    /// work is done here (an ack group whose window ended), and the answer
    /// is how long the task may park before it must be called again —
    /// `None` parks it until a frame, a stop or its node's death.
    fn idle(&mut self) -> Option<Duration> {
        None
    }
}

/// The instantiated runtime of one operator partition.
pub enum OperatorRuntime {
    /// Self-driving producer (owns its output writer).
    Source(Box<dyn SourceOperator>),
    /// Push-driven transformer/consumer and the writer it emits into.
    Unary(Box<dyn UnaryOperator>, Box<dyn FrameWriter>),
}

impl std::fmt::Debug for OperatorRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperatorRuntime::Source(_) => write!(f, "OperatorRuntime::Source"),
            OperatorRuntime::Unary(..) => write!(f, "OperatorRuntime::Unary"),
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in operators
// ---------------------------------------------------------------------------

/// The no-op sink terminating a Feed Collect job (§5.3.1): "doesn't process
/// any data records at runtime".
#[derive(Debug, Default)]
pub struct NullSink;

impl UnaryOperator for NullSink {
    fn next_frame(&mut self, _frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }
}

/// A unary operator applying a function to each frame (maps frame → frame).
pub struct FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    f: F,
}

impl<F> FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    /// Wrap a frame-mapping closure.
    pub fn new(f: F) -> Self {
        FnUnary { f }
    }
}

impl<F> UnaryOperator for FnUnary<F>
where
    F: FnMut(DataFrame) -> IngestResult<DataFrame> + Send,
{
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()> {
        let out = (self.f)(frame)?;
        if !out.is_empty() {
            output.next_frame(out)?;
        }
        Ok(())
    }
}

/// A unary operator with a modelled capacity: after a frame of `n` records it
/// takes no input for `n × per_record`, a fixed processing rate per instance
/// that costs no host CPU, so capacity scales with the instance count however
/// few cores run them (Fig 5.16's substitution, DESIGN.md). The task parks on
/// a timer meanwhile ([`UnaryOperator::busy_for`]); no worker sleeps.
pub struct Paced<O> {
    inner: O,
    per_record: Duration,
    ready_at: Option<Instant>,
}

impl<O: UnaryOperator> Paced<O> {
    /// `inner` at one record per `per_record` (zero: unpaced).
    pub fn new(inner: O, per_record: Duration) -> Self {
        Paced {
            inner,
            per_record,
            ready_at: None,
        }
    }
}

impl<O: UnaryOperator> UnaryOperator for Paced<O> {
    fn open(&mut self, output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.inner.open(output)
    }
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()> {
        let budget = self.per_record * frame.len() as u32;
        let done = self.inner.next_frame(frame, output);
        self.ready_at = (!budget.is_zero()).then(|| Instant::now() + budget);
        done
    }
    fn close(&mut self, output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.inner.close(output)
    }
    fn fail(&mut self) {
        self.inner.fail()
    }
    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }
    fn busy_for(&self) -> Option<Duration> {
        let left = self.ready_at?.saturating_duration_since(Instant::now());
        (!left.is_zero()).then_some(left)
    }
    fn idle(&mut self) -> Option<Duration> {
        self.inner.idle()
    }
}

/// A routing/replicating operator: evaluates a routing function once per
/// record and re-frames each record toward the output(s) the function
/// names.
///
/// Unlike [`FnUnary`], the router terminates its job edge — it owns its
/// fan-out writers outright (one per routing target, typically depositing
/// into distinct feed joints) because a Hyracks connector edge carries
/// exactly one downstream. A record routed to several targets is
/// replicated; a record routed nowhere is dropped (callers count those in
/// the routing function itself).
pub struct RouterOperator {
    route_fn: RouteFn,
    outputs: Vec<Box<dyn FrameWriter>>,
}

/// A shared routing function: maps a record to the indices of the outputs
/// that receive it.
pub type RouteFn = Arc<dyn Fn(&Record) -> Vec<usize> + Send + Sync>;

impl RouterOperator {
    /// A router fanning records out over `outputs` as directed by
    /// `route_fn` (which returns the indices of the receiving outputs).
    pub fn new(route_fn: RouteFn, outputs: Vec<Box<dyn FrameWriter>>) -> RouterOperator {
        RouterOperator { route_fn, outputs }
    }
}

impl UnaryOperator for RouterOperator {
    fn open(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        for o in &mut self.outputs {
            o.open()?;
        }
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        let mut buckets: Vec<Vec<Record>> = (0..self.outputs.len()).map(|_| Vec::new()).collect();
        for rec in frame.into_records() {
            let targets = (self.route_fn)(&rec);
            // replicate only past the first target; the common single-sink
            // route moves the record
            for idx in targets.iter().skip(1) {
                if let Some(b) = buckets.get_mut(*idx) {
                    b.push(rec.clone());
                }
            }
            if let Some(first) = targets.first() {
                if let Some(b) = buckets.get_mut(*first) {
                    b.push(rec);
                }
            }
        }
        for (i, bucket) in buckets.into_iter().enumerate() {
            if !bucket.is_empty() {
                self.outputs[i].next_frame(DataFrame::from_records(bucket))?;
            }
        }
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        for o in &mut self.outputs {
            o.close()?;
        }
        Ok(())
    }

    fn fail(&mut self) {
        for o in &mut self.outputs {
            o.fail();
        }
    }

    fn is_saturated(&self) -> bool {
        self.outputs.iter().any(|o| o.is_saturated())
    }
}

/// A source emitting a fixed set of frames (tests and the insert path),
/// one frame per poll.
pub struct VecSource {
    frames: VecDeque<DataFrame>,
    output: Box<dyn FrameWriter>,
    opened: bool,
}

impl VecSource {
    /// Source pushing the given frames into `output`.
    pub fn new(frames: Vec<DataFrame>, output: Box<dyn FrameWriter>) -> Self {
        VecSource {
            frames: frames.into(),
            output,
            opened: false,
        }
    }
}

impl SourceOperator for VecSource {
    fn poll(&mut self, stop: &StopToken) -> IngestResult<SourcePoll> {
        if !self.opened {
            self.output.open()?;
            self.opened = true;
        }
        if !stop.is_stopped() {
            if let Some(frame) = self.frames.pop_front() {
                self.output.next_frame(frame)?;
                if !self.frames.is_empty() {
                    return Ok(SourcePoll::Produced);
                }
            }
        }
        self.output.close()?;
        Ok(SourcePoll::Done)
    }
}

/// A sink collecting all records it sees into shared storage (tests,
/// experiment harnesses).
#[derive(Debug, Clone, Default)]
pub struct Collector {
    records: Arc<asterix_common::sync::Mutex<Vec<asterix_common::Record>>>,
    closed: Arc<AtomicBool>,
}

impl Collector {
    /// Fresh empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Snapshot of collected records.
    pub fn records(&self) -> Vec<asterix_common::Record> {
        self.records.lock().clone()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True if nothing collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did the stream close gracefully?
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// A unary operator feeding this collector.
    pub fn operator(&self) -> CollectorOp {
        CollectorOp {
            collector: self.clone(),
        }
    }
}

/// The operator side of a [`Collector`].
#[derive(Debug)]
pub struct CollectorOp {
    collector: Collector,
}

impl UnaryOperator for CollectorOp {
    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.collector.records.lock().extend(frame.into_records());
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        self.collector.closed.store(true, Ordering::SeqCst);
        Ok(())
    }
}

/// A writer standing in for a bounded downstream queue whose consumer the
/// caller drives by hand (tests, experiment harnesses): it takes every frame
/// at once, reports saturation while `capacity` or more frames wait, and
/// [`ScriptedSink::drain`] consumes the oldest. Clones share the queue.
#[derive(Debug, Clone)]
pub struct ScriptedSink {
    state: Arc<asterix_common::sync::Mutex<ScriptedState>>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct ScriptedState {
    /// Every frame accepted, in arrival order.
    frames: Vec<DataFrame>,
    /// How many of `frames` the consumer has taken.
    consumed: usize,
    closed: bool,
}

impl ScriptedSink {
    /// An empty queue that saturates at `capacity` waiting frames.
    pub fn new(capacity: usize) -> Self {
        ScriptedSink {
            state: Arc::default(),
            capacity,
        }
    }

    /// Consume up to `k` waiting frames.
    pub fn drain(&self, k: usize) {
        let mut st = self.state.lock();
        st.consumed = st.frames.len().min(st.consumed.saturating_add(k));
    }

    /// Frames accepted and not yet consumed.
    pub fn queued(&self) -> usize {
        let st = self.state.lock();
        st.frames.len() - st.consumed
    }

    /// Every record accepted so far, in arrival order.
    pub fn records(&self) -> Vec<Record> {
        let st = self.state.lock();
        st.frames
            .iter()
            .flat_map(|f| f.records().iter().cloned())
            .collect()
    }

    /// Did the stream close gracefully?
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }
}

impl FrameWriter for ScriptedSink {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }
    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.state.lock().frames.push(frame);
        Ok(())
    }
    fn close(&mut self) -> IngestResult<()> {
        self.state.lock().closed = true;
        Ok(())
    }
    fn fail(&mut self) {}
    fn is_saturated(&self) -> bool {
        self.queued() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::Record;

    fn frame(ids: std::ops::Range<u64>) -> DataFrame {
        DataFrame::from_records(
            ids.map(|i| Record::tracked(asterix_common::RecordId(i), 0, "x"))
                .collect(),
        )
    }

    #[test]
    fn stop_token_fires_once_set() {
        let t = StopToken::new();
        assert!(!t.is_stopped());
        let t2 = t.clone();
        t2.stop();
        assert!(t.is_stopped());
    }

    /// Drive a source the way the engine does, minus the waiting.
    fn drain(src: &mut dyn SourceOperator, stop: &StopToken) {
        while src.poll(stop).unwrap() != SourcePoll::Done {}
    }

    /// Writer end of a [`Collector`] (its operator ignores the output).
    struct IntoCollector(CollectorOp);
    impl FrameWriter for IntoCollector {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
            self.0.next_frame(f, &mut DevNull)
        }
        fn close(&mut self) -> IngestResult<()> {
            self.0.close(&mut DevNull)
        }
        fn fail(&mut self) {}
    }

    #[test]
    fn vec_source_emits_then_closes() {
        let collector = Collector::new();
        let out = Box::new(IntoCollector(collector.operator()));
        let mut src = VecSource::new(vec![frame(0..3), frame(3..6)], out);
        drain(&mut src, &StopToken::new());
        assert_eq!(collector.len(), 6);
        assert!(collector.is_closed());
    }

    #[test]
    fn vec_source_stops_early() {
        let stop = StopToken::new();
        stop.stop();
        let collector = Collector::new();
        let out = Box::new(IntoCollector(collector.operator()));
        let mut src = VecSource::new(vec![frame(0..3)], out);
        drain(&mut src, &stop);
        // frames simply skipped, the stream still ends gracefully
        assert!(collector.is_empty());
        assert!(collector.is_closed());
    }

    #[test]
    fn fn_unary_maps_and_drops_empty() {
        let collector = Collector::new();
        let mut filter = FnUnary::new(|f: DataFrame| {
            let keep: Vec<_> = f
                .into_records()
                .into_iter()
                .filter(|r| r.id.raw() % 2 == 0)
                .collect();
            Ok(DataFrame::from_records(keep))
        });
        filter
            .next_frame(frame(0..10), &mut IntoCollector(collector.operator()))
            .unwrap();
        assert_eq!(collector.len(), 5);
    }

    #[test]
    fn router_replicates_and_drops_by_route_fn() {
        struct Sink(Collector, bool);
        impl FrameWriter for Sink {
            fn open(&mut self) -> IngestResult<()> {
                self.1 = true;
                Ok(())
            }
            fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
                self.0.records.lock().extend(f.into_records());
                Ok(())
            }
            fn close(&mut self) -> IngestResult<()> {
                self.0.closed.store(true, Ordering::SeqCst);
                Ok(())
            }
            fn fail(&mut self) {}
        }
        let (a, b) = (Collector::new(), Collector::new());
        // evens to both sinks, id 1 to sink b only, everything else dropped
        let mut router = RouterOperator::new(
            Arc::new(|r: &Record| {
                if r.id.raw().is_multiple_of(2) {
                    vec![0, 1]
                } else if r.id.raw() == 1 {
                    vec![1]
                } else {
                    vec![]
                }
            }),
            vec![
                Box::new(Sink(a.clone(), false)),
                Box::new(Sink(b.clone(), false)),
            ],
        );
        router.open(&mut DevNull).unwrap();
        router.next_frame(frame(0..6), &mut DevNull).unwrap();
        router.close(&mut DevNull).unwrap();
        let ids = |c: &Collector| {
            let mut v: Vec<u64> = c.records().iter().map(|r| r.id.raw()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&a), vec![0, 2, 4]);
        assert_eq!(ids(&b), vec![0, 1, 2, 4]);
        assert!(a.is_closed() && b.is_closed());
    }

    #[test]
    fn router_is_saturated_while_any_output_is() {
        let (a, b) = (ScriptedSink::new(1), ScriptedSink::new(1));
        let mut router = RouterOperator::new(
            Arc::new(|r: &Record| vec![r.id.raw() as usize % 2]),
            vec![Box::new(a.clone()), Box::new(b.clone())],
        );
        assert!(!router.is_saturated());
        router.next_frame(frame(0..1), &mut DevNull).unwrap();
        assert!(a.is_saturated() && !b.is_saturated());
        assert!(router.is_saturated(), "one full output holds the router");
        a.drain(1);
        assert!(!router.is_saturated());
    }

    #[test]
    fn null_sink_ignores_everything() {
        let mut sink = NullSink;
        sink.next_frame(frame(0..100), &mut DevNull).unwrap();
        sink.close(&mut DevNull).unwrap();
    }
}
