//! The feed pipeline operators.
//!
//! * [`CollectDesc`] — *FeedCollect* (§5.3.1): hosts a feed adaptor
//!   instance, manages its lifecycle, and deposits collected frames into
//!   the feed joint registered at its output. Adaptor use is deferred
//!   "until there is a request for the operator's output data". A task like
//!   every other operator: each poll drains what the adaptor's source has
//!   delivered into 64-record frames, flushes a partial frame on a 20 ms
//!   tick, and yields — never blocks — while the joint has no room.
//! * [`IntakeDesc`] — *FeedIntake*: co-located with a joint, subscribes
//!   through the local Feed Manager's search API, and pushes frames
//!   downstream through the policy-governed [`FlowController`]. Hosts the
//!   at-least-once tracker when the policy demands it.
//! * [`AssignDesc`] — *Assign* (the compute stage): applies the
//!   pre-processing UDF to every record and deposits results into the
//!   feed's output joint.
//! * [`StoreDesc`] — the store stage (*IndexInsert*): co-located with a
//!   partition of the target dataset; validates, upserts (WAL first),
//!   meters, and acks.
//!
//! Every unary operator is wrapped in [`MetaFeed`] (§6.1): the sandbox that
//! catches record-level runtime exceptions, logs them, skips the offending
//! record (the frame-slicing recovery of §6.1.1) and terminates the feed
//! only after too many consecutive failures.

use crate::ack::{AckBatch, AckSender, AckTracker};
use crate::adaptor::{AdaptorConfig, AdaptorFactory, FeedAdaptor};
use crate::flow::{ElasticRequest, FlowController};
use crate::joint::{FeedJoint, JointRecv, JointSubscription};
use crate::manager::FeedManager;
use crate::metrics::FeedMetrics;
use crate::policy::IngestionPolicy;
use crate::udf::Udf;
use asterix_adm::{decode_value, payload_from_value, to_display_string, AdmType, TypeRegistry};
use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, DataFrame, FaultKind, FaultPlan, FeedId, FrameBuilder, IngestError, IngestResult,
    NodeId, Record, SimDuration, SimInstant, DEFAULT_FRAME_CAPACITY,
};
use asterix_hyracks::cluster::NodeHandle;
use asterix_hyracks::executor::TaskContext;
use asterix_hyracks::job::{Constraint, OperatorDescriptor};
use asterix_hyracks::operator::{
    FrameWriter, NullSink, OperatorRuntime, RouterOperator, SourceOperator, SourcePoll, StopMode,
    StopToken, UnaryOperator,
};
use asterix_storage::Dataset;
use crossbeam_channel::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One logged soft failure (§6.1.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SoftFailureEntry {
    /// When it happened.
    pub at: SimInstant,
    /// Which operator caught it.
    pub operator: String,
    /// The exception message.
    pub message: String,
    /// The offending record as ADM text (a lossy rendering of its bytes
    /// when they do not decode); `None` when no record is to blame.
    pub payload: Option<String>,
}

/// The in-memory error log ("appended to the standard AsterixDB error log
/// file").
pub type SoftFailureLog = Arc<Mutex<Vec<SoftFailureEntry>>>;

/// Empty log.
pub fn new_soft_failure_log() -> SoftFailureLog {
    Arc::new(Mutex::new(Vec::new()))
}

// ---------------------------------------------------------------------------
// Sandbox + MetaFeed
// ---------------------------------------------------------------------------

/// The record-level failure sandbox (§6.1), factored out of [`MetaFeed`] so
/// frame-granular operators (the batch store path) share the exact same
/// semantics: log the exception, skip the offending record, and terminate
/// the feed only after too many *consecutive* failures.
pub struct Sandbox {
    name: String,
    feed: FeedId,
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    log: SoftFailureLog,
    log_dataset: Option<Arc<Dataset>>,
    clock: asterix_common::SimClock,
    consecutive_failures: usize,
}

impl Sandbox {
    /// A sandbox reporting as operator `name` of `feed`.
    pub fn new(
        name: impl Into<String>,
        feed: FeedId,
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        log: SoftFailureLog,
        log_dataset: Option<Arc<Dataset>>,
        clock: asterix_common::SimClock,
    ) -> Self {
        Sandbox {
            name: name.into(),
            feed,
            policy,
            metrics,
            log,
            log_dataset,
            clock,
            consecutive_failures: 0,
        }
    }

    /// Does the policy allow skipping this error?
    pub fn recoverable(&self, err: &IngestError) -> bool {
        err.is_soft() && self.policy.recover_soft_failure
    }

    /// A record made it through: the consecutive-failure streak is broken.
    pub fn record_ok(&mut self) {
        self.consecutive_failures = 0;
    }

    /// A record failed softly: log it and skip it (the frame-slicing
    /// recovery of §6.1.1), or terminate the feed if the streak is too long.
    pub fn record_soft(&mut self, err: &IngestError, record: &Record) -> IngestResult<()> {
        self.log_soft(err, record);
        self.consecutive_failures += 1;
        if self.consecutive_failures > self.policy.max_consecutive_soft_failures {
            return Err(IngestError::FeedTerminated {
                feed: self.feed,
                reason: format!(
                    "{}: {} consecutive soft failures",
                    self.name, self.consecutive_failures
                ),
            });
        }
        Ok(())
    }

    fn log_soft(&mut self, err: &IngestError, record: &Record) {
        self.metrics.soft_failures.add(1);
        let entry = SoftFailureEntry {
            at: self.clock.now(),
            operator: self.name.clone(),
            message: err.to_string(),
            payload: Some(to_display_string(&record.payload)),
        };
        // at minimum, append to the error log
        self.log.lock().push(entry.clone());
        // optionally persist to a dedicated dataset
        if self.policy.log_soft_failures_to_dataset {
            if let Some(ds) = &self.log_dataset {
                let rec = asterix_adm::AdmValue::record(vec![
                    (
                        "id",
                        format!(
                            "sf-{}-{}",
                            self.name,
                            self.metrics.get(&self.metrics.soft_failures)
                        )
                        .into(),
                    ),
                    ("at_millis", asterix_adm::AdmValue::Int(entry.at.0 as i64)),
                    ("operator", entry.operator.clone().into()),
                    ("message", entry.message.clone().into()),
                    (
                        "payload",
                        entry
                            .payload
                            .clone()
                            .map(asterix_adm::AdmValue::String)
                            .unwrap_or(asterix_adm::AdmValue::Null),
                    ),
                ]);
                let _ = ds.upsert(&rec);
            }
        }
    }
}

/// The sandbox wrapper (§6.1). Drives a per-record processing function,
/// surviving soft failures by skipping the offending record — the runtime
/// equivalent of slicing the input frame around it.
pub struct MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    sandbox: Sandbox,
    process: F,
    on_close: Option<Box<dyn FnMut() + Send>>,
}

impl<F> MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    /// Wrap `process` in the sandbox.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        feed: FeedId,
        policy: IngestionPolicy,
        metrics: Arc<FeedMetrics>,
        log: SoftFailureLog,
        log_dataset: Option<Arc<Dataset>>,
        clock: asterix_common::SimClock,
        process: F,
        on_close: Option<Box<dyn FnMut() + Send>>,
    ) -> Self {
        MetaFeed {
            sandbox: Sandbox::new(name, feed, policy, metrics, log, log_dataset, clock),
            process,
            on_close,
        }
    }
}

impl<F> UnaryOperator for MetaFeed<F>
where
    F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
{
    fn next_frame(&mut self, frame: DataFrame, output: &mut dyn FrameWriter) -> IngestResult<()> {
        let mut out = Vec::with_capacity(frame.len());
        for record in frame.records() {
            match (self.process)(record) {
                Ok(Some(r)) => {
                    self.sandbox.record_ok();
                    out.push(r);
                }
                Ok(None) => {
                    self.sandbox.record_ok();
                }
                Err(e) if self.sandbox.recoverable(&e) => {
                    // sandbox: skip past the exception-generating record
                    self.sandbox.record_soft(&e, record)?;
                }
                Err(e) => return Err(e),
            }
        }
        if !out.is_empty() {
            output.next_frame(DataFrame::from_records(out))?;
        }
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        if let Some(f) = &mut self.on_close {
            f();
        }
        Ok(())
    }

    fn fail(&mut self) {
        if let Some(f) = &mut self.on_close {
            f();
        }
    }
}

// ---------------------------------------------------------------------------
// FeedCollect
// ---------------------------------------------------------------------------

/// Descriptor for the FeedCollect operator.
pub struct CollectDesc {
    /// The joint id records are published under (the feed's name).
    pub joint_id: String,
    /// Adaptor factory.
    pub factory: Arc<dyn AdaptorFactory>,
    /// Adaptor configuration.
    pub config: AdaptorConfig,
    /// Pinned locations (the controller resolves Count constraints up front
    /// so that failure recovery can substitute individual nodes).
    pub locations: Vec<NodeId>,
    /// Registered `parse.malformed_lines` counter the adaptor instances
    /// count skipped unparseable input into.
    pub malformed_lines: Counter,
}

impl OperatorDescriptor for CollectDesc {
    fn name(&self) -> String {
        format!("FeedCollect({})", self.joint_id)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        mut output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let joint = fm.register_joint(&self.joint_id);
        let adaptor = self.factory.create(
            &self.config,
            ctx.partition,
            &ctx.clock,
            &self.malformed_lines,
        )?;
        output.open()?;
        Ok(OperatorRuntime::Source(Box::new(CollectSource {
            adaptor,
            joint,
            node: ctx.node.clone(),
            output,
            builder: FrameBuilder::default(),
            next_flush: None,
        })))
    }
}

/// Null-sink descriptor terminating a collect job (§5.3.1's NullSink).
pub struct NullSinkDesc {
    /// The collect instances' locations (one-to-one edge).
    pub locations: Vec<NodeId>,
}

impl OperatorDescriptor for NullSinkDesc {
    fn name(&self) -> String {
        "NullSink".into()
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Unary(Box::new(NullSink), output))
    }
}

/// Records a collect pulls from its adaptor per poll: four frames' worth,
/// which keeps a slice of parsing well under a millisecond.
const COLLECT_POLL_BUDGET: usize = 4 * DEFAULT_FRAME_CAPACITY;

/// Frames one poll can deposit: the full ones plus a flushed partial.
const COLLECT_FRAMES_PER_POLL: usize = COLLECT_POLL_BUDGET / DEFAULT_FRAME_CAPACITY + 1;

/// How often a partial frame is flushed to the joint, so a low-rate feed is
/// not held back until 64 records ([`DEFAULT_FRAME_CAPACITY`]) have come.
const COLLECT_FLUSH_TICK: Duration = Duration::from_millis(20);

/// How far a collect runs ahead of its slowest subscriber at full speed: a
/// source with a backlog is always ready to run again and would keep its
/// worker to itself, so past this many queued frames (4 096 records) it
/// pauses between polls and the worker serves the tasks that drain them.
const COLLECT_LEAD_FRAMES: usize = 64;
const COLLECT_LEAD_PAUSE: Duration = Duration::from_millis(1);

struct CollectSource {
    adaptor: Box<dyn FeedAdaptor>,
    joint: Arc<FeedJoint>,
    node: NodeHandle,
    /// The job edge to the null sink: carries the close, never a frame.
    output: Box<dyn FrameWriter>,
    builder: FrameBuilder,
    /// When the partial frame is flushed next; `None` until the joint has
    /// had a subscriber, which is when the adaptor is first used.
    next_flush: Option<Instant>,
}

impl CollectSource {
    /// End of the stream — a stop, a hand-over, a source exhausted or lost
    /// (`outcome`): what was collected so far still reaches the joint.
    fn finish(&mut self, outcome: IngestResult<()>) -> IngestResult<SourcePoll> {
        if let Some(rest) = self.builder.flush() {
            let _ = self.joint.deposit(rest);
        }
        outcome?;
        self.output.close()?;
        Ok(SourcePoll::Done)
    }
}

impl SourceOperator for CollectSource {
    fn poll(&mut self, stop: &StopToken) -> IngestResult<SourcePoll> {
        if !self.node.is_alive() {
            // hard failure: what this node had buffered is lost with it
            self.output.close()?;
            return Ok(SourcePoll::Done);
        }
        // a full subscriber queue would park this worker inside `deposit`:
        // leave the records in the source — and a stop pending while even
        // the partial frame has no room — and yield until the subscriber
        // has drained
        let room = self.joint.headroom();
        if stop.is_stopped() {
            if room == 0 && self.builder.pending() > 0 {
                return Ok(SourcePoll::Idle(None));
            }
            return self.finish(Ok(()));
        }
        if room < COLLECT_FRAMES_PER_POLL {
            return Ok(SourcePoll::Idle(None));
        }
        // defer adaptor use until the output is requested
        if self.next_flush.is_none() && !self.joint.has_subscribers() {
            return Ok(SourcePoll::Idle(None));
        }
        let now = Instant::now();
        let mut flush_at = *self.next_flush.get_or_insert(now + COLLECT_FLUSH_TICK);
        let (builder, joint) = (&mut self.builder, &self.joint);
        let mut emit = |rec: Record| match builder.push(rec) {
            Some(full) => joint.deposit(full),
            None => Ok(()),
        };
        let polled = match self.adaptor.poll(&mut emit, COLLECT_POLL_BUDGET) {
            Ok(SourcePoll::Done) => return self.finish(Ok(())),
            Ok(polled) => polled,
            Err(e) => return self.finish(Err(e)),
        };
        // the tick runs free of the arrivals, so a record waits for the
        // flush at most one tick however the polls fall
        if now >= flush_at {
            if let Some(partial) = self.builder.flush() {
                self.joint.deposit(partial)?;
            }
            flush_at = now + COLLECT_FLUSH_TICK;
            self.next_flush = Some(flush_at);
        }
        Ok(match polled {
            // idle no longer than to the next tick: what arrives meanwhile
            // is then picked up and flushed by the same poll
            SourcePoll::Idle(wait) => {
                let to_tick = flush_at.saturating_duration_since(now);
                SourcePoll::Idle(Some(wait.map_or(to_tick, |w| w.min(to_tick))))
            }
            // far ahead of the slowest subscriber: it is the subscriber's
            // tasks that need this worker now, so ask for it back in a
            // moment rather than at once
            SourcePoll::Produced if self.joint.backlog() > COLLECT_LEAD_FRAMES => {
                SourcePoll::Idle(Some(COLLECT_LEAD_PAUSE))
            }
            polled => polled,
        })
    }
}

// ---------------------------------------------------------------------------
// FeedIntake
// ---------------------------------------------------------------------------

/// At-least-once plumbing for an intake partition.
pub struct AckPlumbing {
    /// Per-intake-partition ack receivers.
    pub rxs: Vec<Receiver<AckBatch>>,
    /// Replay timeout.
    pub timeout: SimDuration,
}

/// Descriptor for the FeedIntake operator.
pub struct IntakeDesc {
    /// Joint to subscribe to.
    pub joint_id: String,
    /// Stable subscription key prefix (per-partition keys derive from it).
    pub sub_key: String,
    /// Pinned locations — must coincide with the joint's host nodes.
    pub locations: Vec<NodeId>,
    /// The connection's ingestion policy.
    pub policy: IngestionPolicy,
    /// Shared connection metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Elastic scale-out signal channel.
    pub elastic_tx: Option<Sender<ElasticRequest>>,
    /// Hand-off queue depth (congestion sensor).
    pub flow_capacity: usize,
    /// At-least-once plumbing, when the policy enables it.
    pub ack: Option<Arc<AckPlumbing>>,
    /// Connection key (for elastic requests and zombie state).
    pub connection_key: String,
    /// The owning feed's catalog id (error attribution).
    pub feed: FeedId,
    /// Chaos schedule; due operator-panic events make this intake die hard
    /// (§6.2.3 runtime-exception injection).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl OperatorDescriptor for IntakeDesc {
    fn name(&self) -> String {
        format!("FeedIntake({})", self.joint_id)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let sub_key = format!("{}#p{}", self.sub_key, ctx.partition);
        let mut flow = FlowController::new(
            self.policy.clone(),
            Arc::clone(&self.metrics),
            output,
            self.flow_capacity,
            self.feed,
            self.connection_key.clone(),
            self.elastic_tx.clone(),
        );
        // adopt any zombie state parked by a previous incarnation (§6.2.2)
        let zombie = fm.take_zombie_state(&sub_key);
        if !zombie.is_empty() {
            flow.adopt_deferred(zombie)?;
        }
        let tracker = match &self.ack {
            Some(plumbing) => {
                let rx = plumbing
                    .rxs
                    .get(ctx.partition)
                    .cloned()
                    .ok_or_else(|| IngestError::Plan("missing ack receiver".into()))?;
                Some(AckTracker::new(
                    ctx.partition as u32,
                    rx,
                    plumbing.timeout,
                    ctx.clock.clone(),
                ))
            }
            None => None,
        };
        Ok(OperatorRuntime::Source(Box::new(IntakeSource {
            joint_id: self.joint_id.clone(),
            sub_key,
            node: ctx.node.clone(),
            metrics: Arc::clone(&self.metrics),
            flow: Some(flow),
            tracker,
            fault_plan: self.fault_plan.clone(),
            sub: None,
        })))
    }
}

struct IntakeSource {
    joint_id: String,
    sub_key: String,
    node: NodeHandle,
    metrics: Arc<FeedMetrics>,
    flow: Option<FlowController>,
    tracker: Option<AckTracker>,
    fault_plan: Option<Arc<FaultPlan>>,
    /// Created by the first poll.
    sub: Option<JointSubscription>,
}

/// Frames an intake task pulls off its joint per scheduler slice.
const INTAKE_FRAMES_PER_SLICE: usize = 8;

impl IntakeSource {
    fn fail_with_zombie(&mut self, fm: &Arc<FeedManager>) {
        if let Some(flow) = self.flow.take() {
            let mut deferred = flow.fail();
            // The tracker's unacked records were in the hand-off queue or in
            // flight toward the store when we died — without parking them the
            // successor would never re-emit them and at-least-once would only
            // hold for records the flow controller still had by value.
            if let Some(t) = &self.tracker {
                let pending = t.drain_pending();
                if !pending.is_empty() {
                    deferred.push(DataFrame::from_records(pending));
                }
            }
            fm.save_zombie_state(&self.sub_key, deferred);
        }
    }

    /// Fire any due injected operator panic (§6.2.3): park deferred state
    /// exactly like a real runtime exception unwinding this operator, then
    /// surface a hard error so the job sees the instance die.
    fn chaos_panic_due(&self) -> bool {
        match &self.fault_plan {
            Some(plan) => !plan.take_due(FaultKind::is_operator_event).is_empty(),
            None => false,
        }
    }

    fn track_frame(&self, frame: DataFrame) -> DataFrame {
        match &self.tracker {
            Some(t) => {
                DataFrame::from_records(frame.records().iter().map(|r| t.track(r)).collect())
            }
            None => frame,
        }
    }

    /// Adopt zombie state parked *after* this instance was instantiated.
    ///
    /// Instantiate-time adoption (§6.2.2) only sees frames the predecessor
    /// had already parked. During an elastic rebuild the old job is aborted
    /// asynchronously, so it can park its deferred work after the successor
    /// started — and the repartitioning sweep re-parks migrated frames under
    /// this key once the old job has fully exited. Polling from the quiet
    /// paths closes both windows without any cross-job handshake.
    fn adopt_late_zombies(&mut self, fm: &Arc<FeedManager>) -> IngestResult<()> {
        if !fm.has_zombie_state(&self.sub_key) {
            return Ok(());
        }
        let zombie = fm.take_zombie_state(&self.sub_key);
        if zombie.is_empty() {
            return Ok(());
        }
        let flow = self.flow.as_mut().expect("flow active");
        flow.adopt_deferred(zombie)
    }

    fn handle_acks_and_replays(&mut self) -> IngestResult<()> {
        let due = match &self.tracker {
            Some(t) => {
                t.process_acks();
                t.due_replays()
            }
            None => return Ok(()),
        };
        if !due.is_empty() {
            self.metrics.records_replayed.add(due.len() as u64);
            let flow = self.flow.as_mut().expect("flow active");
            flow.offer(DataFrame::from_records(due))?;
        }
        Ok(())
    }
}

impl SourceOperator for IntakeSource {
    /// One scheduler slice of intake work: pull a bounded batch of frames
    /// off the joint subscription and offer them to the flow controller
    /// (which owns the output writer) — an idle intake costs a queued task,
    /// not a blocked OS thread.
    fn poll(&mut self, stop: &StopToken) -> IngestResult<SourcePoll> {
        let fm = FeedManager::on(&self.node);
        if self.sub.is_none() {
            let joint = fm.search_joint(&self.joint_id).ok_or_else(|| {
                IngestError::Plan(format!(
                    "no joint '{}' on node {}",
                    self.joint_id,
                    self.node.id()
                ))
            })?;
            self.sub = Some(joint.subscribe(self.sub_key.clone()));
        }
        if !self.node.is_alive() {
            // hard failure of this node: vanish (state on this node is
            // lost with the node)
            self.flow = None;
            return Err(IngestError::NodeFailed(self.node.id()));
        }
        match stop.mode() {
            StopMode::Running => {}
            StopMode::Graceful => {
                // graceful disconnect: drain and leave
                if let Some(sub) = self.sub.take() {
                    sub.unsubscribe();
                }
                let flow = self.flow.take().expect("flow active");
                flow.finish()?;
                return Ok(SourcePoll::Done);
            }
            StopMode::Abandon => {
                // pipeline rebuild: park deferred work and exit while
                // the subscription keeps buffering for the successor
                self.fail_with_zombie(&fm);
                return Ok(SourcePoll::Done);
            }
        }
        if self.chaos_panic_due() {
            self.fail_with_zombie(&fm);
            return Err(IngestError::Disconnected(
                "chaos: injected operator panic".into(),
            ));
        }
        // adopt re-parked state on every slice, busy or quiet: under a
        // sustained load a successor intake may not see a quiet slice for
        // the lifetime of the ramp, and migrated frames must not wait for
        // the stream to dry up (the probe is one map lookup)
        if let Err(e) = self.adopt_late_zombies(&fm) {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        let mut produced = false;
        for _ in 0..INTAKE_FRAMES_PER_SLICE {
            let recv = self.sub.as_ref().expect("subscribed above").try_recv();
            match recv {
                Some(JointRecv::Frame(frame)) => {
                    produced = true;
                    self.metrics.records_in.add(frame.len() as u64);
                    let frame = self.track_frame(frame);
                    let flow = self.flow.as_mut().expect("flow active");
                    match flow.offer(frame) {
                        Ok(()) => {}
                        Err(e @ IngestError::FeedTerminated { .. }) => {
                            if let Some(sub) = self.sub.take() {
                                sub.unsubscribe();
                            }
                            self.flow = None;
                            return Err(e);
                        }
                        Err(e) => {
                            // downstream died: park state, keep the
                            // subscription buffering for the rebuild
                            self.fail_with_zombie(&fm);
                            return Err(e);
                        }
                    }
                }
                Some(JointRecv::Retired) => {
                    let flow = self.flow.take().expect("flow active");
                    flow.finish()?;
                    return Ok(SourcePoll::Done);
                }
                Some(JointRecv::Timeout) | None => break,
            }
        }
        if produced {
            return Ok(SourcePoll::Produced);
        }
        // quiet slice: housekeeping
        let flow = self.flow.as_mut().expect("flow active");
        if let Err(e) = flow.drain_deferred() {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        if let Err(e) = self.handle_acks_and_replays() {
            self.fail_with_zombie(&fm);
            return Err(e);
        }
        Ok(SourcePoll::Idle(None))
    }
}

// ---------------------------------------------------------------------------
// Assign (compute stage)
// ---------------------------------------------------------------------------

/// Descriptor for the Assign operator applying a UDF.
pub struct AssignDesc {
    /// The UDF to apply per record.
    pub udf: Udf,
    /// Joint id registered at the operator's output
    /// (`<feed>:f1:...:fN`).
    pub out_joint_id: String,
    /// Pinned compute locations.
    pub locations: Vec<NodeId>,
    /// The feed a sandbox termination names.
    pub feed: FeedId,
    /// Connection policy (sandbox settings).
    pub policy: IngestionPolicy,
    /// Shared metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Soft-failure log.
    pub log: SoftFailureLog,
    /// Optional dataset for persisted failure logging.
    pub log_dataset: Option<Arc<Dataset>>,
    /// Busy-spin iterations added per record (models the §7.1 "expensive
    /// UDF" knob orthogonally to the UDF itself; usually 0).
    pub extra_spin: u64,
    /// Sleep (µs) added per record: models a fixed per-node processing
    /// capacity of `1e6/extra_delay_us` records/s *without* consuming host
    /// CPU, so capacity scales with instance count even on few physical
    /// cores (the Fig 5.16 scalability substitution — see DESIGN.md).
    pub extra_delay_us: u64,
}

impl OperatorDescriptor for AssignDesc {
    fn name(&self) -> String {
        format!("Assign({})", self.udf.name)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let joint = fm.register_joint(&self.out_joint_id);
        let udf = self.udf.clone();
        let metrics = Arc::clone(&self.metrics);
        let extra_spin = self.extra_spin;
        let extra_delay_us = self.extra_delay_us;
        let process = move |rec: &Record| -> IngestResult<Option<Record>> {
            // the UDF reads a tree: this stage's one decode, dropped with
            // the call
            metrics.parse_calls.add(1);
            let value = decode_value(&rec.payload).map_err(|e| IngestError::soft(e.to_string()))?;
            if extra_delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(extra_delay_us));
            }
            if extra_spin > 0 {
                let mut acc = 0u64;
                for i in 0..extra_spin {
                    acc = acc.wrapping_add(i).rotate_left(1);
                }
                std::hint::black_box(acc);
            }
            let out = udf.apply(&value)?;
            // a UDF returning `missing` filters the record out — the basis
            // of the publish-subscribe use case (§8.2), where subscriptions
            // are predicate feeds
            if matches!(out, asterix_adm::AdmValue::Missing) {
                return Ok(None);
            }
            metrics.records_computed.add(1);
            // UDF output is a true materialization boundary: the new value
            // is encoded once and leaves as bytes
            Ok(Some(Record {
                id: rec.id,
                adaptor: rec.adaptor,
                gen_at: rec.gen_at,
                payload: payload_from_value(out),
            }))
        };
        let meta = MetaFeed::new(
            self.name(),
            self.feed,
            self.policy.clone(),
            Arc::clone(&self.metrics),
            Arc::clone(&self.log),
            self.log_dataset.clone(),
            ctx.clock.clone(),
            process,
            None,
        );
        // data goes to the joint; the job edge carries only the close signal
        let writer = JointWriter {
            joint,
            close_path: output,
        };
        Ok(OperatorRuntime::Unary(Box::new(meta), Box::new(writer)))
    }
}

/// Writer depositing frames into a joint while propagating lifecycle events
/// down the job edge.
struct JointWriter {
    joint: Arc<FeedJoint>,
    close_path: Box<dyn FrameWriter>,
}

impl FrameWriter for JointWriter {
    fn open(&mut self) -> IngestResult<()> {
        self.close_path.open()
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.joint.deposit(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        self.close_path.close()
    }

    fn fail(&mut self) {
        self.close_path.fail();
    }
}

// ---------------------------------------------------------------------------
// Route stage (ingestion plans)
// ---------------------------------------------------------------------------

/// Descriptor for the routing operator of a multi-sink ingestion plan: it
/// subscribes (through an [`IntakeDesc`] upstream) to the plan's tail feed
/// joint, evaluates every sink's routing predicate **once** per record —
/// against a projection of just the fields the predicates read, so a record
/// is routed without materialising its tree (a predicate on the whole record
/// costs a full, counted decode) — and deposits each record into the joints
/// of the sinks it matched. Each out joint is consumed by an
/// independent store pipeline with its own policy, flow control and custody.
pub struct RouteDesc {
    /// The compiled plan whose [`IngestPlan::route_record`] drives fan-out.
    ///
    /// [`IngestPlan::route_record`]: crate::plan::IngestPlan::route_record
    pub plan: Arc<crate::plan::IngestPlan>,
    /// Joint ids registered at the operator's outputs, one per sink
    /// (`plan:<plan>:<dataset>`), index-aligned with the plan's sinks.
    pub out_joints: Vec<String>,
    /// Pinned locations (the in-joint's nodes; routing never repartitions).
    pub locations: Vec<NodeId>,
    /// Trunk metrics (`parse_calls`: whole-record decodes).
    pub metrics: Arc<FeedMetrics>,
    /// Per-sink `plan.sink.records_routed` counters, index-aligned with
    /// `out_joints`.
    pub routed: Vec<asterix_common::Counter>,
    /// `plan.route.no_match_total`: records that matched no sink (possible
    /// only without an `otherwise` arm) or whose payload failed to decode.
    pub no_match: asterix_common::Counter,
}

impl OperatorDescriptor for RouteDesc {
    fn name(&self) -> String {
        format!("Route({})", self.plan.name)
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let fm = FeedManager::on(&ctx.node);
        let outputs: Vec<Box<dyn FrameWriter>> = self
            .out_joints
            .iter()
            .zip(&self.routed)
            .map(|(oj, routed)| {
                Box::new(CountingJointWriter {
                    joint: fm.register_joint(oj),
                    routed: routed.clone(),
                }) as Box<dyn FrameWriter>
            })
            .collect();
        let plan = Arc::clone(&self.plan);
        let parse_calls = self.metrics.parse_calls.clone();
        let no_match = self.no_match.clone();
        let fields = plan.route_fields();
        let route_fn = Arc::new(move |rec: &Record| -> Vec<usize> {
            // one predicate evaluation pass per record, the same evaluator
            // whether it sees a projection or the whole tree
            let route = |value: &asterix_adm::AdmValue| plan.route_record(value, rec.gen_at);
            let routed = match &fields {
                Some(fields) => asterix_adm::with_fields(&rec.payload, fields, &parse_calls, route),
                None => {
                    parse_calls.add(1);
                    decode_value(&rec.payload).map(|value| route(&value))
                }
            };
            // undecodable records cannot be routed; count them with the
            // no-match family rather than killing the trunk
            let targets = routed.unwrap_or_default();
            if targets.is_empty() {
                no_match.inc();
            }
            targets
        });
        let router = RouterOperator::new(route_fn, outputs);
        Ok(OperatorRuntime::Unary(Box::new(router), output))
    }
}

/// Writer depositing frames into one sink's joint while metering routed
/// records. Unlike [`JointWriter`] there is no close path: the router
/// task's own output carries the job-edge lifecycle, and the out joints are
/// retired by the controller when the plan is dismantled.
struct CountingJointWriter {
    joint: Arc<FeedJoint>,
    routed: asterix_common::Counter,
}

impl FrameWriter for CountingJointWriter {
    fn open(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn next_frame(&mut self, frame: DataFrame) -> IngestResult<()> {
        self.routed.add(frame.len() as u64);
        self.joint.deposit(frame)
    }

    fn close(&mut self) -> IngestResult<()> {
        Ok(())
    }

    fn fail(&mut self) {}
}

// ---------------------------------------------------------------------------
// Store stage
// ---------------------------------------------------------------------------

/// Ack emission plumbing for the store stage.
pub struct StoreAck {
    /// Per-intake-partition ack senders.
    pub txs: Vec<Sender<AckBatch>>,
    /// Grouping window.
    pub window: SimDuration,
}

/// Paired at-least-once channels for `partitions` tracker partitions: the
/// intake side (replay timeout) and the store side (ack grouping window).
pub fn ack_channels(
    partitions: usize,
    timeout: SimDuration,
    window: SimDuration,
) -> (Arc<AckPlumbing>, Arc<StoreAck>) {
    let (txs, rxs) = (0..partitions)
        .map(|_| crossbeam_channel::unbounded())
        .unzip();
    (
        Arc::new(AckPlumbing { rxs, timeout }),
        Arc::new(StoreAck { txs, window }),
    )
}

/// Descriptor for the store (IndexInsert) operator.
pub struct StoreDesc {
    /// Target dataset.
    pub dataset: Arc<Dataset>,
    /// Type registry for record validation; `None` skips validation.
    pub registry: Option<Arc<TypeRegistry>>,
    /// The feed a sandbox termination names.
    pub feed: FeedId,
    /// Connection policy.
    pub policy: IngestionPolicy,
    /// Shared metrics.
    pub metrics: Arc<FeedMetrics>,
    /// Soft-failure log.
    pub log: SoftFailureLog,
    /// Optional dataset for persisted failure logging.
    pub log_dataset: Option<Arc<Dataset>>,
    /// At-least-once ack plumbing.
    pub ack: Option<Arc<StoreAck>>,
}

impl OperatorDescriptor for StoreDesc {
    fn name(&self) -> String {
        format!("IndexInsert({})", self.dataset.config.name)
    }

    fn constraints(&self) -> Constraint {
        // each store instance is co-located with its dataset partition
        Constraint::Locations(self.dataset.config.nodegroup.clone())
    }

    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let expected = self.dataset.partition_node(ctx.partition);
        if expected != ctx.node.id() {
            return Err(IngestError::Plan(format!(
                "store partition {} must run on {expected}, scheduled on {}",
                ctx.partition,
                ctx.node.id()
            )));
        }
        let store = StoreFeed {
            sandbox: Sandbox::new(
                self.name(),
                self.feed,
                self.policy.clone(),
                Arc::clone(&self.metrics),
                Arc::clone(&self.log),
                self.log_dataset.clone(),
                ctx.clock.clone(),
            ),
            partition: self.dataset.partition(ctx.partition),
            datatype: AdmType::Named(self.dataset.config.datatype.clone()),
            registry: self.registry.clone(),
            metrics: Arc::clone(&self.metrics),
            ack_sender: self
                .ack
                .as_ref()
                .map(|a| AckSender::new(a.txs.clone(), a.window, ctx.clock.clone())),
        };
        Ok(OperatorRuntime::Unary(Box::new(store), output))
    }
}

/// The frame-granular store operator. A record reaches it as bytes — its
/// binary ADM payload — and stays bytes: per frame the operator hands every
/// payload (a refcount bump of the record's buffer; it never decodes one) to
/// the partition in **one** `upsert_batch_bytes` call. The partition runs the
/// one checked walk over each payload — well-formedness and datatype
/// conformance in the same pass — and then: one partition lock, one
/// multi-entry WAL append of the copied bytes, the memtable sharing the
/// buffers. What the walk rejects comes back as a per-record soft failure,
/// and the §6.1 sandbox bookkeeping runs over the outcomes in arrival order,
/// so soft-failure logging (the record rendered for humans with
/// `to_display_string`) and the consecutive-failure cutoff behave exactly
/// like a record-at-a-time path.
struct StoreFeed {
    sandbox: Sandbox,
    partition: Arc<asterix_storage::DatasetPartition>,
    datatype: AdmType,
    registry: Option<Arc<TypeRegistry>>,
    metrics: Arc<FeedMetrics>,
    ack_sender: Option<AckSender>,
}

impl UnaryOperator for StoreFeed {
    fn next_frame(&mut self, frame: DataFrame, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        let records = frame.records();
        let batch: Vec<_> = records.iter().map(|r| r.payload.clone()).collect();
        let conform = self.registry.as_deref().map(|reg| (reg, &self.datatype));
        // the group commit: checked walk, WAL first (one block), then primary
        // + secondary updates under one acquisition of the partition lock
        let outcome = self.partition.upsert_batch_bytes(&batch, conform)?;
        let mut soft: Vec<Option<IngestError>> = Vec::new();
        soft.resize_with(records.len(), || None);
        for (i, e) in outcome.soft {
            soft[i] = Some(e);
        }
        for (rec, soft) in records.iter().zip(soft) {
            match soft {
                None => {
                    self.sandbox.record_ok();
                    // the record is durable (post-group-commit): close the
                    // end-to-end lag measurement opened at generation time
                    if let Some(gen_at) = rec.gen_at {
                        self.metrics.lag_from(gen_at);
                    }
                    if let Some(s) = &mut self.ack_sender {
                        s.ack(rec);
                    }
                }
                Some(e) if self.sandbox.recoverable(&e) => {
                    self.sandbox.record_soft(&e, rec)?;
                }
                Some(e) => return Err(e),
            }
        }
        self.metrics.persisted(outcome.committed as u64);
        self.metrics.frames_stored.add(1);
        Ok(())
    }

    fn close(&mut self, _output: &mut dyn FrameWriter) -> IngestResult<()> {
        Ok(())
    }

    fn fail(&mut self) {}
}

/// The hash-partitioning key function for the store connector: hash of the
/// record's primary key (falls back to hashing raw bytes on undecodable
/// payloads — the store's sandbox reports those as soft failures).
///
/// Just the key is decoded out of the record's bytes. Only a record with no
/// primary key needs the whole value, and that decode is counted in
/// `parse_calls` like every other stage's.
pub fn store_key_fn(
    primary_key: String,
    parse_calls: Counter,
) -> Arc<dyn Fn(&Record) -> u64 + Send + Sync> {
    let fields = [primary_key];
    Arc::new(move |rec: &Record| {
        let key_hash =
            |v: &asterix_adm::AdmValue| v.field(&fields[0]).map(asterix_adm::hash::hash_value);
        asterix_adm::with_fields(&rec.payload, &fields, &parse_calls, key_hash)
            .and_then(|hash| match hash {
                Some(hash) => Ok(hash),
                // no primary key: the whole value routes the record
                None => {
                    parse_calls.add(1);
                    decode_value(&rec.payload).map(|v| asterix_adm::hash::hash_value(&v))
                }
            })
            .unwrap_or_else(|_| {
                // raw-byte hash keeps routing deterministic
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &b in rec.payload.iter() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::{RecordId, SimClock};
    use asterix_hyracks::cluster::{Cluster, ClusterConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn metrics() -> Arc<FeedMetrics> {
        FeedMetrics::with_default_bucket(SimClock::fast())
    }

    type MetaRig<F> = (MetaFeed<F>, Arc<FeedMetrics>, SoftFailureLog);

    fn meta_with<F>(policy: IngestionPolicy, process: F) -> MetaRig<F>
    where
        F: FnMut(&Record) -> IngestResult<Option<Record>> + Send,
    {
        let m = metrics();
        let log = new_soft_failure_log();
        let meta = MetaFeed::new(
            "test-op",
            FeedId(7),
            policy,
            Arc::clone(&m),
            Arc::clone(&log),
            None,
            SimClock::fast(),
            process,
            None,
        );
        (meta, m, log)
    }

    fn frame_of(payloads: &[&str]) -> DataFrame {
        DataFrame::from_records(
            payloads
                .iter()
                .enumerate()
                .map(|(i, p)| Record::tracked(RecordId(i as u64), 0, p.to_string()))
                .collect(),
        )
    }

    struct CaptureWriter(Vec<DataFrame>);
    impl FrameWriter for CaptureWriter {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, f: DataFrame) -> IngestResult<()> {
            self.0.push(f);
            Ok(())
        }
        fn close(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn fail(&mut self) {}
    }

    /// A push source the test feeds by hand, counting how often it is polled.
    #[derive(Clone, Default)]
    struct HandFed {
        lines: Arc<Mutex<std::collections::VecDeque<Record>>>,
        polls: Arc<AtomicUsize>,
    }

    impl HandFed {
        fn push(&self, ids: std::ops::Range<u64>) {
            let recs = ids.map(|i| Record::tracked(RecordId(i), 0, "x"));
            self.lines.lock().extend(recs);
        }

        fn polls(&self) -> usize {
            self.polls.load(Ordering::SeqCst)
        }
    }

    impl FeedAdaptor for HandFed {
        fn poll(
            &mut self,
            emit: crate::adaptor::EmitFn<'_>,
            budget: usize,
        ) -> IngestResult<SourcePoll> {
            self.polls.fetch_add(1, Ordering::SeqCst);
            let batch: Vec<Record> = {
                let mut lines = self.lines.lock();
                let n = budget.min(lines.len());
                lines.drain(..n).collect()
            };
            if batch.is_empty() {
                return Ok(SourcePoll::Idle(None));
            }
            batch.into_iter().try_for_each(emit)?;
            Ok(SourcePoll::Produced)
        }
    }

    /// The job edge of a collect: records whether it was closed.
    struct Edge(Arc<AtomicBool>);
    impl FrameWriter for Edge {
        fn open(&mut self) -> IngestResult<()> {
            Ok(())
        }
        fn next_frame(&mut self, _f: DataFrame) -> IngestResult<()> {
            panic!("a collect's frames go to its joint, not down the job edge")
        }
        fn close(&mut self) -> IngestResult<()> {
            self.0.store(true, Ordering::SeqCst);
            Ok(())
        }
        fn fail(&mut self) {}
    }

    /// A collect over a hand-fed source, polled by the test instead of the
    /// scheduler so every step of the cadence is observable.
    struct CollectRig {
        cluster: Cluster,
        source: HandFed,
        collect: CollectSource,
        closed: Arc<AtomicBool>,
        stop: StopToken,
    }

    /// One node without failure detection: a heartbeat thread starved by
    /// sibling tests must not declare the node (and its collect) dead.
    fn one_node_cluster(workers: usize) -> Cluster {
        let config = ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        };
        Cluster::start_with_workers(1, SimClock::fast(), config, workers)
    }

    fn collect_rig() -> CollectRig {
        let cluster = one_node_cluster(1);
        let source = HandFed::default();
        let closed = Arc::new(AtomicBool::new(false));
        let collect = CollectSource {
            adaptor: Box::new(source.clone()),
            joint: FeedJoint::new("F"),
            node: cluster.nodes()[0].clone(),
            output: Box::new(Edge(Arc::clone(&closed))),
            builder: FrameBuilder::default(),
            next_flush: None,
        };
        CollectRig {
            cluster,
            source,
            collect,
            closed,
            stop: StopToken::new(),
        }
    }

    impl CollectRig {
        fn poll(&mut self) -> SourcePoll {
            self.collect.poll(&self.stop).unwrap()
        }
    }

    fn next_frame_len(sub: &JointSubscription) -> Option<usize> {
        match sub.try_recv() {
            Some(JointRecv::Frame(f)) => Some(f.len()),
            Some(other) => panic!("expected a frame, got {other:?}"),
            None => None,
        }
    }

    #[test]
    fn unsubscribed_collect_never_touches_its_adaptor() {
        let mut rig = collect_rig();
        rig.source.push(0..10);
        for _ in 0..3 {
            assert_eq!(rig.poll(), SourcePoll::Idle(None));
        }
        assert_eq!(rig.source.polls(), 0, "adaptor use is deferred");
        let sub = rig.collect.joint.subscribe("conn");
        assert_eq!(rig.poll(), SourcePoll::Produced);
        assert_eq!(rig.source.polls(), 1);
        assert_eq!(
            next_frame_len(&sub),
            None,
            "10 records: neither full nor due"
        );
        rig.cluster.shutdown();
    }

    #[test]
    fn sixty_four_records_make_exactly_one_full_frame_at_once() {
        let mut rig = collect_rig();
        let sub = rig.collect.joint.subscribe("conn");
        rig.source.push(0..(DEFAULT_FRAME_CAPACITY as u64 + 3));
        assert_eq!(rig.poll(), SourcePoll::Produced);
        assert_eq!(next_frame_len(&sub), Some(DEFAULT_FRAME_CAPACITY));
        assert_eq!(
            next_frame_len(&sub),
            None,
            "the 3 left over wait for the tick"
        );
        rig.cluster.shutdown();
    }

    #[test]
    fn lone_record_reaches_the_joint_within_one_tick_and_one_poll() {
        let mut rig = collect_rig();
        let sub = rig.collect.joint.subscribe("conn");
        assert!(
            matches!(rig.poll(), SourcePoll::Idle(Some(_))),
            "tick armed"
        );
        rig.source.push(0..1);
        let arrived = Instant::now();
        assert_eq!(rig.poll(), SourcePoll::Produced);
        assert_eq!(next_frame_len(&sub), None, "held for the tick");
        // idle now, and told to come back no later than the tick: following
        // that advice, the poll that finds the tick due delivers the record
        while next_frame_len(&sub).is_none() {
            let SourcePoll::Idle(Some(wait)) = rig.poll() else {
                panic!("an idle collect names its next look");
            };
            assert!(
                wait <= COLLECT_FLUSH_TICK,
                "idle wait {wait:?} over the tick"
            );
            assert!(arrived.elapsed() < 2 * COLLECT_FLUSH_TICK + Duration::from_millis(20));
            std::thread::sleep(wait);
        }
        rig.cluster.shutdown();
    }

    #[test]
    fn stop_and_hand_over_flush_the_partial_frame() {
        for hand_over in [false, true] {
            let mut rig = collect_rig();
            let sub = rig.collect.joint.subscribe("conn");
            rig.source.push(0..3);
            assert_eq!(rig.poll(), SourcePoll::Produced);
            assert_eq!(next_frame_len(&sub), None);
            if hand_over {
                rig.stop.stop_abandon();
            } else {
                rig.stop.stop();
            }
            assert_eq!(rig.poll(), SourcePoll::Done);
            assert_eq!(next_frame_len(&sub), Some(3), "hand_over={hand_over}");
            assert!(rig.closed.load(Ordering::SeqCst));
            rig.cluster.shutdown();
        }
    }

    #[test]
    fn collect_far_ahead_of_its_subscriber_pauses_between_polls() {
        let mut rig = collect_rig();
        let sub = rig.collect.joint.subscribe("slow");
        let lead = (COLLECT_LEAD_FRAMES * DEFAULT_FRAME_CAPACITY) as u64;
        rig.source.push(0..lead + 2 * COLLECT_POLL_BUDGET as u64);
        // full speed while the subscriber is within reach...
        let mut polled = rig.poll();
        while rig.collect.joint.backlog() <= COLLECT_LEAD_FRAMES {
            assert_eq!(polled, SourcePoll::Produced);
            polled = rig.poll();
        }
        // ...then a pause after each poll — a pause, not a stop
        assert_eq!(polled, SourcePoll::Idle(Some(COLLECT_LEAD_PAUSE)));
        let queued = rig.collect.joint.backlog();
        assert_eq!(rig.poll(), SourcePoll::Idle(Some(COLLECT_LEAD_PAUSE)));
        assert!(rig.collect.joint.backlog() > queued, "still pulling");
        // the subscriber catches up: full speed again
        while next_frame_len(&sub).is_some() {}
        rig.source.push(0..10);
        assert_eq!(rig.poll(), SourcePoll::Produced);
        rig.cluster.shutdown();
    }

    #[test]
    fn collect_yields_while_a_subscriber_queue_is_full() {
        use crate::adaptor::{bind_socket, unbind_socket, SocketAdaptorFactory};
        use asterix_hyracks::connector::ConnectorSpec;
        use asterix_hyracks::executor::run_job;
        use asterix_hyracks::job::JobSpec;

        // ONE worker: a collect that blocked in `deposit` would take the
        // whole pool with it
        let cluster = one_node_cluster(1);
        let node = cluster.nodes()[0].clone();
        // more lines than the 1 024-frame subscriber queue holds
        let n = 1024 * DEFAULT_FRAME_CAPACITY + 2000;
        let tx = bind_socket("sock:backpressure", n).unwrap();
        for i in 0..n {
            tx.send(format!("{{\"id\":{i}}}")).unwrap();
        }
        // a subscriber that does not drain
        let joint = FeedManager::on(&node).register_joint("Slow");
        let sub = joint.subscribe("stalled");

        let collect_job = |name: &str| {
            let mut job = JobSpec::new(name);
            let mut config = AdaptorConfig::new();
            config.insert("sockets".into(), "sock:backpressure".into());
            let collect = job.add_operator(Box::new(CollectDesc {
                joint_id: "Slow".into(),
                factory: Arc::new(SocketAdaptorFactory),
                config,
                locations: vec![node.id()],
                malformed_lines: Counter::new(),
            }));
            let sink = job.add_operator(Box::new(NullSinkDesc {
                locations: vec![node.id()],
            }));
            job.connect(collect, sink, ConnectorSpec::OneToOne);
            job
        };
        let handle = run_job(&cluster, collect_job("collect")).unwrap();

        // the queue fills up to the collect's head-room margin and stops there
        let deadline = Instant::now() + Duration::from_secs(60);
        while joint.headroom() >= COLLECT_FRAMES_PER_POLL {
            assert!(Instant::now() < deadline, "queue never filled");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(100));
        let in_socket = tx.len();
        assert!(in_socket > 0, "the rest of the lines stay in the socket");
        assert!(joint.headroom() > 0, "no deposit was ever blocked");
        // the one worker is free: other tasks run, and a stop request gets
        // through to the collect, which has room left for its partial frame
        let mut other = JobSpec::new("other");
        other.add_operator(Box::new(NullSourceDesc));
        let other = run_job(&cluster, other).unwrap();
        handle.stop_sources();
        let deadline = Instant::now() + Duration::from_secs(10);
        while other.is_running() || handle.is_running() {
            assert!(Instant::now() < deadline, "the only worker is parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.wait_ok().unwrap();
        // a successor finds the queue as full and yields just the same
        let successor = run_job(&cluster, collect_job("collect-2")).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(tx.len(), in_socket, "no line left the socket meanwhile");

        // the subscriber resumes: the successor picks the socket up where
        // the first collect left it
        let mut ids = Vec::with_capacity(n);
        let deadline = Instant::now() + Duration::from_secs(60);
        while ids.len() < n {
            assert!(Instant::now() < deadline, "got {} of {n}", ids.len());
            while let Some(JointRecv::Frame(f)) = sub.try_recv() {
                for r in f.records() {
                    let v = decode_value(&r.payload).unwrap();
                    ids.push(v.field("id").unwrap().as_int().unwrap());
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            ids.iter().copied().eq(0..n as i64),
            "nothing lost, nothing reordered"
        );
        successor.stop_sources();
        successor.wait_ok().unwrap();
        unbind_socket("sock:backpressure");
        cluster.shutdown();
    }

    /// A source that ends at once: proves a worker is free to run it.
    struct NullSourceDesc;
    impl OperatorDescriptor for NullSourceDesc {
        fn name(&self) -> String {
            "null-source".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Count(1)
        }
        fn instantiate(
            &self,
            _ctx: &TaskContext,
            output: Box<dyn FrameWriter>,
        ) -> IngestResult<OperatorRuntime> {
            let source = asterix_hyracks::operator::VecSource::new(vec![], output);
            Ok(OperatorRuntime::Source(Box::new(source)))
        }
    }

    #[test]
    fn metafeed_skips_soft_failures_and_logs() {
        let (mut meta, m, log) = meta_with(IngestionPolicy::basic(), |r: &Record| {
            if &r.payload[..] == b"bad" {
                Err(IngestError::soft("cannot parse"))
            } else {
                Ok(Some(r.clone()))
            }
        });
        let mut out = CaptureWriter(Vec::new());
        meta.next_frame(frame_of(&["a", "bad", "b", "bad", "c"]), &mut out)
            .unwrap();
        assert_eq!(out.0[0].len(), 3);
        assert_eq!(m.soft_failures.get(), 2);
        let entries = log.lock();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].operator, "test-op");
        assert_eq!(entries[0].payload.as_deref(), Some("bad"));
    }

    #[test]
    fn metafeed_terminates_after_consecutive_limit() {
        let mut policy = IngestionPolicy::basic();
        policy.max_consecutive_soft_failures = 3;
        let (mut meta, _m, _log) =
            meta_with(policy, |_r: &Record| Err(IngestError::soft("always fails")));
        let mut out = CaptureWriter(Vec::new());
        let err = meta
            .next_frame(frame_of(&["a", "b", "c", "d", "e"]), &mut out)
            .unwrap_err();
        // the termination names the sandbox's own feed (used to say FEED0)
        assert!(
            matches!(err, IngestError::FeedTerminated { feed, .. } if feed == FeedId(7)),
            "{err}"
        );
    }

    #[test]
    fn metafeed_success_resets_consecutive_count() {
        let mut policy = IngestionPolicy::basic();
        policy.max_consecutive_soft_failures = 2;
        let (mut meta, _m, _log) = meta_with(policy, |r: &Record| {
            if &r.payload[..] == b"bad" {
                Err(IngestError::soft("x"))
            } else {
                Ok(Some(r.clone()))
            }
        });
        let mut out = CaptureWriter(Vec::new());
        // alternating failures never hit the consecutive limit
        meta.next_frame(
            frame_of(&["bad", "ok", "bad", "ok", "bad", "ok", "bad"]),
            &mut out,
        )
        .unwrap();
    }

    #[test]
    fn metafeed_propagates_soft_error_when_recovery_disabled() {
        let mut policy = IngestionPolicy::basic();
        policy.recover_soft_failure = false;
        let (mut meta, _m, _log) = meta_with(policy, |_r: &Record| Err(IngestError::soft("boom")));
        let mut out = CaptureWriter(Vec::new());
        let err = meta.next_frame(frame_of(&["a"]), &mut out).unwrap_err();
        assert!(err.is_soft());
    }

    #[test]
    fn metafeed_hard_errors_pass_through() {
        let (mut meta, _m, _log) = meta_with(IngestionPolicy::basic(), |_r: &Record| {
            Err(IngestError::Storage("disk on fire".into()))
        });
        let mut out = CaptureWriter(Vec::new());
        let err = meta.next_frame(frame_of(&["a"]), &mut out).unwrap_err();
        assert!(matches!(err, IngestError::Storage(_)));
    }

    #[test]
    fn store_key_fn_routes_by_primary_key() {
        use asterix_adm::payload_from_text;
        let parse_calls = Counter::new();
        let key_fn = store_key_fn("id".into(), parse_calls.clone());
        let rec = |id: u64, text: &str| {
            Record::tracked(RecordId(id), 0, payload_from_text(text).unwrap())
        };
        let r1 = rec(0, "{\"id\":\"a\",\"x\":1}");
        let r2 = rec(1, "{\"id\":\"a\",\"x\":2}");
        let r3 = rec(2, "{\"id\":\"b\",\"x\":1}");
        assert_eq!(key_fn(&r1), key_fn(&r2), "same key, same route");
        assert_ne!(key_fn(&r1), key_fn(&r3));
        assert_eq!(parse_calls.get(), 0, "key projections are not decodes");
        // no primary key: the whole value routes it, and the decode counts
        let keyless = rec(3, "{\"x\":1}");
        assert_eq!(key_fn(&keyless), key_fn(&rec(4, "{\"x\":1}")));
        assert_eq!(parse_calls.get(), 2);
        // undecodable payloads still route deterministically
        let bad = Record::tracked(RecordId(4), 0, "}{");
        assert_eq!(key_fn(&bad), key_fn(&bad));
    }

    #[test]
    fn soft_failure_log_renders_binary_payloads_as_text() {
        use asterix_adm::payload_from_text;
        let (mut meta, _m, log) = meta_with(IngestionPolicy::basic(), |_r: &Record| {
            Err(IngestError::soft("rejected"))
        });
        let text = "{ \"id\": \"t1\", \"n\": 5 }";
        let rec = Record::tracked(RecordId(0), 0, payload_from_text(text).unwrap());
        let mut out = CaptureWriter(Vec::new());
        meta.next_frame(DataFrame::from_records(vec![rec]), &mut out)
            .unwrap();
        let expected = asterix_adm::to_adm_string(&asterix_adm::parse_value(text).unwrap());
        let entries = log.lock();
        assert_eq!(entries[0].payload.as_deref(), Some(expected.as_str()));
    }
}
