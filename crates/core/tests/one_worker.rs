//! One worker, and nothing may park it: a pipeline stage that meets a full
//! downstream yields its task instead of blocking the only thread that
//! could drain that downstream. Each test fills a queue behind a consumer
//! that does not drain, proves the worker is free by running another job
//! to completion, then lets the consumer drain and checks that every record
//! arrives once and in order — across an intake's death and respawn too.

use asterix_common::sync::Mutex;
use asterix_common::{
    DataFrame, FaultEvent, FaultKind, FaultPlan, FeedId, IngestResult, NodeId, Record, RecordId,
    SimClock, SimDuration,
};
use asterix_feeds::joint::{JointRecv, JointSubscription};
use asterix_feeds::manager::FeedManager;
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::ops::{new_soft_failure_log, AssignDesc, IntakeDesc};
use asterix_feeds::policy::IngestionPolicy;
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext, MSGS_PER_SLICE};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{FrameWriter, OperatorRuntime, UnaryOperator, VecSource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One node on ONE worker, without failure detection: a heartbeat thread
/// starved by sibling tests must not declare the node dead.
fn one_worker_node() -> (Cluster, NodeId) {
    let config = ClusterConfig {
        heartbeat_interval: SimDuration::from_secs(5),
        failure_threshold: SimDuration::from_secs(1_000_000),
    };
    let cluster = Cluster::start_with_workers(1, SimClock::fast(), config, 1);
    let node = cluster.nodes()[0].id();
    (cluster, node)
}

fn metrics() -> Arc<FeedMetrics> {
    FeedMetrics::with_default_bucket(SimClock::fast())
}

/// A source emitting `frames` from `node`, one per poll.
struct FramesDesc {
    frames: Vec<DataFrame>,
    node: NodeId,
}

impl OperatorDescriptor for FramesDesc {
    fn name(&self) -> String {
        "frames".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Locations(vec![self.node])
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let source = VecSource::new(self.frames.clone(), output);
        Ok(OperatorRuntime::Source(Box::new(source)))
    }
}

/// Runs a job of one source that ends at once and waits for it: proves a
/// worker is free to run it.
fn another_job_completes(cluster: &Cluster, node: NodeId) {
    let mut other = JobSpec::new("other");
    other.add_operator(Box::new(FramesDesc {
        frames: vec![],
        node,
    }));
    let other = run_job(cluster, other).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while other.is_running() {
        assert!(Instant::now() < deadline, "the only worker is parked");
        std::thread::sleep(Duration::from_millis(1));
    }
    other.wait_ok().unwrap();
}

/// Drain `sub` until `n` records have arrived; their ids, in order.
fn drain_ids(sub: &JointSubscription, n: usize) -> Vec<u64> {
    let mut ids = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(60);
    while ids.len() < n {
        assert!(Instant::now() < deadline, "got {} of {n}", ids.len());
        while let Some(JointRecv::Frame(f)) = sub.try_recv() {
            ids.extend(f.records().iter().map(|r| r.id.raw()));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ids
}

#[test]
fn assign_yields_while_its_out_joint_subscriber_queue_is_full() {
    let (cluster, node) = one_worker_node();
    // a subscriber that does not drain, and more frames than its 1 024-frame
    // queue holds (one depositor: two racing on the same joint could each
    // overshoot by their own slice)
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("Scored");
    let sub = joint.subscribe("stalled");
    let n = 1024 + 200;
    let frames = (0..n as u64)
        .map(|i| {
            let payload = asterix_adm::payload_from_text(&format!("{{\"id\":{i}}}")).unwrap();
            DataFrame::from_records(vec![Record::tracked(RecordId(i), 0, payload)])
        })
        .collect();
    let mut job = JobSpec::new("assign");
    let source = job.add_operator(Box::new(FramesDesc { frames, node }));
    let assign = job.add_operator(Box::new(AssignDesc {
        udf: Udf::busy_spin("identity", 0),
        out_joint_id: "Scored".into(),
        locations: vec![node],
        feed: FeedId(1),
        policy: IngestionPolicy::basic(),
        metrics: metrics(),
        log: new_soft_failure_log(),
        log_dataset: None,
        extra_delay_us: 0,
    }));
    job.connect(source, assign, ConnectorSpec::OneToOne);
    let handle = run_job(&cluster, job).unwrap();

    // the queue fills to within one slice of its bound and stops there
    let deadline = Instant::now() + Duration::from_secs(60);
    while joint.headroom() >= MSGS_PER_SLICE {
        assert!(Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.is_running(), "the assign waits for room");
    another_job_completes(&cluster, node);

    // the subscriber resumes: every record arrives once, in order
    let ids = drain_ids(&sub, n);
    assert!(
        ids.iter().copied().eq(0..n as u64),
        "nothing lost, nothing reordered"
    );
    handle.wait_ok().unwrap();
    cluster.shutdown();
}

/// A consumer that takes nothing while its gate is shut: its task yields,
/// so its input port fills up behind it.
#[derive(Clone, Default)]
struct Gate {
    open: Arc<AtomicBool>,
    ids: Arc<Mutex<Vec<u64>>>,
}

impl UnaryOperator for Gate {
    fn next_frame(&mut self, f: DataFrame, _out: &mut dyn FrameWriter) -> IngestResult<()> {
        self.ids
            .lock()
            .extend(f.records().iter().map(|r| r.id.raw()));
        Ok(())
    }
    fn is_saturated(&self) -> bool {
        !self.open.load(Ordering::SeqCst)
    }
}

struct GateDesc(Gate, NodeId);

impl OperatorDescriptor for GateDesc {
    fn name(&self) -> String {
        "gate".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Locations(vec![self.1])
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Unary(Box::new(self.0.clone()), output))
    }
}

/// Queue `n` ten-record frames, ids from 0, in the joint `In` on the one
/// node, for the subscription `spill#p0` — created first, so the whole
/// stream is waiting in the joint when the intake first polls.
fn stream_waiting_in_joint(cluster: &Cluster, n: u64) {
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("In");
    drop(joint.subscribe("spill#p0"));
    for i in 0..n {
        let ids = i * 10..i * 10 + 10;
        let records = ids
            .map(|id| Record::tracked(RecordId(id), 0, "x"))
            .collect();
        joint.deposit(DataFrame::from_records(records)).unwrap();
    }
}

/// A Spill intake on `spill#p0` feeding `gate` through a 4-frame port: its
/// first slice pulls 8 frames, and 4 are excess.
fn spill_intake_job(
    node: NodeId,
    m: &Arc<FeedMetrics>,
    gate: &Gate,
    fault_plan: Option<Arc<FaultPlan>>,
) -> JobSpec {
    let mut job = JobSpec::new("spill-intake");
    job.queue_capacity = 4;
    let intake = job.add_operator(Box::new(IntakeDesc {
        joint_id: "In".into(),
        sub_key: "spill".into(),
        locations: vec![node],
        policy: IngestionPolicy::spill(),
        metrics: Arc::clone(m),
        ack: None,
        feed: FeedId(1),
        fault_plan,
    }));
    let consumer = job.add_operator(Box::new(GateDesc(gate.clone(), node)));
    job.connect(intake, consumer, ConnectorSpec::OneToOne);
    job
}

/// Wait until `gate` has taken `n` records.
fn wait_taken(gate: &Gate, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while gate.ids.lock().len() < n {
        assert!(Instant::now() < deadline, "got {}", gate.ids.lock().len());
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn spill_intake_defers_without_parking_the_worker() {
    let (cluster, node) = one_worker_node();
    let n = 100u64;
    stream_waiting_in_joint(&cluster, n);
    let m = metrics();
    let gate = Gate::default();
    let handle = run_job(&cluster, spill_intake_job(node, &m, &gate, None)).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    while m.records_spilled.get() == 0 || m.handoff_queue_frames.get() == 0 {
        assert!(Instant::now() < deadline, "nothing spilled and held back");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(gate.ids.lock().is_empty(), "the consumer took nothing");
    another_job_completes(&cluster, node);

    // the consumer drains: spill first, then the joint, each record once
    gate.open.store(true, Ordering::SeqCst);
    wait_taken(&gate, (n * 10) as usize);
    handle.stop_sources();
    handle.wait_ok().unwrap();
    assert!(
        gate.ids.lock().iter().copied().eq(0..n * 10),
        "every record once, in order"
    );
    assert!(m.records_spilled.get() > 0);
    assert_eq!(m.records_despilled.get(), m.records_spilled.get());
    cluster.shutdown();
}

/// An intake that dies of an injected operator panic hands the frames it
/// deferred back to the head of its own subscription. Its respawned
/// successor takes them first — counted as adopted zombie frames, not a
/// second time as arrivals — and then the rest of the stream.
#[test]
fn respawned_intake_takes_the_handed_back_frames_first() {
    let (cluster, node) = one_worker_node();
    let n = 100u64;
    stream_waiting_in_joint(&cluster, n);
    let m = metrics();
    let plan = Arc::new(FaultPlan::from_events(
        1,
        vec![FaultEvent {
            at_record: 1,
            kind: FaultKind::OperatorPanic,
        }],
    ));

    // the first incarnation spills its excess behind a shut gate...
    let first = Gate::default();
    let job = spill_intake_job(node, &m, &first, Some(Arc::clone(&plan)));
    let handle = run_job(&cluster, job).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while m.records_spilled.get() == 0 || m.handoff_queue_frames.get() == 0 {
        assert!(Instant::now() < deadline, "nothing spilled and held back");
        std::thread::sleep(Duration::from_millis(2));
    }
    // ...and dies at its next poll, which comes once the port drains
    plan.tick_records(1);
    first.open.store(true, Ordering::SeqCst);
    let results = handle.wait();
    assert!(
        results.iter().any(|(_, r)| r.is_err()),
        "the injected panic fails the job"
    );
    let delivered = first.ids.lock().len();
    assert!(delivered > 0, "what reached the port was delivered");
    // it died before de-spilling anything: every spilled frame went back
    assert_eq!(m.records_despilled.get(), 0);
    let handed_back = m.records_spilled.get() / 10;

    // the successor drains the subscription: handed-back frames first
    let second = Gate::default();
    second.open.store(true, Ordering::SeqCst);
    let handle = run_job(&cluster, spill_intake_job(node, &m, &second, None)).unwrap();
    wait_taken(&second, (n * 10) as usize - delivered);
    handle.stop_sources();
    handle.wait_ok().unwrap();
    let ids: Vec<u64> = (first.ids.lock().iter())
        .chain(second.ids.lock().iter())
        .copied()
        .collect();
    assert!(
        ids.iter().copied().eq(0..n * 10),
        "every record once, in order"
    );
    assert_eq!(m.zombie_frames_adopted.get(), handed_back);
    assert_eq!(
        m.records_in.get(),
        n * 10,
        "handed-back records counted once"
    );
    cluster.shutdown();
}
