//! One worker, and nothing may park it: a pipeline stage that meets a full
//! downstream yields its task instead of blocking the only thread that
//! could drain that downstream. Each test fills a queue behind a consumer
//! that does not drain, proves the worker is free by running another job
//! to completion, then lets the consumer drain and checks that every record
//! arrives once and in order — across an intake's death and respawn too.
//! And the source itself is held back only by a policy that buffers its
//! excess: under Spill, Discard and Throttle a stalled consumer never
//! blocks the sender of a socket feed.

use asterix_common::sync::Mutex;
use asterix_common::{
    Counter, DataFrame, FaultEvent, FaultKind, FaultPlan, FeedId, IngestResult, MetricsRegistry,
    NodeId, Record, RecordId, SimClock, SimDuration,
};
use asterix_feeds::adaptor::{bind_socket, unbind_socket, SocketAdaptorFactory};
use asterix_feeds::joint::{
    ExcessPolicy, FeedJoint, JointRecv, JointSubscription, IN_MEMORY_FRAMES, SUBSCRIBER_QUEUE_CAP,
};
use asterix_feeds::manager::FeedManager;
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::ops::{
    ack_channels, new_soft_failure_log, AssignDesc, CollectDesc, IntakeDesc, NullSinkDesc,
};
use asterix_feeds::policy::IngestionPolicy;
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext, MSGS_PER_SLICE};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{FrameWriter, OperatorRuntime, UnaryOperator, VecSource};
use asterix_hyracks::WakeHook;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A connection's metrics: the writers' handles, registered as `c` in a
/// registry of their own, and that registry, which the test reads.
struct Books {
    metrics: Arc<FeedMetrics>,
    registry: MetricsRegistry,
}

impl Books {
    fn new() -> Books {
        let registry = MetricsRegistry::new();
        let metrics = FeedMetrics::registered(&registry, "c", SimClock::fast());
        Books { metrics, registry }
    }

    /// The counter `feed.<name>` of the connection.
    fn count(&self, name: &str) -> u64 {
        let labels = &[("conn", "c")];
        self.registry.counter(&format!("feed.{name}"), labels).get()
    }

    /// The gauge `feed.<name>` of the connection.
    fn gauge(&self, name: &str) -> u64 {
        let snap = self.registry.snapshot();
        snap.gauge_for(&format!("feed.{name}"), "c").unwrap_or(0)
    }
}

/// A source emitting `frames` from each of `nodes`, one per poll.
struct FramesDesc {
    frames: Vec<DataFrame>,
    nodes: Vec<NodeId>,
}

impl OperatorDescriptor for FramesDesc {
    fn name(&self) -> String {
        "frames".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.nodes.clone())
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
        nodes: vec![node],
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
    let nodes = vec![node];
    let source = job.add_operator(Box::new(FramesDesc { frames, nodes }));
    let assign = job.add_operator(Box::new(AssignDesc {
        udf: Udf::busy_spin("identity", 0),
        out_joint_id: "Scored".into(),
        locations: vec![node],
        feed: FeedId(1),
        policy: IngestionPolicy::basic(),
        metrics: Books::new().metrics,
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

/// Two assign instances with a modelled capacity (`extra_delay_us`) park
/// on a timer between frames instead of sleeping on the one worker: a
/// sibling source's job runs to its end while they still have work, and
/// their budgets overlap — the two take about as long as one.
#[test]
fn paced_assigns_leave_the_worker_to_a_sibling_source() {
    let (cluster, node) = one_worker_node();
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("Paced");
    let sub = joint.subscribe("listener");
    // per instance: 20 frames of 64 records at 1 ms a record, 1.28 s
    let (frames, records, delay_us) = (20u64, 64u64, 1_000u64);
    let serial = Duration::from_micros(2 * frames * records * delay_us);
    let frames: Vec<DataFrame> = (0..frames)
        .map(|f| {
            let ids = f * records..(f + 1) * records;
            let payload = |i| asterix_adm::payload_from_text(&format!("{{\"id\":{i}}}")).unwrap();
            DataFrame::from_records(
                ids.map(|i| Record::tracked(RecordId(i), 0, payload(i)))
                    .collect(),
            )
        })
        .collect();
    let started = Instant::now();
    let mut job = JobSpec::new("paced");
    let nodes = vec![node, node];
    let source = job.add_operator(Box::new(FramesDesc { frames, nodes }));
    let assign = job.add_operator(Box::new(AssignDesc {
        udf: Udf::busy_spin("identity", 0),
        out_joint_id: "Paced".into(),
        locations: vec![node, node],
        feed: FeedId(1),
        policy: IngestionPolicy::basic(),
        metrics: Books::new().metrics,
        log: new_soft_failure_log(),
        log_dataset: None,
        extra_delay_us: delay_us,
    }));
    job.connect(source, assign, ConnectorSpec::OneToOne);
    let handle = run_job(&cluster, job).unwrap();

    // a sibling source pushes 50 frames through a sink meanwhile
    let mut sibling = JobSpec::new("sibling");
    let nodes = vec![node];
    let one = |i| DataFrame::from_records(vec![Record::tracked(RecordId(i), 0, "x")]);
    let source = sibling.add_operator(Box::new(FramesDesc {
        frames: (0..50).map(one).collect(),
        nodes,
    }));
    let sink = sibling.add_operator(Box::new(NullSinkDesc {
        locations: vec![node],
    }));
    sibling.connect(source, sink, ConnectorSpec::OneToOne);
    let sibling = run_job(&cluster, sibling).unwrap();
    while sibling.is_running() {
        assert!(started.elapsed() < serial, "the sibling source starved");
        std::thread::sleep(Duration::from_millis(1));
    }
    sibling.wait_ok().unwrap();
    assert!(
        handle.is_running(),
        "the sibling ran beside the paced assigns"
    );

    handle.wait_ok().unwrap();
    let took = started.elapsed();
    let ids = drain_ids(&sub, (2 * 20 * records) as usize);
    assert_eq!(
        ids.len() as u64,
        2 * 20 * records,
        "both instances, every record"
    );
    assert!(
        took < serial * 3 / 4,
        "{took:?}: the two budgets ran one after the other ({serial:?})"
    );
    cluster.shutdown();
}

/// A consumer that takes nothing while its gate is shut: its task yields,
/// so its input port fills up behind it, until [`Gate::release`] wakes it.
#[derive(Clone, Default)]
struct Gate {
    open: Arc<AtomicBool>,
    ids: Arc<Mutex<Vec<u64>>>,
    /// The consumer task's wake hook, once it runs.
    wake: Arc<Mutex<Option<WakeHook>>>,
}

impl Gate {
    /// Open the gate and wake the consumer parked on it.
    fn release(&self) {
        self.open.store(true, Ordering::SeqCst);
        if let Some(wake) = self.wake.lock().as_ref() {
            wake();
        }
    }
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
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        *self.0.wake.lock() = Some(ctx.waker.hook());
        Ok(OperatorRuntime::Unary(Box::new(self.0.clone()), output))
    }
}

/// `policy` for the feed `FeedId(1)`, counting into `m`.
fn excess(policy: IngestionPolicy, m: &Books) -> ExcessPolicy {
    ExcessPolicy::new(policy, Arc::clone(&m.metrics), FeedId(1))
}

/// Queue `n` ten-record frames, ids from 0, in the joint `In` on the one
/// node, for the subscription `spill#p0` under Spill — made first, so the
/// whole stream has met the policy when the intake first polls: the first
/// [`IN_MEMORY_FRAMES`] wait in memory, the rest are spilled.
fn stream_waiting_in_joint(cluster: &Cluster, n: u64, m: &Books) -> Arc<FeedJoint> {
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("In");
    drop(joint.subscribe_policed("spill#p0", excess(IngestionPolicy::spill(), m)));
    deposit_frames(&joint, 0..n);
    joint
}

/// Deposit the ten-record frames numbered `frames`: ids `10 * i ..`.
fn deposit_frames(joint: &FeedJoint, frames: std::ops::Range<u64>) {
    for i in frames {
        let ids = i * 10..i * 10 + 10;
        let records = ids
            .map(|id| Record::tracked(RecordId(id), 0, "x"))
            .collect();
        joint.deposit(DataFrame::from_records(records)).unwrap();
    }
}

/// A Spill intake on `spill#p0` feeding `gate` through a 4-frame port,
/// at-least-once when `ack` is given.
fn spill_intake_job(
    node: NodeId,
    m: &Books,
    gate: &Gate,
    fault_plan: Option<Arc<FaultPlan>>,
    ack: Option<Arc<asterix_feeds::ops::AckPlumbing>>,
) -> JobSpec {
    let mut job = JobSpec::new("spill-intake");
    job.queue_capacity = 4;
    let intake = job.add_operator(Box::new(IntakeDesc {
        joint_id: "In".into(),
        sub_key: "spill".into(),
        locations: vec![node],
        excess: excess(IngestionPolicy::spill(), m),
        ack,
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

/// Wait until `m` says the intake has taken `n` records.
fn wait_records_in(m: &Books, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while m.count("records_in") < n {
        assert!(Instant::now() < deadline, "took {}", m.count("records_in"));
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A Spill subscription whose consumer's port is full spills what arrives
/// and holds nothing back, without parking the worker; once the consumer
/// drains, memory comes first, then the spill, each record once and in
/// order.
#[test]
fn spill_subscription_spills_without_parking_the_worker() {
    let (cluster, node) = one_worker_node();
    let (n, more) = (100u64, 10u64);
    let m = Books::new();
    let joint = stream_waiting_in_joint(&cluster, n, &m);
    let spilled = (n - IN_MEMORY_FRAMES as u64) * 10;
    assert_eq!(m.count("records_spilled"), spilled);
    let gate = Gate::default();
    let handle = run_job(&cluster, spill_intake_job(node, &m, &gate, None, None)).unwrap();
    // the intake fills its 4-frame port and stops pulling
    wait_records_in(&m, 40);
    another_job_completes(&cluster, node);
    assert_eq!(
        m.count("records_in"),
        40,
        "it pulls only while the port has room"
    );
    assert!(gate.ids.lock().is_empty(), "the consumer took nothing");
    // arrivals while the spill is non-empty go behind it, at once
    deposit_frames(&joint, n..n + more);
    assert_eq!(m.count("records_spilled"), spilled + more * 10);
    assert_eq!(
        m.gauge("handoff_queue_frames"),
        n + more - IN_MEMORY_FRAMES as u64
    );
    assert_eq!(
        joint.headroom(),
        SUBSCRIBER_QUEUE_CAP,
        "a Spill queue holds no depositor"
    );

    // the consumer drains: memory, then the spill, each record once
    gate.release();
    wait_taken(&gate, ((n + more) * 10) as usize);
    handle.stop_sources();
    handle.wait_ok().unwrap();
    assert!(
        gate.ids.lock().iter().copied().eq(0..(n + more) * 10),
        "every record once, in order"
    );
    assert_eq!(m.count("records_despilled"), m.count("records_spilled"));
    assert_eq!(m.gauge("handoff_queue_frames"), 0);
    cluster.shutdown();
}

/// An at-least-once Spill intake that dies of an injected operator panic
/// hands the records its tracker still waits on back to the head of its
/// own subscription, and the spill outlives it there. Its respawned
/// successor takes the handed-back frame first — counted as an adopted
/// zombie frame, not a second time as arrivals — then the memory, then the
/// spill.
#[test]
fn respawned_intake_takes_the_handed_back_frames_first() {
    let (cluster, node) = one_worker_node();
    let n = 100u64;
    let m = Books::new();
    stream_waiting_in_joint(&cluster, n, &m);
    let spilled = m.count("records_spilled");
    assert!(spilled > 0);
    let plan = Arc::new(FaultPlan::from_events(
        1,
        vec![FaultEvent {
            at_record: 1,
            kind: FaultKind::OperatorPanic,
        }],
    ));
    // no ack ever comes back and none is replayed: the gate is no store
    let never = SimDuration::from_secs(1_000_000);
    let (plumbing, _store_side) = ack_channels(1, never, never);

    // the first incarnation fills its port behind a shut gate...
    let first = Gate::default();
    let job = spill_intake_job(
        node,
        &m,
        &first,
        Some(Arc::clone(&plan)),
        Some(Arc::clone(&plumbing)),
    );
    let handle = run_job(&cluster, job).unwrap();
    wait_records_in(&m, 40);
    // ...and dies at its next poll, which comes once the port drains
    plan.tick_records(1);
    first.release();
    let results = handle.wait();
    assert!(
        results.iter().any(|(_, r)| r.is_err()),
        "the injected panic fails the job"
    );
    let delivered: Vec<u64> = first.ids.lock().clone();
    assert!(!delivered.is_empty(), "what reached the port was delivered");
    assert!(delivered.iter().copied().eq(0..delivered.len() as u64));
    // it died before de-spilling anything: the spill waits for the successor
    assert_eq!(m.count("records_despilled"), 0);
    assert_eq!(m.count("records_spilled"), spilled);

    // the successor drains the subscription: the handed-back frame first
    let second = Gate::default();
    second.release();
    let handle = run_job(
        &cluster,
        spill_intake_job(node, &m, &second, None, Some(plumbing)),
    )
    .unwrap();
    wait_taken(&second, (n * 10) as usize);
    handle.stop_sources();
    handle.wait_ok().unwrap();
    let ids = second.ids.lock().clone();
    // nothing was acked, so every record the first incarnation sent is
    // re-sent — at least once — and then the stream goes on in order
    assert!(
        ids.iter().copied().eq(0..n * 10),
        "unacked records first, then memory, then the spill: {:?}",
        &ids[..ids.len().min(60)]
    );
    assert_eq!(m.count("zombie_frames_adopted"), 1, "one frame handed back");
    assert_eq!(
        m.count("records_in"),
        n * 10,
        "handed-back records counted once"
    );
    assert_eq!(m.count("records_despilled"), spilled);
    cluster.shutdown();
}

/// A socket feed into a one-worker pipeline whose consumer never drains:
/// `lines` lines sent through a 256-line socket, and whether the sender
/// got them all out; the subscription's metrics and what the consumer got
/// once it opened.
fn stalled_consumer_run(policy: IngestionPolicy, addr: &str, lines: u64) -> StalledRun {
    let (cluster, node) = one_worker_node();
    let m = Books::new();
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("Lines");
    // subscribe on the intake's behalf first, as the controller does
    drop(joint.subscribe_policed("stalled#p0", excess(policy.clone(), &m)));
    let tx = bind_socket(addr, 256).unwrap();
    let mut collect = JobSpec::new("collect");
    let source = collect.add_operator(Box::new(CollectDesc {
        joint_id: "Lines".into(),
        factory: Arc::new(SocketAdaptorFactory::SOCKET),
        config: [("sockets".to_string(), addr.to_string())].into(),
        locations: vec![node],
        malformed_lines: Counter::new(),
    }));
    let sink = collect.add_operator(Box::new(NullSinkDesc {
        locations: vec![node],
    }));
    collect.connect(source, sink, ConnectorSpec::OneToOne);
    let collect = run_job(&cluster, collect).unwrap();
    let gate = Gate::default();
    let mut store = JobSpec::new("stalled-store");
    let intake = store.add_operator(Box::new(IntakeDesc {
        joint_id: "Lines".into(),
        sub_key: "stalled".into(),
        locations: vec![node],
        excess: excess(policy, &m),
        ack: None,
        fault_plan: None,
    }));
    let consumer = store.add_operator(Box::new(GateDesc(gate.clone(), node)));
    store.connect(intake, consumer, ConnectorSpec::OneToOne);
    let store = run_job(&cluster, store).unwrap();

    let sent = Arc::new(AtomicU64::new(0));
    let sender = {
        let (tx, sent) = (tx.clone(), Arc::clone(&sent));
        std::thread::spawn(move || {
            for i in 0..lines {
                tx.send(format!("{{\"id\": {i}}}")).unwrap();
                sent.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // the sender finishes, or stops making progress against a full socket
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last = (0, Instant::now());
    let all_sent = loop {
        let now = sent.load(Ordering::SeqCst);
        if now == lines {
            break true;
        }
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() > Duration::from_millis(500) && tx.len() == 256 {
            break false;
        }
        assert!(Instant::now() < deadline, "sent {now} of {lines}");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(gate.ids.lock().is_empty(), "the consumer took nothing");
    another_job_completes(&cluster, node);
    let held_frames = joint.backlog();

    // the consumer opens: what the policy kept arrives, the sender finishes
    gate.release();
    sender.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let accounted = || {
        gate.ids.lock().len() as u64 + m.count("records_discarded") + m.count("records_throttled")
    };
    while accounted() < lines {
        assert!(
            Instant::now() < deadline,
            "{} of {lines} accounted",
            accounted()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    collect.stop_sources();
    collect.wait_ok().unwrap();
    store.stop_sources();
    store.wait_ok().unwrap();
    cluster.shutdown();
    unbind_socket(addr);
    let delivered = gate.ids.lock().len() as u64;
    StalledRun {
        all_sent,
        held_frames,
        delivered,
        m,
    }
}

struct StalledRun {
    /// The sender got every line out while the consumer was stalled.
    all_sent: bool,
    /// Frames the subscription held at that point.
    held_frames: usize,
    /// Records the consumer got in the end.
    delivered: u64,
    m: Books,
}

/// Only a policy that buffers its excess back-pressures a source: under
/// Spill, Discard and Throttle a consumer that stops never blocks the
/// socket's sender, and under Basic and Elastic it holds the sender once
/// the subscription reaches its bound.
#[test]
fn a_stalled_consumer_blocks_the_sender_only_under_basic_and_elastic() {
    // more than a full subscription, its port and the socket hold
    let lines = 80_000u64;
    let spill = stalled_consumer_run(IngestionPolicy::spill(), "one-worker-spill:1", lines);
    assert!(spill.all_sent, "Spill blocked the sender");
    assert!(spill.m.count("records_spilled") > 0);
    assert_eq!(
        spill.m.count("records_despilled"),
        spill.m.count("records_spilled")
    );
    assert_eq!(spill.delivered, lines, "Spill loses nothing");

    let discard = stalled_consumer_run(IngestionPolicy::discard(), "one-worker-discard:1", lines);
    assert!(discard.all_sent, "Discard blocked the sender");
    assert!(discard.m.count("records_discarded") > 0);
    assert!(discard.held_frames <= IN_MEMORY_FRAMES);

    let throttle =
        stalled_consumer_run(IngestionPolicy::throttle(), "one-worker-throttle:1", lines);
    assert!(throttle.all_sent, "Throttle blocked the sender");
    assert!(throttle.m.count("records_throttled") > 0);
    assert!(throttle.held_frames <= SUBSCRIBER_QUEUE_CAP);

    for (policy, addr) in [
        (IngestionPolicy::basic(), "one-worker-basic:1"),
        (IngestionPolicy::elastic(), "one-worker-elastic:1"),
    ] {
        let name = policy.name.clone();
        let held = stalled_consumer_run(policy, addr, lines);
        assert!(!held.all_sent, "{name} never held the sender");
        let bound = SUBSCRIBER_QUEUE_CAP - MSGS_PER_SLICE..=SUBSCRIBER_QUEUE_CAP + MSGS_PER_SLICE;
        assert!(
            bound.contains(&held.held_frames),
            "{name} held {}",
            held.held_frames
        );
        assert_eq!(held.delivered, lines, "{name} loses nothing");
    }
}
