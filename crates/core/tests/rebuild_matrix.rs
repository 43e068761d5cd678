//! Rebuild matrix: every pipeline shape × every event that makes the
//! controller rebuild part of a running cascade, under a steady source.
//!
//! Shapes: a raw feed into a dataset; a one-UDF feed; a two-UDF chain whose
//! first stage is shared with a second connection; a two-sink `FirstMatch`
//! plan (one UDF stage, a route, an at-least-once sink and a Spill sink).
//! Triggers: kill an intake node, kill a compute node, scale the compute
//! stage out and back in, scale the intake in and back out, disconnect one
//! of two consumers.
//!
//! After each trigger the test takes one read-only snapshot of the segment
//! table and checks the graph invariants ([`check_graph`]): every running
//! consumer's intake sits exactly where its input joint's producer is
//! placed, every joint is registered on exactly the nodes of its producer's
//! placement and nowhere else, no `Active` connection lacks a running job,
//! and — after `gc_segments` — no producer is left without a subscriber.
//!
//! Then it checks the data. What can be promised depends on what the
//! trigger destroys:
//!
//! * **Exact** — the persisted id set equals the generated one (duplicates
//!   collapse on the primary key). A rebuild by itself loses nothing: the
//!   rebuilt jobs hand their stream over (deferred work is parked and
//!   migrated, frames in flight drain through the old job), so scaling and
//!   disconnecting are exact for every sink, at-least-once or not. A node
//!   kill is exact for a connection whose at-least-once custodian — the
//!   adaptor-side intake: the depth-1 compute intake, or the store intake of
//!   a raw feed — survives it, because what died with the node is replayed.
//! * **Live** — nothing is invented (persisted ⊆ generated) and ingestion
//!   resumes after the rebuild. This is all the design promises when the
//!   custodian's own node dies (its memory is gone, §6.2.2), and for the
//!   sinks of a routed plan when a trunk node dies: the trunk is lossless
//!   Spill but not at-least-once, so frames on the dead node never reach
//!   the sink's custody.
//!
//! Routing conservation (`plan.sink.records_routed` summed over the sinks =
//! the route trunk's `records_in` − `plan.route.no_match_total`) is asserted
//! when the route job is never rebuilt. Across a rebuild the sum can only
//! exceed it: frames the old intake parks as zombie state while its hand-off
//! queue still drains are routed by both the old job and its successor.
//!
//! `REBUILD_MATRIX_TRANSPORT=tcp` runs the same matrix over the TCP wire.

use asterix_adm::types::paper_registry;
use asterix_adm::{parse_value, AdmValue};
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{
    ConnectionId, ConnectionState, ControllerConfig, FeedController, SegmentInfo,
};
use asterix_feeds::manager::FeedManager;
use asterix_feeds::plan::{IngestPlan, IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::transport::TransportKind;
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetFactory, TweetGen, TweetGenConfig};

// Node roles: the two collect instances start on nodes 0 and 1, the compute
// stage (parallelism 2, offset 2) on nodes 2 and 3, node 4 is spare, and
// every dataset lives on node 5 alone — so no trigger ever suspends a store.
const NODES: usize = 6;
const STORE_NODE: NodeId = NodeId(5);
const INTAKE_VICTIM: NodeId = NodeId(1);
const COMPUTE_VICTIM: NodeId = NodeId(2);
const ROOT: &str = "TwitterFeed";
const STAGE1: &str = "TwitterFeed:addHashTags";

#[derive(Clone, Copy, PartialEq, Debug)]
enum Shape {
    Raw,
    OneUdf,
    TwoUdfShared,
    RoutedPlan,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Trigger {
    KillIntakeNode,
    KillComputeNode,
    ScaleCompute,
    ScaleIntake,
    Disconnect,
}

fn transport() -> TransportKind {
    match std::env::var("REBUILD_MATRIX_TRANSPORT").as_deref() {
        Ok("tcp") => TransportKind::Tcp,
        _ => TransportKind::InProcess,
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn dataset_ids(dataset: &Dataset) -> BTreeSet<String> {
    dataset
        .scan_all()
        .iter()
        .filter_map(|r| r.field("id").and_then(AdmValue::as_str).map(String::from))
        .collect()
}

struct Rig {
    cluster: Cluster,
    catalog: Arc<FeedCatalog>,
    controller: Arc<FeedController>,
    gens: Vec<TweetGen>,
    /// The `datasource` parameter naming both generators.
    datasource: String,
}

impl Rig {
    /// A 6-node cluster with fast failure detection and two TweetGen
    /// sources (`secs` sim-seconds at 100 twps each).
    fn start(cell: &str, secs: u64) -> Rig {
        let clock = SimClock::with_scale(100.0); // 100 real ms per sim-second
        let cluster = Cluster::start(
            NODES,
            clock.clone(),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(250),
                failure_threshold: SimDuration::from_millis(1500),
            },
        );
        let catalog = FeedCatalog::new(paper_registry());
        let controller = FeedController::start(
            cluster.clone(),
            Arc::clone(&catalog),
            ControllerConfig {
                compute_parallelism: Some(2),
                compute_node_offset: 2,
                transport: transport(),
                ..ControllerConfig::default()
            },
        );
        catalog.create_function(Udf::add_hash_tags()).unwrap();
        catalog.create_function(Udf::sentiment_analysis()).unwrap();
        let addrs = [format!("{cell}-a:9000"), format!("{cell}-b:9000")];
        let gens = (0u32..)
            .zip(&addrs)
            .map(|(i, addr)| {
                let pattern = PatternDescriptor::constant(100, secs);
                TweetGen::bind(
                    TweetGenConfig::new(addr.as_str(), i, pattern),
                    clock.clone(),
                )
                .unwrap()
            })
            .collect();
        Rig {
            cluster,
            catalog,
            controller,
            gens,
            datasource: addrs.join(", "),
        }
    }

    /// The primary feed `ROOT` over both generators, not yet registered.
    fn root(&self) -> IngestPlanBuilder {
        IngestPlanBuilder::new(ROOT)
            .adaptor("TweetGenAdaptor")
            .param("datasource", self.datasource.as_str())
    }

    fn dataset(&self, name: &str) -> Arc<Dataset> {
        let d = Arc::new(
            Dataset::create(DatasetConfig {
                name: name.into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup: vec![STORE_NODE],
            })
            .unwrap(),
        );
        self.catalog.register_dataset(Arc::clone(&d));
        d
    }

    fn secondary(&self, name: &str, parent: &str, udf: &str) {
        IngestPlanBuilder::new(name)
            .parent(parent)
            .udf(udf)
            .register_feeds(&self.catalog)
            .unwrap();
    }

    fn connect(&self, feed: &str, dataset: &str, policy: &str) -> ConnectionId {
        self.controller.connect_feed(feed, dataset, policy).unwrap()
    }

    /// Wait for both patterns to finish; the per-source generated counts.
    fn generated(&self) -> Vec<u64> {
        let count = || {
            self.gens
                .iter()
                .map(TweetGen::generated)
                .collect::<Vec<u64>>()
        };
        let mut last = count();
        loop {
            std::thread::sleep(Duration::from_millis(150));
            let now = count();
            if now == last && now.iter().all(|n| *n > 0) {
                return now;
            }
            last = now;
        }
    }

    fn stop(self) {
        for g in &self.gens {
            g.stop();
        }
        self.controller.shutdown();
        self.cluster.shutdown();
    }
}

/// The graph invariants of one snapshot of the segment table.
fn check_graph(cluster: &Cluster, segments: &[SegmentInfo]) -> Result<(), String> {
    let producer_of = |joint: &String| segments.iter().find(|p| p.outputs.contains(joint));
    for s in segments {
        let ended = s.state == Some(ConnectionState::Ended);
        if s.state == Some(ConnectionState::Active) && s.job.is_none() {
            return Err(format!("{}: Active without a running job", s.key));
        }
        // a finite source may run dry, so only trunk stages must be running
        if s.input.is_some() && s.state.is_none() && s.job.is_none() {
            return Err(format!("{}: trunk stage without a running job", s.key));
        }
        if let Some(input) = s.input.as_ref().filter(|_| !ended) {
            let producer =
                producer_of(input).ok_or(format!("{}: input '{input}' has no producer", s.key))?;
            if s.job.is_some() && s.intake != producer.placement {
                return Err(format!(
                    "{}: intake on {:?}, but '{input}' lives on {:?}",
                    s.key, s.intake, producer.placement
                ));
            }
        }
        for joint in &s.outputs {
            for node in cluster.nodes() {
                let registered = FeedManager::on(&node).search_joint(joint).is_some();
                let placed = s.placement.contains(&node.id());
                if registered != placed {
                    return Err(format!(
                        "joint '{joint}' on {}: registered={registered}, placed={placed} \
                         (placement {:?})",
                        node.id(),
                        s.placement
                    ));
                }
            }
        }
    }
    Ok(())
}

/// After `gc_segments`: every remaining producer has a subscriber.
fn check_no_orphans(cluster: &Cluster, segments: &[SegmentInfo]) -> Result<(), String> {
    for s in segments.iter().filter(|s| !s.outputs.is_empty()) {
        let subscribers: usize = (s.outputs.iter())
            .flat_map(|j| s.placement.iter().map(move |n| (j, n)))
            .filter_map(|(j, n)| FeedManager::on(&cluster.node(*n)?).search_joint(j))
            .map(|joint| joint.subscriber_count())
            .sum();
        if subscribers == 0 {
            return Err(format!("{}: no subscriber on any output joint", s.key));
        }
    }
    Ok(())
}

/// Poll until the table satisfies the graph invariants (failure handling is
/// asynchronous) and `settled` holds.
fn await_graph(rig: &Rig, what: &str, settled: impl Fn(&[SegmentInfo]) -> bool) {
    let mut last = Ok(());
    let ok = wait_until(Duration::from_secs(20), || {
        let segments = rig.controller.segments();
        last = check_graph(&rig.cluster, &segments);
        last.is_ok() && settled(&segments)
    });
    assert!(
        ok,
        "{what}: graph never settled: {last:?}\n{:#?}",
        rig.controller.segments()
    );
}

fn routed_plan(rig: &Rig) -> IngestPlan {
    rig.root()
        .udf("addHashTags")
        .sink(
            SinkSpec::to("UsTweets")
                .route(RoutePredicate::eq("country", "US"))
                .policy("FaultTolerant"),
        )
        .sink(SinkSpec::to("RestTweets").otherwise().policy("Spill"))
        .register(&rig.catalog)
        .unwrap()
}

/// Ids the generators produced that `plan` routes to sink 0, recomputed
/// from the deterministic tweet stream with the plan IR as the oracle.
fn sink0_ids(plan: &IngestPlan, generated: &[u64]) -> BTreeSet<String> {
    let mut ids = BTreeSet::new();
    for (instance, n) in (0u32..).zip(generated) {
        let mut factory = TweetFactory::new(instance, 0xA57E41D);
        for i in 0..*n {
            let tweet = parse_value(&factory.next_json()).unwrap();
            if plan.route_record(&tweet, None) == vec![0] {
                ids.insert(format!("{instance}-{i}"));
            }
        }
    }
    ids
}

fn run_cell(shape: Shape, trigger: Trigger) {
    let cell = format!("rm-{shape:?}-{trigger:?}").to_lowercase();
    let has_compute = shape != Shape::Raw;
    if !has_compute && matches!(trigger, Trigger::KillComputeNode | Trigger::ScaleCompute) {
        return; // a raw feed has no compute stage to kill or scale
    }
    let rig = Rig::start(&cell, 40);
    let ctrl = &rig.controller;
    // the routed plan's head feed carries the UDF stage itself
    let plan = match shape {
        Shape::RoutedPlan => Some(routed_plan(&rig)),
        _ => {
            rig.root().register_feeds(&rig.catalog).unwrap();
            None
        }
    };

    // --- the shape: `watched` is the connection whose data is checked, the
    // `other` one is the second consumer (disconnected by `Disconnect`) ----
    let watched = rig.dataset("UsTweets");
    let other = rig.dataset("RestTweets");
    let (feed, other_feed) = match shape {
        Shape::Raw => (ROOT, ROOT),
        Shape::OneUdf => {
            rig.secondary("Processed", ROOT, "addHashTags");
            ("Processed", "Processed")
        }
        Shape::TwoUdfShared => {
            rig.secondary("Processed", ROOT, "addHashTags");
            rig.secondary("Scored", "Processed", "tweetlib#sentimentAnalysis");
            ("Scored", "Processed")
        }
        Shape::RoutedPlan => (ROOT, ROOT),
    };
    let conn = if let Some(plan) = &plan {
        ctrl.connect_plan(plan).unwrap()[0]
    } else {
        // the watched connection first: it builds the chain with the
        // at-least-once plumbing the second one then shares
        let conn = rig.connect(feed, "UsTweets", "FaultTolerant");
        let shared = shape == Shape::TwoUdfShared || trigger == Trigger::Disconnect;
        if shared {
            rig.connect(other_feed, "RestTweets", "Basic");
        }
        conn
    };
    // progress is counted over both datasets: the watched sink of the
    // routed plan sees only a tenth of the stream
    let persisted = || watched.len() + other.len();
    assert!(
        wait_until(Duration::from_secs(30), || persisted() > 300),
        "{cell}: pipeline never started flowing"
    );
    await_graph(&rig, &cell, |_| true);

    // --- the trigger --------------------------------------------------------
    let flows_on = |what: &str| {
        let before = persisted();
        assert!(
            wait_until(Duration::from_secs(30), || persisted() > before + 200),
            "{cell}: flow stalled after {what}"
        );
    };
    let moved_off = |joint: &'static str, node: NodeId| {
        move |segments: &[SegmentInfo]| {
            let producer = segments
                .iter()
                .find(|s| s.outputs.iter().any(|o| o == joint));
            producer.is_some_and(|p| !p.placement.contains(&node))
        }
    };
    let mut route_rebuilt = true;
    match trigger {
        Trigger::KillIntakeNode => {
            rig.cluster.kill_node(INTAKE_VICTIM);
            await_graph(&rig, &cell, moved_off(ROOT, INTAKE_VICTIM));
            flows_on("the intake node died");
        }
        Trigger::KillComputeNode => {
            rig.cluster.kill_node(COMPUTE_VICTIM);
            await_graph(&rig, &cell, moved_off(STAGE1, COMPUTE_VICTIM));
            flows_on("the compute node died");
        }
        Trigger::ScaleCompute => {
            assert_eq!(ctrl.scale_compute(STAGE1, 1).unwrap(), 3);
            await_graph(&rig, &cell, |_| true);
            flows_on("compute scale-out");
            assert_eq!(ctrl.scale_compute(STAGE1, -1).unwrap(), 2);
            await_graph(&rig, &cell, |_| true);
        }
        Trigger::ScaleIntake => {
            let job_of = |key: &str| {
                let segments = ctrl.segments();
                segments.iter().find(|s| s.key == key).and_then(|s| s.job)
            };
            let store_key = format!("store:{feed}->UsTweets");
            let (store_job, stage_job) = (job_of(&store_key), job_of(&format!("compute:{STAGE1}")));
            // two collect instances start two nodes wide, the maximum: the
            // round trip is in first, then back out
            assert_eq!(ctrl.scale_intake(ROOT, -1).unwrap(), 1);
            if has_compute {
                // only what subscribes to the moved joint is rebuilt: the
                // compute stage follows it, the jobs below keep running
                assert_ne!(job_of(&format!("compute:{STAGE1}")), stage_job);
                assert_eq!(
                    job_of(&store_key),
                    store_job,
                    "{cell}: store needlessly rebuilt"
                );
            }
            await_graph(&rig, &cell, |_| true);
            flows_on("intake scale-in");
            assert_eq!(ctrl.scale_intake(ROOT, 1).unwrap(), 2);
            await_graph(&rig, &cell, |_| true);
        }
        Trigger::Disconnect => {
            ctrl.disconnect_feed(other_feed, "RestTweets").unwrap();
            await_graph(&rig, &cell, |_| true);
            assert_eq!(ctrl.connections(), vec![conn]);
            route_rebuilt = false;
        }
    }
    flows_on("the trigger settled");

    // --- the data -------------------------------------------------------------
    let generated = rig.generated();
    let all_ids: BTreeSet<String> = (0u32..)
        .zip(&generated)
        .flat_map(|(inst, n)| (0..*n).map(move |i| format!("{inst}-{i}")))
        .collect();
    let expected = match &plan {
        Some(plan) => sink0_ids(plan, &generated),
        None => all_ids.clone(),
    };
    let exact = match (shape, trigger) {
        (_, Trigger::KillIntakeNode) => false, // the custodian's node dies
        (Shape::RoutedPlan, Trigger::KillComputeNode) => false, // trunk: no custodian
        _ => true,
    };
    if exact {
        let complete = wait_until(Duration::from_secs(60), || watched.len() >= expected.len());
        let got = dataset_ids(&watched);
        assert!(
            complete && got == expected,
            "{cell}: persisted {} of {} ids; missing e.g. {:?}",
            got.len(),
            expected.len(),
            expected.difference(&got).take(5).collect::<Vec<_>>()
        );
    } else {
        let mut last = watched.len();
        wait_until(Duration::from_secs(30), || {
            std::thread::sleep(Duration::from_millis(400));
            std::mem::replace(&mut last, watched.len()) == watched.len()
        });
        let got = dataset_ids(&watched);
        assert!(
            got.is_subset(&expected),
            "{cell}: persisted an unexpected id"
        );
    }
    assert_eq!(ctrl.connection_state(conn), ConnectionState::Active);
    if let Some(plan) = &plan {
        let snap = ctrl.registry().snapshot();
        let routed: u64 = (0..plan.sinks.len())
            .map(|i| snap.counter_for("plan.sink.records_routed", &plan.sink_label(i)))
            .sum();
        let trunk_in = snap.counter_for("feed.records_in", &format!("route:{}", plan.name));
        let no_match = snap.counter_for("plan.route.no_match_total", &plan.name);
        assert!(
            routed + no_match >= trunk_in || !exact,
            "{cell}: the router lost records"
        );
        if !route_rebuilt {
            assert_eq!(
                routed + no_match,
                trunk_in,
                "{cell}: the router invented records"
            );
        }
        // the Spill sink is not at-least-once, and still loses nothing
        if exact && trigger != Trigger::Disconnect {
            let rest: BTreeSet<String> = all_ids.difference(&expected).cloned().collect();
            let complete = wait_until(Duration::from_secs(60), || other.len() >= rest.len());
            assert!(
                complete && dataset_ids(&other) == rest,
                "{cell}: the Spill sink lost records"
            );
        }
    }

    // --- teardown leaves nothing behind ----------------------------------------
    ctrl.gc_segments();
    let segments = ctrl.segments();
    check_graph(&rig.cluster, &segments).unwrap_or_else(|e| panic!("{cell}: after gc: {e}"));
    check_no_orphans(&rig.cluster, &segments).unwrap_or_else(|e| panic!("{cell}: {e}"));
    rig.stop();
}

fn run_trigger(trigger: Trigger) {
    for shape in [
        Shape::Raw,
        Shape::OneUdf,
        Shape::TwoUdfShared,
        Shape::RoutedPlan,
    ] {
        run_cell(shape, trigger);
    }
}

#[test]
fn kill_intake_node() {
    run_trigger(Trigger::KillIntakeNode);
}

#[test]
fn kill_compute_node() {
    run_trigger(Trigger::KillComputeNode);
}

#[test]
fn scale_compute_out_and_in() {
    run_trigger(Trigger::ScaleCompute);
}

#[test]
fn scale_intake_in_and_out() {
    run_trigger(Trigger::ScaleIntake);
}

#[test]
fn disconnect_one_of_two_consumers() {
    run_trigger(Trigger::Disconnect);
}

/// Two nodes of the same compute stage die back to back: the handler of the
/// first failure cannot respawn onto a placement that still names the second
/// (already dead) node. The failure is reported, not swallowed, and the
/// second handler's pass repairs the segment — no `Active` connection is
/// left without a running job.
#[test]
fn double_kill_leaves_no_active_connection_without_a_job() {
    let rig = Rig::start("rm-double-kill", 10_000);
    rig.root().register_feeds(&rig.catalog).unwrap();
    let dataset = rig.dataset("UsTweets");
    rig.secondary("Processed", ROOT, "addHashTags");
    let conn = rig.connect("Processed", "UsTweets", "FaultTolerant");
    assert!(wait_until(Duration::from_secs(30), || dataset.len() > 200));
    rig.cluster.kill_node(NodeId(2));
    rig.cluster.kill_node(NodeId(3));
    await_graph(&rig, "double kill", |segments| {
        let stage = segments
            .iter()
            .find(|s| s.key == format!("compute:{STAGE1}"));
        stage
            .is_some_and(|s| !s.placement.contains(&NodeId(2)) && !s.placement.contains(&NodeId(3)))
    });
    assert_eq!(
        rig.controller.connection_state(conn),
        ConnectionState::Active
    );
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(30), || dataset.len() > before + 200),
        "flow did not resume after the double kill"
    );
    let snap = rig.controller.registry().snapshot();
    let failures = snap.counter_for("feed.respawn_failures", "Processed->UsTweets")
        + snap.counter_for("feed.respawn_failures", &format!("compute:{STAGE1}"));
    assert!(failures >= 1, "the failed respawn was not reported");
    let traced = rig.cluster.trace().recent();
    assert!(
        traced.iter().any(|(_, e)| e.detail.contains("respawn of")),
        "the failed respawn left no trace event"
    );
    rig.stop();
}

/// The checker has teeth: pointed at a table in which one consumer was left
/// on the old placement, or a joint on a node outside its placement, it
/// fails.
#[test]
fn checker_rejects_a_broken_table() {
    let rig = Rig::start("rm-broken", 10_000);
    rig.root().register_feeds(&rig.catalog).unwrap();
    let dataset = rig.dataset("UsTweets");
    rig.secondary("Processed", ROOT, "addHashTags");
    rig.connect("Processed", "UsTweets", "Basic");
    assert!(wait_until(Duration::from_secs(30), || dataset.len() > 50));
    let good = rig.controller.segments();
    check_graph(&rig.cluster, &good).unwrap();

    // a consumer left on the old placement after its input joint moved
    let mut stale_consumer = good.clone();
    let store = stale_consumer
        .iter_mut()
        .find(|s| s.state.is_some())
        .unwrap();
    store.intake[0] = NodeId(4);
    let err = check_graph(&rig.cluster, &stale_consumer).unwrap_err();
    assert!(err.contains("intake on"), "{err}");
    println!("broken table rejected: {err}");

    // a producer the table places somewhere its joint was never registered
    let mut stale_joint = good.clone();
    let compute = stale_joint
        .iter_mut()
        .find(|s| s.key.starts_with("compute:"))
        .unwrap();
    compute.placement[0] = NodeId(4);
    let err = check_graph(&rig.cluster, &stale_joint).unwrap_err();
    assert!(err.contains("registered="), "{err}");

    // an Active connection whose job is gone
    let mut jobless = good;
    jobless.iter_mut().find(|s| s.state.is_some()).unwrap().job = None;
    assert!(check_graph(&rig.cluster, &jobless).is_err());
    rig.stop();
}
