//! Scaling governor tests: the Elastic policy scales out under load and
//! back in when calm, other policies are never scaled, a shared stage moves
//! one step per tick, an Elastic sink behind a route scales the trunk, and
//! live intake re-width keeps the settle-and-migrate protocol, whose
//! migrated frames are counted in exactly once.

use asterix_adm::types::paper_registry;
use asterix_common::{MetricsSnapshot, NodeId, SimClock, SimDuration};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::governor::GovernorConfig;
use asterix_feeds::manager::FeedManager;
use asterix_feeds::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

struct TestRig {
    cluster: Cluster,
    catalog: Arc<FeedCatalog>,
    controller: Arc<FeedController>,
    clock: SimClock,
}

impl TestRig {
    fn start_with(nodes: usize, cfg: ControllerConfig) -> TestRig {
        let clock = SimClock::with_scale(10.0); // 10 real ms per sim-second
        let cluster = Cluster::start(
            nodes,
            clock.clone(),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_secs(5),
                // enormous: only explicit kill_node flips nodes in these tests
                failure_threshold: SimDuration::from_secs(1_000_000),
            },
        );
        let catalog = FeedCatalog::new(paper_registry());
        let controller = FeedController::start(cluster.clone(), Arc::clone(&catalog), cfg);
        TestRig {
            cluster,
            catalog,
            controller,
            clock,
        }
    }

    fn dataset(&self, name: &str) -> Arc<Dataset> {
        let nodegroup: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
        let d = Arc::new(
            Dataset::create(DatasetConfig {
                name: name.into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup,
            })
            .unwrap(),
        );
        self.catalog.register_dataset(Arc::clone(&d));
        d
    }

    fn tweetgen(&self, addr: &str, instance: u32, rate: u32, secs: u64) -> TweetGen {
        TweetGen::bind(
            TweetGenConfig::new(addr, instance, PatternDescriptor::constant(rate, secs)),
            self.clock.clone(),
        )
        .unwrap()
    }

    /// Register `<root>` reading TweetGen at `addr`, and `Processed<root>`
    /// applying the catalog function `udf` to it: the compute joint is
    /// `<root>:<udf>`.
    fn processed_feed(&self, root: &str, addr: &str, udf: &str) {
        IngestPlanBuilder::new(root)
            .adaptor("TweetGenAdaptor")
            .param("datasource", addr)
            .register_feeds(&self.catalog)
            .unwrap();
        IngestPlanBuilder::new(format!("Processed{root}"))
            .parent(root)
            .udf(udf)
            .register_feeds(&self.catalog)
            .unwrap();
    }

    fn snapshot(&self) -> MetricsSnapshot {
        self.controller.registry().snapshot()
    }

    fn stop(self) {
        self.controller.shutdown();
        self.cluster.shutdown();
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

#[test]
fn governor_scales_out_under_load_and_back_in_when_calm() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            compute_parallelism: Some(1),
            governor: GovernorConfig {
                interval: SimDuration::from_millis(500),
                cooldown: SimDuration::from_secs(2),
                max_compute: 3,
                ..GovernorConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    // a finite burst: hot while the pattern runs, calm once it drains
    let gen = rig.tweetgen("gov-ramp:9000", 0, 1500, 6);
    let dataset = rig.dataset("Tweets");
    let spin = Udf::busy_spin("spin", 100_000);
    rig.catalog.create_function(spin).unwrap();
    rig.processed_feed("TwitterFeed", "gov-ramp:9000", "spin");
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Elastic")
        .unwrap();
    let joint = "TwitterFeed:spin";
    assert_eq!(rig.controller.compute_parallelism_of(joint), Some(1));

    // phase 1: load drives the governor to add compute partitions
    assert!(
        wait_until(Duration::from_secs(25 * 3), || {
            rig.controller
                .compute_parallelism_of(joint)
                .map(|n| n > 1)
                .unwrap_or(false)
        }),
        "governor never scaled the compute stage out"
    );
    let peak = rig.controller.compute_parallelism_of(joint).unwrap();
    assert!(peak > 1);

    // phase 2: the pattern ends, the backlog drains, and the governor
    // sheds the extra partitions again
    assert!(
        wait_until(Duration::from_secs(60 * 3), || {
            rig.controller.compute_parallelism_of(joint) == Some(1)
        }),
        "governor never scaled back in (still at {:?})",
        rig.controller.compute_parallelism_of(joint)
    );
    // the pipeline still flows after the scale-in repartitioning
    let before = dataset.len();
    let _ = wait_until(Duration::from_secs(10 * 3), || dataset.len() > before);

    // decisions are visible as elastic.* metrics in every exporter
    let snap = rig.controller.registry().snapshot();
    let key = "ProcessedTwitterFeed->Tweets";
    assert!(
        snap.counter_for("elastic.scale_out_total", key) >= 1,
        "scale-out not counted"
    );
    assert!(
        snap.counter_for("elastic.scale_in_total", key) >= 1,
        "scale-in not counted"
    );
    assert!(snap.counter_for("elastic.governor_ticks", key) >= 5);
    let prom = snap.to_prometheus();
    assert!(
        prom.contains("asterix_elastic_compute_partitions"),
        "prometheus export misses governor gauges"
    );
    let json = snap.to_json();
    assert!(
        json.contains("elastic.governor_ticks"),
        "json export misses governor counters"
    );
    gen.stop();
    rig.stop();
}

/// An Elastic subscription reports its excess by bumping
/// `feed.elastic_scaleouts` under its stage's scope; for a compute stage
/// that is the joint id, not a connection key. The governor samples every
/// scope of the connection's chain, so one bump on the compute scope is the
/// pressure of the next tick — here the only signal that can make a sample
/// hot — and moves the compute stage exactly one step.
#[test]
fn pressure_on_a_compute_scope_reaches_the_next_tick() {
    let rig = TestRig::start_with(
        3,
        ControllerConfig {
            compute_parallelism: Some(1),
            governor: GovernorConfig {
                interval: SimDuration::from_millis(500),
                cooldown: SimDuration::from_secs(1),
                // no metric threshold can fire, and nothing ever scales in
                high_lag_millis: u64::MAX,
                high_backlog_bytes: u64::MAX,
                high_queue_frames: u64::MAX,
                scale_in_quiet_ticks: u32::MAX,
                max_intake: 1,
                ..GovernorConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    // a trickle: no port fills, so the subscriptions signal nothing
    let gen = rig.tweetgen("gov-vote:9000", 0, 10, 10_000);
    let dataset = rig.dataset("Tweets");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.processed_feed("TwitterFeed", "gov-vote:9000", "addHashTags");
    let key = "ProcessedTwitterFeed->Tweets";
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Elastic")
        .unwrap();
    let joint = "TwitterFeed:addHashTags";
    let ticks = || rig.snapshot().counter_for("elastic.governor_ticks", key);
    // calm ticks leave the pipeline alone
    assert!(wait_until(Duration::from_secs(30), || ticks() >= 3
        && dataset.len() > 20));
    assert_eq!(rig.controller.compute_parallelism_of(joint), Some(1));

    let registry = rig.controller.registry();
    (registry.counter("feed.elastic_scaleouts", &[("conn", joint)])).inc();
    assert!(
        wait_until(Duration::from_secs(30), || {
            rig.controller.compute_parallelism_of(joint) == Some(2)
        }),
        "the compute-scope signal never reached a governor tick"
    );
    // the counter is bumped after `scale_compute` has returned, i.e. after
    // the new parallelism is visible: wait for it, do not race it
    let scale_outs = || rig.snapshot().counter_for("elastic.scale_out_total", key);
    assert!(wait_until(Duration::from_secs(30), || scale_outs() >= 1));
    // a few more ticks: one signal, one step
    let seen = ticks();
    assert!(wait_until(Duration::from_secs(30), || ticks() >= seen + 3));
    assert_eq!(scale_outs(), 1);
    assert_eq!(rig.controller.compute_parallelism_of(joint), Some(2));
    let decisions: Vec<String> = (rig.cluster.trace().recent().into_iter())
        .filter(|(_, e)| e.span == "elastic.governor")
        .map(|(_, e)| e.detail)
        .collect();
    assert_eq!(decisions.len(), 1, "{decisions:?}");
    assert!(
        decisions[0].starts_with(&format!("{key}: scale-out"))
            && decisions[0].ends_with("pressure 1)"),
        "the signal did not show up as pressure_delta: {decisions:?}"
    );
    gen.stop();
    rig.stop();
}

/// The policy is the switch: under the same overload an Elastic connection
/// scales and a Basic one on the same controller is left alone — the
/// governor does not even sample it.
#[test]
fn only_the_elastic_connection_scales() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            compute_parallelism: Some(1),
            governor: GovernorConfig {
                interval: SimDuration::from_millis(500),
                cooldown: SimDuration::from_secs(2),
                ..GovernorConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let gen_basic = rig.tweetgen("gov-basic:9000", 0, 1500, 6);
    let gen_elastic = rig.tweetgen("gov-elastic:9000", 1, 1500, 6);
    rig.dataset("BasicTweets");
    rig.dataset("ElasticTweets");
    let spin = Udf::busy_spin("spin", 100_000);
    rig.catalog.create_function(spin).unwrap();
    rig.processed_feed("BasicFeed", "gov-basic:9000", "spin");
    rig.processed_feed("ElasticFeed", "gov-elastic:9000", "spin");
    rig.controller
        .connect_feed("ProcessedBasicFeed", "BasicTweets", "Basic")
        .unwrap();
    rig.controller
        .connect_feed("ProcessedElasticFeed", "ElasticTweets", "Elastic")
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(25 * 3), || {
            rig.controller
                .compute_parallelism_of("ElasticFeed:spin")
                .is_some_and(|n| n > 1)
        }),
        "the Elastic connection never scaled out"
    );
    // the counter is bumped once the tick's rebuilds are done: wait for it
    let elastic = "ProcessedElasticFeed->ElasticTweets";
    assert!(wait_until(Duration::from_secs(30), || {
        rig.snapshot()
            .counter_for("elastic.scale_out_total", elastic)
            >= 1
    }));
    let basic = "ProcessedBasicFeed->BasicTweets";
    let snap = rig.snapshot();
    assert!(
        snap.counter_for("feed.records_in", basic) > 0,
        "the Basic connection saw no load"
    );
    assert_eq!(
        rig.controller.compute_parallelism_of("BasicFeed:spin"),
        Some(1)
    );
    assert_eq!(rig.controller.intake_width_of("BasicFeed"), Some(1));
    assert_eq!(snap.counter_for("elastic.governor_ticks", basic), 0);
    assert_eq!(snap.gauge_for("elastic.lag_p99_millis", basic), None);
    assert_eq!(snap.gauge_for("elastic.compute_partitions", basic), None);
    gen_basic.stop();
    gen_elastic.stop();
    rig.stop();
}

/// A stage shared by several Elastic connections moves one step per tick,
/// not one per connection: two always-hot sinks of one plan share the
/// compute stage, and with a cooldown that never ends it settles at two
/// partitions.
#[test]
fn a_shared_stage_moves_one_step_per_tick() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            compute_parallelism: Some(1),
            governor: GovernorConfig {
                interval: SimDuration::from_millis(500),
                cooldown: SimDuration::from_secs(1_000_000),
                // every sample is hot
                high_lag_millis: 0,
                max_compute: 3,
                ..GovernorConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("gov-shared:9000", 0, 10, 10_000);
    rig.dataset("A");
    rig.dataset("B");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "gov-shared:9000")
        .register_feeds(&rig.catalog)
        .unwrap();
    // one plan: both connections appear in the table at once, so their
    // first tick is the same tick
    let every = || RoutePredicate::exists("id");
    let plan = IngestPlanBuilder::new("P")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .multicast()
        .sink(SinkSpec::to("A").route(every()).policy("Elastic"))
        .sink(SinkSpec::to("B").route(every()).policy("Elastic"))
        .register(&rig.catalog)
        .unwrap();
    rig.controller.connect_plan(&plan).unwrap();
    let joint = "TwitterFeed:addHashTags";
    let ticks = |key| rig.snapshot().counter_for("elastic.governor_ticks", key);
    assert!(wait_until(Duration::from_secs(30), || {
        ticks("P->A") >= 5 && ticks("P->B") >= 5
    }));
    assert_eq!(rig.controller.compute_parallelism_of(joint), Some(2));
    let snap = rig.snapshot();
    // both hot connections are credited with the one step they asked for
    assert_eq!(snap.counter_for("elastic.scale_out_total", "P->A"), 1);
    assert_eq!(snap.counter_for("elastic.scale_out_total", "P->B"), 1);
    gen.stop();
    rig.stop();
}

/// An Elastic sink behind a route scales the trunk: the compute stage
/// feeding the routing stage, whose own policy is Spill.
#[test]
fn an_elastic_sink_behind_a_route_scales_the_trunk() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            compute_parallelism: Some(1),
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("gov-routed:9000", 0, 1500, 10_000);
    rig.dataset("Tweets");
    let spin = Udf::busy_spin("spin", 100_000);
    rig.catalog.create_function(spin).unwrap();
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "gov-routed:9000")
        .register_feeds(&rig.catalog)
        .unwrap();
    let plan = IngestPlanBuilder::new("Routed")
        .parent("TwitterFeed")
        .udf("spin")
        .sink(
            SinkSpec::to("Tweets")
                .route(RoutePredicate::exists("id"))
                .policy("Elastic"),
        )
        .register(&rig.catalog)
        .unwrap();
    assert!(!plan.is_degenerate(), "the plan must route");
    rig.controller.connect_plan(&plan).unwrap();
    assert!(
        wait_until(Duration::from_secs(25 * 3), || {
            rig.controller
                .compute_parallelism_of("TwitterFeed:spin")
                .is_some_and(|n| n > 1)
        }),
        "the trunk's compute stage never scaled out"
    );
    assert!(wait_until(Duration::from_secs(30), || {
        rig.snapshot()
            .counter_for("elastic.scale_out_total", "Routed->Tweets")
            >= 1
    }));
    gen.stop();
    rig.stop();
}
#[test]
fn scale_intake_changes_width_and_keeps_flow() {
    let rig = TestRig::start_with(
        3,
        ControllerConfig {
            compute_parallelism: Some(1),
            ..ControllerConfig::default()
        },
    );
    // two datasources ⇒ two collect instances, initially on two nodes
    let gen_a = rig.tweetgen("gov-w-a:9000", 0, 150, 10_000);
    let gen_b = rig.tweetgen("gov-w-b:9000", 1, 150, 10_000);
    let dataset = rig.dataset("Tweets");
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "gov-w-a:9000, gov-w-b:9000")
        .register_feeds(&rig.catalog)
        .unwrap();
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    assert_eq!(rig.controller.intake_width_of("TwitterFeed"), Some(2));
    assert!(wait_until(Duration::from_secs(10 * 3), || dataset.len() > 50));

    // scale the intake in: both instances land on one node, no data lost
    // in the live repartitioning
    assert_eq!(rig.controller.scale_intake("TwitterFeed", -1).unwrap(), 1);
    assert_eq!(rig.controller.intake_width_of("TwitterFeed"), Some(1));
    assert_eq!(rig.controller.joint_locations("TwitterFeed").len(), 2);
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(10 * 3), || dataset.len() > before + 100),
        "flow stalled after intake scale-in"
    );

    // and back out to two nodes
    assert_eq!(rig.controller.scale_intake("TwitterFeed", 1).unwrap(), 2);
    assert_eq!(rig.controller.intake_width_of("TwitterFeed"), Some(2));
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(10 * 3), || dataset.len() > before + 100),
        "flow stalled after intake scale-out"
    );
    // width is capped by the instance count
    assert_eq!(rig.controller.scale_intake("TwitterFeed", 5).unwrap(), 2);
    gen_a.stop();
    gen_b.stop();
    rig.stop();
}

/// Scale-in moves the frames waiting on the removed partition's
/// subscription to its successor, and every record is counted in once: at
/// quiescence the compute stage counted in what it took, and the store
/// counted in what it persisted. Spill has no at-least-once replays to
/// blur the sums; a slow store keeps frames waiting in its subscriptions on
/// the compute joint.
#[test]
fn scale_in_migrates_waiting_frames_and_counts_each_record_in_once() {
    let rig = TestRig::start_with(
        3,
        ControllerConfig {
            compute_parallelism: Some(2),
            ..ControllerConfig::default()
        },
    );
    // a socket buffer larger than the burst: the wire drops nothing
    let gen = TweetGen::bind(
        TweetGenConfig {
            socket_buffer: 16_384,
            ..TweetGenConfig::new("gov-migrate:9000", 0, PatternDescriptor::constant(1500, 10))
        },
        rig.clock.clone(),
    )
    .unwrap();
    let nodegroup: Vec<NodeId> = rig.cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let config = DatasetConfig {
        name: "Tweets".into(),
        datatype: "Tweet".into(),
        primary_key: "id".into(),
        nodegroup,
    };
    let dataset = Arc::new(Dataset::create_with(config, 60_000).unwrap());
    rig.catalog.register_dataset(Arc::clone(&dataset));
    rig.catalog
        .create_function(Udf::busy_spin("noop", 0))
        .unwrap();
    rig.processed_feed("TwitterFeed", "gov-migrate:9000", "noop");
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Spill")
        .unwrap();
    let joint = "TwitterFeed:noop";
    let placement = rig.controller.joint_locations(joint);
    assert_eq!(placement.len(), 2);
    let removed = rig.cluster.node(placement[1]).unwrap();
    let waiting = || {
        let joint = FeedManager::on(&removed).search_joint(joint);
        joint.map_or(0, |j| j.backlog())
    };
    assert!(
        wait_until(Duration::from_secs(60), || waiting() >= 4),
        "no frames ever waited on the partition to be removed"
    );
    assert_eq!(rig.controller.scale_compute(joint, -1).unwrap(), 1);

    let generated = {
        let mut last = gen.generated();
        loop {
            std::thread::sleep(Duration::from_millis(150));
            let now = gen.generated();
            if now == last && now > 0 {
                break now;
            }
            last = now;
        }
    };
    // quiescent once every record is in the dataset and counted there (the
    // store bumps its counter after the write lands)
    let store = "ProcessedTwitterFeed->Tweets";
    // a stage's `feed.*` series, for the failure messages
    let books = |conn: &str| -> Vec<String> {
        let snap = rig.snapshot();
        let series = snap.metrics.iter();
        let ours = series.filter(|m| m.name.starts_with("feed.") && m.has_label_value(conn));
        ours.map(|m| format!("{} {:?}", m.name, m.value)).collect()
    };
    let persisted = || rig.snapshot().counter_for("feed.records_persisted", store);
    assert!(
        wait_until(Duration::from_secs(120), || dataset.len() as u64
            >= generated
            && persisted() >= generated),
        "persisted {} of {generated}: {:?}",
        dataset.len(),
        books(store)
    );
    let snap = rig.snapshot();
    assert!(snap.counter_for("elastic.frames_migrated", joint) > 0);
    let compute = |name: &str| snap.counter_for(name, joint);
    assert_eq!(
        compute("feed.records_in"),
        compute("feed.records_computed")
            + compute("feed.records_filtered")
            + compute("feed.soft_failures"),
        "compute stage: {:?}",
        books(joint)
    );
    let stored = |name: &str| snap.counter_for(name, store);
    assert_eq!(
        stored("feed.records_in"),
        stored("feed.records_persisted")
            + stored("feed.soft_failures")
            + stored("feed.records_discarded")
            + stored("feed.records_throttled"),
        "store stage: {:?}",
        books(store)
    );
    gen.stop();
    rig.stop();
}
