//! Closed-loop scaling governor tests: scale-out under load, scale-in when
//! calm, dropped-request accounting, and live intake re-width with the
//! settle-and-migrate protocol.

use asterix_adm::types::paper_registry;
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::governor::GovernorConfig;
use asterix_feeds::plan::IngestPlanBuilder;
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
            compute_extra_spin: 100_000,
            governor: GovernorConfig {
                enabled: true,
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
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "gov-ramp:9000")
        .register_feeds(&rig.catalog)
        .unwrap();
    IngestPlanBuilder::new("ProcessedTwitterFeed")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .register_feeds(&rig.catalog)
        .unwrap();
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Elastic")
        .unwrap();
    let joint = "TwitterFeed:addHashTags";
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

#[test]
fn unknown_elastic_request_is_counted_and_logged() {
    let rig = TestRig::start_with(2, ControllerConfig::default());
    assert!(rig.controller.request_elastic("nope->Nowhere"));
    assert!(rig.controller.request_elastic("compute:NoSuchJoint"));
    assert!(
        wait_until(Duration::from_secs(5), || {
            let snap = rig.controller.registry().snapshot();
            snap.counter_for("elastic.requests_dropped", "nope->Nowhere") == 1
                && snap.counter_for("elastic.requests_dropped", "compute:NoSuchJoint") == 1
        }),
        "dropped elastic requests were not counted"
    );
    let log = rig.controller.error_log();
    let entries = log.lock().clone();
    assert!(
        entries
            .iter()
            .any(|e| e.operator == "cfm-elastic-monitor" && e.message.contains("nope->Nowhere")),
        "dropped request not in the soft-failure log: {entries:?}"
    );
    rig.stop();
}

/// A congested *compute* intake reports under its segment key
/// (`compute:<joint>`), not under a connection key. The vote must be credited
/// to the connection(s) that segment feeds, so the next tick sees it as
/// pressure — here the only signal that can make a sample hot.
#[test]
fn vote_on_a_compute_key_reaches_the_next_tick() {
    let rig = TestRig::start_with(
        3,
        ControllerConfig {
            compute_parallelism: Some(1),
            governor: GovernorConfig {
                enabled: true,
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
    let gen = rig.tweetgen("gov-vote:9000", 0, 50, 10_000);
    let dataset = rig.dataset("Tweets");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "gov-vote:9000")
        .register_feeds(&rig.catalog)
        .unwrap();
    IngestPlanBuilder::new("P")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .register_feeds(&rig.catalog)
        .unwrap();
    rig.controller.connect_feed("P", "Tweets", "Basic").unwrap();
    let joint = "TwitterFeed:addHashTags";
    let ticks = || {
        let snap = rig.controller.registry().snapshot();
        snap.counter_for("elastic.governor_ticks", "P->Tweets")
    };
    // calm ticks leave the pipeline alone
    assert!(wait_until(Duration::from_secs(30), || ticks() >= 3
        && dataset.len() > 20));
    assert_eq!(rig.controller.compute_parallelism_of(joint), Some(1));

    assert!(rig.controller.request_elastic(&format!("compute:{joint}")));
    assert!(
        wait_until(Duration::from_secs(30), || {
            rig.controller.compute_parallelism_of(joint) == Some(2)
        }),
        "the compute-keyed vote never reached a governor tick"
    );
    // the counter is bumped after `scale_compute` has returned, i.e. after
    // the new parallelism is visible: wait for it, do not race it
    let scale_outs = || {
        let snap = rig.controller.registry().snapshot();
        snap.counter_for("elastic.scale_out_total", "P->Tweets")
    };
    assert!(wait_until(Duration::from_secs(30), || scale_outs() >= 1));
    let snap = rig.controller.registry().snapshot();
    assert_eq!(
        snap.counter_for("elastic.requests_dropped", &format!("compute:{joint}")),
        0
    );
    assert_eq!(snap.counter_for("elastic.scale_out_total", "P->Tweets"), 1);
    let decisions: Vec<String> = (rig.cluster.trace().recent().into_iter())
        .filter(|(_, e)| e.span == "elastic.governor")
        .map(|(_, e)| e.detail)
        .collect();
    assert!(
        decisions
            .iter()
            .any(|d| d.starts_with("P->Tweets: scale-out") && d.ends_with("pressure 1)")),
        "the vote did not show up as pressure_delta: {decisions:?}"
    );
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
