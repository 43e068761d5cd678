//! End-to-end tests of the data-feed machinery: cascade networks, the
//! connect/disconnect lifecycle, soft/hard failure handling, at-least-once
//! delivery, policies under overload, and elastic restructuring.
//!
//! Functional tests run at a fast clock with failure detection effectively
//! disabled (a laptop's scheduling jitter would otherwise register as node
//! failures); the hard-failure tests run at a slower clock where heartbeat
//! timing is robust.

use asterix_adm::types::paper_registry;
use asterix_adm::AdmValue;
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{bind_socket, unbind_socket};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ConnectionState, ControllerConfig, FeedController};
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
    /// Functional rig: fast clock, failure detection effectively off.
    fn start(nodes: usize) -> TestRig {
        Self::start_with(nodes, ControllerConfig::default())
    }

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
        Self::finish_start(nodes, cfg, clock, cluster)
    }

    /// Failure rig: slower clock so heartbeat detection is robust against
    /// real scheduling jitter.
    fn start_faulty(nodes: usize, cfg: ControllerConfig) -> TestRig {
        let clock = SimClock::with_scale(100.0); // 100 real ms per sim-second
        let cluster = Cluster::start(
            nodes,
            clock.clone(),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(250), // 25 ms real
                failure_threshold: SimDuration::from_millis(1500), // 150 ms real
            },
        );
        Self::finish_start(nodes, cfg, clock, cluster)
    }

    fn finish_start(
        _nodes: usize,
        cfg: ControllerConfig,
        clock: SimClock,
        cluster: Cluster,
    ) -> TestRig {
        let catalog = FeedCatalog::new(paper_registry());
        let controller = FeedController::start(cluster.clone(), Arc::clone(&catalog), cfg);
        TestRig {
            cluster,
            catalog,
            controller,
            clock,
        }
    }

    fn dataset(&self, name: &str, datatype: &str) -> Arc<Dataset> {
        let nodegroup: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
        let d = Arc::new(
            Dataset::create(DatasetConfig {
                name: name.into(),
                datatype: datatype.into(),
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

    fn primary_feed(&self, name: &str, datasource: &str) {
        IngestPlanBuilder::new(name)
            .adaptor("TweetGenAdaptor")
            .param("datasource", datasource)
            .register_feeds(&self.catalog)
            .unwrap();
    }

    fn secondary_feed(&self, name: &str, parent: &str, udf: &str) {
        IngestPlanBuilder::new(name)
            .parent(parent)
            .udf(udf)
            .register_feeds(&self.catalog)
            .unwrap();
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

/// Wait until the generator's pattern has finished (count stable).
fn wait_pattern_done(gen: &TweetGen) -> u64 {
    let mut last = gen.generated();
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let now = gen.generated();
        if now == last && now > 0 {
            return now;
        }
        last = now;
    }
}

#[test]
fn primary_feed_ingests_into_dataset() {
    let rig = TestRig::start(3);
    let gen = rig.tweetgen("e2e-a:9000", 0, 300, 4); // 1200-tweet budget
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.primary_feed("TwitterFeed", "e2e-a:9000");
    let conn = rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    let generated = wait_pattern_done(&gen);
    assert!(generated >= 1000, "generated {generated}");
    assert!(
        wait_until(Duration::from_secs(20 * 3), || dataset.len() as u64
            >= generated),
        "persisted {} of {generated}",
        dataset.len()
    );
    // records are queryable, validated and well-formed
    let sample = dataset.scan_all().pop().unwrap();
    assert!(sample.field("id").is_some());
    assert!(sample.field("user").is_some());
    let m = rig.controller.connection_metrics(conn).unwrap();
    assert_eq!(m.records_persisted.get(), generated);
    assert_eq!(m.records_discarded.get(), 0);
    assert_eq!(m.soft_failures.get(), 0);
    // the store stage group-commits per frame, not per record
    let frames = m.frames_stored.get();
    assert!(frames >= 1, "no frames group-committed");
    assert!(
        frames < generated,
        "store ran record-at-a-time: {frames} frames for {generated} records"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn secondary_feed_applies_udf_and_shares_head() {
    let rig = TestRig::start(3);
    let gen = rig.tweetgen("e2e-b:9000", 0, 300, 4);
    let raw = rig.dataset("Tweets", "Tweet");
    let processed = rig.dataset("ProcessedTweets", "Tweet"); // open type admits topics
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-b:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");

    rig.controller
        .connect_feed("ProcessedTwitterFeed", "ProcessedTweets", "Basic")
        .unwrap();
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();

    let generated = wait_pattern_done(&gen) as usize;
    assert!(
        wait_until(Duration::from_secs(20 * 3), || processed.len() >= generated
            && raw.len() >= generated),
        "generated={generated} raw={} processed={}",
        raw.len(),
        processed.len()
    );
    // the UDF added the topics attribute on the processed path only
    let p = processed.scan_all().pop().unwrap();
    assert!(p.field("topics").is_some(), "processed tweet lacks topics");
    let r = raw.scan_all().pop().unwrap();
    assert!(r.field("topics").is_none(), "raw tweet should be raw");
    gen.stop();
    rig.stop();
}

#[test]
fn three_level_cascade_listing_5_9() {
    let rig = TestRig::start(4);
    let gen = rig.tweetgen("e2e-c:9000", 0, 300, 4);
    let sentiments = rig.dataset("TwitterSentiments", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.catalog
        .create_function(Udf::sentiment_analysis())
        .unwrap();
    rig.primary_feed("TwitterFeed", "e2e-c:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");
    rig.secondary_feed(
        "SentimentFeed",
        "ProcessedTwitterFeed",
        "tweetlib#sentimentAnalysis",
    );
    // connecting only the deepest feed builds the whole chain
    rig.controller
        .connect_feed("SentimentFeed", "TwitterSentiments", "Basic")
        .unwrap();
    let generated = wait_pattern_done(&gen) as usize;
    assert!(
        wait_until(Duration::from_secs(25 * 3), || sentiments.len()
            >= generated),
        "persisted {} of {generated}",
        sentiments.len()
    );
    let s = sentiments.scan_all().pop().unwrap();
    assert!(s.field("topics").is_some(), "first UDF applied");
    let sentiment = s.field("sentiment").and_then(AdmValue::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&sentiment), "second UDF applied");
    gen.stop();
    rig.stop();
}

#[test]
fn disconnect_is_graceful_and_isolated() {
    let rig = TestRig::start(3);
    // long-lived source: 400 twps for 10k sim-seconds (stopped explicitly)
    let gen = rig.tweetgen("e2e-d:9000", 0, 400, 10_000);
    let raw = rig.dataset("Tweets", "Tweet");
    let processed = rig.dataset("ProcessedTweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-d:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "ProcessedTweets", "Basic")
        .unwrap();
    assert!(wait_until(Duration::from_secs(10 * 3), || raw.len() > 500
        && processed.len() > 500));

    // disconnect the primary: the secondary keeps flowing (Fig 5.10)
    rig.controller
        .disconnect_feed("TwitterFeed", "Tweets")
        .unwrap();
    let raw_at_disconnect = raw.len();
    let processed_at_disconnect = processed.len();
    assert!(
        wait_until(Duration::from_secs(10 * 3), || processed.len()
            > processed_at_disconnect + 500),
        "secondary feed stalled after sibling disconnect"
    );
    // raw dataset stops growing (drain margin only)
    std::thread::sleep(Duration::from_millis(200));
    let raw_after = raw.len();
    assert!(
        raw_after <= raw_at_disconnect + 100,
        "raw kept growing: {raw_at_disconnect} -> {raw_after}"
    );
    // now disconnect the secondary too; everything is reclaimed
    rig.controller
        .disconnect_feed("ProcessedTwitterFeed", "ProcessedTweets")
        .unwrap();
    assert!(rig.controller.connections().is_empty());
    gen.stop();
    rig.stop();
}

#[test]
fn soft_failures_are_skipped_and_logged() {
    let rig = TestRig::start(2);
    let tx = bind_socket("e2e-soft:1", 1024).unwrap();
    let dataset = rig.dataset("Events", "Tweet");
    IngestPlanBuilder::new("EventFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "e2e-soft:1")
        .register_feeds(&rig.catalog)
        .unwrap();
    let conn = rig
        .controller
        .connect_feed("EventFeed", "Events", "Basic")
        .unwrap();
    let mut f = tweetgen::TweetFactory::new(0, 3);
    // interleave good tweets with records that fail Tweet validation
    for i in 0..60 {
        if i % 3 == 2 {
            tx.send("{\"id\":\"bad\"}".to_string()).unwrap(); // missing fields
        } else {
            tx.send(f.next_json()).unwrap();
        }
    }
    assert!(
        wait_until(Duration::from_secs(15 * 3), || dataset.len() >= 40),
        "persisted {}",
        dataset.len()
    );
    let m = rig.controller.connection_metrics(conn).unwrap();
    assert!(
        wait_until(Duration::from_secs(5 * 3), || m.soft_failures.get() >= 19),
        "soft failures: {}",
        m.soft_failures.get()
    );
    // log carries operator attribution and payloads
    let log = rig.controller.error_log();
    let entries = log.lock();
    assert!(!entries.is_empty());
    assert!(entries[0].operator.contains("IndexInsert"));
    assert!(entries[0].payload.as_deref().unwrap_or("").contains("bad"));
    drop(entries);
    // exactly the good records got in (dedup by upsert on the "bad" id
    // never happens — they all failed validation)
    assert_eq!(dataset.len(), 40);
    unbind_socket("e2e-soft:1");
    drop(tx);
    rig.stop();
}

#[test]
fn compute_node_failure_recovers_with_fault_isolation() {
    let rig = TestRig::start_faulty(
        4,
        ControllerConfig {
            compute_parallelism: Some(2),
            ..ControllerConfig::default()
        },
    );
    // at scale 100: 1 sim-s = 100 ms real; run "forever", stop explicitly
    let gen = rig.tweetgen("e2e-f:9000", 0, 200, 10_000);
    // keep the datasets off the compute nodes' critical path: nodegroup is
    // all nodes, so store partitions live everywhere; what we assert is
    // that flow resumes after recovery.
    let raw = rig.dataset("Tweets", "Tweet");
    let processed = rig.dataset("ProcessedTweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-f:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "ProcessedTweets", "Basic")
        .unwrap();
    assert!(wait_until(Duration::from_secs(15 * 3), || processed.len()
        > 300
        && raw.len() > 300));

    // kill a node hosting a compute instance of the processed pipeline;
    // both connections' store stages have a partition there, so they
    // suspend — then the node re-joins and everything resumes after
    // log-based recovery (§6.2.3)
    let compute_nodes = rig.controller.joint_locations("TwitterFeed:addHashTags");
    assert!(!compute_nodes.is_empty());
    let victim = compute_nodes[0];
    rig.cluster.kill_node(victim);
    // wait for detection (threshold 150 ms real) and protocol execution
    std::thread::sleep(Duration::from_millis(600));
    rig.cluster.revive_node(victim);
    let processed_before = processed.len();
    let raw_before = raw.len();
    assert!(
        wait_until(Duration::from_secs(30 * 3), || processed.len()
            > processed_before + 300),
        "processed pipeline did not resume: {} -> {}",
        processed_before,
        processed.len()
    );
    assert!(
        wait_until(Duration::from_secs(15 * 3), || raw.len() > raw_before + 300),
        "raw pipeline did not resume"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn store_node_failure_suspends_then_resumes_on_rejoin() {
    let rig = TestRig::start_faulty(3, ControllerConfig::default());
    let gen = rig.tweetgen("e2e-g:9000", 0, 200, 10_000);
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.primary_feed("TwitterFeed", "e2e-g:9000");
    let conn = rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "FaultTolerant")
        .unwrap();
    assert!(wait_until(Duration::from_secs(15 * 3), || dataset.len() > 300));

    // kill a node hosting a dataset partition but no intake
    let intake_nodes = rig.controller.joint_locations("TwitterFeed");
    let victim = dataset
        .config
        .nodegroup
        .iter()
        .copied()
        .find(|n| !intake_nodes.contains(n))
        .expect("a pure store node exists");
    rig.cluster.kill_node(victim);
    assert!(
        wait_until(Duration::from_secs(10 * 3), || {
            rig.controller.connection_state(conn) == ConnectionState::Suspended
        }),
        "connection should suspend on store-node loss"
    );
    // re-join: log-based recovery, pipeline rescheduled
    rig.cluster.revive_node(victim);
    assert!(
        wait_until(Duration::from_secs(10 * 3), || {
            rig.controller.connection_state(conn) == ConnectionState::Active
        }),
        "connection should resume on re-join"
    );
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(30 * 3), || dataset.len() > before + 300),
        "ingestion did not resume: {} -> {}",
        before,
        dataset.len()
    );
    gen.stop();
    rig.stop();
}

#[test]
fn kill_node_while_congested_recovers_without_loss() {
    // the hard case: a store node dies while the flow controller is holding
    // deferred work. Under FaultTolerant nothing may be lost — the zombie
    // frames and the unacked tracker records must survive the rebuild — and
    // the connection must walk Active -> Suspended -> Active.
    let rig = TestRig::start_faulty(
        3,
        ControllerConfig {
            flow_capacity: 2,
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("e2e-chaos:9000", 0, 400, 6); // 2400-tweet budget
                                                         // a slow store keeps the flow controller congested when the kill lands
    let nodegroup: Vec<NodeId> = rig.cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create_with(
            DatasetConfig {
                name: "Tweets".into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup,
            },
            20_000,
        )
        .unwrap(),
    );
    rig.catalog.register_dataset(Arc::clone(&dataset));
    rig.primary_feed("TwitterFeed", "e2e-chaos:9000");
    let conn = rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "FaultTolerant")
        .unwrap();
    assert!(wait_until(Duration::from_secs(15 * 3), || dataset.len() > 100));

    // kill a node hosting a dataset partition but no intake, mid-stream
    let intake_nodes = rig.controller.joint_locations("TwitterFeed");
    let victim = dataset
        .config
        .nodegroup
        .iter()
        .copied()
        .find(|n| !intake_nodes.contains(n))
        .expect("a pure store node exists");
    rig.cluster.kill_node(victim);
    assert!(
        wait_until(Duration::from_secs(10 * 3), || {
            rig.controller.connection_state(conn) == ConnectionState::Suspended
        }),
        "connection should suspend on store-node loss"
    );
    rig.cluster.revive_node(victim);
    assert!(
        wait_until(Duration::from_secs(10 * 3), || {
            rig.controller.connection_state(conn) == ConnectionState::Active
        }),
        "connection should resume on re-join"
    );
    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(60 * 3), || dataset.len() as u64
            >= generated),
        "recovered only {} of {generated}",
        dataset.len()
    );
    // at-least-once: every generated id made it despite the congested kill
    let mut missing = 0u64;
    let present: std::collections::BTreeSet<String> = dataset
        .scan_all()
        .iter()
        .filter_map(|r| r.field("id").and_then(AdmValue::as_str).map(String::from))
        .collect();
    for i in 0..generated {
        if !present.contains(&format!("0-{i}")) {
            missing += 1;
        }
    }
    assert_eq!(missing, 0, "lost {missing} of {generated} records");
    let m = rig.controller.connection_metrics(conn).unwrap();
    assert!(
        m.hard_failures_recovered.get() >= 1,
        "recovery was not surfaced in metrics"
    );
    assert!(
        m.last_recovery_millis.get() > 0,
        "recovery latency gauge never set"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn discard_policy_sheds_load_under_overload() {
    let rig = TestRig::start_with(
        2,
        ControllerConfig {
            flow_capacity: 2,
            compute_parallelism: Some(1),
            compute_extra_spin: 200_000, // make compute the bottleneck
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("e2e-h:9000", 0, 2000, 10_000);
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-h:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Discard")
        .unwrap();
    let m = rig
        .controller
        .compute_metrics("TwitterFeed:addHashTags")
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(20 * 3), || m.records_discarded.get()
            > 0),
        "no records discarded under overload"
    );
    assert!(
        wait_until(Duration::from_secs(10 * 3), || !dataset.is_empty()),
        "nothing persisted at all"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn elastic_policy_scales_compute_out() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            flow_capacity: 2,
            compute_parallelism: Some(1),
            compute_extra_spin: 100_000,
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("e2e-i:9000", 0, 1500, 10_000);
    let _dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-i:9000");
    rig.secondary_feed("ProcessedTwitterFeed", "TwitterFeed", "addHashTags");
    rig.controller
        .connect_feed("ProcessedTwitterFeed", "Tweets", "Elastic")
        .unwrap();
    assert_eq!(
        rig.controller
            .compute_parallelism_of("TwitterFeed:addHashTags"),
        Some(1)
    );
    assert!(
        wait_until(Duration::from_secs(25 * 3), || {
            rig.controller
                .compute_parallelism_of("TwitterFeed:addHashTags")
                .map(|n| n > 1)
                .unwrap_or(false)
        }),
        "compute stage never scaled out"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn at_least_once_tracks_and_survives_duplicates() {
    let rig = TestRig::start_with(
        2,
        ControllerConfig {
            ack_timeout: SimDuration::from_millis(600),
            ack_window: SimDuration::from_millis(100),
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("e2e-j:9000", 0, 200, 4);
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.primary_feed("TwitterFeed", "e2e-j:9000");
    let conn = rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "FaultTolerant")
        .unwrap();
    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(15 * 3), || dataset.len() as u64
            >= generated),
        "persisted {} of {generated}",
        dataset.len()
    );
    let m = rig.controller.connection_metrics(conn).unwrap();
    // even if replays occurred (timeouts), upserts dedup: dataset count
    // equals distinct generated ids
    assert_eq!(dataset.len() as u64, generated);
    assert!(
        m.records_persisted.get() >= generated,
        "store-metric counts every (re)play"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn connect_twice_is_an_error_and_unknown_names_fail() {
    let rig = TestRig::start(2);
    let _gen = rig.tweetgen("e2e-k:9000", 0, 10, 10_000);
    rig.dataset("Tweets", "Tweet");
    rig.primary_feed("TwitterFeed", "e2e-k:9000");
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    assert!(rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .is_err());
    assert!(rig
        .controller
        .connect_feed("NoFeed", "Tweets", "Basic")
        .is_err());
    assert!(rig
        .controller
        .connect_feed("TwitterFeed", "NoDataset", "Basic")
        .is_err());
    assert!(rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", "NoPolicy")
        .is_err());
    assert!(rig
        .controller
        .disconnect_feed("TwitterFeed", "NoDataset")
        .is_err());
    rig.controller
        .disconnect_feed("TwitterFeed", "Tweets")
        .unwrap();
    // reconnecting after disconnect works (Fig 5.10 discussion)
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", "Basic")
        .unwrap();
    rig.stop();
}

#[test]
fn basic_policy_memory_budget_terminates_feed() {
    let mut params = std::collections::BTreeMap::new();
    params.insert("memory.budget.bytes".into(), "16KB".into());
    let rig = TestRig::start_with(
        1,
        ControllerConfig {
            flow_capacity: 1,
            compute_parallelism: Some(1),
            compute_extra_spin: 500_000,
            ..ControllerConfig::default()
        },
    );
    rig.catalog
        .create_policy("TinyBasic", "Basic", &params)
        .unwrap();
    let gen = rig.tweetgen("e2e-l:9000", 0, 3000, 10_000);
    let _dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-l:9000");
    rig.secondary_feed("P", "TwitterFeed", "addHashTags");
    let conn = rig
        .controller
        .connect_feed("P", "Tweets", "TinyBasic")
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(30 * 3), || {
            rig.controller.connection_state(conn) == ConnectionState::Ended
        }),
        "feed should terminate when the Basic buffer budget blows"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn policy_comparison_discard_vs_throttle_pattern() {
    // run the same overload through Discard and Throttle and compare the
    // persisted-id patterns (Figs 7.9/7.10): Discard leaves contiguous
    // gaps; Throttle thins uniformly.
    fn run(policy: &str, addr: &str) -> Vec<bool> {
        let rig = TestRig::start_with(
            1,
            ControllerConfig {
                flow_capacity: 1,
                compute_parallelism: Some(1),
                compute_extra_spin: 60_000,
                ..ControllerConfig::default()
            },
        );
        let gen = rig.tweetgen(addr, 0, 1500, 5); // 7500-tweet budget
        let dataset = rig.dataset("Tweets", "Tweet");
        rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
        rig.primary_feed("TwitterFeed", addr);
        rig.secondary_feed("P", "TwitterFeed", "addHashTags");
        rig.controller.connect_feed("P", "Tweets", policy).unwrap();
        let total = wait_pattern_done(&gen) as usize;
        // wait until the pipeline has drained (count stable for a while)
        let mut last = dataset.len();
        loop {
            std::thread::sleep(Duration::from_millis(500));
            let now = dataset.len();
            if now == last {
                break;
            }
            last = now;
        }
        let mut present = vec![false; total];
        for rec in dataset.scan_all() {
            if let Some(id) = rec.field("id").and_then(AdmValue::as_str) {
                if let Some(seq) = id.strip_prefix("0-").and_then(|s| s.parse::<usize>().ok()) {
                    if seq < total {
                        present[seq] = true;
                    }
                }
            }
        }
        gen.stop();
        rig.stop();
        present
    }

    fn longest_gap(present: &[bool]) -> usize {
        let mut longest = 0;
        let mut current = 0;
        for &p in present {
            if p {
                longest = longest.max(current);
                current = 0;
            } else {
                current += 1;
            }
        }
        longest.max(current)
    }

    let discard = run("Discard", "e2e-m:9000");
    let throttle = run("Throttle", "e2e-n:9000");
    let d_kept = discard.iter().filter(|&&b| b).count();
    let t_kept = throttle.iter().filter(|&&b| b).count();
    assert!(d_kept > 0 && d_kept < discard.len(), "discard shed load");
    assert!(t_kept > 0 && t_kept < throttle.len(), "throttle shed load");
    // discard's gaps are long contiguous runs; throttle's are short
    let d_gap = longest_gap(&discard);
    let t_gap = longest_gap(&throttle);
    assert!(
        d_gap > t_gap,
        "discard gap {d_gap} should exceed throttle gap {t_gap}"
    );
}

#[test]
fn console_report_and_elastic_scale_in() {
    let rig = TestRig::start_with(
        4,
        ControllerConfig {
            compute_parallelism: Some(1),
            ..ControllerConfig::default()
        },
    );
    let gen = rig.tweetgen("e2e-console:9000", 0, 200, 10_000);
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-console:9000");
    rig.secondary_feed("P", "TwitterFeed", "addHashTags");
    rig.controller.connect_feed("P", "Tweets", "Basic").unwrap();
    assert!(wait_until(Duration::from_secs(10 * 3), || dataset.len() > 100));

    // the Appendix A console shows the physical layout and rates
    let report = rig.controller.console_report();
    assert!(report.contains("P -> Tweets"), "{report}");
    assert!(report.contains("intake:"), "{report}");
    assert!(report.contains("persisted:"), "{report}");

    // manual elastic scale-out then scale-in (§7.3.5 "scale out/in")
    let n = rig
        .controller
        .scale_compute("TwitterFeed:addHashTags", 2)
        .unwrap();
    assert_eq!(n, 3);
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(10 * 3), || dataset.len() > before + 200),
        "flow continues after scale-out"
    );
    let n = rig
        .controller
        .scale_compute("TwitterFeed:addHashTags", -2)
        .unwrap();
    assert_eq!(n, 1);
    let before = dataset.len();
    assert!(
        wait_until(Duration::from_secs(10 * 3), || dataset.len() > before + 200),
        "flow continues after scale-in"
    );
    gen.stop();
    rig.stop();
}

#[test]
fn publish_subscribe_with_filter_feeds_and_dataset_union() {
    // §8.2: subscriptions are predicate feeds off one published stream; and
    // §4.4: "multiple feeds can simultaneously be connected to a dataset
    // such that the dataset represents the union of the connected feeds"
    let rig = TestRig::start(3);
    let gen = rig.tweetgen("e2e-pubsub:9000", 0, 300, 4);
    let us_tweets = rig.dataset("UsTweets", "Tweet");
    let union = rig.dataset("Union", "Tweet");
    rig.catalog
        .create_function(Udf::filter("onlyUS", |t| {
            t.field("country").and_then(AdmValue::as_str) == Some("US")
        }))
        .unwrap();
    rig.catalog
        .create_function(Udf::filter("onlyJP", |t| {
            t.field("country").and_then(AdmValue::as_str) == Some("JP")
        }))
        .unwrap();
    rig.primary_feed("TwitterFeed", "e2e-pubsub:9000");
    rig.secondary_feed("UsSub", "TwitterFeed", "onlyUS");
    rig.secondary_feed("JpSub", "TwitterFeed", "onlyJP");
    rig.controller
        .connect_feed("UsSub", "UsTweets", "Basic")
        .unwrap();
    // union: two subscriber feeds into one dataset
    rig.controller
        .connect_feed("JpSub", "Union", "Basic")
        .unwrap();
    rig.controller
        .connect_feed("UsSub", "Union", "Basic")
        .unwrap();
    let generated = wait_pattern_done(&gen) as usize;
    assert!(
        wait_until(Duration::from_secs(15 * 3), || {
            !us_tweets.is_empty() && union.len() > us_tweets.len()
        }),
        "subscriptions stalled"
    );
    std::thread::sleep(Duration::from_millis(300));
    // the subscription is exact: only US tweets
    for t in us_tweets.scan_all() {
        assert_eq!(t.field("country").and_then(AdmValue::as_str), Some("US"));
    }
    // the union dataset holds exactly US + JP
    for t in union.scan_all() {
        let c = t.field("country").and_then(AdmValue::as_str).unwrap();
        assert!(c == "US" || c == "JP", "unexpected country {c}");
    }
    assert!(union.len() < generated, "filters actually filtered");
    gen.stop();
    rig.stop();
}

#[test]
fn registry_snapshot_is_complete_and_finite() {
    // the acceptance bar for the observability layer: one snapshot from the
    // cluster registry exposes per-operator throughput and latency, feed
    // flow-control state, storage internals and end-to-end ingestion lag
    let rig = TestRig::start(3);
    let gen = rig.tweetgen("e2e-obs:9000", 0, 300, 4);
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", "e2e-obs:9000");
    rig.secondary_feed("P", "TwitterFeed", "addHashTags");
    rig.controller.connect_feed("P", "Tweets", "Basic").unwrap();
    let generated = wait_pattern_done(&gen);
    assert!(
        wait_until(Duration::from_secs(20 * 3), || dataset.len() as u64
            >= generated),
        "persisted {} of {generated}",
        dataset.len()
    );

    let snap = rig.controller.registry().snapshot_at(&rig.clock);
    assert!(!snap.is_empty(), "registry snapshot is empty");
    assert!(snap.all_finite(), "snapshot contains non-finite values");

    // per-operator throughput and frame latency (hyracks executor layer)
    assert!(snap.counter("operator.frames_in") > 0);
    assert!(snap.counter("operator.records_in") > 0);
    assert!(snap.counter("operator.records_out") > 0);
    let op_latency = snap
        .histogram("operator.frame_latency_us")
        .expect("operator latency histogram");
    assert!(op_latency.count > 0, "no operator latencies recorded");

    // per-connection feed counters, keyed by the connection scope label
    assert_eq!(
        snap.counter_for("feed.records_persisted", "P->Tweets"),
        generated
    );
    assert!(snap.counter_for("feed.records_in", "P->Tweets") >= generated);
    // flow-control state is registered even when the policy never trips it
    assert!(
        snap.has("feed.buffer_bytes"),
        "intake backlog gauge missing"
    );
    assert_eq!(snap.counter("feed.records_discarded"), 0);
    assert_eq!(snap.counter("feed.records_spilled"), 0);

    // storage internals, per dataset/partition
    assert!(snap.gauge("storage.wal_bytes").expect("wal bytes gauge") > 0);
    assert!(snap.gauge("storage.lsm_components").is_some());
    let batches = snap
        .histogram("storage.group_commit_batch_size")
        .expect("group-commit histogram");
    assert!(batches.count > 0, "no group commits recorded");
    assert!(
        batches.sum >= generated,
        "group commits cover fewer records ({}) than generated ({generated})",
        batches.sum
    );

    // storage-layout observability: the compaction gauges are registered up
    // front; forcing a seal makes them go live in the next snapshot
    assert!(snap.has("storage.bytes_per_record"));
    assert!(snap.has("compaction.schema_inferred_components"));
    assert!(snap.has("compaction.fallback_components"));
    dataset.force_merge_all();
    let sealed_snap = rig.controller.registry().snapshot_at(&rig.clock);
    assert!(
        sealed_snap.gauge("storage.bytes_per_record").unwrap_or(0) > 0,
        "sealed components report no bytes/record"
    );
    assert!(
        sealed_snap
            .gauge("compaction.schema_inferred_components")
            .unwrap_or(0)
            > 0,
        "the uniform tweet workload must seal compacted, not fall back"
    );
    // the resident gauge follows the memtable too, so it was live all along
    assert!(snap.gauge("storage.resident_bytes").unwrap_or(0) > 0);
    assert_eq!(
        sealed_snap.gauge("storage.resident_bytes"),
        Some(dataset.resident_bytes() as u64)
    );
    let sealed_prom = sealed_snap.to_prometheus();
    assert!(
        sealed_prom.contains("asterix_storage_resident_bytes{dataset=\"Tweets\"}"),
        "{sealed_prom}"
    );
    assert!(sealed_snap.to_json().contains("storage.resident_bytes"));
    assert!(
        sealed_prom.contains("asterix_storage_bytes_per_record"),
        "{sealed_prom}"
    );
    assert!(
        sealed_prom.contains("asterix_compaction_schema_inferred_components"),
        "{sealed_prom}"
    );
    assert!(
        sealed_prom.contains("asterix_compaction_fallback_components"),
        "{sealed_prom}"
    );
    // merge accounting: writing every tweet again stacks a second component
    // of the same layout on each partition, and merging the two copies cells
    // out of the sealed images instead of re-encoding the records
    assert_eq!(sealed_snap.counter("compaction.rows_copied"), 0);
    for tweet in dataset.scan_all() {
        dataset.upsert(&tweet).unwrap();
    }
    dataset.force_merge_all();
    let merged_snap = rig.controller.registry().snapshot_at(&rig.clock);
    assert_eq!(
        merged_snap.counter_for("compaction.rows_copied", "Tweets"),
        dataset.len() as u64
    );
    assert_eq!(merged_snap.counter("compaction.rows_reencoded"), 0);
    let merged_prom = merged_snap.to_prometheus();
    for family in [
        "asterix_compaction_rows_copied",
        "asterix_compaction_rows_reencoded",
    ] {
        assert!(merged_prom.contains(family), "{merged_prom}");
    }
    assert!(merged_snap.to_json().contains("compaction.rows_copied"));

    // end-to-end ingestion lag: generation stamp -> durable store
    let lag = snap
        .histogram("feed.ingest_lag_millis")
        .expect("ingestion lag histogram");
    assert_eq!(lag.count, generated, "every persisted record closes a lag");
    assert!(lag.mean().is_finite());

    // execution-runtime metrics: the pipeline ran as cooperative tasks on
    // the work-stealing scheduler, not on per-operator threads
    assert!(snap.counter("scheduler.tasks_spawned") > 0);
    assert!(snap.counter("scheduler.polls") > 0);
    assert!(snap.gauge("scheduler.workers").unwrap_or(0) > 0);
    assert!(snap.has("scheduler.steals"), "steal counter missing");
    assert!(snap.has("scheduler.yields"), "yield counter missing");
    assert!(
        snap.has("scheduler.queue.global_depth"),
        "injector depth gauge missing"
    );

    // both export formats render non-trivially
    let json = snap.to_json();
    assert!(json.contains("feed.ingest_lag_millis"), "{json}");
    let prom = snap.to_prometheus();
    assert!(prom.contains("asterix_feed_records_persisted"), "{prom}");
    assert!(prom.contains("asterix_scheduler_tasks_spawned"), "{prom}");

    // the trace hub saw the connect span
    let trace = rig.cluster.trace().render();
    assert!(trace.contains("feed.connect"), "{trace}");

    gen.stop();
    rig.stop();
}
