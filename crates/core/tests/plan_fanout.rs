//! End-to-end tests for multi-sink ingestion plans: one source fanned out
//! through a routing stage to several datasets, each sink with its own
//! ingestion policy. The routing oracle is [`IngestPlan::route_record`]
//! itself, re-applied to the generated records on the test side — the
//! pipeline must agree with the pure IR semantics exactly.

use asterix_adm::parse_value;
use asterix_adm::types::paper_registry;
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{bind_socket, unbind_socket};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ConnectionState, ControllerConfig, FeedController};
use asterix_feeds::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

struct Rig {
    cluster: Cluster,
    catalog: Arc<FeedCatalog>,
    controller: Arc<FeedController>,
}

impl Rig {
    fn start(nodes: usize) -> Rig {
        let clock = SimClock::with_scale(10.0);
        let cluster = Cluster::start(
            nodes,
            clock.clone(),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_secs(5),
                failure_threshold: SimDuration::from_secs(1_000_000),
            },
        );
        let catalog = FeedCatalog::new(paper_registry());
        let controller = FeedController::start(
            cluster.clone(),
            Arc::clone(&catalog),
            ControllerConfig::default(),
        );
        Rig {
            cluster,
            catalog,
            controller,
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

    fn stop(self) {
        self.controller.shutdown();
        self.cluster.shutdown();
    }
}

#[test]
fn plan_fans_out_to_three_sinks_matching_the_ir_oracle() {
    const RECORDS: u64 = 600;
    let rig = Rig::start(3);
    let us = rig.dataset("UsTweets");
    let popular = rig.dataset("PopularTweets");
    let rest = rig.dataset("RestTweets");

    let tx = bind_socket("fanout:9000", 2048).unwrap();
    let plan = IngestPlanBuilder::new("SplitFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "fanout:9000")
        .sink(
            SinkSpec::to("UsTweets")
                .route(RoutePredicate::eq("country", "US"))
                .policy("Basic"),
        )
        .sink(
            SinkSpec::to("PopularTweets")
                .route(RoutePredicate::gt("user.followers_count", 50_000))
                .policy("Spill"),
        )
        .sink(SinkSpec::to("RestTweets").otherwise().policy("Basic"))
        .register(&rig.catalog)
        .unwrap();
    let ids = rig.controller.connect_plan(&plan).unwrap();
    assert_eq!(ids.len(), 3, "one connection per sink");
    // the plan is queryable from the catalog
    assert_eq!(rig.catalog.plan("SplitFeed").unwrap().sinks.len(), 3);

    let mut factory = tweetgen::TweetFactory::new(7, 42);
    let lines: Vec<String> = (0..RECORDS).map(|_| factory.next_json()).collect();

    // the IR itself is the oracle: partition the stream the same way the
    // routing operator must
    let mut expect = [0u64; 3];
    for line in &lines {
        let v = parse_value(line).unwrap();
        let targets = plan.route_record(&v, None);
        assert_eq!(targets.len(), 1, "FirstMatch + otherwise: exactly one sink");
        expect[targets[0]] += 1;
    }
    assert_eq!(expect.iter().sum::<u64>(), RECORDS);
    assert!(
        expect.iter().all(|&n| n > 0),
        "degenerate split {expect:?}: seed routes nothing to some sink"
    );

    for line in &lines {
        tx.send(line.clone()).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(60), || {
            us.len() as u64 == expect[0]
                && popular.len() as u64 == expect[1]
                && rest.len() as u64 == expect[2]
        }),
        "expected {expect:?}, saw [{}, {}, {}]",
        us.len(),
        popular.len(),
        rest.len()
    );

    // delivery is a partition: no duplicates anywhere, and the sinks'
    // contents are disjoint by primary key
    let mut seen = BTreeSet::new();
    for ds in [&us, &popular, &rest] {
        for rec in ds.scan_all() {
            let id = format!("{:?}", rec.field("id").unwrap());
            assert!(seen.insert(id), "duplicate record across sinks");
        }
    }
    assert_eq!(seen.len() as u64, RECORDS);

    // per-sink metrics families exported through the shared registry
    let snap = rig.controller.registry().snapshot();
    for (i, label) in [
        "SplitFeed:UsTweets",
        "SplitFeed:PopularTweets",
        "SplitFeed:RestTweets",
    ]
    .iter()
    .enumerate()
    {
        assert_eq!(
            snap.counter_for("plan.sink.records_routed", label),
            expect[i],
            "plan.sink.records_routed for {label}"
        );
    }
    assert_eq!(
        snap.counter_for("plan.route.no_match_total", "SplitFeed"),
        0
    );

    // per-sink connections are ordinary connections: disconnecting one sink
    // leaves the others flowing
    rig.controller
        .disconnect_feed("SplitFeed", "UsTweets")
        .unwrap();
    assert_eq!(
        rig.controller.connection_state(ids[0]),
        ConnectionState::Ended
    );
    assert_eq!(
        rig.controller.connection_state(ids[1]),
        ConnectionState::Active
    );

    // dropping the remaining sinks lets GC reclaim the route segment and
    // the producer chain behind it
    rig.controller
        .disconnect_feed("SplitFeed", "PopularTweets")
        .unwrap();
    rig.controller
        .disconnect_feed("SplitFeed", "RestTweets")
        .unwrap();
    assert!(
        rig.controller
            .joint_locations("plan:SplitFeed:UsTweets")
            .is_empty(),
        "sink joint not reclaimed"
    );
    assert!(
        rig.controller.joint_locations("SplitFeed").is_empty(),
        "trunk joint not reclaimed"
    );

    rig.stop();
    unbind_socket("fanout:9000");
}

#[test]
fn degenerate_plan_behaves_like_connect_feed() {
    const RECORDS: u64 = 200;
    let rig = Rig::start(2);
    let tweets = rig.dataset("Tweets");
    let tx = bind_socket("fanout-degenerate:9000", 1024).unwrap();
    let plan = IngestPlanBuilder::new("SoloFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "fanout-degenerate:9000")
        .sink(SinkSpec::to("Tweets").policy("Basic"))
        .register(&rig.catalog)
        .unwrap();
    assert!(plan.is_degenerate());
    let ids = rig.controller.connect_plan(&plan).unwrap();
    assert_eq!(ids.len(), 1);

    let mut factory = tweetgen::TweetFactory::new(3, 9);
    for _ in 0..RECORDS {
        tx.send(factory.next_json()).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(30), || tweets.len() as u64 == RECORDS),
        "persisted {} of {RECORDS}",
        tweets.len()
    );
    // no routing stage exists: the degenerate plan compiled to the plain
    // single-connection pipeline
    assert!(rig
        .controller
        .joint_locations("plan:SoloFeed:Tweets")
        .is_empty());
    let persisted = rig.controller.registry().snapshot();
    let persisted = persisted.counter_for("feed.records_persisted", "SoloFeed->Tweets");
    assert_eq!(persisted, RECORDS);
    rig.stop();
    unbind_socket("fanout-degenerate:9000");
}

#[test]
fn multicast_plan_replicates_matching_records() {
    const RECORDS: u64 = 300;
    let rig = Rig::start(2);
    let all = rig.dataset("AllTweets");
    let us = rig.dataset("UsOnly");

    let tx = bind_socket("fanout-multicast:9000", 1024).unwrap();
    let plan = IngestPlanBuilder::new("TeeFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "fanout-multicast:9000")
        .multicast()
        .sink(SinkSpec::to("AllTweets").otherwise().policy("Basic"))
        .sink(
            SinkSpec::to("UsOnly")
                .route(RoutePredicate::eq("country", "US"))
                .policy("Basic"),
        )
        .register(&rig.catalog)
        .unwrap();
    rig.controller.connect_plan(&plan).unwrap();

    let mut factory = tweetgen::TweetFactory::new(5, 11);
    let lines: Vec<String> = (0..RECORDS).map(|_| factory.next_json()).collect();
    let expect_us = lines
        .iter()
        .filter(|l| {
            let v = parse_value(l).unwrap();
            plan.route_record(&v, None).contains(&1)
        })
        .count() as u64;
    assert!(expect_us > 0 && expect_us < RECORDS, "useless seed");

    for line in &lines {
        tx.send(line.clone()).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(30), || all.len() as u64 == RECORDS
            && us.len() as u64 == expect_us),
        "all={} (want {RECORDS}) us={} (want {expect_us})",
        all.len(),
        us.len()
    );
    rig.stop();
    unbind_socket("fanout-multicast:9000");
}
