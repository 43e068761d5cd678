//! Fault-tolerant ingestion (Chapter 6): watch the pipeline survive a
//! compute-node crash, a store-node crash, and a barrage of malformed
//! records — while the throughput timeline shows the dips and recoveries.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_ingestion
//! ```

use asterixdb_ingestion::adm::types::paper_registry;
use asterixdb_ingestion::common::{NodeId, SimClock, SimDuration};
use asterixdb_ingestion::feeds::catalog::FeedCatalog;
use asterixdb_ingestion::feeds::controller::{ConnectionState, ControllerConfig, FeedController};
use asterixdb_ingestion::feeds::plan::IngestPlanBuilder;
use asterixdb_ingestion::feeds::udf::Udf;
use asterixdb_ingestion::hyracks::cluster::{Cluster, ClusterConfig};
use asterixdb_ingestion::storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::Duration;
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

fn main() {
    // slower clock so heartbeat failure detection is robust
    let clock = SimClock::with_scale(50.0);
    let cluster = Cluster::start(
        8,
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
            compute_node_offset: 2, // intake on 0-1, compute on 2-3
            ..ControllerConfig::default()
        },
    );

    let gen = TweetGen::bind(
        TweetGenConfig::new("ft-demo:9000", 0, PatternDescriptor::constant(400, 10_000)),
        clock.clone(),
    )
    .expect("bind");
    // dataset partitions on nodes 4..7 — role separation like Fig 6.4
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "ProcessedTweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: (4..8).map(NodeId).collect(),
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));
    catalog.create_function(Udf::add_hash_tags()).unwrap();

    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "ft-demo:9000")
        .register_feeds(&catalog)
        .unwrap();
    IngestPlanBuilder::new("ProcessedTwitterFeed")
        .parent("TwitterFeed")
        .udf("addHashTags")
        .register_feeds(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("ProcessedTwitterFeed", "ProcessedTweets", "FaultTolerant")
        .unwrap();
    let registry = controller.registry();
    let count = |name: &str| {
        let labels = &[("conn", "ProcessedTwitterFeed->ProcessedTweets")];
        registry.counter(name, labels).get()
    };
    println!("connected with the FaultTolerant policy; ingesting...");

    let watch = |label: &str, secs: u64| {
        for _ in 0..secs {
            std::thread::sleep(Duration::from_millis(1000));
            println!(
                "  [{label}] state={:?} persisted={} soft_failures={} replayed={}",
                controller.connection_state(conn),
                dataset.len(),
                count("feed.soft_failures"),
                count("feed.records_replayed"),
            );
        }
    };

    watch("steady", 2);

    // 1. soft failures: a compute node survives bad data (handled by the
    //    MetaFeed sandbox inside the store stage's validation)
    println!("\n>>> crashing a compute node...");
    let compute_nodes = controller.joint_locations("TwitterFeed:addHashTags");
    let victim = compute_nodes[0];
    cluster.kill_node(victim);
    watch("compute-crash", 3);
    println!(">>> reviving {victim}...");
    cluster.revive_node(victim);
    watch("recovered", 2);

    // 2. store-node crash: the connection suspends (no replication), then
    //    resumes after the node re-joins and replays its WAL
    println!("\n>>> crashing a store node...");
    let store_victim = NodeId(5);
    cluster.kill_node(store_victim);
    watch("store-crash", 3);
    println!(">>> store node re-joins (log-based recovery)...");
    cluster.revive_node(store_victim);
    watch("resumed", 3);

    assert_eq!(controller.connection_state(conn), ConnectionState::Active);
    println!(
        "\nfinal: {} records persisted; error log has {} entries",
        dataset.len(),
        controller.error_log().lock().len()
    );
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
    println!("done.");
}
