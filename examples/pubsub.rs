//! The §8.2 use case: publish-subscribe over a data feed.
//!
//! One published stream (the TwitterFeed), many subscriptions — each
//! subscription is a secondary *predicate feed* whose filtering UDF keeps
//! only the matching records, persisted into the subscriber's own dataset.
//! The cascade network shares the single source connection (fetch once,
//! compute many), and subscriptions attach and detach live without
//! disturbing each other.
//!
//! ```sh
//! cargo run --release --example pubsub
//! ```

use asterixdb_ingestion::adm::types::paper_registry;
use asterixdb_ingestion::adm::AdmValue;
use asterixdb_ingestion::common::{NodeId, SimClock, SimDuration};
use asterixdb_ingestion::feeds::catalog::FeedCatalog;
use asterixdb_ingestion::feeds::controller::{ControllerConfig, FeedController};
use asterixdb_ingestion::feeds::plan::IngestPlanBuilder;
use asterixdb_ingestion::feeds::udf::Udf;
use asterixdb_ingestion::hyracks::cluster::{Cluster, ClusterConfig};
use asterixdb_ingestion::storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::Duration;
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

fn main() {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        3,
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

    let gen = TweetGen::bind(
        TweetGenConfig::new("pubsub:9000", 0, PatternDescriptor::constant(500, 10_000)),
        clock,
    )
    .expect("bind");

    let mk_dataset = |name: &str| -> Arc<Dataset> {
        let d = Arc::new(
            Dataset::create(DatasetConfig {
                name: name.into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup: cluster.alive_nodes().iter().map(|n| n.id()).collect(),
            })
            .unwrap(),
        );
        catalog.register_dataset(Arc::clone(&d));
        d
    };
    let _ = NodeId(0); // (import used by DatasetConfig construction above)

    // the published stream
    IngestPlanBuilder::new("TwitterFeed")
        .adaptor("TweetGenAdaptor")
        .param("datasource", "pubsub:9000")
        .register_feeds(&catalog)
        .unwrap();

    // three subscriptions: a country, a hashtag, and high-follower users
    catalog
        .create_function(Udf::filter("aboutObama", |t| {
            t.str("message_text").is_some_and(|s| s.contains("#Obama"))
        }))
        .unwrap();
    catalog
        .create_function(Udf::filter("fromUS", |t| t.str("country") == Some("US")))
        .unwrap();
    catalog
        .create_function(Udf::filter("influencers", |t| {
            t.field("user")
                .as_ref()
                .and_then(|u| u.field("followers_count"))
                .and_then(AdmValue::as_int)
                .map(|f| f > 90_000)
                .unwrap_or(false)
        }))
        .unwrap();
    for (feed, udf, dataset) in [
        ("ObamaSub", "aboutObama", "ObamaTweets"),
        ("UsSub", "fromUS", "UsTweets"),
        ("InfluencerSub", "influencers", "InfluencerTweets"),
    ] {
        IngestPlanBuilder::new(feed)
            .parent("TwitterFeed")
            .udf(udf)
            .register_feeds(&catalog)
            .unwrap();
        mk_dataset(dataset);
        controller.connect_feed(feed, dataset, "Basic").unwrap();
    }
    println!("three subscriptions attached to one published stream\n");

    for round in 1..=3 {
        std::thread::sleep(Duration::from_secs(1));
        println!(
            "after {round}s (source generated {} tweets):",
            gen.generated()
        );
        for ds in ["ObamaTweets", "UsTweets", "InfluencerTweets"] {
            let d = catalog.dataset(ds).unwrap();
            println!("  {ds:<18} {:>6} matches", d.len());
        }
        if round == 2 {
            println!("  >>> detaching the Obama subscription (others unaffected)");
            controller
                .disconnect_feed("ObamaSub", "ObamaTweets")
                .unwrap();
        }
    }
    println!("\n{}", controller.console_report());
    gen.stop();
    controller.shutdown();
    cluster.shutdown();
    println!("done.");
}
