//! Regression test for the parse-once typed record pipeline.
//!
//! A record travelling adaptor → intake → assign (UDF) → partitioner →
//! store → secondary index must be parsed from text exactly once — at the
//! adaptor, which writes the binary ADM payload every later hop carries —
//! and never printed. Downstream of the adaptor the only stage that builds a
//! record's tree is assign (the UDF needs a value): one binary decode per
//! record per UDF stage, whether the record reached it over an in-process
//! edge, a TCP hop or a despill. The router and the partitioner project
//! their fields out of the bytes and the store keeps the bytes, so a feed
//! without a UDF builds no value downstream of the adaptor at all.
//!
//! This file holds a single `#[test]` so its process owns the global
//! [`asterix_adm::parse_calls`] / [`asterix_adm::print_calls`] counters —
//! other test binaries run in their own processes and cannot perturb them.

use asterix_adm::types::paper_registry;
use asterix_adm::{parse_calls, print_calls, AdmValue};
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{bind_socket, unbind_socket};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::transport::TransportKind;
use asterix_storage::secondary::IndexKind;
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: u64 = 400;

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
fn every_record_is_parsed_exactly_once_and_never_printed() {
    in_process_feed_decodes_once_at_assign();
    tcp_plan_with_a_spill_parses_once_and_prints_nothing();
    udf_less_feed_decodes_nothing(TransportKind::Tcp, "parse-once:9002");
    udf_less_feed_decodes_nothing(TransportKind::InProcess, "parse-once:9003");
}

/// Two-node cluster on `transport`, heartbeats never failing a node.
fn rig(transport: TransportKind) -> (Cluster, Arc<FeedCatalog>, Arc<FeedController>) {
    let cluster = Cluster::start(
        2,
        SimClock::with_scale(10.0),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    );
    let catalog = FeedCatalog::new(paper_registry());
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig {
            transport,
            flow_capacity: 1,
            ..ControllerConfig::default()
        },
    );
    (cluster, catalog, controller)
}

/// N records through socket → store with no UDF anywhere, on either
/// transport: the store takes the payload bytes as they are, so after the
/// adaptor's N text parses nothing is decoded, parsed or printed — and the
/// type check still ran, on the bytes.
fn udf_less_feed_decodes_nothing(transport: TransportKind, socket: &str) {
    const N: u64 = 500;
    let (cluster, catalog, controller) = rig(transport);
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "RawTweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    catalog.register_dataset(Arc::clone(&dataset));
    let tx = bind_socket(socket, 2048).unwrap();
    IngestPlanBuilder::new("PlainFeed")
        .adaptor("socket_adaptor")
        .param("sockets", socket)
        .register_feeds(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("PlainFeed", "RawTweets", "Basic")
        .unwrap();

    let mut factory = tweetgen::TweetFactory::new(9, 13);
    let (parsed_before, printed_before) = (parse_calls(), print_calls());
    for _ in 0..N {
        tx.send(factory.next_json()).unwrap();
    }
    // a well-formed record that is no Tweet: the bytes-level type check
    // rejects it at the store, softly
    tx.send("{ \"id\": \"not-a-tweet\" }".to_string()).unwrap();
    assert!(
        wait_until(Duration::from_secs(60), || dataset.len() as u64 == N),
        "expected {N} records persisted, saw {}",
        dataset.len()
    );
    let metrics = controller.connection_metrics(conn).unwrap();
    assert!(wait_until(Duration::from_secs(30), || {
        metrics.soft_failures.get() == 1
    }));
    assert_eq!(parse_calls() - parsed_before, N + 1, "the adaptor's parses");
    assert_eq!(
        metrics.parse_calls.get(),
        0,
        "no stage of a UDF-less feed decodes a record, wire hops or not"
    );
    // the one print is the soft-failure log line, for humans
    assert_eq!(print_calls() - printed_before, 1);
    let logged = controller.error_log();
    assert!(logged.lock().iter().any(|e| e
        .payload
        .as_deref()
        .is_some_and(|p| p.contains("not-a-tweet"))));

    controller.shutdown();
    cluster.shutdown();
    unbind_socket(socket);
}

/// N records through socket → sentiment UDF → 3-way route → 3 stores with
/// every job edge on a real TCP socket, one sink congested into a
/// spill/despill: still N text parses (the adaptor's), no print, and one
/// binary decode per record — assign's, on the far side of a wire hop,
/// because the UDF needs a value. The router and the partitioner read their
/// fields out of the bytes without decoding the record, and the store takes
/// the bytes as they are.
fn tcp_plan_with_a_spill_parses_once_and_prints_nothing() {
    const N: u64 = 600;
    let (cluster, catalog, controller) = rig(TransportKind::Tcp);
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = |name: &str, insert_spin: u64| {
        let config = DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: nodegroup.clone(),
        };
        let d = Arc::new(Dataset::create_with(config, insert_spin).unwrap());
        catalog.register_dataset(Arc::clone(&d));
        d
    };
    let us = dataset("UsTweets", 0);
    let popular = dataset("PopularTweets", 0);
    // the catch-all sink is slow: its one-frame hand-off queue backs up and
    // the Spill policy sends the excess through the spill file
    let rest = dataset("RestTweets", 400_000);
    catalog.create_function(Udf::sentiment_analysis()).unwrap();

    let tx = bind_socket("parse-once:9001", 2048).unwrap();
    let plan = IngestPlanBuilder::new("ScoredFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "parse-once:9001")
        .udf("tweetlib#sentimentAnalysis")
        .sink(SinkSpec::to("UsTweets").route(RoutePredicate::eq("country", "US")))
        .sink(
            SinkSpec::to("PopularTweets").route(RoutePredicate::gt("user.followers_count", 50_000)),
        )
        .sink(SinkSpec::to("RestTweets").otherwise().policy("Spill"))
        .register(&catalog)
        .unwrap();
    controller.connect_plan(&plan).unwrap();

    let mut factory = tweetgen::TweetFactory::new(5, 11);
    let lines: Vec<String> = (0..N).map(|_| factory.next_json()).collect();
    let (parsed_before, printed_before) = (parse_calls(), print_calls());
    for line in &lines {
        tx.send(line.clone()).unwrap();
    }
    let stored = || (us.len() + popular.len() + rest.len()) as u64;
    assert!(
        wait_until(Duration::from_secs(120), || stored() == N),
        "expected {N} records persisted, saw {}",
        stored()
    );
    assert_eq!(
        parse_calls() - parsed_before,
        N,
        "text is parsed once, at the adaptor"
    );
    assert_eq!(
        print_calls() - printed_before,
        0,
        "no stage between adaptor and store prints a record"
    );
    let snap = controller.registry().snapshot();
    assert!(
        snap.counter("feed.records_spilled") > 0,
        "the slow sink never reached the spill path"
    );
    assert_eq!(
        snap.counter("feed.records_despilled"),
        snap.counter("feed.records_spilled")
    );
    assert_eq!(
        snap.counter("feed.parse_calls"),
        N,
        "one decode, in the only stage that needs the tree: assign"
    );
    // the UDF ran and the doubles it produced survived three wire hops
    assert!(rest.scan_all().iter().all(
        |r| matches!(r.field("sentiment"), Some(AdmValue::Double(s)) if (0.0..=1.0).contains(s))
    ));

    controller.shutdown();
    cluster.shutdown();
    unbind_socket("parse-once:9001");
}

/// The full in-process pipeline with a UDF: one text parse per record (the
/// adaptor's), one binary decode per record (assign's, for the UDF), and
/// nowhere else — no print, no decode at the partitioner or the store.
fn in_process_feed_decodes_once_at_assign() {
    let clock = SimClock::with_scale(10.0);
    let cluster = Cluster::start(
        2,
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

    // dataset with a secondary index, so index maintenance is on the path
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = Arc::new(
        Dataset::create(DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        })
        .unwrap(),
    );
    dataset
        .create_index("byText", "message_text", IndexKind::BTree)
        .unwrap();
    catalog.register_dataset(Arc::clone(&dataset));
    catalog.create_function(Udf::add_hash_tags()).unwrap();

    // socket-fed primary feed with a UDF'd secondary feed on top: the full
    // collect → intake → assign → hash-partition → store pipeline
    let tx = bind_socket("parse-once:9000", 1024).unwrap();
    IngestPlanBuilder::new("RawFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "parse-once:9000")
        .register_feeds(&catalog)
        .unwrap();
    IngestPlanBuilder::new("ProcessedFeed")
        .parent("RawFeed")
        .udf("addHashTags")
        .register_feeds(&catalog)
        .unwrap();
    let conn = controller
        .connect_feed("ProcessedFeed", "Tweets", "Basic")
        .unwrap();

    let mut factory = tweetgen::TweetFactory::new(3, 7);
    let lines: Vec<String> = (0..RECORDS).map(|_| factory.next_json()).collect();

    let (before, printed_before) = (parse_calls(), print_calls());
    for line in &lines {
        tx.send(line.clone()).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(60), || dataset.len() as u64 == RECORDS),
        "expected {RECORDS} records persisted, saw {}",
        dataset.len()
    );
    let parsed = parse_calls() - before;

    // exactly one text parse per record: the adaptor's. The partitioner key
    // function, the type check, the store and the secondary index read the
    // binary payload.
    assert_eq!(
        parsed, RECORDS,
        "pipeline parsed {parsed} times for {RECORDS} records"
    );
    assert_eq!(print_calls() - printed_before, 0);

    // one decode per record, at assign, and nowhere else: the connection's
    // store job (partitioner + store) decoded nothing
    let metrics = controller.connection_metrics(conn).unwrap();
    assert_eq!(metrics.parse_calls.get(), 0);
    let snap = controller.registry().snapshot();
    assert_eq!(snap.counter("feed.parse_calls"), RECORDS);

    // sanity: the records really went through the UDF and the store
    let sample = dataset.scan_all();
    assert!(sample
        .iter()
        .all(|r| !matches!(r.field("topics"), None | Some(AdmValue::Missing))));

    // scans never re-parse text either: sealing into (compacted) storage
    // images and reading back — full scans, projected column scans and
    // point field lookups — all decode binary images, so the global
    // text-parse counter must not move
    let at_seal = parse_calls();
    dataset.force_merge_all();
    let full = dataset.scan_all();
    let projected = dataset.scan_projected(&["message_text".into()]);
    assert_eq!(full.len(), projected.len());
    for (f, p) in full.iter().zip(&projected) {
        assert_eq!(f.field("message_text"), p.field("message_text"));
    }
    let key = full[0].field("id").unwrap();
    assert!(dataset.get_field(key, "message_text").is_some());
    assert_eq!(
        parse_calls() - at_seal,
        0,
        "seal + scans re-parsed record text"
    );

    controller.shutdown();
    cluster.shutdown();
    unbind_socket("parse-once:9000");
}
