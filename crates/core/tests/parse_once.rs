//! Regression test for the parse-once typed record pipeline.
//!
//! A record travelling adaptor → intake → assign (UDF) → partitioner →
//! store → secondary index must be parsed from text exactly once — at the
//! adaptor, which writes the binary ADM payload every later hop carries —
//! and never printed. Downstream of the adaptor the only stage that may build
//! a record's tree is assign, and only for a UDF with a tree body (a
//! black-box closure): one binary decode per record per such stage, whether
//! the record reached it over an in-process edge, a TCP hop or a despill.
//! The built-in UDFs read a view of the bytes, the router tests its arms on
//! the bytes, the partitioner decodes only the key and the store keeps the
//! bytes, so a feed whose UDFs are built-ins — or that has none — decodes
//! no record downstream of the adaptor at all.
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
    in_process_cascade_decodes_only_for_a_black_box_udf();
    plan_with_a_spill_parses_once_and_decodes_nothing(TransportKind::Tcp, "parse-once:9001");
    plan_with_a_spill_parses_once_and_decodes_nothing(TransportKind::InProcess, "parse-once:9004");
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
    controller
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
    let registry = controller.registry();
    let count = |name: &str| {
        registry
            .counter(name, &[("conn", "PlainFeed->RawTweets")])
            .get()
    };
    assert!(wait_until(Duration::from_secs(30), || {
        count("feed.soft_failures") == 1
    }));
    assert_eq!(parse_calls() - parsed_before, N + 1, "the adaptor's parses");
    assert_eq!(
        count("feed.parse_calls"),
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

/// N records through socket → sentiment UDF → 3-way route → 3 stores, one
/// sink held into a spill/despill, on `transport` (over TCP every job edge
/// is a real socket): N text parses (the adaptor's), no print, and no
/// decode — the UDF reads `message_text` through a view and appends its
/// double to the bytes, the router and the partitioner read their fields out
/// of the bytes, and the store takes the bytes as they are.
///
/// The congestion is a stall the test controls: RestTweets' one store
/// partition is held (`DatasetPartition::hold_writes`), so its store stage
/// takes nothing. The catch-all sink takes ~80 % of the records (10 % are
/// US, ~9 % of the rest popular). Its records fill the store's 32-frame
/// input port — over TCP also the loopback socket, whose buffers the kernel
/// autotunes to several MB, and the relay's port — and then the first 32
/// frames of the sink's Spill subscription; every frame routed to it after
/// that spills. The test offers lines until 2 000 records have spilled, so
/// N (at most 300 000) is what it offered. While RestTweets is held the
/// router is not stalled: every record routed to UsTweets and
/// PopularTweets persists. Then the store is released and all N persist.
fn plan_with_a_spill_parses_once_and_decodes_nothing(transport: TransportKind, socket: &str) {
    const SPILLED_AT_LEAST: u64 = 2_000;
    const AT_MOST: u64 = 300_000;
    let (cluster, catalog, controller) = rig(transport);
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = |name: &str, nodegroup: &[NodeId], insert_spin: u64| {
        let config = DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: nodegroup.to_vec(),
        };
        let d = Arc::new(Dataset::create_with(config, insert_spin).unwrap());
        catalog.register_dataset(Arc::clone(&d));
        d
    };
    let us = dataset("UsTweets", &nodegroup, 0);
    let popular = dataset("PopularTweets", &nodegroup, 0);
    // one partition: one socket's worth of buffers to fill
    let rest = dataset("RestTweets", &nodegroup[..1], 0);
    rest.partition(0).hold_writes(true);
    catalog.create_function(Udf::sentiment_analysis()).unwrap();

    let tx = bind_socket(socket, 2048).unwrap();
    let plan = IngestPlanBuilder::new("ScoredFeed")
        .adaptor("socket_adaptor")
        .param("sockets", socket)
        .udf("tweetlib#sentimentAnalysis")
        .sink(SinkSpec::to("UsTweets").route(RoutePredicate::eq("country", "US")))
        .sink(
            SinkSpec::to("PopularTweets").route(RoutePredicate::gt("user.followers_count", 90_000)),
        )
        .sink(SinkSpec::to("RestTweets").otherwise().policy("Spill"))
        .register(&catalog)
        .unwrap();
    controller.connect_plan(&plan).unwrap();

    let mut factory = tweetgen::TweetFactory::new(5, 11);
    let spilled = || {
        let snap = controller.registry().snapshot();
        snap.counter("feed.records_spilled")
    };
    let (parsed_before, printed_before) = (parse_calls(), print_calls());
    let mut n = 0u64;
    while spilled() < SPILLED_AT_LEAST {
        assert!(
            n < AT_MOST,
            "{n} records offered and the sink never spilled"
        );
        for _ in 0..1_000 {
            tx.send(factory.next_json()).unwrap();
        }
        n += 1_000;
    }
    // the held sink stalls no other: what is routed to them persists
    let routed = |sink: &str| {
        let label = format!("ScoredFeed:{sink}");
        (controller.registry().snapshot()).counter_for("plan.sink.records_routed", &label)
    };
    let others = || (us.len() + popular.len()) as u64;
    assert!(
        wait_until(Duration::from_secs(120), || {
            let (to_us, to_popular) = (routed("UsTweets"), routed("PopularTweets"));
            to_us + to_popular + routed("RestTweets") == n && others() == to_us + to_popular
        }),
        "{} of {n} routed, {} persisted outside RestTweets while it was held",
        routed("UsTweets") + routed("PopularTweets") + routed("RestTweets"),
        others()
    );
    assert_eq!(rest.len(), 0, "RestTweets is held");
    rest.partition(0).hold_writes(false);
    let stored = || (us.len() + popular.len() + rest.len()) as u64;
    assert!(
        wait_until(Duration::from_secs(120), || stored() == n),
        "expected {n} records persisted, saw {}",
        stored()
    );
    assert_eq!(
        parse_calls() - parsed_before,
        n,
        "text is parsed once, at the adaptor"
    );
    assert_eq!(
        print_calls() - printed_before,
        0,
        "no stage between adaptor and store prints a record"
    );
    let snap = controller.registry().snapshot();
    assert_eq!(
        snap.counter("feed.records_despilled"),
        snap.counter("feed.records_spilled")
    );
    assert_eq!(
        snap.counter("feed.parse_calls"),
        0,
        "the UDF read a view, every other stage the bytes"
    );
    // the UDF ran and the doubles it produced survived the hops
    assert!(rest.scan_all().iter().all(
        |r| matches!(r.field("sentiment"), Some(AdmValue::Double(s)) if (0.0..=1.0).contains(s))
    ));

    controller.shutdown();
    cluster.shutdown();
    unbind_socket(socket);
}

/// The full in-process pipeline with two UDF'd child feeds off one parent
/// joint: one text parse per record (the adaptor's) and no print. The
/// built-in `addHashTags` child decodes nothing — not at assign, the
/// partitioner or the store; the child whose UDF is a black-box closure pays
/// exactly one decode per record, at its assign.
fn in_process_cascade_decodes_only_for_a_black_box_udf() {
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

    // datasets with a secondary index, so index maintenance is on the path
    let nodegroup: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let dataset = |name: &str| {
        let d = Arc::new(
            Dataset::create(DatasetConfig {
                name: name.into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup: nodegroup.clone(),
            })
            .unwrap(),
        );
        d.create_index("byText", "message_text", IndexKind::BTree)
            .unwrap();
        catalog.register_dataset(Arc::clone(&d));
        d
    };
    let (dataset, copies) = (dataset("Tweets"), dataset("Copies"));
    catalog.create_function(Udf::add_hash_tags()).unwrap();
    catalog
        .create_function(Udf::external("lib#identity", |r| Ok(r.clone())))
        .unwrap();

    // socket-fed primary feed with two UDF'd secondary feeds on top: the full
    // collect → intake → assign → hash-partition → store pipeline, twice
    let tx = bind_socket("parse-once:9000", 1024).unwrap();
    IngestPlanBuilder::new("RawFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "parse-once:9000")
        .register_feeds(&catalog)
        .unwrap();
    for (feed, udf, target) in [
        ("ProcessedFeed", "addHashTags", "Tweets"),
        ("BlackBoxFeed", "lib#identity", "Copies"),
    ] {
        IngestPlanBuilder::new(feed)
            .parent("RawFeed")
            .udf(udf)
            .register_feeds(&catalog)
            .unwrap();
        controller.connect_feed(feed, target, "Basic").unwrap();
    }

    let mut factory = tweetgen::TweetFactory::new(3, 7);
    let lines: Vec<String> = (0..RECORDS).map(|_| factory.next_json()).collect();

    let (before, printed_before) = (parse_calls(), print_calls());
    for line in &lines {
        tx.send(line.clone()).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(60), || dataset.len() as u64 == RECORDS
            && copies.len() as u64 == RECORDS),
        "expected {RECORDS} records persisted twice, saw {} and {}",
        dataset.len(),
        copies.len()
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

    // the view-bodied UDF decoded nothing; the black box one decode per
    // record, and nothing else anywhere did
    let snap = controller.registry().snapshot();
    let decodes = |joint: &str| snap.counter_for("feed.parse_calls", joint);
    assert_eq!(decodes("RawFeed:addHashTags"), 0);
    assert_eq!(decodes("RawFeed:lib#identity"), RECORDS);
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
