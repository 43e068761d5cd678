//! Thread census. Controller teardown must be deterministic:
//! `FeedController::shutdown` joins its one thread, the `cfm-failure-monitor`
//! (the scaling governor is a task on the pool), so no named controller
//! thread survives the call;
//! `Cluster::shutdown` releases its heartbeat and monitor threads at once,
//! not an interval later; and a connected feed costs no thread at all —
//! collect, intake and store are tasks on the pool. Kept in its own test binary with ONE `#[test]` — the
//! assertions scan and count the whole process's thread list, which would
//! race against sibling tests spinning up their own controllers (and
//! against the harness spawning the sibling's thread).

use asterix_adm::types::paper_registry;
use asterix_common::{NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{bind_socket, unbind_socket};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::plan::IngestPlanBuilder;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Names of this process's live threads (Linux comm names are truncated to
/// 15 bytes, so match on prefixes only).
fn threads() -> Vec<String> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for task in dir.flatten() {
            if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
                out.push(name.trim().to_string());
            }
        }
    }
    out
}

fn threads_starting(prefixes: &[&str]) -> Vec<String> {
    let mut found = threads();
    found.retain(|name| prefixes.iter().any(|p| name.starts_with(p)));
    found
}

fn cfm_threads() -> Vec<String> {
    threads_starting(&["cfm-"])
}

fn quiet_cluster() -> Cluster {
    Cluster::start(
        2,
        SimClock::with_scale(10.0),
        // 50 real seconds between heartbeats: a control-plane thread that
        // slept its interval out would outlive every deadline below
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5_000),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
    )
}

#[test]
#[cfg(target_os = "linux")]
fn thread_census() {
    // this order: the first phase ends only once its threads are gone, so
    // none of them can exit inside a later count
    connected_feed_adds_no_thread_and_shutdown_frees_them_all();
    shutdown_leaves_no_cfm_thread_behind();
}

fn connected_feed_adds_no_thread_and_shutdown_frees_them_all() {
    let cluster = quiet_cluster();
    let catalog = FeedCatalog::new(paper_registry());
    let controller = FeedController::start(
        cluster.clone(),
        Arc::clone(&catalog),
        ControllerConfig::default(),
    );
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
    catalog.register_dataset(Arc::clone(&dataset));
    let tx = bind_socket("census:9000", 64).unwrap();
    IngestPlanBuilder::new("SocketFeed")
        .adaptor("socket_adaptor")
        .param("sockets", "census:9000")
        .register_feeds(&catalog)
        .unwrap();

    let before = threads().len();
    controller
        .connect_feed("SocketFeed", "Tweets", "Basic")
        .unwrap();
    // the collect stage is up and running: a record makes it to the store
    let mut factory = tweetgen::TweetFactory::new(1, 1);
    tx.send(factory.next_json()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while dataset.is_empty() {
        assert!(Instant::now() < deadline, "record never persisted");
        std::thread::sleep(Duration::from_millis(2));
    }
    // counted, not matched by name: a thread names itself only once it runs
    let now = threads();
    assert_eq!(
        now.len(),
        before,
        "a socket feed adds no thread — no collect thread, no flusher, no flow \
         pusher: every stage is a task on the pool: {now:?}"
    );

    controller.shutdown();
    cluster.shutdown();
    unbind_socket("census:9000");
    drop((tx, dataset, catalog, controller, cluster));
    let gone = ["hb-", "cc-", "cfm-", "lsm-compactor", "ws-worker"];
    let deadline = Instant::now() + Duration::from_millis(250);
    while !threads_starting(&gone).is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        threads_starting(&gone).is_empty(),
        "a shut-down system still runs {:?}",
        threads_starting(&gone)
    );
}

fn shutdown_leaves_no_cfm_thread_behind() {
    let cluster = quiet_cluster();
    let catalog = FeedCatalog::new(paper_registry());
    let controller = FeedController::start(cluster.clone(), catalog, ControllerConfig::default());
    // the failure monitor is up before shutdown, and it is the only thread
    // the controller starts
    let deadline = Instant::now() + Duration::from_secs(5);
    while cfm_threads().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        cfm_threads(),
        ["cfm-failure-mon"],
        "the controller starts one thread"
    );
    controller.shutdown();
    // shutdown joins: the threads are gone the moment it returns
    assert!(
        cfm_threads().is_empty(),
        "leaked controller threads: {:?}",
        cfm_threads()
    );
    cluster.shutdown();
}
