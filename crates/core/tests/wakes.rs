//! One wake path: a parked task wakes on its waker, or on a deadline its
//! owner names — nothing polls it. An idle connection costs no polls and
//! fires no timer, and each event that ends a park rings the waker of the
//! task it concerns: a stop, an abort, a hand-over, a node's death, a
//! socket's close and a store's release. Every test reads
//! `scheduler.timer_fires` (parks ended by their deadline) at 0: none of
//! these tasks named one, so no timer may have ended a park.

use asterix_adm::types::paper_registry;
use asterix_common::{Counter, FeedId, MetricsRegistry, NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{bind_socket, unbind_socket, SocketAdaptorFactory};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::joint::ExcessPolicy;
use asterix_feeds::manager::FeedManager;
use asterix_feeds::metrics::FeedMetrics;
use asterix_feeds::ops::{CollectDesc, IntakeDesc, NullSinkDesc};
use asterix_feeds::plan::IngestPlanBuilder;
use asterix_feeds::policy::IngestionPolicy;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, JobHandle, TaskResults};
use asterix_hyracks::job::JobSpec;
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetFactory, TweetGen, TweetGenConfig};

/// `nodes` nodes without failure detection: only `kill_node` kills one.
fn cluster(nodes: usize) -> Cluster {
    let config = ClusterConfig {
        heartbeat_interval: SimDuration::from_secs(5),
        failure_threshold: SimDuration::from_secs(1_000_000),
    };
    Cluster::start(nodes, SimClock::fast(), config)
}

/// Parks of the cluster's tasks that their deadline ended, so far.
fn timer_fires(cluster: &Cluster) -> u64 {
    cluster
        .registry()
        .snapshot()
        .counter("scheduler.timer_fires")
}

/// Slices the cluster's tasks ran so far.
fn polls(cluster: &Cluster) -> u64 {
    cluster.registry().snapshot().counter("scheduler.polls")
}

/// Give the tasks of a job just started the time to park.
fn settle() {
    std::thread::sleep(Duration::from_millis(200));
}

/// Wait (10 s at most) for `job` to end, and return its results: a task no
/// wake reached stays parked, and the job never ends.
fn ends(job: &JobHandle) -> TaskResults {
    let deadline = Instant::now() + Duration::from_secs(10);
    while job.is_running() {
        assert!(
            Instant::now() < deadline,
            "{job:?} never ended: a parked task was not woken"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    job.wait()
}

/// A collect of the socket at `addr` into the joint `joint` on `node`,
/// behind a null sink; `tweetgen` reads it under the TweetGen alias.
fn collect_job(addr: &str, tweetgen: bool, joint: &str, node: NodeId) -> JobSpec {
    let (alias, param) = match tweetgen {
        true => (SocketAdaptorFactory::TWEETGEN, "datasource"),
        false => (SocketAdaptorFactory::SOCKET, "sockets"),
    };
    let mut job = JobSpec::new("collect");
    let source = job.add_operator(Box::new(CollectDesc {
        joint_id: joint.into(),
        factory: Arc::new(alias),
        config: [(param.to_string(), addr.to_string())].into(),
        locations: vec![node],
        malformed_lines: Counter::new(),
    }));
    let sink = job.add_operator(Box::new(NullSinkDesc {
        locations: vec![node],
    }));
    job.connect(source, sink, ConnectorSpec::OneToOne);
    job
}

/// An intake of the joint `joint` on `node`, behind a null sink.
fn intake_job(joint: &str, node: NodeId) -> JobSpec {
    let metrics = FeedMetrics::registered(&MetricsRegistry::new(), "c", SimClock::fast());
    let mut job = JobSpec::new("intake");
    let intake = job.add_operator(Box::new(IntakeDesc {
        joint_id: joint.into(),
        sub_key: "parked".into(),
        locations: vec![node],
        excess: ExcessPolicy::new(IngestionPolicy::basic(), metrics, FeedId(1)),
        ack: None,
        fault_plan: None,
    }));
    let sink = job.add_operator(Box::new(NullSinkDesc {
        locations: vec![node],
    }));
    job.connect(intake, sink, ConnectorSpec::OneToOne);
    job
}

/// A parked intake job on node 0 of a fresh cluster: its joint is empty.
fn parked_intake() -> (Cluster, JobHandle) {
    let cluster = cluster(1);
    FeedManager::on(&cluster.nodes()[0]).register_joint("Quiet");
    let job = run_job(&cluster, intake_job("Quiet", NodeId(0))).unwrap();
    settle();
    assert!(job.is_running(), "an intake of an empty joint parks");
    (cluster, job)
}

#[test]
fn stop_sources_wakes_a_parked_source() {
    let cluster = cluster(1);
    let addr = "wakes-stop:1";
    let _tx = bind_socket(addr, 64).unwrap();
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("Stopped");
    let _sub = joint.subscribe("listener");
    let job = collect_job(addr, false, "Stopped", NodeId(0));
    let job = run_job(&cluster, job).unwrap();
    settle();
    assert!(job.is_running(), "a collect of a quiet socket parks");
    job.stop_sources();
    assert!(ends(&job).iter().all(|(_, r)| r.is_ok()), "a graceful stop");
    assert_eq!(timer_fires(&cluster), 0);
    unbind_socket(addr);
    cluster.shutdown();
}

#[test]
fn abort_wakes_a_parked_intake_and_its_consumer() {
    let (cluster, job) = parked_intake();
    job.abort();
    ends(&job);
    assert_eq!(timer_fires(&cluster), 0);
    cluster.shutdown();
}

#[test]
fn hand_over_wakes_a_parked_intake() {
    let (cluster, job) = parked_intake();
    job.hand_over();
    // the intake leaves, its port closes behind it, the sink finishes
    assert!(
        ends(&job).iter().all(|(_, r)| r.is_ok()),
        "a clean hand-over"
    );
    assert_eq!(timer_fires(&cluster), 0);
    cluster.shutdown();
}

#[test]
fn kill_node_wakes_every_parked_task_on_it() {
    let cluster = cluster(2);
    let addr = "wakes-kill:1";
    let _tx = bind_socket(addr, 64).unwrap();
    let victim = cluster.nodes()[1].clone();
    let joint = FeedManager::on(&victim).register_joint("Doomed");
    let _sub = joint.subscribe("listener");
    let collect = collect_job(addr, false, "Doomed", victim.id());
    let collect = run_job(&cluster, collect).unwrap();
    let intake = run_job(&cluster, intake_job("Doomed", victim.id())).unwrap();
    settle();
    assert!(collect.is_running() && intake.is_running(), "all parked");
    cluster.kill_node(victim.id());
    ends(&collect);
    let results = ends(&intake);
    assert!(
        results.iter().any(|(_, r)| r.is_err()),
        "the intake died with its node"
    );
    assert_eq!(timer_fires(&cluster), 0);
    unbind_socket(addr);
    cluster.shutdown();
}

#[test]
fn a_collect_job_ends_when_its_tweetgen_finishes() {
    let cluster = cluster(1);
    let addr = "wakes-gen:9000";
    let pattern = PatternDescriptor::constant(50, 2); // 100 tweets
    let gen = TweetGen::bind(
        TweetGenConfig::new(addr, 0, pattern),
        cluster.clock().clone(),
    );
    let gen = gen.unwrap();
    let joint = FeedManager::on(&cluster.nodes()[0]).register_joint("Finite");
    let sub = joint.subscribe("listener");
    let job = collect_job(addr, true, "Finite", NodeId(0));
    let job = run_job(&cluster, job).unwrap();
    // the generator's last send closes the socket: its doorbell wakes the
    // collect, parked on the empty socket, which sees the end of the stream
    assert!(
        ends(&job).iter().all(|(_, r)| r.is_ok()),
        "the stream ended"
    );
    assert!(gen.finished());
    let mut got = 0;
    while let Some(asterix_feeds::joint::JointRecv::Frame(f)) = sub.try_recv() {
        got += f.len() as u64;
    }
    assert_eq!(got, gen.generated(), "every tweet reached the joint");
    assert_eq!(timer_fires(&cluster), 0);
    gen.stop();
    cluster.shutdown();
}

/// A controller over `nodes` nodes, a dataset of tweets `Tweets` on every
/// node and a socket feed `Lines` reading `addr`.
struct Rig {
    cluster: Cluster,
    controller: Arc<FeedController>,
    dataset: Arc<Dataset>,
}

impl Rig {
    fn start(nodes: usize, addr: &str) -> Rig {
        let cluster = cluster(nodes);
        let catalog = FeedCatalog::new(paper_registry());
        let config = ControllerConfig::default();
        let controller = FeedController::start(cluster.clone(), Arc::clone(&catalog), config);
        let dataset = Arc::new(
            Dataset::create(DatasetConfig {
                name: "Tweets".into(),
                datatype: "Tweet".into(),
                primary_key: "id".into(),
                nodegroup: cluster.nodes().iter().map(|n| n.id()).collect(),
            })
            .unwrap(),
        );
        catalog.register_dataset(Arc::clone(&dataset));
        IngestPlanBuilder::new("Lines")
            .adaptor("socket_adaptor")
            .param("sockets", addr)
            .register_feeds(&catalog)
            .unwrap();
        Rig {
            cluster,
            controller,
            dataset,
        }
    }

    fn count(&self, name: &str) -> u64 {
        let labels = &[("conn", "Lines->Tweets")];
        let registry = self.controller.registry();
        registry.counter(&format!("feed.{name}"), labels).get()
    }

    fn stop(self) {
        self.controller.shutdown();
        self.cluster.shutdown();
    }
}

/// Wait (30 s at most) until `cond` holds.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    true
}

/// One idle connection — a socket nobody writes to — under Basic and under
/// FaultTolerant, on two nodes: for a real second, its collect, intake and
/// store tasks stay parked. The 20 ms safety poll this replaces ran about
/// 250 slices in that second.
#[test]
fn an_idle_connection_neither_polls_nor_fires_a_timer() {
    for policy in ["Basic", "FaultTolerant"] {
        let addr = format!("wakes-idle-{policy}:1");
        let _tx = bind_socket(&addr, 64).unwrap();
        let rig = Rig::start(2, &addr);
        rig.controller
            .connect_feed("Lines", "Tweets", policy)
            .unwrap();
        settle();
        let before = polls(&rig.cluster);
        std::thread::sleep(Duration::from_secs(1));
        let idle_polls = polls(&rig.cluster) - before;
        println!("{policy}: {idle_polls} polls in an idle second");
        assert!(
            idle_polls <= 10,
            "{policy}: {idle_polls} polls in an idle second"
        );
        assert_eq!(timer_fires(&rig.cluster), 0, "{policy}");
        rig.stop();
        unbind_socket(&addr);
    }
}

/// A store held behind `hold_writes` parks with the records it was handed
/// waiting in its port; the release wakes it, and they persist.
#[test]
fn releasing_a_held_store_wakes_it() {
    let addr = "wakes-held:1";
    let tx = bind_socket(addr, 1024).unwrap();
    let rig = Rig::start(1, addr);
    rig.controller
        .connect_feed("Lines", "Tweets", "Basic")
        .unwrap();
    let partition = rig.dataset.partition(0);
    partition.hold_writes(true);
    let mut tweets = TweetFactory::new(0, 1);
    for _ in 0..100 {
        tx.send(tweets.next_json()).unwrap();
    }
    assert!(wait_until(|| rig.count("records_in") == 100), "taken in");
    settle();
    assert_eq!(rig.dataset.len(), 0, "the store is held");
    partition.hold_writes(false);
    assert!(
        wait_until(|| rig.dataset.len() == 100),
        "persisted after the release"
    );
    assert_eq!(timer_fires(&rig.cluster), 0);
    rig.stop();
    unbind_socket(addr);
}
