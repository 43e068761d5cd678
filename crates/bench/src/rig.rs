//! The one rig every feed-driving row of the experiment table runs on: a
//! simulated cluster plus the feeds stack, set up from a [`Setup`] — data,
//! not code — and driven on the sim clock until the row's end condition.

use asterix_adm::types::paper_registry;
use asterix_adm::AdmValue;
use asterix_common::{
    FaultPlan, FaultPlanConfig, MetricsSnapshot, NodeId, SimClock, SimDuration, ThroughputSeries,
};
use asterix_feeds::adaptor::{ChaosAdaptorFactory, TweetGenAdaptorFactory};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::plan::{IngestPlanBuilder, SinkSpec};
use asterix_feeds::udf::Udf;
use asterix_feeds::ConnectionId;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::scheduler::Scheduler;
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

/// Where a feed's records come from.
pub enum Source {
    /// The setup's generators with these indexes (one datasource each).
    Gens(&'static [usize]),
    /// Another feed's joint (a secondary feed).
    Parent(&'static str),
}

/// A feed definition: name, source and UDF, if any.
pub struct Feed(pub &'static str, pub Source, pub Option<&'static str>);

/// What breaks during a run.
pub enum Faults {
    /// Nothing.
    None,
    /// Scripted kills: at each sim-second (since connect), the first live
    /// node hosting each listed joint that this step has not killed yet —
    /// a feed name is its intake, `feed:udf` its compute stage.
    Kills(Vec<(u64, Vec<&'static str>)>),
    /// A fault plan drawn from the run's seed: node kills and rejoins
    /// anchored to record counts, operator panics. The generators' feeds
    /// are chaos-wrapped so the plan's record counter ticks.
    Plan(FaultPlanConfig),
}

/// A value read from the running rig.
pub enum Probe {
    /// A gauge of the registry, by name and one label value.
    Gauge(&'static str, &'static str),
    /// The compute parallelism of a joint.
    Compute(&'static str),
    /// The intake width of a feed.
    Intake(&'static str),
}

/// When a run ends.
pub enum End {
    /// The pattern is done and the persisted total has not moved for this
    /// span of sim-time.
    Drain(SimDuration),
    /// This span of sim-time after the pattern is done, drained or not.
    After(SimDuration),
    /// This sim-instant after connecting, the pattern still running.
    At(SimDuration),
}

/// One run of a row on the rig, as data.
pub struct Setup {
    /// Worker nodes.
    pub nodes: usize,
    /// Real milliseconds per sim-second.
    pub time_scale: f64,
    /// Heartbeat failure detection (250 sim-ms beats, 1.5 sim-s threshold).
    pub failure_detection: bool,
    /// Scheduler worker threads (`None`: the pool's default). The per-record
    /// delay capacity model needs one per concurrently-delaying instance, or
    /// the delays serialize on the pool and capacity stops scaling.
    pub workers: Option<usize>,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// The generators' arrival patterns, one TweetGen instance each.
    pub gens: Vec<PatternDescriptor>,
    /// Seed of the generators' tweet streams (`None`: TweetGen's default).
    pub gen_seed: Option<u64>,
    /// Datasets of `Tweet`s keyed on `id`, with their nodegroup (`None`:
    /// every node).
    pub datasets: Vec<(&'static str, Option<Vec<NodeId>>)>,
    /// UDFs to create.
    pub udfs: Vec<Udf>,
    /// Feeds, registered in order.
    pub feeds: Vec<Feed>,
    /// Connections `(feed, dataset, policy)`, in order.
    pub connect: Vec<(&'static str, &'static str, &'static str)>,
    /// Sink arms that make the first feed a routed plan, connected as it
    /// is registered.
    pub sinks: Vec<SinkSpec>,
    /// Faults.
    pub faults: Faults,
    /// Probes, read every `every` of sim-time while the run lasts and once
    /// at its end.
    pub probes: Vec<(&'static str, Probe)>,
    /// The sample period (and the pace of scripted kills).
    pub every: SimDuration,
    /// After the pattern, keep sampling until probe `.0` reads `.1`.
    pub settle_on: Option<(usize, u64)>,
    /// Records each dataset must hold before the drain starts (at-least-once
    /// sinks that recover after a kill).
    pub complete: Vec<Option<u64>>,
    /// When the run ends.
    pub end: End,
    /// Collect the id set of every dataset at the end.
    pub audit: bool,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            nodes: 10,
            time_scale: 10.0,
            failure_detection: false,
            workers: None,
            controller: ControllerConfig::default(),
            gens: Vec::new(),
            gen_seed: None,
            datasets: Vec::new(),
            udfs: Vec::new(),
            feeds: Vec::new(),
            connect: Vec::new(),
            sinks: Vec::new(),
            faults: Faults::None,
            probes: Vec::new(),
            every: SimDuration::from_secs(1),
            settle_on: None,
            complete: Vec::new(),
            end: End::Drain(SimDuration::from_secs(5)),
            audit: false,
        }
    }
}

/// What a run measured.
pub struct Outcome {
    /// Tweets the generators sent.
    pub generated: u64,
    /// Records per dataset, in setup order.
    pub persisted: Vec<u64>,
    /// Record ids per dataset (when audited).
    pub ids: Vec<BTreeSet<String>>,
    /// Persisted-records throughput per connection, in the order made.
    pub series: Vec<ThroughputSeries>,
    /// Sample instants, sim-seconds since the clock started.
    pub t_secs: Vec<f64>,
    /// Samples per probe.
    pub samples: Vec<Vec<u64>>,
    /// Each probe read at the end of the run.
    pub finals: Vec<u64>,
    /// The registry at the end of the run.
    pub snap: MetricsSnapshot,
    /// The fault plan's schedule, if any.
    pub schedule: String,
}

/// Sleep on `clock` in steps of `step` until `done` holds; false when
/// `limit` of real time passed first. The harness's one way to wait.
pub fn pace(
    clock: &SimClock,
    step: SimDuration,
    limit: Duration,
    mut done: impl FnMut() -> bool,
) -> bool {
    let deadline = Instant::now() + limit;
    let mut next = clock.now();
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        next = next.plus(step);
        clock.sleep_until(next);
    }
    true
}

/// Run `setup` with `seed` — its generators bound at addresses starting
/// with `tag`, unique in the process — and return what it measured.
pub fn run(mut setup: Setup, seed: u64, tag: &str) -> Outcome {
    let plan = match &setup.faults {
        Faults::Plan(cfg) => Some(Arc::new(FaultPlan::generate(seed, cfg))),
        _ => None,
    };
    setup.controller.fault_plan = plan.clone();
    let clock = SimClock::with_scale(setup.time_scale);
    let (heartbeat, threshold) = match setup.failure_detection {
        true => (
            SimDuration::from_millis(250),
            SimDuration::from_millis(1500),
        ),
        false => (SimDuration::from_secs(5), SimDuration::from_secs(1_000_000)),
    };
    let cfg = ClusterConfig {
        heartbeat_interval: heartbeat,
        failure_threshold: threshold,
    };
    let workers = setup.workers.unwrap_or_else(Scheduler::default_workers);
    let cluster = Cluster::start_with_workers(setup.nodes, clock.clone(), cfg, workers);
    let catalog = FeedCatalog::new(paper_registry());
    let controller = FeedController::start(cluster.clone(), Arc::clone(&catalog), setup.controller);
    let adaptor = match &plan {
        Some(plan) => {
            print!("{}", plan.describe());
            cluster.arm_fault_plan(Arc::clone(plan));
            let chaos =
                ChaosAdaptorFactory::new(Arc::new(TweetGenAdaptorFactory), Arc::clone(plan));
            catalog.adaptors().register(Arc::new(chaos));
            "chaos:TweetGenAdaptor"
        }
        None => "TweetGenAdaptor",
    };
    let addrs: Vec<String> = (0..setup.gens.len())
        .map(|i| format!("{tag}-{i}:9000"))
        .collect();
    let mut gens = Vec::new();
    for (i, (pattern, addr)) in setup.gens.into_iter().zip(&addrs).enumerate() {
        let mut config = TweetGenConfig::new(addr, i as u32, pattern);
        config.seed = setup.gen_seed.unwrap_or(config.seed);
        gens.push(TweetGen::bind(config, clock.clone()).expect("bind tweetgen"));
    }
    let all: Vec<NodeId> = cluster.alive_nodes().iter().map(|n| n.id()).collect();
    let mut datasets = Vec::new();
    for (name, nodegroup) in setup.datasets {
        let nodegroup = nodegroup.unwrap_or_else(|| all.clone());
        let config = DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup,
        };
        let d = Arc::new(Dataset::create(config).expect("create dataset"));
        catalog.register_dataset(Arc::clone(&d));
        datasets.push(d);
    }
    for udf in setup.udfs {
        catalog.create_function(udf).expect("create function");
    }
    let mut conns = Vec::new();
    let mut sinks = Some(setup.sinks).filter(|s| !s.is_empty());
    for Feed(name, source, udf) in setup.feeds {
        let b = IngestPlanBuilder::new(name);
        let b = match source {
            Source::Gens(ix) => {
                let sources: Vec<&str> = ix.iter().map(|&i| addrs[i].as_str()).collect();
                b.adaptor(adaptor).param("datasource", sources.join(", "))
            }
            Source::Parent(parent) => b.parent(parent),
        };
        let b = udf.into_iter().fold(b, IngestPlanBuilder::udf);
        match sinks.take() {
            None => drop(b.register_feeds(&catalog).expect("create feed")),
            Some(arms) => {
                let plan = arms.into_iter().fold(b, IngestPlanBuilder::sink);
                conns.extend(plan.connect(&catalog, &controller).expect("connect plan"));
            }
        }
    }
    for (feed, dataset, policy) in setup.connect {
        let conn = controller.connect_feed(feed, dataset, policy);
        conns.push(conn.expect("connect"));
    }

    let t0 = clock.now();
    let mut kills = match setup.faults {
        Faults::Kills(kills) => kills,
        _ => Vec::new(),
    }
    .into_iter()
    .peekable();
    let read = |p: &Probe| match p {
        Probe::Gauge(name, label) => controller
            .registry()
            .snapshot()
            .gauge_for(name, label)
            .unwrap_or(0),
        Probe::Compute(joint) => controller.compute_parallelism_of(joint).unwrap_or(0) as u64,
        Probe::Intake(feed) => controller.intake_width_of(feed).unwrap_or(0) as u64,
    };
    let (mut t_secs, mut samples) = (Vec::new(), vec![Vec::new(); setup.probes.len()]);
    // one sample period: fire the kills that are due, sample every probe;
    // returns the probes' readings
    let mut step = || {
        let since = clock.now().since(t0);
        while let Some((_, joints)) = kills.next_if(|(at, _)| since >= SimDuration::from_secs(*at))
        {
            let mut killed = Vec::new();
            for joint in joints {
                let nodes = controller.joint_locations(joint);
                let victim = nodes
                    .iter()
                    .find(|n| !killed.contains(*n))
                    .or(nodes.first());
                if let Some(&victim) = victim {
                    println!(
                        "t={:.0}s: killing node {victim} (hosts {joint})",
                        since.as_secs_f64()
                    );
                    cluster.kill_node(victim);
                    killed.push(victim);
                }
            }
        }
        let readings: Vec<u64> = setup.probes.iter().map(|(_, p)| read(p)).collect();
        if !readings.is_empty() {
            t_secs.push(clock.now().as_secs_f64());
            samples
                .iter_mut()
                .zip(&readings)
                .for_each(|(s, r)| s.push(*r));
        }
        readings
    };
    // the pattern phase: until the end instant, or until every generator
    // has sent its pattern's last tweet
    let (every, limit) = (setup.every, Duration::from_secs(600));
    let at = match setup.end {
        End::At(at) => Some(at),
        _ => None,
    };
    pace(&clock, every, limit, || {
        step();
        match at {
            Some(at) => clock.now().since(t0) >= at,
            None => gens.iter().all(TweetGen::finished),
        }
    });
    match setup.end {
        End::At(_) => {}
        End::After(after) => clock.sleep_until(clock.now().plus(after)),
        End::Drain(settle) => {
            if let Some((probe, value)) = setup.settle_on {
                let limit = Duration::from_secs(120);
                pace(&clock, every, limit, || step()[probe] == value);
            }
            let complete = || {
                let mut want = datasets.iter().zip(&setup.complete);
                want.all(|(d, n)| n.is_none_or(|n| d.len() as u64 >= n))
            };
            if !pace(&clock, every, Duration::from_secs(180), complete) {
                println!("WARNING: at-least-once sinks incomplete after 180 s");
            }
            let mut last = usize::MAX;
            let total = || datasets.iter().map(|d| d.len()).sum::<usize>();
            pace(&clock, settle, limit, || {
                std::mem::replace(&mut last, total()) == last
            });
        }
    }
    let metrics = |c: &ConnectionId| controller.connection_metrics(*c).expect("connection");
    let outcome = Outcome {
        generated: gens.iter().map(TweetGen::generated).sum(),
        persisted: datasets.iter().map(|d| d.len() as u64).collect(),
        ids: match setup.audit {
            true => datasets.iter().map(|d| ids_of(d)).collect(),
            false => Vec::new(),
        },
        series: conns.iter().map(|c| metrics(c).throughput()).collect(),
        t_secs,
        samples,
        finals: setup.probes.iter().map(|(_, p)| read(p)).collect(),
        snap: controller.registry().snapshot_at(&clock),
        schedule: plan.map(|p| p.describe()).unwrap_or_default(),
    };
    gens.iter().for_each(TweetGen::stop);
    controller.shutdown();
    cluster.shutdown();
    outcome
}

/// The `id` field of every record of a dataset.
fn ids_of(ds: &Dataset) -> BTreeSet<String> {
    let id = |r: &AdmValue| r.field("id").and_then(AdmValue::as_str).map(String::from);
    ds.scan_all().iter().filter_map(id).collect()
}
