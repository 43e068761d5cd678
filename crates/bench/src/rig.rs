//! Shared experiment scaffolding: a simulated cluster plus the feeds stack,
//! with helpers for the setups the paper's experiments repeat.

use asterix_adm::types::paper_registry;
use asterix_common::{FaultPlan, MetricsRegistry, MetricsSnapshot, NodeId, SimClock, SimDuration};
use asterix_feeds::adaptor::{ChaosAdaptorFactory, TweetGenAdaptorFactory};
use asterix_feeds::catalog::FeedCatalog;
use asterix_feeds::controller::{ControllerConfig, FeedController};
use asterix_feeds::plan::IngestPlanBuilder;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tweetgen::{PatternDescriptor, TweetGen, TweetGenConfig};

/// Knobs for an experiment rig.
#[derive(Debug, Clone)]
pub struct RigOptions {
    /// Worker nodes.
    pub nodes: usize,
    /// Real milliseconds per sim-second.
    pub time_scale: f64,
    /// Enable realistic heartbeat failure detection (fault experiments).
    pub failure_detection: bool,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Per-record store busy-spin (capacity knob).
    pub store_spin: u64,
    /// Scheduler worker threads; `None` uses
    /// [`asterix_hyracks::scheduler::Scheduler::default_workers`].
    /// Experiments using the per-record delay capacity model must size this
    /// to at least the peak number of concurrently-delaying instances, or
    /// the delay sleeps serialize on the pool and capacity stops scaling
    /// with instance count.
    pub workers: Option<usize>,
}

impl Default for RigOptions {
    fn default() -> Self {
        RigOptions {
            nodes: 10,
            time_scale: 10.0,
            failure_detection: false,
            controller: ControllerConfig::default(),
            store_spin: 0,
            workers: None,
        }
    }
}

/// A running cluster + feeds stack for one experiment.
pub struct ExperimentRig {
    /// The cluster.
    pub cluster: Cluster,
    /// The feeds catalog.
    pub catalog: Arc<FeedCatalog>,
    /// The Central Feed Manager.
    pub controller: Arc<FeedController>,
    /// The shared clock.
    pub clock: SimClock,
    store_spin: u64,
}

impl ExperimentRig {
    /// Start a rig.
    pub fn start(opts: RigOptions) -> ExperimentRig {
        let clock = SimClock::with_scale(opts.time_scale);
        let cluster_cfg = if opts.failure_detection {
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(250),
                failure_threshold: SimDuration::from_millis(1500),
            }
        } else {
            ClusterConfig {
                heartbeat_interval: SimDuration::from_secs(5),
                failure_threshold: SimDuration::from_secs(1_000_000),
            }
        };
        let cluster = match opts.workers {
            Some(w) => Cluster::start_with_workers(opts.nodes, clock.clone(), cluster_cfg, w),
            None => Cluster::start(opts.nodes, clock.clone(), cluster_cfg),
        };
        let catalog = FeedCatalog::new(paper_registry());
        let controller =
            FeedController::start(cluster.clone(), Arc::clone(&catalog), opts.controller);
        ExperimentRig {
            cluster,
            catalog,
            controller,
            clock,
            store_spin: opts.store_spin,
        }
    }

    /// Create and register a dataset over all alive nodes.
    pub fn dataset(&self, name: &str, datatype: &str) -> Arc<Dataset> {
        let nodegroup: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
        self.dataset_on(name, datatype, nodegroup)
    }

    /// Create and register a dataset on an explicit nodegroup (role
    /// separation for the Fig 6.4-style layouts).
    pub fn dataset_on(&self, name: &str, datatype: &str, nodegroup: Vec<NodeId>) -> Arc<Dataset> {
        let d = Arc::new(
            Dataset::create_with(
                DatasetConfig {
                    name: name.into(),
                    datatype: datatype.into(),
                    primary_key: "id".into(),
                    nodegroup,
                },
                self.store_spin,
            )
            .expect("create dataset"),
        );
        self.catalog.register_dataset(Arc::clone(&d));
        d
    }

    /// Bind a TweetGen instance.
    pub fn tweetgen(&self, addr: &str, instance: u32, pattern: PatternDescriptor) -> TweetGen {
        TweetGen::bind(
            TweetGenConfig::new(addr, instance, pattern),
            self.clock.clone(),
        )
        .expect("bind tweetgen")
    }

    /// The cluster-wide metrics registry every layer reports into.
    pub fn registry(&self) -> MetricsRegistry {
        self.controller.registry()
    }

    /// A timestamped snapshot of every registered metric.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry().snapshot_at(&self.clock)
    }

    /// Export the current metrics snapshot to
    /// `results/<experiment>.metrics.json` and `results/<experiment>.prom`.
    pub fn export_metrics(&self, experiment: &str) {
        let snap = self.metrics();
        if let Some((json, prom)) = crate::report::write_metrics_snapshot(experiment, &snap) {
            println!("metrics: {} and {}", json.display(), prom.display());
        }
    }

    /// Print a periodic one-line metrics digest to stdout until shutdown.
    pub fn spawn_console_reporter(&self, every: SimDuration) {
        self.cluster.spawn_console_reporter(every);
    }

    /// Define a primary feed over TweetGen addresses, optionally with a UDF.
    pub fn primary_feed(&self, name: &str, datasource: &str, udf: Option<&str>) {
        let mut b = IngestPlanBuilder::new(name)
            .adaptor("TweetGenAdaptor")
            .param("datasource", datasource);
        if let Some(udf) = udf {
            b = b.udf(udf);
        }
        b.register_feeds(&self.catalog).expect("create feed");
    }

    /// Define a primary feed whose TweetGen adaptor is wrapped in the
    /// fault-injection rig: the plan's record counter ticks on every emitted
    /// record, and scheduled adaptor disconnects sever the source (chaos
    /// experiments). Node kills/revives still need [`Cluster::arm_fault_plan`]
    /// and operator panics `ControllerConfig::fault_plan`.
    pub fn chaos_primary_feed(&self, name: &str, datasource: &str, plan: &Arc<FaultPlan>) {
        self.catalog
            .adaptors()
            .register(Arc::new(ChaosAdaptorFactory::new(
                Arc::new(TweetGenAdaptorFactory),
                Arc::clone(plan),
            )));
        IngestPlanBuilder::new(name)
            .adaptor("chaos:TweetGenAdaptor")
            .param("datasource", datasource)
            .register_feeds(&self.catalog)
            .expect("create chaos feed");
    }

    /// Define a secondary feed.
    pub fn secondary_feed(&self, name: &str, parent: &str, udf: &str) {
        IngestPlanBuilder::new(name)
            .parent(parent)
            .udf(udf)
            .register_feeds(&self.catalog)
            .expect("create secondary feed");
    }

    /// Tear everything down.
    pub fn stop(self) {
        self.controller.shutdown();
        self.cluster.shutdown();
    }
}

/// Poll until `cond` or timeout; true if the condition was met.
pub fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Wait until the generator has sent its pattern's last tweet; returns
/// the generated total.
pub fn wait_pattern_done(gen: &TweetGen) -> u64 {
    assert!(
        wait_until(Duration::from_secs(600), || gen.finished()),
        "generator at {} still running after 600 s",
        gen.addr()
    );
    gen.generated()
}

/// Wait until a counter stops growing (pipeline drained).
pub fn wait_stable(read: impl Fn() -> usize, settle: Duration) -> usize {
    let mut last = read();
    loop {
        std::thread::sleep(settle);
        let now = read();
        if now == last {
            return now;
        }
        last = now;
    }
}
