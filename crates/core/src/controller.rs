//! The Central Feed Manager and connection lifecycle.
//!
//! The controller is the §5.3/§6.2 "Central Feed Manager (CFM)" co-located
//! with the Cluster Controller: it processes `connect feed` / `disconnect
//! feed`, constructs cascade networks by reusing active feed joints, "keeps
//! track of the location for each operator instance that is participating
//! in a data ingestion pipeline", subscribes to cluster events, and drives
//! the fault-tolerance protocol (§6.2.2) and elastic restructuring
//! (§7.3.5).
//!
//! ## Pipeline segments
//!
//! A connected cascade network is a set of *segments*, each one Hyracks job:
//!
//! * **Collect segment** (head, one per primary feed with a live external
//!   connection): `FeedCollect(adaptor) → NullSink`, publishing the root
//!   joint;
//! * **Compute segment** (one per feed with a UDF): `FeedIntake(parent
//!   joint) → Assign(UDF)`, publishing the feed's joint;
//! * **Store segment** (tail, one per connection): `FeedIntake(source
//!   joint) → hash-partition → IndexInsert`, co-located with the target
//!   dataset's partitions.
//!
//! Segments are shared: connecting a feed reuses the nearest active
//! ancestor joint (§5.3.2, "to minimize the processing involved in forming
//! a feed, it is desired to source the feed from the nearest ancestor feed
//! that is in the connected state"). Disconnecting kills only the store
//! segment; producer segments are garbage-collected when their joints lose
//! their last subscriber.

use crate::catalog::{FeedCatalog, FeedKind};
use crate::flow::ElasticRequest;
use crate::governor::{decide, GovernorConfig, GovernorSample, GovernorState, ScaleDecision};
use crate::manager::FeedManager;
use crate::metrics::FeedMetrics;
use crate::ops::{
    new_soft_failure_log, AckPlumbing, AssignDesc, CollectDesc, IntakeDesc, RouteDesc,
    SoftFailureEntry, SoftFailureLog, StoreAck, StoreDesc,
};
use crate::plan::{IngestPlan, SinkSpec};
use crate::policy::IngestionPolicy;
use crate::udf::Udf;
use asterix_common::ids::IdGen;
use asterix_common::sync::{handoff, thread as sync_thread, Mutex};
use asterix_common::{
    FaultPlan, FeedId, HistogramSnapshot, IngestError, IngestResult, NodeId, SimDuration,
    SimInstant,
};
use asterix_hyracks::cluster::{Cluster, ClusterEvent};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, JobHandle, TaskContext};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{FrameWriter, NullSink, OperatorRuntime};
use asterix_hyracks::scheduler::TaskHandle;
use asterix_hyracks::transport::TransportKind;
use asterix_storage::Dataset;
use crossbeam_channel::Sender;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

static CONNECTION_IDS: IdGen = IdGen::new();

/// Identifies one feed-to-dataset connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionId(pub u64);

impl From<u64> for ConnectionId {
    fn from(v: u64) -> Self {
        ConnectionId(v)
    }
}

impl std::fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CONN{}", self.0)
    }
}

/// Observable state of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionState {
    /// Ingesting.
    Active,
    /// Store node lost; awaiting its re-join (§6.2.3, store failure).
    Suspended,
    /// Disconnected or terminated.
    Ended,
}

struct CollectSegment {
    joint_id: String,
    factory: Arc<dyn crate::adaptor::AdaptorFactory>,
    config: crate::adaptor::AdaptorConfig,
    locations: Vec<NodeId>,
    job: JobHandle,
}

struct ComputeSegment {
    out_joint: String,
    in_joint: String,
    udf: Udf,
    feed_id: FeedId,
    compute_locations: Vec<NodeId>,
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    depth: usize,
    extra_spin: u64,
    extra_delay_us: u64,
    job: JobHandle,
    /// At-least-once custody for processed feeds (§5.6): the tracker sits
    /// at this segment's intake — which for the depth-1 stage is the
    /// adaptor-side node — and holds every record until the *store* stage
    /// acks it, so a compute- or store-node death never strands the only
    /// copy mid-pipeline. Deeper stages and non-ALO segments carry `None`.
    ack: Option<Arc<AckPlumbing>>,
    /// Ack senders handed to every store job consuming this chain.
    store_ack: Option<Arc<StoreAck>>,
}

/// The fan-out joint of a multi-sink ingestion plan: one Hyracks job
/// (`FeedIntake(tail joint) → Route`) evaluating every sink's routing
/// predicate once per record and depositing matches into per-sink joints,
/// each consumed by an independent store connection.
struct RouteSegment {
    plan: Arc<IngestPlan>,
    /// The plan's tail feed joint the router subscribes to.
    in_joint: String,
    /// Per-sink out joints (`plan:<plan>:<dataset>`), sink-index aligned.
    out_joints: Vec<String>,
    feed_id: FeedId,
    /// The router rides on the in-joint's nodes (no repartitioning).
    locations: Vec<NodeId>,
    /// Trunk policy governing the router's intake (always lossless Spill:
    /// per-sink loss semantics belong to the sink connections downstream).
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    /// Per-sink `plan.sink.records_routed` counters, sink-index aligned.
    routed: Vec<asterix_common::Counter>,
    /// `plan.route.no_match_total` for this plan.
    no_match: asterix_common::Counter,
    job: JobHandle,
}

struct Connection {
    id: ConnectionId,
    key: String,
    feed: String,
    feed_id: FeedId,
    dataset: Arc<Dataset>,
    source_joint: String,
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    job: Option<JobHandle>,
    state: ConnectionState,
    /// When the store node was lost (recovery-latency measurement).
    suspended_at: Option<SimInstant>,
}

#[derive(Default)]
struct State {
    /// joint id → nodes hosting an instance of it
    joints: HashMap<String, Vec<NodeId>>,
    collects: HashMap<String, CollectSegment>,
    computes: HashMap<String, ComputeSegment>,
    /// plan name → fan-out joint of that multi-sink plan
    routes: HashMap<String, RouteSegment>,
    connections: HashMap<ConnectionId, Connection>,
}

/// Tuning knobs for the controller.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Hand-off queue depth per intake (frames) — the congestion sensor.
    pub flow_capacity: usize,
    /// Ack grouping window for at-least-once.
    pub ack_window: SimDuration,
    /// Replay timeout for at-least-once.
    pub ack_timeout: SimDuration,
    /// Default compute parallelism (`None` = one instance per alive node).
    pub compute_parallelism: Option<usize>,
    /// Offset into the alive-node list where compute instances are placed
    /// (round-robin). Lets experiments separate intake, compute and store
    /// roles onto distinct nodes, like the paper's Fig 6.4 layout.
    pub compute_node_offset: usize,
    /// Busy-spin iterations added per record at every compute stage
    /// (experiment knob; normally 0).
    pub compute_extra_spin: u64,
    /// Sleep (µs) added per record at every compute stage — fixed per-node
    /// capacity modelling for scalability experiments (normally 0).
    pub compute_extra_delay_us: u64,
    /// Chaos schedule handed to store-stage intakes (operator-panic
    /// injection). `None` in production; the chaos harness sets it.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Wire the controller's pipeline segments ride on: in-process ports
    /// (default) or length-prefixed TCP over loopback.
    pub transport: TransportKind,
    /// Closed-loop scaling governor tuning; disabled by default, in which
    /// case elastic requests fall back to the open-loop scale-by-one path.
    pub governor: GovernorConfig,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            flow_capacity: 16,
            ack_window: SimDuration::from_millis(500),
            ack_timeout: SimDuration::from_secs(10),
            compute_parallelism: None,
            compute_node_offset: 0,
            compute_extra_spin: 0,
            compute_extra_delay_us: 0,
            fault_plan: None,
            transport: TransportKind::InProcess,
            governor: GovernorConfig::default(),
        }
    }
}

/// Per-connection control-loop bookkeeping carried between governor ticks.
#[derive(Default)]
struct ConnGovernor {
    control: GovernorState,
    /// Previous tick's cumulative lag snapshot — subtracted from the current
    /// one so the governor reacts to the *recent* window, not lifetime lag.
    prev_lag: Option<HistogramSnapshot>,
    /// Previous tick's cumulative pressure-counter sum.
    prev_pressure: u64,
    /// Open-loop elastic requests received since the last tick; folded into
    /// the sample as pressure so the hot-path signal is never lost, but
    /// acted on under the governor's hysteresis/cooldown instead of
    /// immediately.
    pending_requests: u64,
}

#[derive(Default)]
struct GovernorRuntime {
    conns: HashMap<String, ConnGovernor>,
}

/// One aborted pipeline job whose partition state must settle before the
/// successor owns the stream. The job is awaited *after* the controller
/// lock is released; then, if the placement changed, frames stranded on
/// abandoned partitions (parked zombie state plus anything still queued in
/// the old joint subscriptions) are harvested and re-parked on the
/// successor partitions' nodes.
struct Migration {
    job: JobHandle,
    /// `(joint id, sub-key prefix, old placement, new placement)`; `None`
    /// when the placement is unchanged — the successor resumes the same
    /// queues and late zombie adoption alone closes the park-after-start
    /// window.
    repartition: Option<(String, String, Vec<NodeId>, Vec<NodeId>)>,
}

/// The producer side of a connection, planned under the state lock by
/// [`FeedController::build_producer_chain`]: joints pre-registered, compute
/// segment records inserted, jobs not yet spawned (consumer subscriptions
/// must be live first — [`FeedController::finish_producer_chain`] starts
/// them deepest-first, the collect job last).
struct ChainPlan {
    /// Stage-0 joint (the primary feed's name).
    root_raw_joint: String,
    /// The chain's tail joint — what the consumer (store or route job)
    /// subscribes to.
    source_joint: String,
    /// Adaptor factory + config when a new collect segment is needed
    /// (`None` reuses a live ancestor's head section).
    collect_factory: Option<(
        Arc<dyn crate::adaptor::AdaptorFactory>,
        crate::adaptor::AdaptorConfig,
    )>,
    /// Out joints of the newly planned compute segments, deepest first.
    new_outs: Vec<String>,
}

/// The Central Feed Manager.
pub struct FeedController {
    cluster: Cluster,
    catalog: Arc<FeedCatalog>,
    config: ControllerConfig,
    state: Mutex<State>,
    /// Hot-path congestion reports land here. Held as an `Option` so
    /// shutdown can drop the last sender, which disconnects the channel and
    /// lets the elastic monitor exit deterministically.
    elastic_tx: Mutex<Option<Sender<ElasticRequest>>>,
    /// The monitor threads, joined on shutdown so no `cfm-*` thread
    /// outlives the controller.
    monitors: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The periodic governor task on the cluster scheduler (when enabled).
    governor_task: Mutex<Option<TaskHandle>>,
    governor: Mutex<GovernorRuntime>,
    log: SoftFailureLog,
    log_dataset: Mutex<Option<Arc<Dataset>>>,
    shutdown: AtomicBool,
}

impl FeedController {
    /// Start the controller: subscribes to cluster events and begins
    /// monitoring for failures and elastic requests.
    pub fn start(
        cluster: Cluster,
        catalog: Arc<FeedCatalog>,
        config: ControllerConfig,
    ) -> Arc<FeedController> {
        let (elastic_tx, elastic_rx) = crossbeam_channel::unbounded::<ElasticRequest>();
        let ctrl = Arc::new(FeedController {
            cluster: cluster.clone(),
            catalog,
            config,
            state: Mutex::new(State::default()),
            elastic_tx: Mutex::new(Some(elastic_tx)),
            monitors: Mutex::new(Vec::new()),
            governor_task: Mutex::new(None),
            governor: Mutex::new(GovernorRuntime::default()),
            log: new_soft_failure_log(),
            log_dataset: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        });
        // failure monitor
        let events = cluster.subscribe();
        let c1 = Arc::clone(&ctrl);
        let failure_monitor = sync_thread::spawn_named("cfm-failure-monitor", move || {
            while !c1.shutdown.load(Ordering::SeqCst) {
                match events.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok(ClusterEvent::NodeFailed(n)) => c1.handle_node_failure(n),
                    Ok(ClusterEvent::NodeJoined(n)) => c1.handle_node_join(n),
                    Err(handoff::RecvTimeoutError::Timeout) => {
                        c1.sweep_dead_segments();
                    }
                    Err(_) => break,
                }
            }
        })
        .expect("spawn cfm monitor");
        // elastic monitor
        let c2 = Arc::clone(&ctrl);
        let elastic_monitor = sync_thread::spawn_named("cfm-elastic-monitor", move || {
            while !c2.shutdown.load(Ordering::SeqCst) {
                match elastic_rx.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok(req) => c2.handle_elastic_request(&req),
                    Err(crossbeam_channel::RecvTimeoutError::Timeout) => {}
                    Err(_) => break,
                }
            }
        })
        .expect("spawn elastic monitor");
        ctrl.monitors
            .lock()
            .extend([failure_monitor, elastic_monitor]);
        // closed-loop scaling governor: periodic housekeeping on the shared
        // scheduler, like the console reporter — a Weak reference so the
        // task never keeps a dropped controller alive
        if ctrl.config.governor.enabled {
            let weak: Weak<FeedController> = Arc::downgrade(&ctrl);
            let interval = cluster.clock().to_real(ctrl.config.governor.interval);
            let task = cluster
                .scheduler()
                .spawn_periodic("cfm-governor", interval, move || match weak.upgrade() {
                    Some(c) if !c.shutdown.load(Ordering::SeqCst) => {
                        c.governor_tick();
                        true
                    }
                    _ => false,
                });
            *ctrl.governor_task.lock() = Some(task);
        }
        ctrl
    }

    /// Start with default config.
    pub fn start_default(cluster: Cluster, catalog: Arc<FeedCatalog>) -> Arc<FeedController> {
        FeedController::start(cluster, catalog, ControllerConfig::default())
    }

    /// The global soft-failure error log.
    pub fn error_log(&self) -> SoftFailureLog {
        Arc::clone(&self.log)
    }

    /// Set the dedicated dataset for persisted soft-failure logging
    /// (`soft.failure.log.data`).
    pub fn set_failure_log_dataset(&self, ds: Arc<Dataset>) {
        *self.log_dataset.lock() = Some(ds);
    }

    /// The catalog.
    pub fn catalog(&self) -> &Arc<FeedCatalog> {
        &self.catalog
    }

    /// The cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The cluster-wide metrics registry — *the* public handle for reading
    /// metrics. One [`asterix_common::MetricsRegistry::snapshot`] here
    /// observes every connection's `feed.*` counters, the executor's
    /// `operator.*` rates and latency histograms, and the target datasets'
    /// `storage.*` gauges.
    pub fn registry(&self) -> asterix_common::MetricsRegistry {
        self.cluster.registry()
    }

    /// A sender for hot-path elastic requests, `None` once shutdown closed
    /// the channel.
    fn elastic_sender(&self) -> Option<Sender<ElasticRequest>> {
        self.elastic_tx.lock().clone()
    }

    /// Report congestion for `connection_key` through the same channel the
    /// flow controllers use (manual scale trigger / tests). Returns false
    /// once shutdown has closed the channel.
    pub fn request_elastic(&self, connection_key: &str) -> bool {
        match self.elastic_sender() {
            Some(tx) => tx
                .send(ElasticRequest {
                    connection_key: connection_key.to_string(),
                })
                .is_ok(),
            None => false,
        }
    }

    // -----------------------------------------------------------------------
    // connect / disconnect
    // -----------------------------------------------------------------------

    /// `connect feed <feed> to dataset <dataset> using policy <policy>`.
    pub fn connect_feed(
        &self,
        feed: &str,
        dataset: &str,
        policy_name: &str,
    ) -> IngestResult<ConnectionId> {
        let policy = self.catalog.policy(policy_name)?;
        self.connect_feed_with(feed, dataset, policy)
    }

    /// Connect with an already-resolved policy (the single-sink pipeline
    /// both `connect feed` and a degenerate ingestion plan compile to).
    fn connect_feed_with(
        &self,
        feed: &str,
        dataset: &str,
        policy: IngestionPolicy,
    ) -> IngestResult<ConnectionId> {
        let dataset_arc = self.catalog.dataset(dataset)?;
        let key = format!("{feed}->{dataset}");

        let mut st = self.state.lock();
        if st
            .connections
            .values()
            .any(|c| c.key == key && c.state != ConnectionState::Ended)
        {
            return Err(IngestError::Metadata(format!(
                "feed {feed} is already connected to dataset {dataset}"
            )));
        }

        let chain = self.build_producer_chain(&mut st, feed, &policy)?;

        // --- connection record -----------------------------------------------
        let id: ConnectionId = CONNECTION_IDS.next();
        let connect_span = self
            .cluster
            .trace()
            .cluster_log()
            .span("feed.connect", key.clone());
        dataset_arc.register_observability(&self.cluster.registry(), &self.cluster.trace());
        let metrics = FeedMetrics::registered_default(
            &self.cluster.registry(),
            &key,
            self.cluster.clock().clone(),
        );
        let conn = Connection {
            id,
            key: key.clone(),
            feed: feed.to_string(),
            feed_id: self.catalog.feed_id(feed).unwrap_or(FeedId(0)),
            dataset: Arc::clone(&dataset_arc),
            source_joint: chain.source_joint.clone(),
            policy,
            metrics: Arc::clone(&metrics),
            job: None,
            state: ConnectionState::Active,
            suspended_at: None,
        };

        // --- store job (started first so its subscription is live) ----------
        let job = self.spawn_store_job(&st, &conn)?;
        let mut conn = conn;
        conn.job = Some(job);
        st.connections.insert(id, conn);

        // --- producer jobs, deepest first, collect last ----------------------
        self.finish_producer_chain(&mut st, chain)?;

        connect_span.finish("active");
        Ok(id)
    }

    /// `connect plan <plan>` — compile an [`IngestPlan`] into a running
    /// cascade. A *degenerate* plan (one sink, no predicate) runs through
    /// the exact single-connection pipeline `connect feed` always built —
    /// zero behavior change for the legacy surface. A multi-sink plan gets
    /// a fan-out [`RouteSegment`] between the producer chain and N
    /// independent store connections, each with its own dataset, policy,
    /// flow control and (at-least-once) custody.
    ///
    /// Returns one [`ConnectionId`] per sink, sink-index aligned.
    pub fn connect_plan(&self, plan: &IngestPlan) -> IngestResult<Vec<ConnectionId>> {
        plan.validate()?;
        let tail = plan.tail_feed_name();
        if plan.is_degenerate() {
            let sink = &plan.sinks[0];
            let policy = self.resolve_sink_policy(sink)?;
            let id = self.connect_feed_with(&tail, &sink.dataset, policy)?;
            return Ok(vec![id]);
        }

        // resolve every sink's dataset and policy before touching state
        let mut sink_res: Vec<(Arc<Dataset>, IngestionPolicy)> = Vec::new();
        for sink in &plan.sinks {
            let ds = self.catalog.dataset(&sink.dataset)?;
            let policy = self.resolve_sink_policy(sink)?;
            sink_res.push((ds, policy));
        }
        // The trunk (producer chain + router intake) is always lossless
        // Spill: per-sink loss semantics (Discard's gaps, Basic's budget)
        // belong downstream of the routing decision, otherwise one sink's
        // policy would drop records destined for another.
        let trunk_policy = IngestionPolicy::spill();
        let feed_id = self.catalog.feed_id(&tail).unwrap_or(FeedId(0));

        let mut st = self.state.lock();
        if st.routes.contains_key(&plan.name) {
            return Err(IngestError::Metadata(format!(
                "plan {} is already connected",
                plan.name
            )));
        }
        for sink in &plan.sinks {
            let key = format!("{tail}->{}", sink.dataset);
            if st
                .connections
                .values()
                .any(|c| c.key == key && c.state != ConnectionState::Ended)
            {
                return Err(IngestError::Metadata(format!(
                    "feed {tail} is already connected to dataset {}",
                    sink.dataset
                )));
            }
        }

        let connect_span = self
            .cluster
            .trace()
            .cluster_log()
            .span("feed.connect_plan", plan.name.clone());
        let chain = self.build_producer_chain(&mut st, &tail, &trunk_policy)?;

        // the router rides on the tail joint's nodes; its out joints are
        // co-located so routed frames never cross a node boundary twice
        let route_locs =
            st.joints.get(&chain.source_joint).cloned().ok_or_else(|| {
                IngestError::Plan(format!("no live joint '{}'", chain.source_joint))
            })?;
        let out_joints: Vec<String> = (0..plan.sinks.len())
            .map(|i| plan.sink_joint_id(i))
            .collect();
        for oj in &out_joints {
            self.preregister_joint(oj, &route_locs);
            st.joints.insert(oj.clone(), route_locs.clone());
        }

        let registry = self.cluster.registry();
        let trunk_metrics = FeedMetrics::registered_default(
            &registry,
            &format!("route:{}", plan.name),
            self.cluster.clock().clone(),
        );
        let routed: Vec<asterix_common::Counter> = (0..plan.sinks.len())
            .map(|i| {
                let label = plan.sink_label(i);
                registry.counter("plan.sink.records_routed", &[("conn", label.as_str())])
            })
            .collect();
        let no_match =
            registry.counter("plan.route.no_match_total", &[("plan", plan.name.as_str())]);
        st.routes.insert(
            plan.name.clone(),
            RouteSegment {
                plan: Arc::new(plan.clone()),
                in_joint: chain.source_joint.clone(),
                out_joints: out_joints.clone(),
                feed_id,
                locations: route_locs,
                policy: trunk_policy,
                metrics: trunk_metrics,
                routed,
                no_match,
                job: JobHandle::detached(),
            },
        );

        // --- sink store jobs first (their subscriptions must be live) -------
        let mut ids = Vec::new();
        for (i, sink) in plan.sinks.iter().enumerate() {
            let (ds, policy) = &sink_res[i];
            let key = format!("{tail}->{}", sink.dataset);
            let id: ConnectionId = CONNECTION_IDS.next();
            ds.register_observability(&registry, &self.cluster.trace());
            let metrics =
                FeedMetrics::registered_default(&registry, &key, self.cluster.clock().clone());
            let conn = Connection {
                id,
                key,
                feed: tail.clone(),
                feed_id,
                dataset: Arc::clone(ds),
                source_joint: out_joints[i].clone(),
                policy: policy.clone(),
                metrics,
                job: None,
                state: ConnectionState::Active,
                suspended_at: None,
            };
            // per-sink at-least-once custody: `chain_store_ack` finds no
            // compute segment behind a `plan:` joint, so an ALO sink gets
            // its tracker at its own store intake — the custody boundary is
            // the routing decision, which is this sink's earliest stage
            let job = self.spawn_store_job(&st, &conn)?;
            let mut conn = conn;
            conn.job = Some(job);
            st.connections.insert(id, conn);
            ids.push(id);
        }

        // --- route job (before the producers start depositing) ---------------
        let seg_ref = st.routes.get(&plan.name).unwrap();
        let job = self.spawn_route_job(&st, seg_ref)?;
        st.routes.get_mut(&plan.name).unwrap().job = job;

        // --- producer jobs, deepest first, collect last ----------------------
        self.finish_producer_chain(&mut st, chain)?;

        connect_span.finish("active");
        Ok(ids)
    }

    /// Resolve a sink's policy name + inline parameter overrides into an
    /// [`IngestionPolicy`] (an override set derives a connection-private
    /// policy named `<policy>@<dataset>`).
    fn resolve_sink_policy(&self, sink: &SinkSpec) -> IngestResult<IngestionPolicy> {
        let base = self.catalog.policy(&sink.policy)?;
        if sink.policy_params.is_empty() {
            Ok(base)
        } else {
            base.extend(
                format!("{}@{}", sink.policy, sink.dataset),
                &sink.policy_params,
            )
        }
    }

    /// `disconnect feed <feed> from dataset <dataset>` — graceful: already
    /// received records drain to the target dataset; shared segments keep
    /// serving other connections; orphaned producer segments are reclaimed.
    pub fn disconnect_feed(&self, feed: &str, dataset: &str) -> IngestResult<()> {
        let key = format!("{feed}->{dataset}");
        let job = {
            let mut st = self.state.lock();
            let conn = st
                .connections
                .values_mut()
                .find(|c| c.key == key && c.state != ConnectionState::Ended)
                .ok_or_else(|| {
                    IngestError::Metadata(format!(
                        "feed {feed} is not connected to dataset {dataset}"
                    ))
                })?;
            conn.state = ConnectionState::Ended;
            conn.job.take()
        };
        if let Some(job) = job {
            job.stop_sources();
            let _ = job.wait();
        }
        self.gc_segments();
        Ok(())
    }

    /// Stop everything. Teardown is deterministic: the governor task is
    /// joined first (so it cannot respawn jobs mid-teardown), then the
    /// pipeline jobs are dismantled, and finally the elastic channel is
    /// closed and both monitor threads are joined — no `cfm-*` thread
    /// survives this call.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(task) = self.governor_task.lock().take() {
            // fire a tick early: it observes the shutdown flag and completes
            task.waker().wake();
            let _ = task.join();
        }
        let (jobs, all_joints) = {
            let mut st = self.state.lock();
            let mut jobs = Vec::new();
            for c in st.connections.values_mut() {
                c.state = ConnectionState::Ended;
                if let Some(j) = c.job.take() {
                    jobs.push(j);
                }
            }
            for (_, seg) in st.routes.drain() {
                jobs.push(seg.job);
            }
            for (_, seg) in st.computes.drain() {
                jobs.push(seg.job);
            }
            for (_, seg) in st.collects.drain() {
                jobs.push(seg.job);
            }
            let joints: Vec<(String, Vec<NodeId>)> = st.joints.drain().collect();
            (jobs, joints)
        };
        for (joint, locs) in &all_joints {
            for n in locs {
                if let Some(node) = self.cluster.node(*n) {
                    FeedManager::on(&node).retire_joint(joint);
                }
            }
        }
        for j in &jobs {
            j.abort();
        }
        for j in jobs {
            let _ = j.wait();
        }
        // dropping the last sender disconnects the channel, so the elastic
        // monitor exits on its next recv instead of leaking past shutdown
        *self.elastic_tx.lock() = None;
        let monitors: Vec<std::thread::JoinHandle<()>> = std::mem::take(&mut *self.monitors.lock());
        for m in monitors {
            let _ = m.join();
        }
    }

    // -----------------------------------------------------------------------
    // introspection
    // -----------------------------------------------------------------------

    /// Metrics of a connection.
    pub fn connection_metrics(&self, id: ConnectionId) -> IngestResult<Arc<FeedMetrics>> {
        self.state
            .lock()
            .connections
            .get(&id)
            .map(|c| Arc::clone(&c.metrics))
            .ok_or_else(|| IngestError::Metadata(format!("unknown connection {id}")))
    }

    /// Metrics of the compute segment publishing `joint_id`.
    pub fn compute_metrics(&self, joint_id: &str) -> Option<Arc<FeedMetrics>> {
        self.state
            .lock()
            .computes
            .get(joint_id)
            .map(|s| Arc::clone(&s.metrics))
    }

    /// Current state of a connection.
    pub fn connection_state(&self, id: ConnectionId) -> ConnectionState {
        let st = self.state.lock();
        match st.connections.get(&id) {
            Some(c) => {
                if c.state == ConnectionState::Active
                    && c.job.as_ref().map(|j| !j.is_running()).unwrap_or(true)
                {
                    // the job ended on its own (e.g. FeedTerminated)
                    ConnectionState::Ended
                } else {
                    c.state
                }
            }
            None => ConnectionState::Ended,
        }
    }

    /// Nodes currently hosting instances of `joint_id`.
    pub fn joint_locations(&self, joint_id: &str) -> Vec<NodeId> {
        self.state
            .lock()
            .joints
            .get(joint_id)
            .cloned()
            .unwrap_or_default()
    }

    /// Compute parallelism of the segment publishing `joint_id`.
    pub fn compute_parallelism_of(&self, joint_id: &str) -> Option<usize> {
        self.state
            .lock()
            .computes
            .get(joint_id)
            .map(|s| s.compute_locations.len())
    }

    /// Live connections as `(id, feed, dataset)` triples.
    pub fn connections_detailed(&self) -> Vec<(ConnectionId, String, String)> {
        let st = self.state.lock();
        let mut out: Vec<(ConnectionId, String, String)> = st
            .connections
            .values()
            .filter(|c| c.state != ConnectionState::Ended)
            .map(|c| (c.id, c.feed.clone(), c.dataset.config.name.clone()))
            .collect();
        out.sort();
        out
    }

    /// Live connection ids.
    pub fn connections(&self) -> Vec<ConnectionId> {
        let st = self.state.lock();
        let mut ids: Vec<ConnectionId> = st
            .connections
            .values()
            .filter(|c| c.state != ConnectionState::Ended)
            .map(|c| c.id)
            .collect();
        ids.sort();
        ids
    }

    /// The Appendix A "Feed Management Console" view: per connection, the
    /// physical nodes participating at the intake, compute and store stages
    /// and the instantaneous rates at which data is received and persisted.
    pub fn console_report(&self) -> String {
        use std::fmt::Write as _;
        let st = self.state.lock();
        let mut out = String::from(
            "Feed Management Console
",
        );
        let mut conns: Vec<&Connection> = st
            .connections
            .values()
            .filter(|c| c.state != ConnectionState::Ended)
            .collect();
        conns.sort_by_key(|c| c.id);
        for c in conns {
            let intake = st.joints.get(&c.source_joint).cloned().unwrap_or_default();
            let compute = st
                .computes
                .get(&c.source_joint)
                .map(|s| s.compute_locations.clone())
                .unwrap_or_default();
            let series = c.metrics.throughput();
            let last_rate = series.points.last().map(|p| p.rate).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  {} {} -> {} [{:?}]
    intake: {:?}  compute: {:?}  store: {:?}
                     received: {} records  persisted: {}  instantaneous: {:.0} rec/s
                     hard recoveries: {}  zombie frames adopted: {}  last recovery: {} ms",
                c.id,
                c.feed,
                c.dataset.config.name,
                c.state,
                intake,
                compute,
                c.dataset.config.nodegroup,
                c.metrics.records_in.get(),
                c.metrics.records_persisted.get(),
                last_rate,
                c.metrics.hard_failures_recovered.get(),
                c.metrics.zombie_frames_adopted.get(),
                c.metrics.last_recovery_millis.get(),
            );
        }
        out
    }

    // -----------------------------------------------------------------------
    // job construction
    // -----------------------------------------------------------------------

    fn preregister_joint(&self, joint_id: &str, locations: &[NodeId]) {
        for n in locations {
            if let Some(node) = self.cluster.node(*n) {
                FeedManager::on(&node).register_joint(joint_id);
            }
        }
    }

    /// Spawn the jobs of a producer chain planned by
    /// [`FeedController::build_producer_chain`], in the order that loses no
    /// startup frame: the consumer side (store/route jobs) must already be
    /// subscribed, so the caller spawns those first, then calls this —
    /// compute jobs deepest-first, the collect job (external source) last.
    fn finish_producer_chain(&self, st: &mut State, chain: ChainPlan) -> IngestResult<()> {
        for out in chain.new_outs {
            let seg_ref = st.computes.get(&out).unwrap();
            let job = self.spawn_compute_job(st, seg_ref)?;
            st.computes.get_mut(&out).unwrap().job = job;
        }
        if let Some((factory, config)) = chain.collect_factory {
            let locations = st.joints.get(&chain.root_raw_joint).unwrap().clone();
            let seg = CollectSegment {
                joint_id: chain.root_raw_joint.clone(),
                factory,
                config,
                locations,
                job: JobHandle::detached(),
            };
            let job = self.spawn_collect_job(&seg)?;
            let mut seg = seg;
            seg.job = job;
            st.collects.insert(chain.root_raw_joint, seg);
        }
        Ok(())
    }

    /// Plan and register the producer side of a connection up to `feed`'s
    /// tail joint: resolve the feed's lineage into a stage chain, reuse the
    /// nearest live ancestor joint (§5.3.2), pre-register every new joint
    /// and insert the new compute segments (jobs still detached — the
    /// caller starts them via [`FeedController::finish_producer_chain`]
    /// after its own consumer jobs are subscribed).
    fn build_producer_chain(
        &self,
        st: &mut State,
        feed: &str,
        policy: &IngestionPolicy,
    ) -> IngestResult<ChainPlan> {
        let lineage = self.catalog.lineage(feed)?;

        // Build the stage chain: stage 0 is the raw collect joint (the
        // primary feed's name); each further stage is a UDF application
        // with its own joint id ("<root>:f1:...:fk", §5.3.1).
        let root_raw_joint = lineage[0].name.clone();
        // (joint id, udf, owning feed name)
        let mut stages: Vec<(String, Option<Udf>, String)> =
            vec![(root_raw_joint.clone(), None, lineage[0].name.clone())];
        for f in &lineage {
            if let Some(udf_name) = &f.udf {
                let udf = self.catalog.function(udf_name)?;
                stages.push((
                    self.catalog.joint_id_for(&f.name)?,
                    Some(udf),
                    f.name.clone(),
                ));
            }
        }
        let source_joint = stages.last().unwrap().0.clone();

        // Find the deepest stage whose joint is already live — the nearest
        // connected ancestor (§5.3.2). None ⇒ the head section must be
        // constructed too.
        let mut have = None;
        for (i, (jid, _, _)) in stages.iter().enumerate().rev() {
            if st.joints.contains_key(jid) {
                have = Some(i);
                break;
            }
        }
        let need_collect = have.is_none();
        let first_new_stage = have.map(|i| i + 1).unwrap_or(1);

        // resources
        let alive: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
        if alive.is_empty() {
            return Err(IngestError::Plan("no alive nodes".into()));
        }
        let compute_n = self
            .config
            .compute_parallelism
            .unwrap_or(alive.len())
            .clamp(1, alive.len().max(1));

        // --- pre-register every joint so no startup frame is lost ----------
        let mut planned_joints: Vec<(String, Vec<NodeId>)> = Vec::new();
        let mut collect_factory = None;
        if need_collect {
            let root_def = &lineage[0];
            let (factory, config) = match &root_def.kind {
                FeedKind::Primary { adaptor, config } => {
                    (self.catalog.adaptors().get(adaptor)?, config.clone())
                }
                FeedKind::Secondary { .. } => {
                    return Err(IngestError::Plan(
                        "lineage root must be a primary feed".into(),
                    ))
                }
            };
            let constraint = factory.constraints(&config)?;
            let locations: Vec<NodeId> = match constraint {
                Constraint::Count(n) => (0..n).map(|i| alive[i % alive.len()]).collect(),
                Constraint::Locations(locs) => locs,
            };
            planned_joints.push((root_raw_joint.clone(), locations));
            collect_factory = Some((factory, config));
        }
        // (depth, in_joint, out_joint, udf, owning feed id, locations)
        let mut compute_segments: Vec<(usize, String, String, Udf, FeedId, Vec<NodeId>)> =
            Vec::new();
        for i in first_new_stage..stages.len() {
            let udf = stages[i].1.clone().expect("stages past 0 carry a UDF");
            let in_joint = stages[i - 1].0.clone();
            let out_joint = stages[i].0.clone();
            let stage_feed = self.catalog.feed_id(&stages[i].2).unwrap_or(FeedId(0));
            let offset = self.config.compute_node_offset;
            let locs = dedup_nodes(
                (0..compute_n)
                    .map(|k| alive[(offset + k) % alive.len()])
                    .collect(),
            );
            planned_joints.push((out_joint.clone(), locs.clone()));
            compute_segments.push((i, in_joint, out_joint, udf, stage_feed, locs));
        }
        for (joint, locs) in &planned_joints {
            self.preregister_joint(joint, locs);
            st.joints.insert(joint.clone(), locs.clone());
        }

        // --- compute segments registered now (jobs still detached) ----------
        // The store job must find the chain's at-least-once plumbing, so the
        // segment records go into the state before anything is spawned; the
        // compute *jobs* still start after the consumer jobs, whose
        // subscriptions must be live first.
        compute_segments.sort_by_key(|s| std::cmp::Reverse(s.0));
        let new_outs: Vec<String> = compute_segments.iter().map(|s| s.2.clone()).collect();
        for (depth, in_joint, out_joint, udf, stage_feed, locs) in compute_segments {
            let seg_metrics = FeedMetrics::registered_default(
                &self.cluster.registry(),
                &out_joint,
                self.cluster.clock().clone(),
            );
            // At-least-once custody belongs at the earliest intake under the
            // adaptor (§5.6): only the depth-1 stage — whose intake rides on
            // the collect joint's (adaptor) nodes — gets the tracker
            // plumbing. The channel count is pinned to the in-joint's
            // instance count, which scale_intake keeps constant.
            let (ack, store_ack) = if policy.at_least_once && in_joint == root_raw_joint {
                let partitions = st.joints.get(&in_joint).map_or(0, Vec::len);
                let (plumbing, sender) = self.new_ack_channels(partitions);
                (Some(plumbing), Some(sender))
            } else {
                (None, None)
            };
            let seg = ComputeSegment {
                out_joint: out_joint.clone(),
                in_joint,
                udf,
                feed_id: stage_feed,
                compute_locations: locs,
                policy: policy.clone(),
                metrics: seg_metrics,
                depth,
                extra_spin: self.config.compute_extra_spin,
                extra_delay_us: self.config.compute_extra_delay_us,
                job: JobHandle::detached(),
                ack,
                store_ack,
            };
            st.computes.insert(out_joint, seg);
        }

        Ok(ChainPlan {
            root_raw_joint,
            source_joint,
            collect_factory,
            new_outs,
        })
    }

    fn spawn_collect_job(&self, seg: &CollectSegment) -> IngestResult<JobHandle> {
        let mut job = JobSpec::new(format!("collect:{}", seg.joint_id));
        job.transport = self.config.transport;
        let collect = job.add_operator(Box::new(CollectDesc {
            joint_id: seg.joint_id.clone(),
            factory: Arc::clone(&seg.factory),
            config: seg.config.clone(),
            locations: seg.locations.clone(),
            // skipped-unparseable-input counter for all adaptor instances of
            // this feed, visible in registry snapshots and the exporters
            malformed_lines: self
                .cluster
                .registry()
                .counter("parse.malformed_lines", &[("feed", &seg.joint_id)]),
        }));
        let sink = job.add_operator(Box::new(NullSinkDesc {
            locations: seg.locations.clone(),
        }));
        job.connect(collect, sink, ConnectorSpec::OneToOne);
        run_job(&self.cluster, job)
    }

    fn spawn_compute_job(&self, st: &State, seg: &ComputeSegment) -> IngestResult<JobHandle> {
        let in_locations = st
            .joints
            .get(&seg.in_joint)
            .cloned()
            .ok_or_else(|| IngestError::Plan(format!("no live joint '{}'", seg.in_joint)))?;
        let mut job = JobSpec::new(format!("compute:{}", seg.out_joint));
        job.transport = self.config.transport;
        let intake = job.add_operator(Box::new(IntakeDesc {
            joint_id: seg.in_joint.clone(),
            sub_key: format!("compute:{}", seg.out_joint),
            locations: in_locations,
            policy: seg.policy.clone(),
            metrics: Arc::clone(&seg.metrics),
            elastic_tx: self.elastic_sender(),
            flow_capacity: self.config.flow_capacity,
            ack: seg.ack.clone(),
            connection_key: format!("compute:{}", seg.out_joint),
            feed: seg.feed_id,
            fault_plan: None,
        }));
        let assign = job.add_operator(Box::new(AssignDesc {
            udf: seg.udf.clone(),
            out_joint_id: seg.out_joint.clone(),
            locations: seg.compute_locations.clone(),
            policy: seg.policy.clone(),
            metrics: Arc::clone(&seg.metrics),
            log: Arc::clone(&self.log),
            log_dataset: self.log_dataset.lock().clone(),
            extra_spin: seg.extra_spin,
            extra_delay_us: seg.extra_delay_us,
        }));
        job.connect(intake, assign, ConnectorSpec::MNRandomPartition);
        run_job(&self.cluster, job)
    }

    fn spawn_route_job(&self, st: &State, seg: &RouteSegment) -> IngestResult<JobHandle> {
        let in_locations = st
            .joints
            .get(&seg.in_joint)
            .cloned()
            .ok_or_else(|| IngestError::Plan(format!("no live joint '{}'", seg.in_joint)))?;
        let mut job = JobSpec::new(format!("route:{}", seg.plan.name));
        job.transport = self.config.transport;
        let intake = job.add_operator(Box::new(IntakeDesc {
            joint_id: seg.in_joint.clone(),
            sub_key: format!("route:{}", seg.plan.name),
            locations: in_locations,
            policy: seg.policy.clone(),
            metrics: Arc::clone(&seg.metrics),
            elastic_tx: self.elastic_sender(),
            flow_capacity: self.config.flow_capacity,
            ack: None,
            connection_key: format!("route:{}", seg.plan.name),
            feed: seg.feed_id,
            fault_plan: None,
        }));
        let route = job.add_operator(Box::new(RouteDesc {
            plan: Arc::clone(&seg.plan),
            out_joints: seg.out_joints.clone(),
            locations: seg.locations.clone(),
            metrics: Arc::clone(&seg.metrics),
            routed: seg.routed.clone(),
            no_match: seg.no_match.clone(),
        }));
        // the router is co-located with its intake: routing is a local
        // decision, repartitioning happens at each sink's store job
        job.connect(intake, route, ConnectorSpec::OneToOne);
        run_job(&self.cluster, job)
    }

    /// Paired at-least-once channels for `partitions` tracker partitions.
    fn new_ack_channels(&self, partitions: usize) -> (Arc<AckPlumbing>, Arc<StoreAck>) {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..partitions {
            let (tx, rx) = crossbeam_channel::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        (
            Arc::new(AckPlumbing {
                rxs,
                timeout: self.config.ack_timeout,
            }),
            Arc::new(StoreAck {
                txs,
                window: self.config.ack_window,
            }),
        )
    }

    /// The ack sender of the chain feeding `source_joint`, held by its
    /// depth-1 (adaptor-side) compute segment. `None` for raw feeds and for
    /// chains whose root segment was built without at-least-once plumbing.
    fn chain_store_ack(&self, st: &State, source_joint: &str) -> Option<Arc<StoreAck>> {
        let mut seg = st.computes.get(source_joint)?;
        while let Some(parent) = st.computes.get(&seg.in_joint) {
            seg = parent;
        }
        seg.store_ack.clone()
    }

    fn spawn_store_job(&self, st: &State, conn: &Connection) -> IngestResult<JobHandle> {
        let in_locations =
            st.joints.get(&conn.source_joint).cloned().ok_or_else(|| {
                IngestError::Plan(format!("no live joint '{}'", conn.source_joint))
            })?;
        // At-least-once plumbing. A processed feed's tracker sits at the
        // chain's adaptor-side compute intake (§5.6) — this job's intake
        // follows the compute joint onto arbitrary worker nodes, and a
        // tracker there would be the only custodian of in-flight records
        // when such a node dies. Route the store's acks up the chain and
        // leave this intake untracked. A raw feed keeps the tracker here:
        // its store intake IS the adaptor-side stage.
        let chain_ack = if conn.policy.at_least_once {
            self.chain_store_ack(st, &conn.source_joint)
        } else {
            None
        };
        let (ack_plumbing, store_ack) = if let Some(sender) = chain_ack {
            (None, Some(sender))
        } else if conn.policy.at_least_once {
            let (plumbing, sender) = self.new_ack_channels(in_locations.len());
            (Some(plumbing), Some(sender))
        } else {
            (None, None)
        };
        let mut job = JobSpec::new(format!("store:{}", conn.key));
        job.transport = self.config.transport;
        let intake = job.add_operator(Box::new(IntakeDesc {
            joint_id: conn.source_joint.clone(),
            sub_key: format!("conn:{}", conn.key),
            locations: in_locations,
            policy: conn.policy.clone(),
            metrics: Arc::clone(&conn.metrics),
            elastic_tx: self.elastic_sender(),
            flow_capacity: self.config.flow_capacity,
            ack: ack_plumbing,
            connection_key: conn.key.clone(),
            feed: conn.feed_id,
            // only the store-stage intake panics on schedule: killing the
            // collect side would sever the external source for good
            fault_plan: self.config.fault_plan.clone(),
        }));
        let store = job.add_operator(Box::new(StoreDesc {
            dataset: Arc::clone(&conn.dataset),
            registry: Some(Arc::clone(self.catalog.types())),
            policy: conn.policy.clone(),
            metrics: Arc::clone(&conn.metrics),
            log: Arc::clone(&self.log),
            log_dataset: self.log_dataset.lock().clone(),
            ack: store_ack,
        }));
        job.connect(
            intake,
            store,
            ConnectorSpec::MNHashPartition(crate::ops::store_key_fn(
                conn.dataset.config.primary_key.clone(),
                conn.metrics.parse_calls.clone(),
            )),
        );
        run_job(&self.cluster, job)
    }

    // -----------------------------------------------------------------------
    // garbage collection of producer segments
    // -----------------------------------------------------------------------

    fn joint_subscriber_count(&self, joint_id: &str, locations: &[NodeId]) -> usize {
        locations
            .iter()
            .filter_map(|n| self.cluster.node(*n))
            .filter_map(|node| FeedManager::on(&node).search_joint(joint_id))
            .map(|j| j.subscriber_count())
            .sum()
    }

    /// Reclaim route, compute and collect segments whose joints have no
    /// subscribers left. Route segments go first (they are the most
    /// downstream producers): dismantling one unsubscribes its intake from
    /// the tail joint, which the loop then reclaims upstream.
    pub fn gc_segments(&self) {
        enum Victim {
            /// plan name — all out joints subscriber-free
            Route(String),
            Compute(String),
            Collect(String),
        }
        loop {
            let victim = {
                let st = self.state.lock();
                let mut found: Option<Victim> = None;
                for (name, seg) in &st.routes {
                    let subs: usize = seg
                        .out_joints
                        .iter()
                        .map(|oj| {
                            let locs = st.joints.get(oj).cloned().unwrap_or_default();
                            self.joint_subscriber_count(oj, &locs)
                        })
                        .sum();
                    if subs == 0 {
                        found = Some(Victim::Route(name.clone()));
                        break;
                    }
                }
                if found.is_none() {
                    for (out, seg) in &st.computes {
                        let locs = st.joints.get(out).cloned().unwrap_or_default();
                        if self.joint_subscriber_count(out, &locs) == 0 {
                            found = Some(Victim::Compute(seg.out_joint.clone()));
                            break;
                        }
                    }
                }
                if found.is_none() {
                    for (root, seg) in &st.collects {
                        let locs = st.joints.get(root).cloned().unwrap_or_default();
                        if self.joint_subscriber_count(root, &locs) == 0 {
                            found = Some(Victim::Collect(seg.joint_id.clone()));
                            break;
                        }
                    }
                }
                found
            };
            let Some(victim) = victim else {
                return;
            };
            let (job, retire) = {
                let mut st = self.state.lock();
                match victim {
                    Victim::Route(name) => {
                        let seg = st.routes.remove(&name);
                        let mut retire = Vec::new();
                        if let Some(seg) = &seg {
                            for oj in &seg.out_joints {
                                if let Some(locs) = st.joints.remove(oj) {
                                    retire.push((oj.clone(), locs));
                                }
                            }
                        }
                        (seg.map(|s| s.job), retire)
                    }
                    Victim::Compute(joint) => {
                        let locs = st.joints.remove(&joint).unwrap_or_default();
                        (
                            st.computes.remove(&joint).map(|s| s.job),
                            vec![(joint, locs)],
                        )
                    }
                    Victim::Collect(joint) => {
                        let locs = st.joints.remove(&joint).unwrap_or_default();
                        (
                            st.collects.remove(&joint).map(|s| s.job),
                            vec![(joint, locs)],
                        )
                    }
                }
            };
            for (joint, locs) in &retire {
                for n in locs {
                    if let Some(node) = self.cluster.node(*n) {
                        FeedManager::on(&node).retire_joint(joint);
                    }
                }
            }
            if let Some(job) = job {
                job.stop_sources();
                let _ = job.wait();
            }
            // removing this segment may orphan its own source joint: loop
        }
    }

    // -----------------------------------------------------------------------
    // segment health
    // -----------------------------------------------------------------------

    /// Detect segments that terminated on their own (e.g. a FeedTerminated
    /// raised by the Basic policy's memory budget or the consecutive
    /// soft-failure limit) and end the connections that depend on them.
    /// Collect segments ending is *not* a failure: a finite source simply
    /// ran dry, and its connections stay connected (feeds are conceptually
    /// unbounded).
    fn sweep_dead_segments(&self) {
        self.respawn_panicked_stores();
        // a finished job is a *self*-termination only when none of its
        // tasks died of a hard failure — those are the fault-tolerance
        // protocol's to handle (the heartbeat monitor lags the actual
        // crash, so the sweep must not misclassify them)
        fn self_terminated(job: &JobHandle) -> bool {
            match job.try_outcome() {
                None => false, // still running
                Some(results) => !results.iter().any(|(_, r)| {
                    matches!(
                        r,
                        Err(IngestError::NodeFailed(_)) | Err(IngestError::Disconnected(_))
                    )
                }),
            }
        }
        let mut st = self.state.lock();
        // transitively collect dead compute segments
        let mut dead: Vec<String> = st
            .computes
            .iter()
            .filter(|(_, s)| self_terminated(&s.job))
            .map(|(k, _)| k.clone())
            .collect();
        let mut i = 0;
        while i < dead.len() {
            let joint = dead[i].clone();
            let downstream: Vec<String> = st
                .computes
                .values()
                .filter(|s| s.in_joint == joint && !dead.contains(&s.out_joint))
                .map(|s| s.out_joint.clone())
                .collect();
            dead.extend(downstream);
            i += 1;
        }
        // route segments die with their trunk (in-joint in the dead set)
        // or on their own (e.g. the trunk's spill budget raised
        // FeedTerminated at the router's intake)
        let dead_routes: Vec<String> = st
            .routes
            .iter()
            .filter(|(_, s)| self_terminated(&s.job) || dead.contains(&s.in_joint))
            .map(|(k, _)| k.clone())
            .collect();
        if dead.is_empty() && dead_routes.is_empty() {
            // still mark connections whose own store job self-terminated
            for c in st.connections.values_mut() {
                if c.state == ConnectionState::Active
                    && c.job.as_ref().map(self_terminated).unwrap_or(false)
                {
                    c.state = ConnectionState::Ended;
                    c.job.take();
                }
            }
            return;
        }
        // connections end when their source joint is a dead compute's out
        // joint or a dead route's sink joint
        let mut dead_source_joints = dead.clone();
        for name in &dead_routes {
            dead_source_joints.extend(st.routes.get(name).unwrap().out_joints.clone());
        }
        let conn_ids: Vec<ConnectionId> = st
            .connections
            .values()
            .filter(|c| {
                c.state == ConnectionState::Active && dead_source_joints.contains(&c.source_joint)
            })
            .map(|c| c.id)
            .collect();
        for id in conn_ids {
            let c = st.connections.get_mut(&id).unwrap();
            c.state = ConnectionState::Ended;
            if let Some(job) = c.job.take() {
                job.abort();
            }
        }
        // dismantle the dead segments and retire their joints
        let mut to_retire: Vec<(String, Vec<NodeId>)> = Vec::new();
        for name in &dead_routes {
            if let Some(seg) = st.routes.remove(name) {
                seg.job.abort();
                for oj in seg.out_joints {
                    if let Some(locs) = st.joints.remove(&oj) {
                        to_retire.push((oj, locs));
                    }
                }
            }
        }
        for joint in &dead {
            if let Some(seg) = st.computes.remove(joint) {
                seg.job.abort();
            }
            if let Some(locs) = st.joints.remove(joint) {
                to_retire.push((joint.clone(), locs));
            }
        }
        drop(st);
        for (joint, locs) in to_retire {
            for n in locs {
                if let Some(node) = self.cluster.node(n) {
                    FeedManager::on(&node).retire_joint(&joint);
                }
            }
        }
    }

    /// Respawn store jobs that died of a runtime exception (an operator
    /// panic, injected or real — surfaces as `Disconnected`) while their
    /// nodes are all still alive (§6.2.3's "runtime exception" hard
    /// failure). Node-loss deaths are left to `handle_node_failure`; the
    /// alive-guard also filters the race where a node kill was the real
    /// cause but the heartbeat monitor has not reported it yet, because
    /// `kill_node` flips the liveness flag immediately.
    fn respawn_panicked_stores(&self) {
        fn panicked(job: &JobHandle) -> bool {
            match job.try_outcome() {
                None => false, // still running
                Some(results) => {
                    results
                        .iter()
                        .any(|(_, r)| matches!(r, Err(IngestError::Disconnected(_))))
                        && !results
                            .iter()
                            .any(|(_, r)| matches!(r, Err(IngestError::NodeFailed(_))))
                }
            }
        }
        let mut st = self.state.lock();
        let ids: Vec<ConnectionId> = st
            .connections
            .values()
            .filter(|c| {
                c.state == ConnectionState::Active
                    && c.policy.recover_hard_failure
                    && c.job.as_ref().map(panicked).unwrap_or(false)
            })
            .map(|c| c.id)
            .collect();
        for id in ids {
            let healthy = {
                let c = st.connections.get(&id).unwrap();
                let joint_up = st.joints.get(&c.source_joint).map(|locs| {
                    locs.iter()
                        .all(|n| self.cluster.node(*n).map(|h| h.is_alive()).unwrap_or(false))
                });
                let stores_up = c
                    .dataset
                    .config
                    .nodegroup
                    .iter()
                    .all(|n| self.cluster.node(*n).map(|h| h.is_alive()).unwrap_or(false));
                joint_up == Some(true) && stores_up
            };
            if !healthy {
                continue; // a node really is down; §6.2.2 handles it
            }
            st.connections.get_mut(&id).unwrap().job.take();
            let conn_ref = st.connections.get(&id).unwrap();
            if let Ok(job) = self.spawn_store_job(&st, conn_ref) {
                let c = st.connections.get_mut(&id).unwrap();
                c.job = Some(job);
                c.metrics.hard_failures_recovered.add(1);
            }
        }
    }

    // -----------------------------------------------------------------------
    // fault-tolerance protocol (§6.2.2)
    // -----------------------------------------------------------------------

    fn pick_substitute(&self, dead: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        let alive = self.cluster.alive_nodes();
        alive
            .iter()
            .map(|n| n.id())
            .find(|id| *id != dead && !avoid.contains(id))
            .or_else(|| alive.first().map(|n| n.id()))
    }

    fn handle_node_failure(&self, dead: NodeId) {
        let recovery_span = self
            .cluster
            .trace()
            .node_log(dead)
            .span("feed.recovery", format!("node {dead} failed"));
        // phase 1: decide what is affected, under the lock
        let mut st = self.state.lock();

        // connections whose store stage lives on the dead node are suspended
        // (no replication: the dataset partition is gone until re-join)
        let mut suspend: Vec<ConnectionId> = Vec::new();
        let mut end: Vec<ConnectionId> = Vec::new();
        for c in st.connections.values() {
            if c.state != ConnectionState::Active {
                continue;
            }
            if c.dataset.config.nodegroup.contains(&dead) {
                if c.policy.recover_hard_failure {
                    suspend.push(c.id);
                } else {
                    end.push(c.id);
                }
            }
        }
        let now = self.cluster.clock().now();
        for id in &suspend {
            if let Some(c) = st.connections.get_mut(id) {
                c.state = ConnectionState::Suspended;
                c.suspended_at = Some(now);
                if let Some(job) = c.job.take() {
                    job.abort();
                }
            }
        }
        for id in &end {
            if let Some(c) = st.connections.get_mut(id) {
                c.state = ConnectionState::Ended;
                if let Some(job) = c.job.take() {
                    job.abort();
                }
            }
        }

        // collect segments on the dead node: substitute and rebuild the head
        let mut moved_joints: Vec<String> = Vec::new();
        let collect_keys: Vec<String> = st.collects.keys().cloned().collect();
        for key in collect_keys {
            let affected = st.collects.get(&key).map(|s| s.locations.contains(&dead));
            if affected != Some(true) {
                continue;
            }
            let seg = st.collects.get_mut(&key).unwrap();
            let avoid = seg.locations.clone();
            let Some(substitute) = self.pick_substitute(dead, &avoid) else {
                continue;
            };
            for l in seg.locations.iter_mut() {
                if *l == dead {
                    *l = substitute;
                }
            }
            seg.job.abort();
            let locations = seg.locations.clone();
            let joint = seg.joint_id.clone();
            st.joints.insert(joint.clone(), locations.clone());
            moved_joints.push(joint.clone());
            self.preregister_joint(&joint, &locations);
            let seg_ref = st.collects.get(&key).unwrap();
            if let Ok(job) = self.spawn_collect_job(seg_ref) {
                st.collects.get_mut(&key).unwrap().job = job;
            }
        }

        // compute segments, in depth order (upstream first)
        let mut compute_keys: Vec<(usize, String)> = st
            .computes
            .values()
            .map(|s| (s.depth, s.out_joint.clone()))
            .collect();
        compute_keys.sort();
        for (_, key) in compute_keys {
            let (needs_rebuild, seg_in_joint) = {
                let seg = st.computes.get(&key).unwrap();
                let hit_compute = seg.compute_locations.contains(&dead);
                let in_moved = moved_joints.contains(&seg.in_joint);
                let in_on_dead = st
                    .joints
                    .get(&seg.in_joint)
                    .map(|l| l.contains(&dead))
                    .unwrap_or(false);
                (hit_compute || in_moved || in_on_dead, seg.in_joint.clone())
            };
            if !needs_rebuild {
                continue;
            }
            // fix the in-joint's directory entry if it still lists the dead
            // node (can happen when the upstream producer itself was fine
            // but hosted an instance on the dead node — the whole joint
            // location set is owned by the producer, so only rewrite here
            // when the producer was untouched)
            let _ = seg_in_joint;
            let seg = st.computes.get_mut(&key).unwrap();
            if seg.compute_locations.contains(&dead) {
                let avoid = seg.compute_locations.clone();
                if let Some(substitute) = self.pick_substitute(dead, &avoid) {
                    for l in seg.compute_locations.iter_mut() {
                        if *l == dead {
                            *l = substitute;
                        }
                    }
                }
                seg.compute_locations = dedup_nodes(seg.compute_locations.clone());
            }
            seg.job.abort();
            let out = seg.out_joint.clone();
            let locs = seg.compute_locations.clone();
            st.joints.insert(out.clone(), locs.clone());
            moved_joints.push(out.clone());
            self.preregister_joint(&out, &locs);
            let seg_ref = st.computes.get(&key).unwrap();
            if let Ok(job) = self.spawn_compute_job(&st, seg_ref) {
                st.computes.get_mut(&key).unwrap().job = job;
            }
        }

        // route segments: the router follows its in-joint, and its out
        // joints move with it — rebuilt *before* the store pass so sink
        // connections re-subscribe on the new placement
        let route_keys: Vec<String> = st.routes.keys().cloned().collect();
        for key in route_keys {
            let (needs_rebuild, in_joint, out_joints) = {
                let seg = st.routes.get(&key).unwrap();
                let hit = seg.locations.contains(&dead)
                    || moved_joints.contains(&seg.in_joint)
                    || st
                        .joints
                        .get(&seg.in_joint)
                        .map(|l| l.contains(&dead))
                        .unwrap_or(false);
                (hit, seg.in_joint.clone(), seg.out_joints.clone())
            };
            if !needs_rebuild {
                continue;
            }
            let Some(new_locs) = st.joints.get(&in_joint).cloned() else {
                continue;
            };
            {
                let seg = st.routes.get_mut(&key).unwrap();
                seg.job.abort();
                seg.locations = new_locs.clone();
            }
            for oj in &out_joints {
                st.joints.insert(oj.clone(), new_locs.clone());
                self.preregister_joint(oj, &new_locs);
                moved_joints.push(oj.clone());
            }
            let seg_ref = st.routes.get(&key).unwrap();
            if let Ok(job) = self.spawn_route_job(&st, seg_ref) {
                st.routes.get_mut(&key).unwrap().job = job;
            }
        }

        // store segments: rebuild when their intake was co-located with the
        // dead node or their source joint moved
        let conn_ids: Vec<ConnectionId> = st.connections.keys().copied().collect();
        for id in conn_ids {
            let rebuild = {
                let c = st.connections.get(&id).unwrap();
                c.state == ConnectionState::Active
                    && (moved_joints.contains(&c.source_joint)
                        || st
                            .joints
                            .get(&c.source_joint)
                            .map(|l| l.contains(&dead))
                            .unwrap_or(false))
            };
            if !rebuild {
                continue;
            }
            if let Some(job) = st.connections.get_mut(&id).unwrap().job.take() {
                job.abort();
            }
            let conn_ref = st.connections.get(&id).unwrap();
            if let Ok(job) = self.spawn_store_job(&st, conn_ref) {
                st.connections.get_mut(&id).unwrap().job = Some(job);
            }
        }
        recovery_span.finish(&format!("{} joints moved", moved_joints.len()));
    }

    fn handle_node_join(&self, node: NodeId) {
        // store-failure recovery: "as and when the failed store node re-joins
        // the cluster and becomes available, the data ingestion pipeline is
        // rescheduled" — after log-based recovery of its partitions (§6.2.3)
        let rejoin_span = self
            .cluster
            .trace()
            .node_log(node)
            .span("feed.rejoin", format!("node {node} rejoined"));
        let mut st = self.state.lock();
        let ids: Vec<ConnectionId> = st
            .connections
            .values()
            .filter(|c| {
                c.state == ConnectionState::Suspended && c.dataset.config.nodegroup.contains(&node)
            })
            .map(|c| c.id)
            .collect();
        for id in ids {
            let c = st.connections.get(&id).unwrap();
            if let Some(p) = c.dataset.partition_on(node) {
                let _ = p.recover();
            }
            // make sure the source joint still exists; if its segment was
            // also affected it has been rebuilt already by the failure path
            if !st.joints.contains_key(&c.source_joint) {
                continue;
            }
            let conn_ref = st.connections.get(&id).unwrap();
            if let Ok(job) = self.spawn_store_job(&st, conn_ref) {
                let c = st.connections.get_mut(&id).unwrap();
                c.job = Some(job);
                c.state = ConnectionState::Active;
                c.metrics.hard_failures_recovered.add(1);
                if let Some(t0) = c.suspended_at.take() {
                    let elapsed = self.cluster.clock().now().since(t0);
                    c.metrics.last_recovery_millis.set(elapsed.0);
                }
            }
        }
        rejoin_span.finish("rescheduled");
    }

    // -----------------------------------------------------------------------
    // elasticity (§7.3.5)
    // -----------------------------------------------------------------------

    fn handle_elastic_request(&self, req: &ElasticRequest) {
        // the congested pipeline names either a connection ("F->D") or a
        // compute segment ("compute:<joint>")
        let joint = {
            let st = self.state.lock();
            if let Some(rest) = req.connection_key.strip_prefix("compute:") {
                st.computes.contains_key(rest).then(|| rest.to_string())
            } else {
                st.connections
                    .values()
                    .find(|c| c.key == req.connection_key && c.state != ConnectionState::Ended)
                    .map(|c| c.source_joint.clone())
            }
        };
        let Some(joint) = joint else {
            // a request that names no live connection must not vanish
            // silently: it is a symptom of a key mismatch or a race with
            // disconnect, so count it and log it like any soft failure
            self.cluster
                .registry()
                .counter(
                    "elastic.requests_dropped",
                    &[("conn", req.connection_key.as_str())],
                )
                .inc();
            self.log.lock().push(SoftFailureEntry {
                at: self.cluster.clock().now(),
                operator: "cfm-elastic-monitor".into(),
                message: format!(
                    "elastic request for unknown connection '{}' dropped",
                    req.connection_key
                ),
                payload: None,
            });
            return;
        };
        if self.config.governor.enabled {
            // record the congestion vote for the control loop; the governor
            // folds it into its next sample under hysteresis and cooldown
            self.governor
                .lock()
                .conns
                .entry(req.connection_key.clone())
                .or_default()
                .pending_requests += 1;
        } else {
            // legacy open-loop behaviour: one request, one extra instance
            let _ = self.scale_compute(&joint, 1);
        }
    }

    /// One tick of the closed-loop scaling governor: sample the metrics
    /// registry per live connection, run the pure control law, and apply
    /// the decision to both the compute and intake stages. Exported as
    /// `elastic.*` metrics and `elastic.governor` trace events.
    fn governor_tick(&self) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let cfg = self.config.governor.clone();
        let registry = self.cluster.registry();
        let snap = registry.snapshot();
        let now = self.cluster.clock().now();
        struct TickTarget {
            key: String,
            source_joint: String,
            /// Metric scopes of the whole chain: the connection key plus
            /// each compute segment's out-joint.
            scopes: Vec<String>,
            compute_n: Option<usize>,
            root_joint: Option<String>,
            intake_w: Option<usize>,
        }
        // collect the per-connection layout under the lock, act after
        // dropping it (scale_* re-take the non-reentrant state lock)
        let targets: Vec<TickTarget> = {
            let st = self.state.lock();
            st.connections
                .values()
                .filter(|c| c.state == ConnectionState::Active)
                .map(|c| {
                    let mut scopes = vec![c.key.clone()];
                    let mut j = c.source_joint.clone();
                    while let Some(seg) = st.computes.get(&j) {
                        scopes.push(j.clone());
                        j = seg.in_joint.clone();
                    }
                    let root = st.collects.get(&j).map(|s| s.joint_id.clone());
                    let intake_w = st
                        .collects
                        .get(&j)
                        .map(|s| dedup_nodes(s.locations.clone()).len());
                    TickTarget {
                        key: c.key.clone(),
                        source_joint: c.source_joint.clone(),
                        compute_n: st
                            .computes
                            .get(&c.source_joint)
                            .map(|s| s.compute_locations.len()),
                        root_joint: root,
                        intake_w,
                        scopes,
                    }
                })
                .collect()
        };
        for t in targets {
            let mut backlog = 0u64;
            let mut queue = 0u64;
            let mut pressure_now = 0u64;
            for scope in &t.scopes {
                backlog += snap.gauge_for("feed.buffer_bytes", scope).unwrap_or(0)
                    + snap.gauge_for("feed.spill_bytes", scope).unwrap_or(0);
                queue = queue.max(
                    snap.gauge_for("feed.handoff_queue_frames", scope)
                        .unwrap_or(0),
                );
                pressure_now += snap.counter_for("feed.records_throttled", scope)
                    + snap.counter_for("feed.records_discarded", scope)
                    + snap.counter_for("feed.records_spilled", scope)
                    + snap.counter_for("feed.elastic_scaleouts", scope);
            }
            let lag_hist = snap.histogram_for("feed.ingest_lag_millis", &t.key);
            let (sample, decision) = {
                let mut gov = self.governor.lock();
                let per = gov.conns.entry(t.key.clone()).or_default();
                // windowed lag: current cumulative snapshot minus the
                // previous tick's, so old congestion cannot dominate p99
                let lag_p99 = match (&lag_hist, per.prev_lag.take()) {
                    (Some(h), Some(prev)) => {
                        let window = h.delta(&prev);
                        per.prev_lag = Some(h.clone());
                        if window.count > 0 {
                            window.quantile(0.99)
                        } else {
                            0
                        }
                    }
                    (Some(h), None) => {
                        per.prev_lag = Some(h.clone());
                        if h.count > 0 {
                            h.quantile(0.99)
                        } else {
                            0
                        }
                    }
                    (None, prev) => {
                        per.prev_lag = prev;
                        0
                    }
                };
                let pressure_delta = pressure_now.saturating_sub(per.prev_pressure)
                    + std::mem::take(&mut per.pending_requests);
                per.prev_pressure = pressure_now;
                let sample = GovernorSample {
                    lag_p99_millis: lag_p99,
                    backlog_bytes: backlog,
                    queue_frames: queue,
                    pressure_delta,
                };
                let decision = decide(&cfg, now, &sample, &mut per.control);
                (sample, decision)
            };
            let labels = &[("conn", t.key.as_str())];
            registry.counter("elastic.governor_ticks", labels).inc();
            registry
                .gauge("elastic.lag_p99_millis", labels)
                .set(sample.lag_p99_millis);
            registry
                .gauge("elastic.backlog_bytes", labels)
                .set(sample.backlog_bytes);
            if let Some(n) = t.compute_n {
                registry
                    .gauge("elastic.compute_partitions", labels)
                    .set(n as u64);
            }
            if let Some(w) = t.intake_w {
                registry
                    .gauge("elastic.intake_partitions", labels)
                    .set(w as u64);
            }
            let delta = match decision {
                ScaleDecision::Hold => continue,
                ScaleDecision::Out => 1i64,
                ScaleDecision::In => -1i64,
            };
            let mut changed = false;
            if let Some(n) = t.compute_n {
                let within = if delta > 0 {
                    n < cfg.max_compute
                } else {
                    n > cfg.min_compute
                };
                if within {
                    if let Ok(new_n) = self.scale_compute(&t.source_joint, delta) {
                        changed |= new_n != n;
                    }
                }
            }
            if let (Some(root), Some(w)) = (&t.root_joint, t.intake_w) {
                let within = if delta > 0 {
                    w < cfg.max_intake
                } else {
                    w > cfg.min_intake
                };
                if within {
                    if let Ok(new_w) = self.scale_intake(root, delta) {
                        changed |= new_w != w;
                    }
                }
            }
            if changed {
                let counter = if delta > 0 {
                    "elastic.scale_out_total"
                } else {
                    "elastic.scale_in_total"
                };
                registry.counter(counter, labels).inc();
                self.cluster.trace().cluster_log().event(
                    "elastic.governor",
                    format!(
                        "{}: {} (lag p99 {} ms, backlog {} B, queue {} frames, pressure {})",
                        t.key,
                        if delta > 0 { "scale-out" } else { "scale-in" },
                        sample.lag_p99_millis,
                        sample.backlog_bytes,
                        sample.queue_frames,
                        sample.pressure_delta,
                    ),
                );
            }
        }
    }

    /// Wait for aborted predecessor jobs to fully exit, then repartition
    /// their stranded frames onto the successor partition set. Runs with no
    /// controller lock held: `JobHandle::abort` is asynchronous, so without
    /// this settling step a dying intake could park zombie state *after*
    /// the successor's instantiate-time adoption already ran, orphaning the
    /// frames forever.
    fn settle_and_migrate(&self, migrations: Vec<Migration>) {
        // first make every old job quiescent: no more deposits into the old
        // joint instances, no more late zombie parks
        for m in &migrations {
            m.job.abort();
            let _ = m.job.wait();
        }
        for m in migrations {
            if let Some((joint_id, prefix, old, new)) = m.repartition {
                self.migrate_partition_state(&joint_id, &prefix, &old, &new);
            }
        }
    }

    /// Harvest frames stranded on abandoned partitions of `joint_id` —
    /// parked zombie state first, then whatever is still queued in the old
    /// joint subscription (order preserves the stream: parked frames were
    /// consumed before the queued ones arrived) — and re-park them as
    /// zombie state keyed for the successor partition on its node, where
    /// the successor's late-adoption poll picks them up.
    fn migrate_partition_state(
        &self,
        joint_id: &str,
        prefix: &str,
        old: &[NodeId],
        new: &[NodeId],
    ) {
        if new.is_empty() {
            return;
        }
        let mut moved = 0u64;
        for (p, node) in old.iter().enumerate() {
            if p < new.len() && new[p] == *node {
                // the successor resumes the same queue under the same key;
                // late zombie adoption covers the park-after-start window
                continue;
            }
            // a dead node's memory is gone with the node (§6.2.2) — its
            // in-flight frames are the at-least-once tracker's to replay
            let Some(src) = self.cluster.node(*node).filter(|n| n.is_alive()) else {
                continue;
            };
            let src_fm = FeedManager::on(&src);
            let key = format!("{prefix}#p{p}");
            let mut frames = src_fm.take_zombie_state(&key);
            if let Some(joint) = src_fm.search_joint(joint_id) {
                frames.extend(joint.detach_queued(&key));
            }
            if frames.is_empty() {
                continue;
            }
            let successor = p % new.len();
            let Some(dst) = self.cluster.node(new[successor]) else {
                continue;
            };
            moved += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            FeedManager::on(&dst).save_zombie_state(&format!("{prefix}#p{successor}"), frames);
        }
        if moved > 0 {
            self.cluster
                .registry()
                .counter("elastic.frames_migrated", &[("joint", joint_id)])
                .add(moved);
            self.cluster.trace().cluster_log().event(
                "elastic.repartition",
                format!("{joint_id}: {moved} records re-parked for successors"),
            );
        }
    }

    /// Rebuild the segments consuming `out` after its placement changed
    /// from `old_locs` to `new_locs`: dependent store connections and
    /// downstream compute segments re-subscribe on the new placement, and
    /// their aborted predecessors are queued for settling + migration.
    fn rebuild_dependents(
        &self,
        st: &mut State,
        out: &str,
        old_locs: &[NodeId],
        new_locs: &[NodeId],
        migrations: &mut Vec<Migration>,
    ) {
        let conn_ids: Vec<ConnectionId> = st
            .connections
            .values()
            .filter(|c| c.state == ConnectionState::Active && c.source_joint == out)
            .map(|c| c.id)
            .collect();
        for id in conn_ids {
            let old_job = st.connections.get_mut(&id).unwrap().job.take();
            if let Some(j) = &old_job {
                j.abort();
            }
            let conn_ref = st.connections.get(&id).unwrap();
            let key = conn_ref.key.clone();
            if let Ok(job) = self.spawn_store_job(st, conn_ref) {
                st.connections.get_mut(&id).unwrap().job = Some(job);
            }
            if let Some(job) = old_job {
                migrations.push(Migration {
                    job,
                    repartition: Some((
                        out.to_string(),
                        format!("conn:{key}"),
                        old_locs.to_vec(),
                        new_locs.to_vec(),
                    )),
                });
            }
        }
        let compute_keys: Vec<String> = st
            .computes
            .values()
            .filter(|s| s.in_joint == out)
            .map(|s| s.out_joint.clone())
            .collect();
        for key in compute_keys {
            st.computes.get_mut(&key).unwrap().job.abort();
            let seg_ref = st.computes.get(&key).unwrap();
            if let Ok(job) = self.spawn_compute_job(st, seg_ref) {
                let old_job = std::mem::replace(&mut st.computes.get_mut(&key).unwrap().job, job);
                migrations.push(Migration {
                    job: old_job,
                    repartition: Some((
                        out.to_string(),
                        format!("compute:{key}"),
                        old_locs.to_vec(),
                        new_locs.to_vec(),
                    )),
                });
            }
        }
        // route segments follow their in-joint; their out joints (and the
        // sink connections subscribed there) move with them
        let route_keys: Vec<String> = st
            .routes
            .iter()
            .filter(|(_, s)| s.in_joint == out)
            .map(|(k, _)| k.clone())
            .collect();
        for key in route_keys {
            let out_joints = st.routes.get(&key).unwrap().out_joints.clone();
            let old_job = {
                let seg = st.routes.get_mut(&key).unwrap();
                seg.locations = new_locs.to_vec();
                std::mem::replace(&mut seg.job, JobHandle::detached())
            };
            old_job.abort();
            migrations.push(Migration {
                job: old_job,
                repartition: Some((
                    out.to_string(),
                    format!("route:{key}"),
                    old_locs.to_vec(),
                    new_locs.to_vec(),
                )),
            });
            for oj in &out_joints {
                let old_oj = st
                    .joints
                    .insert(oj.clone(), new_locs.to_vec())
                    .unwrap_or_default();
                self.preregister_joint(oj, new_locs);
                // sink connections re-subscribe on the moved out joint
                // (recursion bottoms out: nothing consumes a sink joint but
                // its store connections)
                self.rebuild_dependents(st, oj, &old_oj, new_locs, migrations);
            }
            let seg_ref = st.routes.get(&key).unwrap();
            if let Ok(job) = self.spawn_route_job(st, seg_ref) {
                st.routes.get_mut(&key).unwrap().job = job;
            }
        }
    }

    /// Change the parallelism of the compute segment publishing `joint_id`
    /// by `delta` instances (elastic scale-out/in). Dependent store and
    /// compute segments are rebuilt to follow the joint; once the aborted
    /// predecessors have exited, frames stranded on removed partitions are
    /// migrated to their successors (no-loss scale-in).
    pub fn scale_compute(&self, joint_id: &str, delta: i64) -> IngestResult<usize> {
        let mut migrations: Vec<Migration> = Vec::new();
        let new_n = {
            let mut st = self.state.lock();
            let alive: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
            let seg = st.computes.get_mut(joint_id).ok_or_else(|| {
                IngestError::Metadata(format!("no compute segment publishes '{joint_id}'"))
            })?;
            let current = seg.compute_locations.len() as i64;
            let target = (current + delta).max(1) as usize;
            let target = target.min(alive.len().max(1));
            if target == seg.compute_locations.len() {
                return Ok(target);
            }
            let old_locs = seg.compute_locations.clone();
            if target > seg.compute_locations.len() {
                // add nodes not yet used, round-robin
                let mut candidates: Vec<NodeId> = alive
                    .iter()
                    .copied()
                    .filter(|n| !seg.compute_locations.contains(n))
                    .collect();
                while seg.compute_locations.len() < target {
                    match candidates.pop() {
                        Some(n) => seg.compute_locations.push(n),
                        None => break,
                    }
                }
            } else {
                seg.compute_locations.truncate(target);
            }
            seg.job.abort();
            let out = seg.out_joint.clone();
            let locs = seg.compute_locations.clone();
            let new_n = locs.len();
            self.cluster
                .trace()
                .cluster_log()
                .event("feed.scale", format!("{out}: {current} -> {new_n}"));
            st.joints.insert(out.clone(), locs.clone());
            self.preregister_joint(&out, &locs);
            let seg_ref = st.computes.get(&out).unwrap();
            let job = self.spawn_compute_job(&st, seg_ref)?;
            let old_main = std::mem::replace(&mut st.computes.get_mut(&out).unwrap().job, job);
            // the segment's own intake keeps its placement (it follows the
            // *in*-joint): wait out the predecessor so its parked state is
            // visible, but no repartitioning is needed
            migrations.push(Migration {
                job: old_main,
                repartition: None,
            });
            self.rebuild_dependents(&mut st, &out, &old_locs, &locs, &mut migrations);
            new_n
        };
        self.settle_and_migrate(migrations);
        Ok(new_n)
    }

    /// Distinct nodes currently running collect instances for `joint_id`
    /// (the intake width the governor steers).
    pub fn intake_width_of(&self, joint_id: &str) -> Option<usize> {
        self.state
            .lock()
            .collects
            .get(joint_id)
            .map(|s| dedup_nodes(s.locations.clone()).len())
    }

    /// Change the *width* of the collect segment publishing `joint_id` by
    /// `delta` distinct nodes (elastic intake scale-out/in). The number of
    /// collect instances is fixed by the adaptor's constraint (one per
    /// external datasource); scaling redistributes those instances across
    /// more or fewer nodes. Dependent segments are rebuilt to follow the
    /// joint, with the same settle-and-migrate no-loss protocol as
    /// [`FeedController::scale_compute`].
    pub fn scale_intake(&self, joint_id: &str, delta: i64) -> IngestResult<usize> {
        let mut migrations: Vec<Migration> = Vec::new();
        let new_w = {
            let mut st = self.state.lock();
            let alive: Vec<NodeId> = self.cluster.alive_nodes().iter().map(|n| n.id()).collect();
            let seg = st.collects.get_mut(joint_id).ok_or_else(|| {
                IngestError::Metadata(format!("no collect segment publishes '{joint_id}'"))
            })?;
            let instances = seg.locations.len();
            let old_locs = seg.locations.clone();
            let current_nodes = dedup_nodes(old_locs.clone());
            let current_w = current_nodes.len();
            let max_w = instances.min(alive.len()).max(1);
            let target = ((current_w as i64 + delta).max(1) as usize).min(max_w);
            if target == current_w {
                return Ok(current_w);
            }
            // keep current nodes for stability, grow with unused alive ones
            let mut nodes = current_nodes;
            for n in &alive {
                if nodes.len() >= target {
                    break;
                }
                if !nodes.contains(n) {
                    nodes.push(*n);
                }
            }
            nodes.truncate(target);
            let new_locs: Vec<NodeId> = (0..instances).map(|i| nodes[i % nodes.len()]).collect();
            seg.locations = new_locs.clone();
            seg.job.abort();
            self.cluster.trace().cluster_log().event(
                "feed.scale_intake",
                format!("{joint_id}: width {current_w} -> {target}"),
            );
            st.joints.insert(joint_id.to_string(), new_locs.clone());
            self.preregister_joint(joint_id, &new_locs);
            let seg_ref = st.collects.get(joint_id).unwrap();
            let job = self.spawn_collect_job(seg_ref)?;
            let old_main = std::mem::replace(&mut st.collects.get_mut(joint_id).unwrap().job, job);
            // the old collect must stop depositing into the old joint
            // instances before dependents' queues are harvested; its
            // external sockets survive the swap (persistent source wire)
            migrations.push(Migration {
                job: old_main,
                repartition: None,
            });
            self.rebuild_dependents(&mut st, joint_id, &old_locs, &new_locs, &mut migrations);
            target
        };
        self.settle_and_migrate(migrations);
        Ok(new_w)
    }
}

impl std::fmt::Debug for FeedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        write!(
            f,
            "FeedController({} connections, {} computes, {} collects, {} routes)",
            st.connections.len(),
            st.computes.len(),
            st.collects.len(),
            st.routes.len()
        )
    }
}

fn dedup_nodes(mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    let mut seen = std::collections::HashSet::new();
    nodes.retain(|n| seen.insert(*n));
    nodes
}

/// Null-sink descriptor terminating a collect job (§5.3.1's NullSink).
struct NullSinkDesc {
    locations: Vec<NodeId>,
}

impl OperatorDescriptor for NullSinkDesc {
    fn name(&self) -> String {
        "NullSink".into()
    }

    fn constraints(&self) -> Constraint {
        Constraint::Locations(self.locations.clone())
    }

    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Unary(Box::new(
            asterix_hyracks::executor::UnaryHost::new(Box::new(NullSink), output),
        )))
    }
}
