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
//! ## One segment table
//!
//! A connected cascade network is a set of *segments*, each one Hyracks job,
//! all rows of one table keyed by job name:
//!
//! * `collect:<joint>` (head, one per primary feed with a live external
//!   connection): `FeedCollect(adaptor) → NullSink`, publishing the root
//!   joint;
//! * `compute:<joint>` (one per feed with a UDF): `FeedIntake(parent joint)
//!   → Assign(UDF)`, publishing the feed's joint;
//! * `route:<plan>` (one per routed ingestion plan): `FeedIntake(tail joint)
//!   → Route`, publishing one joint per sink;
//! * `store:<feed>-><dataset>` (tail, one per connection):
//!   `FeedIntake(source joint) → hash-partition → IndexInsert`, co-located
//!   with the target dataset's partitions.
//!
//! A joint lives where its producing segment is placed, so the joint
//! directory is derived from the table, never stored beside it. Segments are
//! shared: connecting a feed reuses the nearest active ancestor joint
//! (§5.3.2, "to minimize the processing involved in forming a feed, it is
//! desired to source the feed from the nearest ancestor feed that is in the
//! connected state"). Disconnecting kills only the store segment; producer
//! segments are garbage-collected when their joints lose their last
//! subscriber.
//!
//! Whenever the network has to change — a node failure (§6.2.2), an elastic
//! restructuring (§7.3.5) — the controller does one thing: it revises the
//! placement of the affected producers and reschedules them and the jobs
//! downstream (`move_joints`), carrying the surviving operators' state over
//! as zombie state (`settle_and_migrate`).

use crate::adaptor::{AdaptorConfig, AdaptorFactory};
use crate::catalog::{FeedCatalog, FeedKind};
use crate::flow::ElasticRequest;
use crate::governor::{ConnGovernor, GovernorConfig, ScaleDecision};
use crate::manager::FeedManager;
use crate::metrics::FeedMetrics;
use crate::ops::{
    ack_channels, new_soft_failure_log, AckPlumbing, AssignDesc, CollectDesc, IntakeDesc,
    NullSinkDesc, RouteDesc, SoftFailureEntry, SoftFailureLog, StoreAck, StoreDesc,
};
use crate::plan::IngestPlan;
use crate::policy::IngestionPolicy;
use crate::udf::Udf;
use asterix_common::ids::IdGen;
use asterix_common::sync::{handoff, thread as sync_thread, Mutex};
use asterix_common::{
    FaultPlan, FeedId, IngestError, IngestResult, JobId, NodeId, SimDuration, SimInstant,
};
use asterix_hyracks::cluster::{Cluster, ClusterEvent};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, JobHandle};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor, OperatorSpecId};
use asterix_hyracks::scheduler::TaskHandle;
use asterix_hyracks::transport::TransportKind;
use asterix_storage::Dataset;
use crossbeam_channel::Sender;
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// The connection a store segment realizes.
struct Connection {
    id: ConnectionId,
    feed: String,
    dataset: Arc<Dataset>,
    state: ConnectionState,
    /// Since when the store job is down for a hard failure; the respawn
    /// that brings it back records the recovery and its latency.
    down_since: Option<SimInstant>,
}

/// What a segment's second operator is, with the state only that kind has.
enum Kind {
    Collect {
        factory: Arc<dyn AdaptorFactory>,
        config: AdaptorConfig,
    },
    Compute {
        udf: Udf,
        /// At-least-once tracker plumbing of this segment's intake; only the
        /// depth-1 stage of an at-least-once chain carries it (see `compile`).
        ack: Option<Arc<AckPlumbing>>,
        /// Ack senders handed to every store job consuming this chain.
        store_ack: Option<Arc<StoreAck>>,
    },
    /// The fan-out joint of a routed ingestion plan: every sink's routing
    /// predicate is evaluated once per record and matches are deposited into
    /// per-sink joints, each consumed by an independent store connection.
    Route(Arc<IngestPlan>),
    Store(Connection),
}

/// One row of the segment table: one Hyracks job of the cascade network.
struct Segment {
    /// The job name: `collect:<joint>` | `compute:<joint>` | `route:<plan>`
    /// | `store:<feed>-><dataset>`.
    key: String,
    /// The joint the segment's intake subscribes to (`None`: a collect
    /// segment reads its adaptor instead).
    input: Option<String>,
    /// The joints the segment publishes (none for a store; one per sink for
    /// a route, `plan:<plan>:<dataset>`, sink-index aligned).
    outputs: Vec<String>,
    /// Where the second operator runs, one entry per partition — and
    /// therefore where the output joints live. A route rides on its input
    /// joint's nodes (no repartitioning); a store on its dataset's
    /// nodegroup.
    placement: Vec<NodeId>,
    /// Governs the intake. The trunk of a routed plan is always lossless
    /// Spill: per-sink loss semantics belong to the sink connections.
    policy: IngestionPolicy,
    metrics: Arc<FeedMetrics>,
    feed_id: FeedId,
    /// `None` on a runnable segment means *pending respawn*: the last
    /// attempt to start it failed and the next sweep or failure pass retries.
    job: Option<JobHandle>,
    kind: Kind,
}

impl Segment {
    /// The key intakes report congestion under and store metrics are
    /// labelled with: `<feed>-><dataset>` for a store, else the job name.
    fn conn_key(&self) -> &str {
        self.key.strip_prefix("store:").unwrap_or(&self.key)
    }

    /// Stable joint-subscription key prefix of the segment's intake.
    fn sub_key(&self) -> String {
        match self.kind {
            Kind::Store(_) => format!("conn:{}", self.conn_key()),
            _ => self.key.clone(),
        }
    }

    /// The `conn` label of the segment's `feed.*` metrics.
    fn scope(&self) -> &str {
        match self.kind {
            Kind::Compute { .. } => &self.outputs[0],
            _ => self.conn_key(),
        }
    }

    fn conn(&self) -> Option<&Connection> {
        match &self.kind {
            Kind::Store(c) => Some(c),
            _ => None,
        }
    }

    fn conn_mut(&mut self) -> Option<&mut Connection> {
        match &mut self.kind {
            Kind::Store(c) => Some(c),
            _ => None,
        }
    }

    fn state(&self) -> Option<ConnectionState> {
        self.conn().map(|c| c.state)
    }

    /// Is the segment still part of the network? All but ended connections.
    fn live(&self) -> bool {
        self.state() != Some(ConnectionState::Ended)
    }

    /// Should a job be running for it? All but suspended/ended connections.
    fn runnable(&self) -> bool {
        matches!(self.state(), None | Some(ConnectionState::Active))
    }

    /// Mark a store segment ended and hand back the segment's job, if any.
    fn end(&mut self) -> Option<JobHandle> {
        if let Some(c) = self.conn_mut() {
            c.state = ConnectionState::Ended;
        }
        self.job.take()
    }
}

/// The segment table. The joint directory is a view of it.
#[derive(Default)]
struct State {
    segments: BTreeMap<String, Segment>,
}

impl State {
    fn producer_of(&self, joint: &str) -> Option<&Segment> {
        self.segments
            .values()
            .find(|s| s.outputs.iter().any(|o| o == joint))
    }

    /// Live segments subscribed to `joint`.
    fn consumers_of<'a>(&'a self, joint: &'a str) -> impl Iterator<Item = &'a Segment> {
        self.segments
            .values()
            .filter(move |s| s.input.as_deref() == Some(joint) && s.live())
    }

    /// Nodes hosting an instance of `joint`: its producer's placement.
    fn placement_of(&self, joint: &str) -> Option<&[NodeId]> {
        self.producer_of(joint).map(|s| s.placement.as_slice())
    }

    /// Store segments, in connection-id order.
    fn connections(&self) -> Vec<(&Segment, &Connection)> {
        let mut conns: Vec<_> = self
            .segments
            .values()
            .filter_map(|s| Some((s, s.conn()?)))
            .collect();
        conns.sort_by_key(|(_, c)| c.id);
        conns
    }

    fn connection(&self, id: ConnectionId) -> Option<&Segment> {
        self.segments
            .values()
            .find(|s| s.conn().is_some_and(|c| c.id == id))
    }

    /// The segment `key` and everything upstream of it, following `input`
    /// links: `[key, its producer, …, the collect segment]`.
    fn chain(&self, key: &str) -> Vec<&Segment> {
        let mut chain = Vec::new();
        let mut next = self.segments.get(key);
        while let Some(seg) = next {
            chain.push(seg);
            next = seg.input.as_deref().and_then(|j| self.producer_of(j));
        }
        chain
    }

    /// Keys of `key` and of the live segments transitively consuming its
    /// outputs, descending below a consumer only when `through` says so.
    fn downstream(&self, key: &str, through: impl Fn(&Segment) -> bool) -> Vec<String> {
        let mut found = vec![key.to_string()];
        let mut i = 0;
        while let Some(seg) = found.get(i).and_then(|k| self.segments.get(k)) {
            let below = seg.outputs.iter().filter(|_| i == 0 || through(seg));
            for c in below.flat_map(|j| self.consumers_of(j)) {
                if !found.contains(&c.key) {
                    found.push(c.key.clone());
                }
            }
            i += 1;
        }
        found
    }
}

/// Read-only view of one row of the segment table, for tests and
/// `explain`-style tooling ([`FeedController::segments`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Job name (`collect:…` | `compute:…` | `route:…` | `store:…`).
    pub key: String,
    /// Joint the intake subscribes to (`None` for a collect segment).
    pub input: Option<String>,
    /// Joints the segment publishes.
    pub outputs: Vec<String>,
    /// Where the second operator and the output joints are placed.
    pub placement: Vec<NodeId>,
    /// Nodes the *running job's* intake partitions sit on, in partition
    /// order; empty when no job runs or the segment has no intake.
    pub intake: Vec<NodeId>,
    /// Connection state (store segments only).
    pub state: Option<ConnectionState>,
    /// Id of the job currently running for the segment, if one is.
    pub job: Option<JobId>,
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

/// One handed-over pipeline job whose partition state must settle before
/// the successor owns the stream. The job is awaited *after* the controller
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

/// What one pass of the rebuild path leaves to do once the state lock is
/// dropped (`settle_and_migrate`).
#[derive(Default)]
struct Rebuild {
    /// Span/event name of the enclosing operation; respawn failures are
    /// traced under it.
    op: &'static str,
    migrations: Vec<Migration>,
    /// `(joint, old placement)` of every moved joint: instances left behind
    /// on nodes outside the new placement are retired after migration.
    vacated: Vec<(String, Vec<NodeId>)>,
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
    /// Control-loop state per connection key (`<feed>-><dataset>`); entries
    /// of ended connections are dropped at the next tick.
    governor: Mutex<HashMap<String, ConnGovernor>>,
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
            governor: Mutex::new(HashMap::new()),
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
        let connection_key = connection_key.to_string();
        self.elastic_sender()
            .is_some_and(|tx| tx.send(ElasticRequest { connection_key }).is_ok())
    }

    fn alive_ids(&self) -> Vec<NodeId> {
        self.cluster.alive_nodes().iter().map(|n| n.id()).collect()
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
        let sink = (self.catalog.dataset(dataset)?, policy.clone());
        let ids = self.connect(feed, policy, vec![sink], None)?;
        Ok(ids[0])
    }

    /// `connect plan <plan>` — compile an [`IngestPlan`] into a running
    /// cascade: the producer chain of its tail feed, then one independent
    /// store connection per sink, each with its own dataset, policy, flow
    /// control and (at-least-once) custody. A plan that routes (several
    /// sinks, or a predicate) gets a fan-out route segment in between; a
    /// one-sink, no-predicate plan is exactly the pipeline `connect feed`
    /// builds.
    ///
    /// Returns one [`ConnectionId`] per sink, sink-index aligned.
    pub fn connect_plan(&self, plan: &IngestPlan) -> IngestResult<Vec<ConnectionId>> {
        plan.validate()?;
        // resolve every sink's dataset and policy before touching state
        let mut sinks: Vec<(Arc<Dataset>, IngestionPolicy)> = Vec::new();
        for sink in &plan.sinks {
            let ds = self.catalog.dataset(&sink.dataset)?;
            sinks.push((ds, self.catalog.sink_policy(sink)?));
        }
        let route = (!plan.is_degenerate()).then(|| Arc::new(plan.clone()));
        // The trunk (producer chain + router intake) of a routed plan is
        // always lossless Spill: per-sink loss semantics (Discard's gaps,
        // Basic's budget) belong downstream of the routing decision,
        // otherwise one sink's policy would drop records destined for
        // another.
        let trunk = match route {
            Some(_) => IngestionPolicy::spill(),
            None => sinks[0].1.clone(),
        };
        self.connect(&plan.tail_feed_name(), trunk, sinks, route)
    }

    /// The one construction path: compile what the table is missing for
    /// `tail` to reach `sinks`, and start it.
    fn connect(
        &self,
        tail: &str,
        trunk: IngestionPolicy,
        sinks: Vec<(Arc<Dataset>, IngestionPolicy)>,
        route: Option<Arc<IngestPlan>>,
    ) -> IngestResult<Vec<ConnectionId>> {
        let mut st = self.state.lock();
        let taken = |key: String| st.segments.get(&key).is_some_and(Segment::live);
        if let Some(plan) = route.iter().find(|p| taken(format!("route:{}", p.name))) {
            let msg = format!("plan {} is already connected", plan.name);
            return Err(IngestError::Metadata(msg));
        }
        let dataset_of = |(ds, _): &(Arc<Dataset>, IngestionPolicy)| ds.config.name.clone();
        if let Some(d) = sinks
            .iter()
            .map(dataset_of)
            .find(|d| taken(format!("store:{tail}->{d}")))
        {
            let msg = format!("feed {tail} is already connected to dataset {d}");
            return Err(IngestError::Metadata(msg));
        }
        let log = self.cluster.trace().cluster_log();
        let connect_span = match &route {
            Some(plan) => log.span("feed.connect_plan", plan.name.clone()),
            None => log.span(
                "feed.connect",
                format!("{tail}->{}", sinks[0].0.config.name),
            ),
        };
        let compiled = self.compile(&st, tail, &trunk, sinks, route)?;
        let ids = compiled.iter().filter_map(|s| Some(s.conn()?.id)).collect();
        self.start_segments(&mut st, compiled)?;
        connect_span.finish("active");
        Ok(ids)
    }

    /// `disconnect feed <feed> from dataset <dataset>` — graceful: already
    /// received records drain to the target dataset; shared segments keep
    /// serving other connections; orphaned producer segments are reclaimed.
    pub fn disconnect_feed(&self, feed: &str, dataset: &str) -> IngestResult<()> {
        let job = {
            let mut st = self.state.lock();
            let seg = st.segments.get_mut(&format!("store:{feed}->{dataset}"));
            seg.filter(|s| s.live())
                .ok_or_else(|| {
                    IngestError::Metadata(format!(
                        "feed {feed} is not connected to dataset {dataset}"
                    ))
                })?
                .end()
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
        let mut jobs = Vec::new();
        {
            let mut st = self.state.lock();
            // ended connections stay readable (state, metrics); every other
            // segment leaves the table with its joints
            for (key, mut seg) in std::mem::take(&mut st.segments) {
                jobs.extend(seg.end());
                self.retire_joints(&seg.outputs, &seg.placement);
                if seg.conn().is_some() {
                    st.segments.insert(key, seg);
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
    // introspection — views of the table
    // -----------------------------------------------------------------------

    /// Metrics of a connection.
    pub fn connection_metrics(&self, id: ConnectionId) -> IngestResult<Arc<FeedMetrics>> {
        let st = self.state.lock();
        st.connection(id)
            .map(|s| Arc::clone(&s.metrics))
            .ok_or_else(|| IngestError::Metadata(format!("unknown connection {id}")))
    }

    /// Metrics of the compute segment publishing `joint_id`.
    pub fn compute_metrics(&self, joint_id: &str) -> Option<Arc<FeedMetrics>> {
        let st = self.state.lock();
        let seg = st.segments.get(&format!("compute:{joint_id}"))?;
        Some(Arc::clone(&seg.metrics))
    }

    /// Current state of a connection. An `Active` connection whose job is
    /// pending respawn stays `Active`: the controller keeps retrying it.
    pub fn connection_state(&self, id: ConnectionId) -> ConnectionState {
        let st = self.state.lock();
        match st.connection(id) {
            // the job ended on its own (e.g. FeedTerminated) and the sweep
            // has not recorded it yet
            Some(s) if s.runnable() && s.job.as_ref().is_some_and(|j| !j.is_running()) => {
                ConnectionState::Ended
            }
            Some(s) => s.state().unwrap_or(ConnectionState::Ended),
            None => ConnectionState::Ended,
        }
    }

    /// Nodes currently hosting instances of `joint_id`.
    pub fn joint_locations(&self, joint_id: &str) -> Vec<NodeId> {
        let st = self.state.lock();
        st.placement_of(joint_id).unwrap_or_default().to_vec()
    }

    /// Compute parallelism of the segment publishing `joint_id`.
    pub fn compute_parallelism_of(&self, joint_id: &str) -> Option<usize> {
        let st = self.state.lock();
        let seg = st.segments.get(&format!("compute:{joint_id}"))?;
        Some(seg.placement.len())
    }

    /// Distinct nodes currently running collect instances for `joint_id`
    /// (the intake width the governor steers).
    pub fn intake_width_of(&self, joint_id: &str) -> Option<usize> {
        let st = self.state.lock();
        let seg = st.segments.get(&format!("collect:{joint_id}"))?;
        Some(dedup_nodes(seg.placement.clone()).len())
    }

    /// Live connections as `(id, feed, dataset)` triples.
    pub fn connections_detailed(&self) -> Vec<(ConnectionId, String, String)> {
        let st = self.state.lock();
        let live = st.connections().into_iter().filter(|(s, _)| s.live());
        live.map(|(_, c)| (c.id, c.feed.clone(), c.dataset.config.name.clone()))
            .collect()
    }

    /// Live connection ids.
    pub fn connections(&self) -> Vec<ConnectionId> {
        let detailed = self.connections_detailed();
        detailed.into_iter().map(|(id, _, _)| id).collect()
    }

    /// A snapshot of the whole segment table, in key order.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let st = self.state.lock();
        let info = |s: &Segment| {
            let running = s.job.as_ref().filter(|j| j.is_running());
            let intake = running.filter(|_| s.input.is_some()).map(|job| {
                let tasks = job.layout().iter();
                let intake = tasks.filter(|t| t.op == OperatorSpecId(0));
                intake.map(|t| t.node).collect()
            });
            SegmentInfo {
                key: s.key.clone(),
                input: s.input.clone(),
                outputs: s.outputs.clone(),
                placement: s.placement.clone(),
                intake: intake.unwrap_or_default(),
                state: s.state(),
                job: running.map(|j| j.id),
            }
        };
        st.segments.values().map(info).collect()
    }

    /// The Appendix A "Feed Management Console" view: per connection, the
    /// physical nodes of every stage from the intake (collect) through the
    /// compute and route stages to the store, and the instantaneous rates at
    /// which data is received and persisted.
    pub fn console_report(&self) -> String {
        use std::fmt::Write as _;
        let st = self.state.lock();
        let mut out = String::from("Feed Management Console\n");
        for (seg, c) in st.connections().into_iter().filter(|(s, _)| s.live()) {
            let stage = |s: &&Segment| {
                let name = match s.kind {
                    Kind::Collect { .. } => "intake",
                    Kind::Compute { .. } => "compute",
                    Kind::Route(_) => "route",
                    Kind::Store(_) => "store",
                };
                format!("{name}: {:?}", s.placement)
            };
            let stages: Vec<String> = st.chain(&seg.key).iter().rev().map(stage).collect();
            let m = &seg.metrics;
            let last_rate = m.throughput().points.last().map_or(0.0, |p| p.rate);
            let _ = writeln!(
                out,
                "  {} {} -> {} [{:?}]
    {}
                     received: {} records  persisted: {}  instantaneous: {:.0} rec/s
                     hard recoveries: {}  zombie frames adopted: {}  last recovery: {} ms",
                c.id,
                c.feed,
                c.dataset.config.name,
                c.state,
                stages.join("  "),
                m.records_in.get(),
                m.records_persisted.get(),
                last_rate,
                m.hard_failures_recovered.get(),
                m.zombie_frames_adopted.get(),
                m.last_recovery_millis.get(),
            );
        }
        out
    }

    // -----------------------------------------------------------------------
    // plan compilation and job construction
    // -----------------------------------------------------------------------

    fn register_joints(&self, joints: &[String], nodes: &[NodeId]) {
        for node in nodes.iter().filter_map(|n| self.cluster.node(*n)) {
            let fm = FeedManager::on(&node);
            for joint in joints {
                fm.register_joint(joint);
            }
        }
    }

    fn retire_joints<'a>(&self, joints: &[String], nodes: impl IntoIterator<Item = &'a NodeId>) {
        for node in nodes.into_iter().filter_map(|n| self.cluster.node(*n)) {
            let fm = FeedManager::on(&node);
            for joint in joints {
                fm.retire_joint(joint);
            }
        }
    }

    /// The one plan compiler: the segments the table is missing for the feed
    /// `tail` to flow into `sinks`, in the order that loses no startup frame
    /// — store segments first so their subscriptions are live, then the
    /// route segment (when `route` is given), then the new compute segments
    /// deepest first, and the collect segment (the external source) last.
    fn compile(
        &self,
        st: &State,
        tail: &str,
        trunk: &IngestionPolicy,
        sinks: Vec<(Arc<Dataset>, IngestionPolicy)>,
        route: Option<Arc<IngestPlan>>,
    ) -> IngestResult<Vec<Segment>> {
        let registry = self.cluster.registry();
        let clock = self.cluster.clock();
        let feed_id = |name: &str| self.catalog.feed_id(name).unwrap_or(FeedId(0));
        let lineage = self.catalog.lineage(tail)?;
        let alive = self.alive_ids();
        if alive.is_empty() {
            return Err(IngestError::Plan("no alive nodes".into()));
        }

        // --- producers the table lacks, upstream first ---------------------
        // Stage 0 is the raw collect joint (the primary feed's name); each
        // further stage is a UDF application with its own joint id
        // ("<root>:f1:...:fk", §5.3.1). A stage whose joint is live is
        // shared, not rebuilt: the feed is sourced from the nearest
        // connected ancestor (§5.3.2).
        let root = lineage[0].name.clone();
        let mut producers: Vec<Segment> = Vec::new();
        if st.producer_of(&root).is_none() {
            let FeedKind::Primary { adaptor, config } = &lineage[0].kind else {
                return Err(IngestError::Plan(
                    "lineage root must be a primary feed".into(),
                ));
            };
            let factory = self.catalog.adaptors().get(adaptor)?;
            let placement = match factory.constraints(config)? {
                Constraint::Count(n) => (0..n).map(|i| alive[i % alive.len()]).collect(),
                Constraint::Locations(locs) => locs,
            };
            let config = config.clone();
            producers.push(Segment {
                key: format!("collect:{root}"),
                input: None,
                outputs: vec![root.clone()],
                placement,
                policy: trunk.clone(),
                // a collect segment has no intake: nothing writes these
                metrics: FeedMetrics::with_default_bucket(clock.clone()),
                feed_id: feed_id(&root),
                job: None,
                kind: Kind::Collect { factory, config },
            });
        }
        let compute_n = self.config.compute_parallelism.unwrap_or(alive.len());
        let offset = self.config.compute_node_offset;
        let instances =
            (0..compute_n.clamp(1, alive.len())).map(|k| alive[(offset + k) % alive.len()]);
        let compute_placement = dedup_nodes(instances.collect());
        let mut tail_joint = root.clone();
        for f in &lineage {
            let Some(udf_name) = &f.udf else {
                continue;
            };
            let out = self.catalog.joint_id_for(&f.name)?;
            let input = std::mem::replace(&mut tail_joint, out.clone());
            if st.producer_of(&out).is_some() {
                continue;
            }
            // At-least-once custody belongs at the earliest intake under the
            // adaptor (§5.6): only the depth-1 stage — whose intake rides on
            // the collect joint's (adaptor) nodes — gets the tracker, which
            // holds every record until the *store* stage acks it, so a
            // compute- or store-node death never strands the only copy
            // mid-pipeline. The channel count is pinned to the in-joint's
            // instance count, which scale_intake keeps constant.
            let (ack, store_ack) = if trunk.at_least_once && input == root {
                let partitions = match producers.first() {
                    Some(collect) => collect.placement.len(),
                    None => st.placement_of(&root).map_or(0, <[NodeId]>::len),
                };
                let (plumbing, sender) = self.ack_channels(partitions);
                (Some(plumbing), Some(sender))
            } else {
                (None, None)
            };
            let udf = self.catalog.function(udf_name)?;
            producers.push(Segment {
                key: format!("compute:{out}"),
                input: Some(input),
                placement: compute_placement.clone(),
                policy: trunk.clone(),
                metrics: FeedMetrics::registered_default(&registry, &out, clock.clone()),
                feed_id: feed_id(&f.name),
                job: None,
                kind: Kind::Compute {
                    udf,
                    ack,
                    store_ack,
                },
                outputs: vec![out],
            });
        }

        // --- consumers: one store per sink, behind a route when asked ------
        let sink_joints: Vec<String> = match &route {
            Some(plan) => (0..sinks.len()).map(|i| plan.sink_joint_id(i)).collect(),
            None => vec![tail_joint.clone(); sinks.len()],
        };
        let mut segments: Vec<Segment> = Vec::new();
        for ((dataset, policy), joint) in sinks.into_iter().zip(&sink_joints) {
            let conn_key = format!("{tail}->{}", dataset.config.name);
            dataset.register_observability(&registry, &self.cluster.trace());
            segments.push(Segment {
                key: format!("store:{conn_key}"),
                input: Some(joint.clone()),
                outputs: Vec::new(),
                placement: dataset.config.nodegroup.clone(),
                policy,
                metrics: FeedMetrics::registered_default(&registry, &conn_key, clock.clone()),
                feed_id: feed_id(tail),
                job: None,
                kind: Kind::Store(Connection {
                    id: CONNECTION_IDS.next(),
                    feed: tail.to_string(),
                    dataset,
                    state: ConnectionState::Active,
                    down_since: None,
                }),
            });
        }
        if let Some(plan) = route {
            // the router rides on the tail joint's nodes; its out joints are
            // co-located so routed frames never cross a node boundary twice
            let placement = match producers.last() {
                Some(tail_producer) => tail_producer.placement.clone(),
                None => st
                    .placement_of(&tail_joint)
                    .ok_or_else(|| IngestError::Plan(format!("no live joint '{tail_joint}'")))?
                    .to_vec(),
            };
            let key = format!("route:{}", plan.name);
            segments.push(Segment {
                input: Some(tail_joint),
                outputs: sink_joints,
                placement,
                policy: trunk.clone(),
                metrics: FeedMetrics::registered_default(&registry, &key, clock.clone()),
                feed_id: feed_id(tail),
                job: None,
                kind: Kind::Route(plan),
                key,
            });
        }
        segments.extend(producers.into_iter().rev());
        Ok(segments)
    }

    /// Enter `compiled` into the table and start its jobs in the given
    /// order. Every row and joint goes in before any job starts: a store
    /// job must find its chain's at-least-once plumbing. A failed start
    /// leaves the table as it was.
    fn start_segments(&self, st: &mut State, compiled: Vec<Segment>) -> IngestResult<()> {
        let keys: Vec<String> = compiled.iter().map(|s| s.key.clone()).collect();
        for seg in compiled {
            self.register_joints(&seg.outputs, &seg.placement);
            st.segments.insert(seg.key.clone(), seg);
        }
        for key in &keys {
            match self.spawn(st, &st.segments[key]) {
                Ok(job) => st.segments.get_mut(key).expect("inserted above").job = Some(job),
                Err(e) => {
                    for seg in keys.iter().filter_map(|k| st.segments.remove(k)) {
                        // graceful: a started intake must drop its
                        // subscription to a joint it shares with others
                        if let Some(job) = seg.job {
                            job.stop_sources();
                        }
                        self.retire_joints(&seg.outputs, &seg.placement);
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The one place a segment becomes a Hyracks job. Every kind but the
    /// collect starts with the same intake on the input joint's nodes; the
    /// second operator is the kind's.
    fn spawn(&self, st: &State, seg: &Segment) -> IngestResult<JobHandle> {
        let (policy, metrics) = (seg.policy.clone(), Arc::clone(&seg.metrics));
        let (log, log_dataset) = (Arc::clone(&self.log), self.log_dataset.lock().clone());
        let locations = seg.placement.clone();
        let intake_nodes = seg.input.as_deref().and_then(|j| st.placement_of(j));
        let mut store_ack = None;
        let first: Box<dyn OperatorDescriptor> = if let Some(input) = seg.input.as_deref() {
            let in_locations = intake_nodes
                .ok_or_else(|| IngestError::Plan(format!("no live joint '{input}'")))?;
            // A store intake follows the compute joint onto arbitrary worker
            // nodes, where a tracker would die with the records it guards:
            // the store of a processed feed routes its acks up the chain to
            // the adaptor-side custodian and leaves its own intake untracked.
            // A raw feed keeps the tracker at the store intake: it IS the
            // adaptor-side stage. So does a sink behind a route: the custody
            // boundary is the routing decision, that sink's earliest stage.
            let mut ack = None;
            if let Kind::Compute { ack: own, .. } = &seg.kind {
                ack = own.clone();
            } else if seg.conn().is_some() && policy.at_least_once {
                store_ack = chain_store_ack(st, seg);
                if store_ack.is_none() {
                    let (plumbing, sender) = self.ack_channels(in_locations.len());
                    (ack, store_ack) = (Some(plumbing), Some(sender));
                }
            }
            Box::new(IntakeDesc {
                joint_id: input.to_string(),
                sub_key: seg.sub_key(),
                locations: in_locations.to_vec(),
                policy: policy.clone(),
                metrics: Arc::clone(&metrics),
                elastic_tx: self.elastic_sender(),
                flow_capacity: self.config.flow_capacity,
                ack,
                connection_key: seg.conn_key().to_string(),
                feed: seg.feed_id,
                // only the store-stage intake panics on schedule: killing
                // the collect side would sever the external source for good
                fault_plan: seg.conn().and(self.config.fault_plan.clone()),
            })
        } else {
            let Kind::Collect { factory, config } = &seg.kind else {
                return Err(IngestError::Plan(format!("{} has no input", seg.key)));
            };
            let joint_id = seg.outputs[0].clone();
            Box::new(CollectDesc {
                // skipped-unparseable-input counter for all adaptor instances
                // of this feed, visible in registry snapshots and exporters
                malformed_lines: self
                    .cluster
                    .registry()
                    .counter("parse.malformed_lines", &[("feed", &joint_id)]),
                joint_id,
                factory: Arc::clone(factory),
                config: config.clone(),
                locations: locations.clone(),
            })
        };
        let (second, connector): (Box<dyn OperatorDescriptor>, _) = match &seg.kind {
            Kind::Collect { .. } => (
                Box::new(NullSinkDesc { locations }),
                ConnectorSpec::OneToOne,
            ),
            Kind::Compute { udf, .. } => (
                Box::new(AssignDesc {
                    udf: udf.clone(),
                    out_joint_id: seg.outputs[0].clone(),
                    locations,
                    feed: seg.feed_id,
                    policy,
                    metrics,
                    log,
                    log_dataset,
                    extra_spin: self.config.compute_extra_spin,
                    extra_delay_us: self.config.compute_extra_delay_us,
                }),
                ConnectorSpec::MNRandomPartition,
            ),
            // the router is co-located with its intake: routing is a local
            // decision, repartitioning happens at each sink's store job
            Kind::Route(plan) => {
                let registry = self.cluster.registry();
                let routed = |i| {
                    let label = plan.sink_label(i);
                    registry.counter("plan.sink.records_routed", &[("conn", label.as_str())])
                };
                let route = RouteDesc {
                    out_joints: seg.outputs.clone(),
                    locations,
                    metrics,
                    routed: (0..plan.sinks.len()).map(routed).collect(),
                    no_match: registry
                        .counter("plan.route.no_match_total", &[("plan", plan.name.as_str())]),
                    plan: Arc::clone(plan),
                };
                (Box::new(route), ConnectorSpec::OneToOne)
            }
            Kind::Store(c) => {
                let key_fn = crate::ops::store_key_fn(
                    c.dataset.config.primary_key.clone(),
                    metrics.parse_calls.clone(),
                );
                let store = StoreDesc {
                    dataset: Arc::clone(&c.dataset),
                    registry: Some(Arc::clone(self.catalog.types())),
                    feed: seg.feed_id,
                    policy,
                    metrics,
                    log,
                    log_dataset,
                    ack: store_ack,
                };
                (Box::new(store), ConnectorSpec::MNHashPartition(key_fn))
            }
        };
        let mut job = JobSpec::new(seg.key.clone());
        job.transport = self.config.transport;
        let (first, second) = (job.add_operator(first), job.add_operator(second));
        job.connect(first, second, connector);
        let handle = run_job(&self.cluster, job)?;
        // Subscribe on the intake's behalf, so that "spawned" means
        // "subscribed": the producer started next may deposit at once and
        // the frame is queued, not dropped. The intake task attaches to the
        // same keyed subscriptions on its first poll.
        if let Some((input, nodes)) = seg.input.as_deref().zip(intake_nodes) {
            let nodes = nodes.iter().map(|n| self.cluster.node(*n));
            for (p, node) in nodes.enumerate().filter_map(|(p, n)| Some((p, n?))) {
                let joint = FeedManager::on(&node).register_joint(input);
                drop(joint.subscribe(format!("{}#p{p}", seg.sub_key())));
            }
        }
        Ok(handle)
    }

    fn ack_channels(&self, partitions: usize) -> (Arc<AckPlumbing>, Arc<StoreAck>) {
        ack_channels(partitions, self.config.ack_timeout, self.config.ack_window)
    }

    /// (Re)start the job of segment `key` — the one place a respawn can
    /// fail. A failure is reported once (`feed.respawn_failures{conn}`, a
    /// trace event under the enclosing operation `op`) and leaves the
    /// segment *pending*: it stays in the table without a job, and every
    /// sweep tick and every later failure/re-join/scale pass that touches it
    /// tries again.
    fn respawn(&self, st: &mut State, op: &str, key: &str) -> bool {
        let Some(seg) = st.segments.get(key) else {
            return false;
        };
        let spawned = self.spawn(st, seg);
        if let Err(e) = &spawned {
            let labels = &[("conn", seg.conn_key())];
            let registry = self.cluster.registry();
            registry.counter("feed.respawn_failures", labels).inc();
            let log = self.cluster.trace().cluster_log();
            log.event(op, format!("respawn of {key} failed: {e}"));
        }
        let seg = st.segments.get_mut(key).expect("looked up above");
        seg.job = spawned.ok();
        let running = seg.job.is_some();
        let back = seg.conn_mut().filter(|_| running);
        if let Some(t0) = back.and_then(|c| c.down_since.take()) {
            seg.metrics.hard_failures_recovered.add(1);
            let elapsed = self.cluster.clock().now().since(t0);
            seg.metrics.last_recovery_millis.set(elapsed.0);
        }
        running
    }

    // -----------------------------------------------------------------------
    // garbage collection and segment health
    // -----------------------------------------------------------------------

    fn joint_subscriber_count(&self, joint_id: &str, locations: &[NodeId]) -> usize {
        locations
            .iter()
            .filter_map(|n| self.cluster.node(*n))
            .filter_map(|node| FeedManager::on(&node).search_joint(joint_id))
            .map(|j| j.subscriber_count())
            .sum()
    }

    /// Reclaim every producer segment none of whose output joints has a
    /// subscriber left. Dismantling one unsubscribes its own intake, which
    /// may orphan the segment upstream of it: repeat until nothing is left
    /// to reclaim.
    pub fn gc_segments(&self) {
        loop {
            let victim = {
                let mut st = self.state.lock();
                let orphaned = |s: &&Segment| {
                    let subscribers = |j| self.joint_subscriber_count(j, &s.placement);
                    !s.outputs.is_empty() && s.outputs.iter().all(|j| subscribers(j) == 0)
                };
                let key = st.segments.values().find(orphaned).map(|s| s.key.clone());
                key.and_then(|k| st.segments.remove(&k))
            };
            let Some(seg) = victim else {
                return;
            };
            self.retire_joints(&seg.outputs, &seg.placement);
            if let Some(job) = seg.job {
                job.stop_sources();
                let _ = job.wait();
            }
        }
    }

    /// Periodic health pass over the table: retry pending respawns, respawn
    /// store jobs that died of a runtime exception, and detect segments that
    /// terminated on their own (e.g. a FeedTerminated raised by the Basic
    /// policy's memory budget or the consecutive soft-failure limit), which
    /// end together with everything downstream of them. Collect segments
    /// ending is *not* a failure: a finite source simply ran dry, and its
    /// connections stay connected (feeds are conceptually unbounded).
    fn sweep_dead_segments(&self) {
        let mut st = self.state.lock();
        let all_alive = |nodes: &[NodeId]| {
            let alive = |n: &NodeId| self.cluster.node(*n).is_some_and(|h| h.is_alive());
            nodes.iter().all(alive)
        };
        let (mut pending, mut panicked, mut dead) = (Vec::new(), Vec::new(), Vec::new());
        for seg in st.segments.values().filter(|s| s.runnable()) {
            let Some(job) = &seg.job else {
                pending.push(seg.key.clone()); // from an earlier pass
                continue;
            };
            let Some(results) = job.try_outcome() else {
                continue; // still running
            };
            let died_of = |hard: fn(&IngestError) -> bool| {
                results.iter().any(|(_, r)| r.as_ref().is_err_and(hard))
            };
            let exception = died_of(|e| matches!(e, IngestError::Disconnected(_)));
            if died_of(|e| matches!(e, IngestError::NodeFailed(_))) {
                // a lost node is the fault-tolerance protocol's to handle
                // (the heartbeat monitor lags the actual crash, so the sweep
                // must not misclassify it)
            } else if exception {
                // §6.2.3's "runtime exception" hard failure (an operator
                // panic, injected or real): respawn the store job while its
                // nodes are all still alive. The alive-guard also filters the
                // race where a node kill was the real cause but the monitor
                // has not reported it yet — `kill_node` flips the liveness
                // flag immediately.
                let source = seg.input.as_deref().and_then(|j| st.placement_of(j));
                let recoverable = seg.conn().is_some() && seg.policy.recover_hard_failure;
                if recoverable && all_alive(&seg.placement) && source.is_some_and(all_alive) {
                    panicked.push(seg.key.clone());
                }
            } else if !matches!(seg.kind, Kind::Collect { .. }) && !dead.contains(&seg.key) {
                dead.extend(st.downstream(&seg.key, |_| true));
            }
        }
        let now = self.cluster.clock().now();
        for key in &panicked {
            let down = st.segments.get_mut(key).and_then(Segment::conn_mut);
            down.expect("a store, collected above").down_since = Some(now);
        }
        for key in pending.iter().chain(&panicked) {
            self.respawn(&mut st, "feed.sweep", key);
        }
        for key in dead {
            let Some(seg) = st.segments.get_mut(&key) else {
                continue;
            };
            if let Some(job) = seg.end() {
                job.abort();
            }
            // an ended connection stays readable; a dead producer leaves the
            // table with its joints
            if seg.conn().is_none() {
                if let Some(seg) = st.segments.remove(&key) {
                    self.retire_joints(&seg.outputs, &seg.placement);
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // fault-tolerance protocol (§6.2.2)
    // -----------------------------------------------------------------------

    fn pick_substitute(&self, dead: NodeId, avoid: &[NodeId]) -> Option<NodeId> {
        let alive = self.alive_ids();
        let fresh = alive.iter().find(|id| **id != dead && !avoid.contains(id));
        fresh.or(alive.first()).copied()
    }

    fn handle_node_failure(&self, dead: NodeId) {
        let recovery_span = self
            .cluster
            .trace()
            .node_log(dead)
            .span("feed.recovery", format!("node {dead} failed"));
        let mut rebuild = Rebuild {
            op: "feed.recovery",
            ..Default::default()
        };
        let moved = {
            let mut st = self.state.lock();
            // connections whose store stage lives on the dead node are
            // suspended (no replication: the dataset partition is gone until
            // re-join) — or ended, when the policy forgoes recovery
            let now = self.cluster.clock().now();
            for seg in st.segments.values_mut() {
                let recover = seg.policy.recover_hard_failure;
                let lost = seg.placement.contains(&dead) && seg.runnable();
                let Some(c) = seg.conn_mut().filter(|_| lost) else {
                    continue;
                };
                (c.state, c.down_since) = match recover {
                    true => (ConnectionState::Suspended, Some(now)),
                    false => (ConnectionState::Ended, None),
                };
                if let Some(job) = seg.job.take() {
                    job.abort();
                }
            }
            // producers with an instance on the dead node: a substitute takes
            // over the dead node's partition slots, and the joint moves there
            // with everything downstream of it
            let mut moves = HashMap::new();
            for seg in st.segments.values() {
                let shares_nodes = match seg.kind {
                    Kind::Collect { .. } => true, // instances may share a node
                    Kind::Compute { .. } => false,
                    _ => continue,
                };
                let substitute = self.pick_substitute(dead, &seg.placement);
                let Some(substitute) = substitute.filter(|_| seg.placement.contains(&dead)) else {
                    continue;
                };
                let swap = |n: &NodeId| if *n == dead { substitute } else { *n };
                let new: Vec<NodeId> = seg.placement.iter().map(swap).collect();
                let new = if shares_nodes { new } else { dedup_nodes(new) };
                moves.insert(seg.outputs[0].clone(), new);
            }
            let moved = moves.len();
            self.move_joints(&mut st, moves, &mut rebuild);
            moved
        };
        self.settle_and_migrate(rebuild);
        recovery_span.finish(&format!("{moved} joints moved"));
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
        let suspended_here = |s: &&Segment| {
            s.state() == Some(ConnectionState::Suspended) && s.placement.contains(&node)
        };
        let here = st.segments.values().filter(suspended_here);
        let keys: Vec<String> = here.map(|s| s.key.clone()).collect();
        for key in keys {
            let c = st.segments.get_mut(&key).and_then(Segment::conn_mut);
            let c = c.expect("a store, collected above");
            if let Some(p) = c.dataset.partition_on(node) {
                let _ = p.recover();
            }
            // if the source joint's segment was also affected, the failure
            // path has rebuilt it already: subscribe wherever it lives now
            c.state = ConnectionState::Active;
            self.respawn(&mut st, "feed.rejoin", &key);
        }
        rejoin_span.finish("rescheduled");
    }

    // -----------------------------------------------------------------------
    // the rebuild path (§6.2.2 / §7.3.5)
    // -----------------------------------------------------------------------

    /// The one rebuild path. Re-place the producer of every joint in `moves`
    /// (joint → new placement) and reschedule every job this affects: the
    /// producers and everything downstream of them. A route rides on its
    /// input joint's nodes, so it — with its out joints and the sinks
    /// subscribed there — moves along. The affected jobs are handed over and
    /// queued in `rebuild` for `settle_and_migrate`, which the caller runs
    /// once the state lock is dropped; their successors start downstream
    /// first, in `compile`'s spawn order.
    fn move_joints(
        &self,
        st: &mut State,
        mut moves: HashMap<String, Vec<NodeId>>,
        rebuild: &mut Rebuild,
    ) {
        // The affected segments, every producer ahead of its consumers: the
        // re-placed producers and the consumers of their joints — and on
        // below a consumer only if it is re-placed itself (a route, or
        // another producer in `moves`); a consumer that stays put keeps its
        // output joints, and everything below it keeps running.
        let moving = |s: &Segment| s.outputs.iter().any(|j| moves.contains_key(j));
        let re_placed = |s: &Segment| moving(s) || matches!(s.kind, Kind::Route(_));
        let mut affected: Vec<String> = Vec::new();
        for seg in st.segments.values() {
            if moving(seg) && !affected.contains(&seg.key) {
                let downstream = st.downstream(&seg.key, re_placed);
                affected.retain(|k| !downstream.contains(k));
                affected.extend(downstream);
            }
        }
        // joint → (old, new) placement, filled in as the walk re-places
        let mut moved: HashMap<String, (Vec<NodeId>, Vec<NodeId>)> = HashMap::new();
        for key in &affected {
            let seg = st.segments.get_mut(key).expect("collected above");
            let input_move = seg.input.as_ref().and_then(|j| moved.get(j).cloned());
            let new = match (&seg.kind, &input_move) {
                (Kind::Route(_), Some((_, new))) => Some(new.clone()),
                _ => seg.outputs.first().and_then(|j| moves.remove(j)),
            };
            if let Some(new) = new {
                self.register_joints(&seg.outputs, &new);
                let old = std::mem::replace(&mut seg.placement, new.clone());
                for joint in &seg.outputs {
                    moved.insert(joint.clone(), (old.clone(), new.clone()));
                }
            }
            if let Some(job) = seg.job.take() {
                // the intake parks its deferred work for the successor; what
                // is already in flight behind it drains through the old job
                job.hand_over();
                // An intake whose in-joint stayed put keeps its placement:
                // wait the predecessor out so its parked state is visible,
                // but nothing needs repartitioning. (A collect has no intake
                // at all; its external sockets survive the swap — the source
                // wire is persistent.)
                let joint = seg.input.clone().unwrap_or_default();
                let repartition = input_move.map(|(old, new)| (joint, seg.sub_key(), old, new));
                rebuild.migrations.push(Migration { job, repartition });
            }
        }
        let vacated = moved.into_iter().map(|(joint, (old, _))| (joint, old));
        rebuild.vacated.extend(vacated);
        // a suspended store stays down until its node re-joins, and then
        // subscribes wherever the joint lives by then
        for key in affected.iter().rev() {
            if st.segments[key].runnable() {
                self.respawn(st, rebuild.op, key);
            }
        }
    }

    /// Wait for handed-over predecessor jobs to fully exit, then repartition
    /// their stranded frames onto the successor partition set. Runs with no
    /// controller lock held: `JobHandle::hand_over` is asynchronous, so
    /// without this settling step a dying intake could park zombie state
    /// *after* the successor's instantiate-time adoption already ran,
    /// orphaning the frames forever.
    fn settle_and_migrate(&self, rebuild: Rebuild) {
        // first make every old job quiescent: no more deposits into the old
        // joint instances, no more late zombie parks
        for m in &rebuild.migrations {
            let _ = m.job.wait();
        }
        for m in rebuild.migrations {
            if let Some((joint_id, prefix, old, new)) = m.repartition {
                self.migrate_partition_state(&joint_id, &prefix, &old, &new);
            }
        }
        // joint instances left behind hold nothing a successor needs any
        // more; retired, a later placement on that node starts from a fresh
        // joint instead of stale subscriptions
        let st = self.state.lock();
        for (joint, old) in rebuild.vacated {
            let current = st.placement_of(&joint).unwrap_or_default();
            self.retire_joints(&[joint], old.iter().filter(|n| !current.contains(n)));
        }
    }

    /// Harvest frames stranded on abandoned partitions of `joint_id` —
    /// parked zombie state first, then whatever is still queued in the old
    /// joint subscription (order preserves the stream: parked frames were
    /// consumed before the queued ones arrived) — and re-park them as
    /// zombie state keyed for the successor partition on its node, where
    /// the successor's late-adoption poll picks them up. Node substitution
    /// after a failure keeps partition indices, so every partition is
    /// skipped there: survivors resume their queue in place.
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
            let labels = &[("joint", joint_id)];
            let migrated = self
                .cluster
                .registry()
                .counter("elastic.frames_migrated", labels);
            migrated.add(moved);
            self.cluster.trace().cluster_log().event(
                "elastic.repartition",
                format!("{joint_id}: {moved} records re-parked for successors"),
            );
        }
    }

    // -----------------------------------------------------------------------
    // elasticity (§7.3.5)
    // -----------------------------------------------------------------------

    /// Change the parallelism of the compute segment publishing `joint_id`
    /// by `delta` instances (elastic scale-out/in). Dependent segments are
    /// rebuilt to follow the joint; once the aborted predecessors have
    /// exited, frames stranded on removed partitions are migrated to their
    /// successors (no-loss scale-in).
    pub fn scale_compute(&self, joint_id: &str, delta: i64) -> IngestResult<usize> {
        let mut rebuild = Rebuild {
            op: "feed.scale",
            ..Default::default()
        };
        let new_n = {
            let mut st = self.state.lock();
            let alive = self.alive_ids();
            let seg = st.segments.get(&format!("compute:{joint_id}"));
            let mut new = seg.map(|s| s.placement.clone()).ok_or_else(|| {
                IngestError::Metadata(format!("no compute segment publishes '{joint_id}'"))
            })?;
            let current = new.len();
            let target = ((current as i64 + delta).max(1) as usize).min(alive.len().max(1));
            if target == current {
                return Ok(target);
            }
            // grow onto alive nodes not yet used, or drop the tail partitions
            let spare: Vec<NodeId> = alive.into_iter().filter(|n| !new.contains(n)).collect();
            new.extend(spare.into_iter().rev());
            new.truncate(target);
            let new_n = new.len();
            let log = self.cluster.trace().cluster_log();
            log.event("feed.scale", format!("{joint_id}: {current} -> {new_n}"));
            let moves = HashMap::from([(joint_id.to_string(), new)]);
            self.move_joints(&mut st, moves, &mut rebuild);
            new_n
        };
        self.settle_and_migrate(rebuild);
        Ok(new_n)
    }

    /// Change the *width* of the collect segment publishing `joint_id` by
    /// `delta` distinct nodes (elastic intake scale-out/in). The number of
    /// collect instances is fixed by the adaptor's constraint (one per
    /// external datasource); scaling redistributes those instances across
    /// more or fewer nodes, with the same move-settle-migrate no-loss
    /// protocol as [`FeedController::scale_compute`].
    pub fn scale_intake(&self, joint_id: &str, delta: i64) -> IngestResult<usize> {
        let mut rebuild = Rebuild {
            op: "feed.scale_intake",
            ..Default::default()
        };
        let target = {
            let mut st = self.state.lock();
            let alive = self.alive_ids();
            let seg = st.segments.get(&format!("collect:{joint_id}"));
            let placement = seg.map(|s| s.placement.clone()).ok_or_else(|| {
                IngestError::Metadata(format!("no collect segment publishes '{joint_id}'"))
            })?;
            let instances = placement.len();
            // keep current nodes for stability, grow with unused alive ones
            let mut nodes = dedup_nodes(placement);
            let current_w = nodes.len();
            let max_w = instances.min(alive.len()).max(1);
            let target = ((current_w as i64 + delta).max(1) as usize).min(max_w);
            if target == current_w {
                return Ok(current_w);
            }
            let spare: Vec<NodeId> = alive.into_iter().filter(|n| !nodes.contains(n)).collect();
            nodes.extend(spare);
            nodes.truncate(target);
            let new: Vec<NodeId> = (0..instances).map(|i| nodes[i % nodes.len()]).collect();
            self.cluster.trace().cluster_log().event(
                "feed.scale_intake",
                format!("{joint_id}: width {current_w} -> {target}"),
            );
            let moves = HashMap::from([(joint_id.to_string(), new)]);
            self.move_joints(&mut st, moves, &mut rebuild);
            target
        };
        self.settle_and_migrate(rebuild);
        Ok(target)
    }

    fn handle_elastic_request(&self, req: &ElasticRequest) {
        // the congested intake names its segment: a connection ("F->D") or
        // a trunk stage ("compute:<joint>", "route:<plan>")
        let resolved = {
            let st = self.state.lock();
            let named = st.segments.get(&req.connection_key);
            let seg = named.or_else(|| st.segments.get(&format!("store:{}", req.connection_key)));
            seg.filter(|s| s.live()).map(|seg| {
                // the compute stage to widen: the congested one itself, else
                // the one feeding the congested intake
                let joint = match seg.kind {
                    Kind::Compute { .. } => Some(seg.outputs[0].clone()),
                    _ => seg.input.clone(),
                };
                // the connections the congested segment feeds
                let fed = st.downstream(&seg.key, |_| true);
                let conns = fed.iter().filter_map(|k| k.strip_prefix("store:"));
                (joint, conns.map(String::from).collect::<Vec<_>>())
            })
        };
        let Some((joint, conns)) = resolved else {
            // a request that names no live connection must not vanish
            // silently: it is a symptom of a key mismatch or a race with
            // disconnect, so count it and log it like any soft failure
            let labels = &[("conn", req.connection_key.as_str())];
            let dropped = self
                .cluster
                .registry()
                .counter("elastic.requests_dropped", labels);
            dropped.inc();
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
            // record the congestion vote for the control loop, under every
            // connection it concerns; the governor folds it into its next
            // sample under hysteresis and cooldown
            let mut gov = self.governor.lock();
            for conn in conns {
                gov.entry(conn).or_default().pending_requests += 1;
            }
        } else if let Some(joint) = joint {
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
        let cfg = &self.config.governor;
        let registry = self.cluster.registry();
        let snap = registry.snapshot();
        let now = self.cluster.clock().now();
        struct TickTarget {
            key: String,
            /// Metric scopes of the whole chain: the `conn` label of every
            /// stage with an intake.
            scopes: Vec<String>,
            /// Nearest compute stage upstream: `(out joint, partitions)`.
            compute: Option<(String, usize)>,
            /// The chain's collect stage: `(root joint, width)`.
            intake: Option<(String, usize)>,
        }
        // collect the per-connection layout under the lock, act after
        // dropping it (scale_* re-take the non-reentrant state lock)
        let (targets, live): (Vec<TickTarget>, HashSet<String>) = {
            let st = self.state.lock();
            let target = |s: &Segment| {
                let chain = st.chain(&s.key);
                let staged = chain.iter().filter(|s| s.input.is_some());
                let compute = chain
                    .iter()
                    .find(|s| matches!(s.kind, Kind::Compute { .. }));
                let collect = chain
                    .iter()
                    .find(|s| matches!(s.kind, Kind::Collect { .. }));
                TickTarget {
                    key: s.conn_key().to_string(),
                    scopes: staged.map(|s| s.scope().to_string()).collect(),
                    compute: compute.map(|s| (s.outputs[0].clone(), s.placement.len())),
                    intake: collect
                        .map(|s| (s.outputs[0].clone(), dedup_nodes(s.placement.clone()).len())),
                }
            };
            let conns = st.connections();
            let active = conns.iter().filter(|(s, _)| s.runnable());
            let live = conns.iter().filter(|(s, _)| s.live());
            (
                active.map(|(s, _)| target(s)).collect(),
                live.map(|(s, _)| s.conn_key().to_string()).collect(),
            )
        };
        // an ended connection takes its control state (and any votes) along
        self.governor.lock().retain(|k, _| live.contains(k));
        for t in targets {
            let (sample, decision) = {
                let mut gov = self.governor.lock();
                let per = gov.entry(t.key.clone()).or_default();
                per.tick(cfg, now, &snap, &t.key, &t.scopes)
            };
            let labels = &[("conn", t.key.as_str())];
            registry.counter("elastic.governor_ticks", labels).inc();
            let export = |name, value| registry.gauge(name, labels).set(value);
            export("elastic.lag_p99_millis", sample.lag_p99_millis);
            export("elastic.backlog_bytes", sample.backlog_bytes);
            if let Some((_, n)) = &t.compute {
                export("elastic.compute_partitions", *n as u64);
            }
            if let Some((_, w)) = &t.intake {
                export("elastic.intake_partitions", *w as u64);
            }
            let delta = match decision {
                ScaleDecision::Hold => continue,
                ScaleDecision::Out => 1i64,
                ScaleDecision::In => -1i64,
            };
            // each dimension moves within its own [min, max] range
            let within = |n: usize, min, max| if delta > 0 { n < max } else { n > min };
            let mut changed = false;
            if let Some((joint, n)) = &t.compute {
                if within(*n, cfg.min_compute, cfg.max_compute) {
                    let scaled = self.scale_compute(joint, delta);
                    changed |= scaled.is_ok_and(|new_n| new_n != *n);
                }
            }
            if let Some((root, w)) = &t.intake {
                if within(*w, cfg.min_intake, cfg.max_intake) {
                    let scaled = self.scale_intake(root, delta);
                    changed |= scaled.is_ok_and(|new_w| new_w != *w);
                }
            }
            if changed {
                let (counter, action) = if delta > 0 {
                    ("elastic.scale_out_total", "scale-out")
                } else {
                    ("elastic.scale_in_total", "scale-in")
                };
                registry.counter(counter, labels).inc();
                let log = self.cluster.trace().cluster_log();
                log.event(
                    "elastic.governor",
                    format!("{}: {action} ({sample})", t.key),
                );
            }
        }
    }
}

/// The ack sender of the chain feeding store segment `store`, held by its
/// depth-1 (adaptor-side) compute segment: follow the unbroken run of
/// compute segments upstream of the store to its head. `None` for raw feeds,
/// for sinks behind a route, and for chains whose root segment was built
/// without at-least-once plumbing.
fn chain_store_ack(st: &State, store: &Segment) -> Option<Arc<StoreAck>> {
    let chain = st.chain(&store.key);
    let computes = chain[1..].iter().map_while(|s| match &s.kind {
        Kind::Compute { store_ack, .. } => Some(store_ack),
        _ => None,
    });
    computes.last()?.clone()
}

impl std::fmt::Debug for FeedController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let segments = self.state.lock().segments.len();
        write!(f, "FeedController({segments} segments)")
    }
}

fn dedup_nodes(mut nodes: Vec<NodeId>) -> Vec<NodeId> {
    let mut seen = HashSet::new();
    nodes.retain(|n| seen.insert(*n));
    nodes
}
