//! The simulated shared-nothing cluster.
//!
//! §3.2.1: a Hyracks cluster is "managed by a Cluster Controller process";
//! each worker runs a "Node Controller" that "reports on its health (e.g.,
//! resource usage levels) via a heartbeat mechanism". §6.2.1: "A failure in
//! receiving a heartbeat for a configurable threshold duration is assumed by
//! the CC as a node failure", upon which a cluster event is dispatched to
//! subscribers (the Central Feed Manager among them).
//!
//! Here a *node* is a logical container: an alive flag, a set of running
//! task threads, node-local services and a heartbeat thread. Killing a node
//! flips the flag — its heartbeats cease, its tasks exit without closing
//! their outputs, and after the detection threshold the monitor emits
//! [`ClusterEvent::NodeFailed`].

use crate::scheduler::Scheduler;
use crate::services::ServiceMap;
use asterix_common::sync::{handoff, thread as sync_thread, Mutex, RwLock, WakeEvent, WakeSignal};
use asterix_common::{
    FaultKind, FaultPlan, MetricsRegistry, NodeId, SimClock, SimDuration, SimInstant, TraceHub,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Cluster-membership events (§6.2.1's "cluster-events").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A node joined (or re-joined) the cluster.
    NodeJoined(NodeId),
    /// The CC stopped receiving heartbeats from a node.
    NodeFailed(NodeId),
}

/// Timing knobs for heartbeat-based failure detection, in sim-time.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// How often each Node Controller heartbeats.
    pub heartbeat_interval: SimDuration,
    /// Missing heartbeats for this long ⇒ the node is declared failed.
    pub failure_threshold: SimDuration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            heartbeat_interval: SimDuration::from_millis(250),
            failure_threshold: SimDuration::from_millis(1000),
        }
    }
}

pub(crate) struct NodeInner {
    pub id: NodeId,
    pub alive: AtomicBool,
    pub services: ServiceMap,
    last_heartbeat: Mutex<SimInstant>,
    /// set when the failure monitor has already reported this node
    reported_failed: AtomicBool,
}

/// Handle to one node of the cluster.
#[derive(Clone)]
pub struct NodeHandle {
    pub(crate) inner: Arc<NodeInner>,
}

impl NodeHandle {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// Is the node up?
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::SeqCst)
    }

    /// Node-local services (the per-node Feed Manager lives here).
    pub fn services(&self) -> &ServiceMap {
        &self.inner.services
    }

    /// Flip the node dead; its tasks observe the flag on their next slice.
    pub(crate) fn mark_dead(&self) {
        self.inner.alive.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for NodeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "NodeHandle({}, alive={})",
            self.inner.id,
            self.is_alive()
        )
    }
}

struct ClusterInner {
    clock: SimClock,
    config: ClusterConfig,
    nodes: RwLock<Vec<NodeHandle>>,
    /// Bounded event channels, id-tagged so senders whose receiver has
    /// been dropped can be pruned after an emit.
    subscribers: Mutex<Vec<(u64, handoff::Sender<ClusterEvent>)>>,
    next_sub: AtomicU64,
    registry: MetricsRegistry,
    trace: TraceHub,
    scheduler: Scheduler,
    /// Raised by [`Cluster::shutdown`]; the control-plane threads wait on it
    /// between ticks, so they exit at once instead of after their interval.
    shutdown: WakeSignal,
}

impl ClusterInner {
    /// Wait one control-loop interval of sim-time; `false` once the cluster
    /// is shut down.
    fn tick(&self, interval: SimDuration) -> bool {
        self.shutdown.wait_timeout(self.clock.to_real(interval)) != WakeEvent::Shutdown
    }
}

/// Capacity of each subscriber's event queue. Membership events are rare
/// (joins, failures, revivals), so a small bound suffices; a subscriber
/// that stops draining stalls `emit`, not the whole cluster lock.
const SUBSCRIBER_QUEUE_CAP: usize = 256;

/// The whole simulated cluster: Cluster Controller plus its nodes.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Start a cluster of `n_nodes` with the given clock and config, on a
    /// worker pool sized by [`Scheduler::default_workers`].
    pub fn start(n_nodes: usize, clock: SimClock, config: ClusterConfig) -> Self {
        Cluster::start_with_workers(n_nodes, clock, config, Scheduler::default_workers())
    }

    /// Start a cluster whose shared task scheduler uses exactly `workers`
    /// worker threads (used by scaling benchmarks).
    pub fn start_with_workers(
        n_nodes: usize,
        clock: SimClock,
        config: ClusterConfig,
        workers: usize,
    ) -> Self {
        let trace = TraceHub::new(clock.clone(), 256);
        let registry = MetricsRegistry::new();
        let scheduler = Scheduler::new(workers, &registry);
        let cluster = Cluster {
            inner: Arc::new(ClusterInner {
                clock,
                config,
                nodes: RwLock::new(Vec::new()),
                subscribers: Mutex::new(Vec::new()),
                next_sub: AtomicU64::new(0),
                registry,
                trace,
                scheduler,
                shutdown: WakeSignal::new(),
            }),
        };
        for _ in 0..n_nodes {
            cluster.add_node();
        }
        cluster.spawn_monitor();
        cluster
    }

    /// Start with default config and a fast clock — the common test setup.
    pub fn start_default(n_nodes: usize) -> Self {
        Cluster::start(n_nodes, SimClock::fast(), ClusterConfig::default())
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.inner.clock
    }

    /// The cluster-wide metrics registry. Every layer — executor, feed
    /// operators, flow controllers, storage partitions — registers its
    /// instruments here, so one [`MetricsRegistry::snapshot`] observes the
    /// whole pipeline. This handle is *the* way to reach metrics; cheap to
    /// clone (all clones share the same instrument table).
    pub fn registry(&self) -> MetricsRegistry {
        self.inner.registry.clone()
    }

    /// The cluster's trace hub: per-node ring-buffer logs of structural
    /// events (feed connects, recoveries, compactions).
    pub fn trace(&self) -> TraceHub {
        self.inner.trace.clone()
    }

    /// The cluster-wide work-stealing task scheduler. All cooperative
    /// operator tasks of every job run on this shared worker pool, so the
    /// number of OS threads is fixed regardless of how many feeds run.
    pub fn scheduler(&self) -> Scheduler {
        self.inner.scheduler.clone()
    }

    /// Spawn a background reporter that prints a metrics-snapshot summary
    /// to the console every `every` sim-duration until shutdown.
    pub fn spawn_console_reporter(&self, every: SimDuration) {
        let inner = Arc::clone(&self.inner);
        sync_thread::spawn_named("cc-metrics-reporter", move || {
            while inner.tick(every) {
                let snap = inner.registry.snapshot_at(&inner.clock);
                if !snap.is_empty() {
                    println!("{}", snap.console_summary());
                }
            }
        })
        .expect("spawn console reporter");
    }

    /// Add a node; it begins heartbeating immediately. Returns its handle.
    pub fn add_node(&self) -> NodeHandle {
        let mut nodes = self.inner.nodes.write();
        let id = NodeId(nodes.len() as u64);
        let handle = NodeHandle {
            inner: Arc::new(NodeInner {
                id,
                alive: AtomicBool::new(true),
                services: ServiceMap::new(),
                last_heartbeat: Mutex::new(self.inner.clock.now()),
                reported_failed: AtomicBool::new(false),
            }),
        };
        nodes.push(handle.clone());
        drop(nodes);
        self.spawn_heartbeat(handle.clone());
        self.emit(ClusterEvent::NodeJoined(id));
        handle
    }

    /// Revive a previously failed node: it re-joins the cluster under its
    /// old id (the paper's store-failure recovery path, §6.2.3).
    pub fn revive_node(&self, id: NodeId) -> Option<NodeHandle> {
        let handle = self.node(id)?;
        if handle.is_alive() {
            return Some(handle);
        }
        handle.inner.alive.store(true, Ordering::SeqCst);
        handle.inner.reported_failed.store(false, Ordering::SeqCst);
        *handle.inner.last_heartbeat.lock() = self.inner.clock.now();
        self.spawn_heartbeat(handle.clone());
        self.emit(ClusterEvent::NodeJoined(id));
        Some(handle)
    }

    /// All nodes ever registered (alive or failed).
    pub fn nodes(&self) -> Vec<NodeHandle> {
        self.inner.nodes.read().clone()
    }

    /// Alive nodes only.
    pub fn alive_nodes(&self) -> Vec<NodeHandle> {
        self.inner
            .nodes
            .read()
            .iter()
            .filter(|n| n.is_alive())
            .cloned()
            .collect()
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> Option<NodeHandle> {
        self.inner
            .nodes
            .read()
            .iter()
            .find(|n| n.id() == id)
            .cloned()
    }

    /// Kill a node: a hard failure. Heartbeats stop; tasks scheduled on the
    /// node observe the dead flag and exit abruptly; the failure monitor
    /// reports [`ClusterEvent::NodeFailed`] after the detection threshold.
    pub fn kill_node(&self, id: NodeId) {
        if let Some(n) = self.node(id) {
            n.mark_dead();
        }
    }

    /// Arm a chaos schedule: a poller thread watches `plan` and executes
    /// its due node events — [`FaultKind::KillNode`] hard-kills the victim,
    /// [`FaultKind::ReviveNode`] re-joins it. The record counter that makes
    /// events due is advanced elsewhere (by the chaos adaptor wrapper), so
    /// the poll loop itself is cheap. The thread exits with the cluster or
    /// once every node event in the plan has fired.
    pub fn arm_fault_plan(&self, plan: Arc<FaultPlan>) {
        let cluster = self.clone();
        let inner = Arc::clone(&self.inner);
        let remaining = plan
            .events()
            .iter()
            .filter(|e| e.kind.is_node_event())
            .count();
        if remaining == 0 {
            return;
        }
        sync_thread::spawn_named("cc-chaos", move || {
            let mut remaining = remaining;
            while remaining > 0 {
                for ev in plan.take_due(FaultKind::is_node_event) {
                    match ev.kind {
                        FaultKind::KillNode(n) => cluster.kill_node(n),
                        FaultKind::ReviveNode(n) => {
                            cluster.revive_node(n);
                        }
                        _ => unreachable!("filtered to node events"),
                    }
                    remaining -= 1;
                }
                let poll = std::time::Duration::from_millis(2);
                if inner.shutdown.wait_timeout(poll) == WakeEvent::Shutdown {
                    return;
                }
            }
        })
        .expect("spawn chaos poller");
    }

    /// Subscribe to cluster events over a bounded channel. A subscriber
    /// that never drains its queue eventually stalls event emission — drain
    /// promptly or drop the receiver to unsubscribe.
    pub fn subscribe(&self) -> handoff::Receiver<ClusterEvent> {
        let (tx, rx) = handoff::bounded(SUBSCRIBER_QUEUE_CAP);
        // relaxed-ok: unique-id allocation; the id is published via the
        // subscribers lock below
        let id = self.inner.next_sub.fetch_add(1, Ordering::Relaxed);
        self.inner.subscribers.lock().push((id, tx));
        rx
    }

    /// Tear the cluster down (stops monitor, heartbeat and worker threads).
    pub fn shutdown(&self) {
        self.inner.shutdown.shutdown();
        for n in self.nodes() {
            n.mark_dead();
        }
        self.inner.scheduler.shutdown();
    }

    fn emit(&self, event: ClusterEvent) {
        // snapshot the subscriber list, then send *outside* the lock so a
        // slow subscriber cannot wedge every thread that touches the list
        let subs: Vec<(u64, handoff::Sender<ClusterEvent>)> = self.inner.subscribers.lock().clone();
        let mut gone = Vec::new();
        for (id, tx) in &subs {
            if tx.send(event.clone()).is_err() {
                gone.push(*id);
            }
        }
        if !gone.is_empty() {
            self.inner
                .subscribers
                .lock()
                .retain(|(id, _)| !gone.contains(id));
        }
    }

    fn spawn_heartbeat(&self, node: NodeHandle) {
        let inner = Arc::clone(&self.inner);
        sync_thread::spawn_named(format!("hb-{}", node.id()), move || {
            while node.is_alive() {
                *node.inner.last_heartbeat.lock() = inner.clock.now();
                if !inner.tick(inner.config.heartbeat_interval) {
                    return;
                }
            }
        })
        .expect("spawn heartbeat thread");
    }

    fn spawn_monitor(&self) {
        let inner = Arc::clone(&self.inner);
        let cluster = self.clone();
        sync_thread::spawn_named("cc-failure-monitor", move || {
            while inner.tick(inner.config.heartbeat_interval) {
                let now = inner.clock.now();
                let nodes = inner.nodes.read().clone();
                for n in nodes {
                    if n.inner.reported_failed.load(Ordering::SeqCst) {
                        continue;
                    }
                    let last = *n.inner.last_heartbeat.lock();
                    let silent = now.since(last);
                    if silent >= inner.config.failure_threshold
                        && n.inner
                            .reported_failed
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                    {
                        // the node may still think it's alive (e.g. a
                        // network partition); declare it dead anyway
                        n.mark_dead();
                        cluster.emit(ClusterEvent::NodeFailed(n.id()));
                    }
                }
            }
        })
        .expect("spawn failure monitor");
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Cluster({} nodes, {} alive)",
            self.inner.nodes.read().len(),
            self.alive_nodes().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nodes_join_with_sequential_ids() {
        let c = Cluster::start_default(3);
        let ids: Vec<_> = c.nodes().iter().map(|n| n.id()).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(c.alive_nodes().len(), 3);
        c.shutdown();
    }

    #[test]
    fn subscriber_sees_joins() {
        let c = Cluster::start_default(0);
        let rx = c.subscribe();
        let n = c.add_node();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap(),
            ClusterEvent::NodeJoined(n.id())
        );
        c.shutdown();
    }

    #[test]
    fn killed_node_is_detected_by_heartbeat_loss() {
        // generous real-time margins: heartbeats every 10 ms, detection
        // after 60 ms — robust against scheduler noise on loaded hosts
        // heartbeat every 10 ms real, detection after 300 ms real — wide
        // margins against scheduler starvation on loaded hosts
        let c = Cluster::start(
            2,
            SimClock::with_scale(100.0),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(100),
                failure_threshold: SimDuration::from_millis(3000),
            },
        );
        let rx = c.subscribe();
        c.kill_node(NodeId(1));
        assert!(!c.node(NodeId(1)).unwrap().is_alive());
        // the failure event for the killed node arrives after the threshold
        // (a starved healthy node may rarely be reported too; tolerate it)
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(ClusterEvent::NodeFailed(NodeId(1))) => break,
                Ok(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "never saw NodeFailed(NC1)"
                    );
                }
                Err(e) => panic!("no failure event: {e:?}"),
            }
        }
        assert!(!c.alive_nodes().iter().any(|n| n.id() == NodeId(1)));
        c.shutdown();
    }

    #[test]
    fn healthy_nodes_are_not_reported_failed() {
        // heartbeat every 10 ms real, threshold 300 ms real: even heavy
        // scheduler starvation on a loaded host stays under the threshold
        let c = Cluster::start(
            1,
            SimClock::with_scale(100.0),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(100),
                failure_threshold: SimDuration::from_millis(3000),
            },
        );
        let rx = c.subscribe();
        // wait several heartbeat periods of real time
        std::thread::sleep(Duration::from_millis(100));
        assert!(rx.try_recv().is_none(), "no spurious failure events");
        assert!(c.node(NodeId(0)).unwrap().is_alive());
        c.shutdown();
    }

    #[test]
    fn revive_rejoins_under_same_id() {
        let c = Cluster::start(
            2,
            SimClock::with_scale(100.0),
            ClusterConfig {
                heartbeat_interval: SimDuration::from_millis(100),
                failure_threshold: SimDuration::from_millis(600),
            },
        );
        let rx = c.subscribe();
        c.kill_node(NodeId(0));
        // wait for the failure report
        loop {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                ClusterEvent::NodeFailed(id) => {
                    assert_eq!(id, NodeId(0));
                    break;
                }
                _ => continue,
            }
        }
        let n = c.revive_node(NodeId(0)).unwrap();
        assert!(n.is_alive());
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap(),
            ClusterEvent::NodeJoined(NodeId(0))
        );
        assert_eq!(c.alive_nodes().len(), 2);
        c.shutdown();
    }

    #[test]
    fn armed_fault_plan_kills_and_revives_on_schedule() {
        use asterix_common::fault::FaultEvent;
        let c = Cluster::start_default(3);
        let plan = Arc::new(FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at_record: 100,
                    kind: FaultKind::KillNode(NodeId(2)),
                },
                FaultEvent {
                    at_record: 500,
                    kind: FaultKind::ReviveNode(NodeId(2)),
                },
            ],
        ));
        c.arm_fault_plan(Arc::clone(&plan));
        std::thread::sleep(Duration::from_millis(30));
        assert!(c.node(NodeId(2)).unwrap().is_alive(), "nothing due yet");
        plan.tick_records(100);
        let t0 = std::time::Instant::now();
        while c.node(NodeId(2)).unwrap().is_alive() {
            assert!(t0.elapsed() < Duration::from_secs(5), "kill never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        plan.tick_records(400);
        let t0 = std::time::Instant::now();
        while !c.node(NodeId(2)).unwrap().is_alive() {
            assert!(t0.elapsed() < Duration::from_secs(5), "revive never fired");
            std::thread::sleep(Duration::from_millis(2));
        }
        c.shutdown();
    }

    #[test]
    fn registry_and_trace_are_cluster_wide() {
        let c = Cluster::start_default(2);
        c.registry().counter("test.count", &[]).add(3);
        // every clone observes the same instruments
        assert_eq!(c.registry().snapshot().counter("test.count"), 3);
        c.trace().cluster_log().event("test.event", "hello");
        assert_eq!(c.trace().recent().len(), 1);
        c.shutdown();
    }

    #[test]
    fn revive_unknown_node_is_none() {
        let c = Cluster::start_default(1);
        assert!(c.revive_node(NodeId(42)).is_none());
        c.shutdown();
    }

    #[test]
    fn services_are_per_node() {
        let c = Cluster::start_default(2);
        #[derive(Debug)]
        struct S(u32);
        c.node(NodeId(0)).unwrap().services().put(Arc::new(S(1)));
        assert!(c.node(NodeId(1)).unwrap().services().get::<S>().is_none());
        assert_eq!(
            c.node(NodeId(0)).unwrap().services().get::<S>().unwrap().0,
            1
        );
        c.shutdown();
    }
}
