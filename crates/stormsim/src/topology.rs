//! A mini Storm: spouts, bolts and the at-least-once ack machinery.
//!
//! §2.2: Storm runs an arbitrary DAG of user-provided black-box nodes and
//! "deals with the challenges involved in successfully moving data across
//! the DAG in a fault-tolerant manner". The parts that matter for the §7.5
//! comparison are reproduced:
//!
//! * a **spout** pulls tuples from the source and assigns message ids;
//! * **bolts** transform tuples and *ack* (or *fail*) them;
//! * the spout keeps at most `max.spout.pending` tuples in flight — when
//!   acks lag (e.g. a slow store bolt), emission stalls, producing the
//!   throughput oscillations of Fig 7.11;
//! * tuples unacked after the message timeout are replayed.
//!
//! Topologies here are chains (spout → bolt → ... → bolt), which is the
//! shape of the glued ingestion topology; each stage runs `parallelism`
//! worker threads connected by bounded queues.

use asterix_common::socket::Line;
use asterix_common::sync::{thread as sync_thread, Mutex};
use asterix_common::{IngestError, IngestResult, SimClock, SimDuration, SimInstant};
use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A tuple moving through the topology.
#[derive(Debug, Clone)]
pub struct StormTuple {
    /// Spout-assigned message id (anchors the ack tree).
    pub message_id: u64,
    /// Payload (a JSON/ADM line in the glued ingestion topology).
    pub payload: String,
}

/// What a bolt did with a tuple.
#[derive(Debug, Clone)]
pub enum BoltOutcome {
    /// Pass a (possibly transformed) payload downstream.
    Emit(String),
    /// Consume the tuple here (terminal bolt); ack it.
    Ack,
    /// Processing failed; the tuple will be replayed from the spout.
    Fail,
}

/// A processing stage.
pub trait Bolt: Send {
    /// Process one tuple payload.
    fn execute(&mut self, payload: &str) -> BoltOutcome;
}

/// Factory so each parallel executor gets its own bolt instance.
pub type BoltFactory = Box<dyn Fn() -> Box<dyn Bolt> + Send + Sync>;

/// Topology tuning (storm.yaml knobs).
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// `topology.max.spout.pending`.
    pub max_spout_pending: usize,
    /// `topology.message.timeout`: replay unacked tuples after this long.
    pub message_timeout: SimDuration,
    /// Queue capacity between stages (tuples).
    pub queue_capacity: usize,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            max_spout_pending: 1024,
            message_timeout: SimDuration::from_secs(30),
            queue_capacity: 1024,
        }
    }
}

struct AckerState {
    pending: HashMap<u64, (String, SimInstant)>,
}

/// Shared acker: tracks in-flight tuples.
pub struct Acker {
    state: Mutex<AckerState>,
    acked: AtomicU64,
    failed: AtomicU64,
    replayed: AtomicU64,
}

impl Acker {
    fn new() -> Arc<Acker> {
        Arc::new(Acker {
            state: Mutex::new(AckerState {
                pending: HashMap::new(),
            }),
            acked: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
        })
    }

    /// Tuples fully processed.
    pub fn acked(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.acked.load(Ordering::Relaxed)
    }

    /// Tuples failed at some bolt.
    pub fn failed(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.failed.load(Ordering::Relaxed)
    }

    /// Tuples replayed after timeout or failure.
    pub fn replayed(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.replayed.load(Ordering::Relaxed)
    }

    /// Tuples currently in flight.
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }
}

/// A running topology.
pub struct Topology {
    acker: Arc<Acker>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    emitted: Arc<AtomicU64>,
    spout_stalled: Arc<AtomicU64>,
}

impl Topology {
    /// Build and start a chain topology: `spout → bolts[0] → bolts[1] → ...`.
    /// The spout reads the lines of `source` (an attached socket's, or
    /// [`closed_source`]'s) until it is disconnected and drained. Each bolt
    /// stage runs `parallelism[i]` executors.
    pub fn run_chain(
        config: TopologyConfig,
        clock: SimClock,
        source: Receiver<Line>,
        bolts: Vec<(BoltFactory, usize)>,
    ) -> IngestResult<Topology> {
        if bolts.is_empty() {
            return Err(IngestError::Config(
                "topology needs at least one bolt".into(),
            ));
        }
        let acker = Acker::new();
        let stop = Arc::new(AtomicBool::new(false));
        let emitted = Arc::new(AtomicU64::new(0));
        let spout_stalled = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();

        // stage queues: spout → q0 → bolt0 → q1 → bolt1 ...
        let mut queues: Vec<(Sender<StormTuple>, Receiver<StormTuple>)> = Vec::new();
        for _ in 0..bolts.len() {
            queues.push(bounded(config.queue_capacity));
        }
        // replay queue back to the spout loop
        let (replay_tx, replay_rx) = bounded::<StormTuple>(config.queue_capacity);

        // fail channel: bolts report failures to the acker loop
        let (fail_tx, fail_rx) = crossbeam_channel::unbounded::<u64>();

        // spout thread
        {
            let first = queues[0].0.clone();
            let acker = Arc::clone(&acker);
            let stop = Arc::clone(&stop);
            let clock2 = clock.clone();
            let emitted2 = Arc::clone(&emitted);
            let stalled = Arc::clone(&spout_stalled);
            let cfg = config.clone();
            threads.push(
                sync_thread::spawn_named("storm-spout", move || {
                    let mut next_id = 0u64;
                    loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        // process failures → replay
                        while let Ok(failed_id) = fail_rx.try_recv() {
                            let tuple = {
                                let st = &mut *acker.state.lock();
                                st.pending.get(&failed_id).map(|(p, _)| StormTuple {
                                    message_id: failed_id,
                                    payload: p.clone(),
                                })
                            };
                            if let Some(t) = tuple {
                                acker.replayed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                                let _ = replay_tx.try_send(t);
                            }
                        }
                        // timeout replays
                        let now = clock2.now();
                        let timed_out: Vec<StormTuple> = {
                            let st = &mut *acker.state.lock();
                            let mut out = Vec::new();
                            for (id, (p, deadline)) in st.pending.iter_mut() {
                                if now.since(*deadline) >= cfg.message_timeout {
                                    *deadline = now;
                                    out.push(StormTuple {
                                        message_id: *id,
                                        payload: p.clone(),
                                    });
                                }
                            }
                            out
                        };
                        for t in timed_out {
                            acker.replayed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                            if first.send(t).is_err() {
                                return;
                            }
                        }
                        // replays first
                        if let Ok(t) = replay_rx.try_recv() {
                            if first.send(t).is_err() {
                                return;
                            }
                            continue;
                        }
                        // max.spout.pending gate
                        if acker.pending() >= cfg.max_spout_pending {
                            stalled.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            continue;
                        }
                        match source.try_recv() {
                            Ok(Line { text: payload, .. }) => {
                                let id = next_id;
                                next_id += 1;
                                {
                                    let st = &mut *acker.state.lock();
                                    st.pending.insert(id, (payload.clone(), clock2.now()));
                                }
                                emitted2.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                                if first
                                    .send(StormTuple {
                                        message_id: id,
                                        payload,
                                    })
                                    .is_err()
                                {
                                    return;
                                }
                            }
                            Err(TryRecvError::Disconnected) if acker.pending() == 0 => {
                                return; // drop senders → bolts drain out
                            }
                            Err(_) => std::thread::sleep(std::time::Duration::from_micros(200)),
                        }
                    }
                })
                .map_err(|e| IngestError::Plan(format!("spawn spout: {e}")))?,
            );
        }

        // bolt stages
        for (i, (factory, parallelism)) in bolts.iter().enumerate() {
            let rx = queues[i].1.clone();
            let next_tx = queues.get(i + 1).map(|(tx, _)| tx.clone());
            for w in 0..*parallelism {
                let mut bolt = factory();
                let rx = rx.clone();
                let next_tx = next_tx.clone();
                let acker = Arc::clone(&acker);
                let stop = Arc::clone(&stop);
                let fail_tx = fail_tx.clone();
                threads.push(
                    sync_thread::spawn_named(format!("storm-bolt{i}-{w}"), move || loop {
                        if stop.load(Ordering::SeqCst) {
                            return;
                        }
                        match rx.recv_timeout(std::time::Duration::from_millis(20)) {
                            Ok(tuple) => match bolt.execute(&tuple.payload) {
                                BoltOutcome::Emit(payload) => {
                                    if let Some(tx) = &next_tx {
                                        let _ = tx.send(StormTuple {
                                            message_id: tuple.message_id,
                                            payload,
                                        });
                                    } else {
                                        // terminal emit = ack
                                        let st = &mut *acker.state.lock();
                                        if st.pending.remove(&tuple.message_id).is_some() {
                                            // relaxed-ok: stat
                                            acker.acked.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                                BoltOutcome::Ack => {
                                    let st = &mut *acker.state.lock();
                                    if st.pending.remove(&tuple.message_id).is_some() {
                                        // relaxed-ok: stat
                                        acker.acked.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                BoltOutcome::Fail => {
                                    acker.failed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                                    let _ = fail_tx.send(tuple.message_id);
                                }
                            },
                            Err(RecvTimeoutError::Timeout) => continue,
                            Err(RecvTimeoutError::Disconnected) => return,
                        }
                    })
                    .map_err(|e| IngestError::Plan(format!("spawn bolt: {e}")))?,
                );
            }
        }

        Ok(Topology {
            acker,
            stop,
            threads,
            emitted,
            spout_stalled,
        })
    }

    /// The acker (progress counters).
    pub fn acker(&self) -> &Arc<Acker> {
        &self.acker
    }

    /// Tuples emitted by the spout (excluding replays).
    pub fn emitted(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.emitted.load(Ordering::Relaxed)
    }

    /// Times the spout stalled on `max.spout.pending`.
    pub fn spout_stalls(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.spout_stalled.load(Ordering::Relaxed)
    }

    /// The stall counter itself (readable after `join` consumes the
    /// topology).
    pub fn stall_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.spout_stalled)
    }

    /// Wait for the topology to finish (source exhausted and drained).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Kill the topology.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Is any executor still running?
    pub fn is_running(&self) -> bool {
        self.threads.iter().any(|t| !t.is_finished())
    }
}

/// A source that has finished: its channel holds `payloads` and has no
/// sender left (tests and batch workloads).
pub fn closed_source(payloads: Vec<String>) -> Receiver<Line> {
    let (tx, rx) = crossbeam_channel::unbounded();
    for text in payloads {
        tx.send(Line { text, gen_at: None }).expect("receiver held");
    }
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountBolt(Arc<AtomicU64>);
    impl Bolt for CountBolt {
        fn execute(&mut self, _payload: &str) -> BoltOutcome {
            self.0.fetch_add(1, Ordering::Relaxed);
            BoltOutcome::Ack
        }
    }

    fn payloads(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("p{i}")).collect()
    }

    #[test]
    fn chain_processes_and_acks_everything() {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let topo = Topology::run_chain(
            TopologyConfig::default(),
            SimClock::fast(),
            closed_source(payloads(500)),
            vec![(
                Box::new(move || Box::new(CountBolt(Arc::clone(&c2))) as Box<dyn Bolt>),
                2,
            )],
        )
        .unwrap();
        let acker = Arc::clone(topo.acker());
        topo.join();
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(acker.acked(), 500);
        assert_eq!(acker.pending(), 0);
    }

    #[test]
    fn two_stage_chain_transforms_then_acks() {
        struct UpperBolt;
        impl Bolt for UpperBolt {
            fn execute(&mut self, payload: &str) -> BoltOutcome {
                BoltOutcome::Emit(payload.to_uppercase())
            }
        }
        let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let s2 = Arc::clone(&seen);
        struct SinkBolt(Arc<Mutex<Vec<String>>>);
        impl Bolt for SinkBolt {
            fn execute(&mut self, payload: &str) -> BoltOutcome {
                self.0.lock().push(payload.to_string());
                BoltOutcome::Ack
            }
        }
        let topo = Topology::run_chain(
            TopologyConfig::default(),
            SimClock::fast(),
            closed_source(payloads(50)),
            vec![
                (Box::new(|| Box::new(UpperBolt) as Box<dyn Bolt>), 1),
                (
                    Box::new(move || Box::new(SinkBolt(Arc::clone(&s2))) as Box<dyn Bolt>),
                    1,
                ),
            ],
        )
        .unwrap();
        topo.join();
        let got = seen.lock();
        assert_eq!(got.len(), 50);
        assert!(got.iter().all(|p| p.starts_with('P')));
    }

    #[test]
    fn failed_tuples_are_replayed() {
        // fail each tuple exactly once, then ack
        struct FlakyBolt {
            seen: std::collections::HashSet<String>,
        }
        impl Bolt for FlakyBolt {
            fn execute(&mut self, payload: &str) -> BoltOutcome {
                if self.seen.insert(payload.to_string()) {
                    BoltOutcome::Fail
                } else {
                    BoltOutcome::Ack
                }
            }
        }
        let topo = Topology::run_chain(
            TopologyConfig::default(),
            SimClock::fast(),
            closed_source(payloads(20)),
            vec![(
                Box::new(|| {
                    Box::new(FlakyBolt {
                        seen: std::collections::HashSet::new(),
                    }) as Box<dyn Bolt>
                }),
                1, // single executor so every tuple meets the same bolt
            )],
        )
        .unwrap();
        let acker = Arc::clone(topo.acker());
        topo.join();
        assert_eq!(acker.acked(), 20);
        assert_eq!(acker.failed(), 20);
        assert!(acker.replayed() >= 20);
    }

    #[test]
    fn max_spout_pending_stalls_emission() {
        struct SlowBolt;
        impl Bolt for SlowBolt {
            fn execute(&mut self, _payload: &str) -> BoltOutcome {
                std::thread::sleep(std::time::Duration::from_micros(500));
                BoltOutcome::Ack
            }
        }
        let topo = Topology::run_chain(
            TopologyConfig {
                max_spout_pending: 4,
                ..TopologyConfig::default()
            },
            SimClock::fast(),
            closed_source(payloads(200)),
            vec![(Box::new(|| Box::new(SlowBolt) as Box<dyn Bolt>), 1)],
        )
        .unwrap();
        let acker = Arc::clone(topo.acker());
        let stalls_handle = Arc::clone(&topo.spout_stalled);
        topo.join();
        assert_eq!(acker.acked(), 200);
        assert!(
            stalls_handle.load(Ordering::Relaxed) > 0,
            "spout should have stalled on pending window"
        );
    }

    #[test]
    fn kill_stops_promptly() {
        let (tx, rx) = crossbeam_channel::unbounded::<Line>();
        let topo = Topology::run_chain(
            TopologyConfig::default(),
            SimClock::fast(),
            rx,
            vec![(
                Box::new(|| Box::new(CountBolt(Arc::new(AtomicU64::new(0)))) as Box<dyn Bolt>),
                1,
            )],
        )
        .unwrap();
        let (text, gen_at) = ("x".into(), None);
        tx.send(Line { text, gen_at }).unwrap();
        assert!(topo.is_running());
        topo.kill();
        drop(tx);
    }

    #[test]
    fn empty_bolt_chain_rejected() {
        assert!(Topology::run_chain(
            TopologyConfig::default(),
            SimClock::fast(),
            closed_source(vec![]),
            vec![],
        )
        .is_err());
    }
}
