//! TweetGen instances and the socket-style handshake.
//!
//! An instance is bound to an address string ("10.1.0.1:9000" style) in a
//! process-global registry — the simulation's network. A receiver (the feed
//! adaptor) performs the initial handshake with [`connect`]; generation
//! starts at that moment and tweets are *pushed* at the pattern's rate
//! regardless of whether the receiver keeps up. When the receiver's buffer
//! (the socket) is full, further tweets are counted as dropped-on-the-wire —
//! the external source "continues to send data irrespective of any failures
//! that have occurred inside the data management system" (§1.1.4).
//!
//! The socket outlives any single consumer: a receiver that goes away (a
//! collect job being rebuilt during an elastic repartition) leaves the
//! buffer and the generator's position intact, and the next handshake
//! resumes the stream rather than restarting the pattern.

use crate::gen::TweetFactory;
use crate::pattern::PatternDescriptor;
use asterix_common::sync::{thread as sync_thread, Mutex};
use asterix_common::{IngestError, IngestResult, SimClock, SimDuration, SimInstant};
use crossbeam_channel::{Receiver, Sender, TrySendError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What the pusher calls after putting a tick's tweets on the wire: a
/// receiver that parks while the wire is empty is woken by it instead of
/// polling the wire on a timer.
pub type WireWake = Arc<dyn Fn() + Send + Sync>;

/// One tweet on the wire: the JSON body plus the sim-instant it was
/// generated at the source. The generation stamp rides with the record all
/// the way to durable storage, where the store derives the end-to-end
/// *ingestion lag* metric from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampedTweet {
    /// Sim-time the generator emitted this tweet.
    pub gen_at: SimInstant,
    /// The tweet body (JSON text).
    pub json: String,
}

/// Configuration of one TweetGen instance.
#[derive(Debug, Clone)]
pub struct TweetGenConfig {
    /// Address to bind in the registry ("host:port").
    pub addr: String,
    /// Instance number (scopes the tweet id space).
    pub instance: u32,
    /// RNG seed.
    pub seed: u64,
    /// The generation pattern.
    pub pattern: PatternDescriptor,
    /// Capacity of the push channel (the "socket buffer"), in tweets.
    pub socket_buffer: usize,
    /// Generator tick (how often owed tweets are emitted).
    pub tick: SimDuration,
}

impl TweetGenConfig {
    /// Sensible defaults for an instance at `addr` with a pattern.
    pub fn new(addr: impl Into<String>, instance: u32, pattern: PatternDescriptor) -> Self {
        TweetGenConfig {
            addr: addr.into(),
            instance,
            seed: 0xA57E41D,
            pattern,
            socket_buffer: 4096,
            tick: SimDuration::from_millis(100),
        }
    }
}

struct Binding {
    config: TweetGenConfig,
    clock: SimClock,
    running: Arc<AtomicBool>,
    generated: Arc<AtomicU64>,
    wire_drops: Arc<AtomicU64>,
    finished: Arc<AtomicBool>,
    /// The persistent "socket": created on the first handshake, shared by
    /// every later one. A receiver that disconnects (e.g. a collect job
    /// being rebuilt during an intake scale) does not tear the wire down —
    /// buffered tweets wait in the socket buffer and the next [`connect`]
    /// resumes the same stream where the previous consumer left off.
    wire: Mutex<Option<Receiver<StampedTweet>>>,
    /// The current receiver's wake hook; a later handshake replaces it.
    wake: Mutex<Option<WireWake>>,
}

static REGISTRY: Mutex<Option<HashMap<String, Arc<Binding>>>> = Mutex::new(None);

/// A TweetGen instance, bound to its address until dropped or stopped.
pub struct TweetGen {
    addr: String,
    running: Arc<AtomicBool>,
    generated: Arc<AtomicU64>,
    wire_drops: Arc<AtomicU64>,
    finished: Arc<AtomicBool>,
}

impl TweetGen {
    /// Bind an instance at `config.addr`. Errors if the address is taken.
    pub fn bind(config: TweetGenConfig, clock: SimClock) -> IngestResult<TweetGen> {
        let mut reg = REGISTRY.lock();
        let map = reg.get_or_insert_with(HashMap::new);
        if map.contains_key(&config.addr) {
            return Err(IngestError::Config(format!(
                "address {} already bound",
                config.addr
            )));
        }
        let running = Arc::new(AtomicBool::new(true));
        let generated = Arc::new(AtomicU64::new(0));
        let wire_drops = Arc::new(AtomicU64::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        let binding = Arc::new(Binding {
            config: config.clone(),
            clock,
            running: Arc::clone(&running),
            generated: Arc::clone(&generated),
            wire_drops: Arc::clone(&wire_drops),
            finished: Arc::clone(&finished),
            wire: Mutex::new(None),
            wake: Mutex::new(None),
        });
        map.insert(config.addr.clone(), binding);
        Ok(TweetGen {
            addr: config.addr,
            running,
            generated,
            wire_drops,
            finished,
        })
    }

    /// Address the instance is bound to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Tweets generated so far (across all its connections).
    pub fn generated(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.generated.load(Ordering::Relaxed)
    }

    /// Tweets dropped because the receiver's socket buffer was full.
    pub fn wire_drops(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.wire_drops.load(Ordering::Relaxed)
    }

    /// True once the generator has left its loop: the pattern ran out (every
    /// tweet of `total_tweets()` was generated), the instance was stopped or
    /// the wire closed. `generated()` does not move after that.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::SeqCst)
    }

    /// Stop generating and unbind.
    pub fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(map) = REGISTRY.lock().as_mut() {
            map.remove(&self.addr);
        }
    }
}

impl Drop for TweetGen {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Handshake with the instance bound at `addr`. Generation starts at the
/// *first* handshake; the returned receiver yields generation-stamped JSON
/// tweets until the pattern completes (channel closes) or the instance is
/// stopped. A later handshake — e.g. a rebuilt collect job during an
/// elastic intake repartition — resumes the same stream: the socket buffer
/// and the generator's position survive the consumer swap, so nothing is
/// re-generated from zero and nothing buffered is lost.
pub fn connect(addr: &str) -> IngestResult<Receiver<StampedTweet>> {
    handshake(addr, None)
}

/// [`connect`] for a receiver that parks while the wire is empty: the
/// pusher calls `wake` after every tick that put tweets on the wire. It
/// replaces the hook of an earlier handshake.
pub fn connect_waking(addr: &str, wake: WireWake) -> IngestResult<Receiver<StampedTweet>> {
    handshake(addr, Some(wake))
}

fn handshake(addr: &str, wake: Option<WireWake>) -> IngestResult<Receiver<StampedTweet>> {
    let binding = {
        let reg = REGISTRY.lock();
        reg.as_ref()
            .and_then(|m| m.get(addr))
            .cloned()
            .ok_or_else(|| IngestError::Disconnected(format!("no TweetGen bound at {addr}")))?
    };
    *binding.wake.lock() = wake;
    let mut wire = binding.wire.lock();
    if let Some(rx) = wire.as_ref() {
        return Ok(rx.clone());
    }
    let (tx, rx) = crossbeam_channel::bounded(binding.config.socket_buffer);
    *wire = Some(rx.clone());
    drop(wire);
    spawn_pusher(binding, tx);
    Ok(rx)
}

fn spawn_pusher(binding: Arc<Binding>, tx: Sender<StampedTweet>) {
    sync_thread::spawn_named(format!("tweetgen-{}", binding.config.addr), move || {
        let mut factory = TweetFactory::new(binding.config.instance, binding.config.seed);
        let clock = binding.clock.clone();
        let pattern = &binding.config.pattern;
        let start = clock.now();
        let mut sent = 0;
        // each tick sends what the pattern owes by now; the last one, past
        // the end, sends the rest of `total_tweets()` however late it runs
        'push: while binding.running.load(Ordering::SeqCst) {
            let offset = clock.now().since(start);
            let due = pattern.tweets_due(offset);
            for _ in sent..due {
                let tweet = StampedTweet {
                    gen_at: clock.now(),
                    json: factory.next_json(),
                };
                binding.generated.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                match tx.try_send(tweet) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        // push-based source: the wire drops it
                        binding.wire_drops.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                    }
                    Err(TrySendError::Disconnected(_)) => break 'push,
                }
            }
            if due > sent {
                let wake = binding.wake.lock().clone();
                if let Some(wake) = wake {
                    wake();
                }
            }
            sent = due;
            if offset >= pattern.total_duration() {
                break;
            }
            clock.sleep(binding.config.tick);
        }
        binding.finished.store(true, Ordering::SeqCst);
        // channel closes when tx drops → receiver sees end of stream
    })
    .expect("spawn tweetgen pusher");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> SimClock {
        SimClock::with_scale(10.0) // 10 real ms per sim-second
    }

    #[test]
    fn handshake_then_push_at_rate() {
        let pattern = PatternDescriptor::constant(100, 5); // 500 tweets total
        let gen = TweetGen::bind(TweetGenConfig::new("t1:9000", 0, pattern), clock()).unwrap();
        let rx = connect("t1:9000").unwrap();
        let tweets: Vec<StampedTweet> = rx.iter().collect(); // until pattern ends
        assert_eq!(tweets.len(), 500, "the pattern's total, exactly");
        assert!(
            tweets.windows(2).all(|w| w[0].gen_at <= w[1].gen_at),
            "generation stamps are monotonic"
        );
        assert!(tweets.iter().all(|t| !t.json.is_empty()));
        assert_eq!(gen.wire_drops(), 0);
        gen.stop();
    }

    #[test]
    fn connect_to_unbound_address_fails() {
        assert!(connect("nowhere:1").is_err());
    }

    #[test]
    fn double_bind_fails() {
        let p = PatternDescriptor::constant(1, 1);
        let g1 = TweetGen::bind(TweetGenConfig::new("t2:9000", 0, p.clone()), clock()).unwrap();
        assert!(TweetGen::bind(TweetGenConfig::new("t2:9000", 1, p), clock()).is_err());
        g1.stop();
    }

    #[test]
    fn stop_unbinds_and_ends_stream() {
        let p = PatternDescriptor::constant(1000, 1000); // long pattern
        let g = TweetGen::bind(TweetGenConfig::new("t3:9000", 0, p), clock()).unwrap();
        let rx = connect("t3:9000").unwrap();
        // consume a few then stop
        for _ in 0..5 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        g.stop();
        // stream ends (drain whatever is buffered, then disconnect)
        while rx.recv_timeout(std::time::Duration::from_secs(1)).is_ok() {}
        assert!(connect("t3:9000").is_err(), "unbound after stop");
    }

    #[test]
    fn slow_receiver_causes_wire_drops() {
        let mut cfg = TweetGenConfig::new("t4:9000", 0, PatternDescriptor::constant(2000, 3));
        cfg.socket_buffer = 16;
        let g = TweetGen::bind(cfg, clock()).unwrap();
        let rx = connect("t4:9000").unwrap();
        // receiver that never drains until the pattern is over
        std::thread::sleep(std::time::Duration::from_millis(200));
        let received = rx.try_iter().count();
        assert!(received <= 16 + 1);
        assert!(g.wire_drops() > 0, "expected drops, got none");
        g.stop();
    }

    #[test]
    fn reconnect_resumes_stream_without_restart_or_loss() {
        let p = PatternDescriptor::constant(100, 5); // ~500 tweets
        let g = TweetGen::bind(TweetGenConfig::new("t6:9000", 3, p), clock()).unwrap();
        let rx1 = connect("t6:9000").unwrap();
        let mut tweets: Vec<StampedTweet> = Vec::new();
        for _ in 0..50 {
            tweets.push(rx1.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        drop(rx1); // consumer goes away mid-pattern (e.g. collect rebuild)
        let rx2 = connect("t6:9000").unwrap();
        tweets.extend(rx2.iter()); // resumes the same stream to its end
        assert_eq!(g.wire_drops(), 0, "buffer survived the consumer swap");
        assert_eq!(tweets.len(), 500);
        // ids are contiguous from zero with no duplicates: the pattern was
        // neither restarted (dup ids) nor advanced blindly (gaps)
        for (i, t) in tweets.iter().enumerate() {
            let want = format!("\"3-{i}\"");
            assert!(t.json.contains(&want), "tweet {i} missing id {want}");
        }
        g.stop();
    }

    #[test]
    fn the_pusher_wakes_the_receiver_after_each_tick_that_sent() {
        let p = PatternDescriptor::constant(100, 2); // 200 tweets, 20 ticks
        let g = TweetGen::bind(TweetGenConfig::new("t7:9000", 0, p), clock()).unwrap();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        let wake: WireWake = Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        let rx = connect_waking("t7:9000", wake).unwrap();
        assert_eq!(rx.iter().count(), 200);
        let woken = wakes.load(Ordering::SeqCst);
        assert!((1..=21).contains(&woken), "{woken} wakes for 20 ticks");
        g.stop();
    }

    #[test]
    fn generated_counts_match_pattern_budget() {
        let p = PatternDescriptor::constant(50, 4); // 200 tweets
        let g = TweetGen::bind(TweetGenConfig::new("t5:9000", 0, p), clock()).unwrap();
        assert!(!g.finished(), "generation starts at the handshake");
        let rx = connect("t5:9000").unwrap();
        let n = rx.iter().count() as u64;
        assert_eq!(g.generated(), n, "nothing dropped with default buffer");
        assert_eq!(n, 200);
        assert!(g.finished());
        g.stop();
    }
}
