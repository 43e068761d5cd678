//! TweetGen instances. An instance binds its address ("10.1.0.1:9000"
//! style) on the in-process socket ([`asterix_common::socket`]), and the
//! first reader to attach — the paper's initial handshake — starts it:
//! tweets are then *pushed* at the pattern's rate, each stamped with the
//! sim-instant it was generated, whether or not the reader keeps up. A tweet
//! that finds the socket's buffer full is dropped on the wire: the source
//! "continues to send data irrespective of any failures that have occurred
//! inside the data management system" (§1.1.4). The socket outlives any one
//! reader, so a rebuilt collect job resumes the stream, not the pattern.

use crate::gen::TweetFactory;
use crate::pattern::PatternDescriptor;
use asterix_common::socket::{self, SocketSender};
use asterix_common::sync::thread as sync_thread;
use asterix_common::{IngestResult, SimClock, SimDuration};
use crossbeam_channel::TrySendError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of one TweetGen instance.
#[derive(Debug, Clone)]
pub struct TweetGenConfig {
    /// Address to bind on the socket ("host:port").
    pub addr: String,
    /// Instance number (scopes the tweet id space).
    pub instance: u32,
    /// RNG seed.
    pub seed: u64,
    /// The generation pattern.
    pub pattern: PatternDescriptor,
    /// Capacity of the socket's buffer, in tweets.
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

/// What an instance and its pusher share.
#[derive(Default)]
struct Progress {
    stopped: AtomicBool,
    generated: AtomicU64,
    wire_drops: AtomicU64,
    finished: AtomicBool,
}

/// A TweetGen instance, bound to its address until dropped or stopped.
pub struct TweetGen {
    addr: String,
    progress: Arc<Progress>,
}

impl TweetGen {
    /// Bind an instance at `config.addr`. Errors if the address is taken.
    pub fn bind(config: TweetGenConfig, clock: SimClock) -> IngestResult<TweetGen> {
        let (addr, capacity) = (config.addr.clone(), config.socket_buffer);
        let progress = Arc::new(Progress::default());
        let stats = Arc::clone(&progress);
        let start = move |tx| spawn_pusher(config, clock, stats, tx);
        socket::bind_on_attach(&addr, capacity, start)?;
        Ok(TweetGen { addr, progress })
    }

    /// Address the instance is bound to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Tweets generated so far (across all its readers).
    pub fn generated(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.progress.generated.load(Ordering::Relaxed)
    }

    /// Tweets dropped because the socket's buffer was full.
    pub fn wire_drops(&self) -> u64 {
        // relaxed-ok: monitoring read of a lone counter
        self.progress.wire_drops.load(Ordering::Relaxed)
    }

    /// True once the generator has left its loop: the pattern ran out (every
    /// tweet of `total_tweets()` was generated), the instance was stopped or
    /// the socket closed. `generated()` does not move after that.
    pub fn finished(&self) -> bool {
        self.progress.finished.load(Ordering::SeqCst)
    }

    /// Stop generating and unbind.
    pub fn stop(&self) {
        self.progress.stopped.store(true, Ordering::SeqCst);
        socket::unbind_socket(&self.addr);
    }
}

impl Drop for TweetGen {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Start pushing the pattern into `tx`: the first attach calls this.
fn spawn_pusher(config: TweetGenConfig, clock: SimClock, stats: Arc<Progress>, tx: SocketSender) {
    sync_thread::spawn_named(format!("tweetgen-{}", config.addr), move || {
        let mut factory = TweetFactory::new(config.instance, config.seed);
        let pattern = &config.pattern;
        let start = clock.now();
        let mut sent = 0;
        // each tick sends what the pattern owes by now; the last one, past
        // the end, sends the rest of `total_tweets()` however late it runs
        'push: while !stats.stopped.load(Ordering::SeqCst) {
            let offset = clock.now().since(start);
            let due = pattern.tweets_due(offset);
            for _ in sent..due {
                stats.generated.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                match tx.try_send_stamped(factory.next_json(), clock.now()) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        // push-based source: the wire drops it
                        stats.wire_drops.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stat
                    }
                    Err(TrySendError::Disconnected(_)) => break 'push,
                }
            }
            if due > sent {
                tx.ring();
            }
            sent = due;
            if offset >= pattern.total_duration() {
                break;
            }
            clock.sleep(config.tick);
        }
        stats.finished.store(true, Ordering::SeqCst);
        // the socket closes when tx drops → its doorbell wakes the reader
    })
    .expect("spawn tweetgen pusher");
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_common::socket::{attach, bind_socket, Line};
    use asterix_common::SimInstant;

    fn clock() -> SimClock {
        SimClock::with_scale(10.0) // 10 real ms per sim-second
    }

    #[test]
    fn attach_then_push_at_rate() {
        let pattern = PatternDescriptor::constant(100, 5); // 500 tweets total
        let gen = TweetGen::bind(TweetGenConfig::new("t1:9000", 0, pattern), clock()).unwrap();
        let rx = attach("t1:9000").unwrap().lines;
        let tweets: Vec<Line> = rx.iter().collect(); // until pattern ends
        assert_eq!(tweets.len(), 500, "the pattern's total, exactly");
        let stamps: Vec<SimInstant> = tweets.iter().filter_map(|t| t.gen_at).collect();
        assert_eq!(stamps.len(), 500, "every tweet is stamped");
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "generation stamps are monotonic"
        );
        assert!(tweets.iter().all(|t| !t.text.is_empty()));
        assert_eq!(gen.wire_drops(), 0);
        gen.stop();
    }

    #[test]
    fn attach_to_unbound_address_fails() {
        assert!(attach("nowhere:1").is_err());
    }

    #[test]
    fn double_bind_fails_in_the_one_namespace() {
        let p = PatternDescriptor::constant(1, 1);
        let g1 = TweetGen::bind(TweetGenConfig::new("t2:9000", 0, p.clone()), clock()).unwrap();
        assert!(TweetGen::bind(TweetGenConfig::new("t2:9000", 1, p.clone()), clock()).is_err());
        // a TweetGen's address is a socket address like any other
        assert!(bind_socket("t2:9000", 4).is_err());
        g1.stop();
        let _tx = bind_socket("t2b:9000", 4).unwrap();
        assert!(TweetGen::bind(TweetGenConfig::new("t2b:9000", 0, p), clock()).is_err());
        socket::unbind_socket("t2b:9000");
    }

    #[test]
    fn stop_unbinds_and_ends_stream() {
        let p = PatternDescriptor::constant(1000, 1000); // long pattern
        let g = TweetGen::bind(TweetGenConfig::new("t3:9000", 0, p), clock()).unwrap();
        let rx = attach("t3:9000").unwrap().lines;
        // consume a few then stop
        for _ in 0..5 {
            rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        }
        g.stop();
        // stream ends (drain whatever is buffered, then disconnect)
        while rx.recv_timeout(std::time::Duration::from_secs(1)).is_ok() {}
        assert!(attach("t3:9000").is_err(), "unbound after stop");
    }

    #[test]
    fn slow_receiver_causes_wire_drops() {
        let mut cfg = TweetGenConfig::new("t4:9000", 0, PatternDescriptor::constant(2000, 3));
        cfg.socket_buffer = 16;
        let g = TweetGen::bind(cfg, clock()).unwrap();
        let rx = attach("t4:9000").unwrap().lines;
        // receiver that never drains until the pattern is over
        std::thread::sleep(std::time::Duration::from_millis(200));
        let received = rx.try_iter().count();
        assert!(received <= 16 + 1);
        assert!(g.wire_drops() > 0, "expected drops, got none");
        g.stop();
    }

    #[test]
    fn reattach_resumes_stream_without_restart_or_loss() {
        let p = PatternDescriptor::constant(100, 5); // ~500 tweets
        let g = TweetGen::bind(TweetGenConfig::new("t6:9000", 3, p), clock()).unwrap();
        let rx1 = attach("t6:9000").unwrap().lines;
        let mut tweets: Vec<Line> = Vec::new();
        for _ in 0..50 {
            tweets.push(rx1.recv_timeout(std::time::Duration::from_secs(5)).unwrap());
        }
        drop(rx1); // consumer goes away mid-pattern (e.g. collect rebuild)
        let rx2 = attach("t6:9000").unwrap().lines;
        tweets.extend(rx2.iter()); // resumes the same stream to its end
        assert_eq!(g.wire_drops(), 0, "buffer survived the consumer swap");
        assert_eq!(tweets.len(), 500);
        // ids are contiguous from zero with no duplicates: the pattern was
        // neither restarted (dup ids) nor advanced blindly (gaps)
        for (i, t) in tweets.iter().enumerate() {
            let want = format!("\"3-{i}\"");
            assert!(t.text.contains(&want), "tweet {i} missing id {want}");
        }
        g.stop();
    }

    #[test]
    fn the_pusher_rings_after_each_tick_that_sent() {
        let p = PatternDescriptor::constant(100, 2); // 200 tweets, 20 ticks
        let g = TweetGen::bind(TweetGenConfig::new("t7:9000", 0, p), clock()).unwrap();
        let reader = attach("t7:9000").unwrap();
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        reader.set_wake(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        let mut received = 0;
        while !g.finished() || !reader.lines.is_empty() {
            received += reader.lines.try_iter().count();
            let before = wakes.load(Ordering::SeqCst);
            if reader.arm() {
                continue;
            }
            // parked: only the next tick's ring (or the end) moves us on
            while wakes.load(Ordering::SeqCst) == before && !g.finished() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(received, 200);
        let woken = wakes.load(Ordering::SeqCst);
        assert!((1..=21).contains(&woken), "{woken} wakes for 20 ticks");
        g.stop();
    }

    #[test]
    fn generation_starts_at_the_first_attach() {
        let p = PatternDescriptor::constant(50, 4); // 200 tweets
        let g = TweetGen::bind(TweetGenConfig::new("t5:9000", 0, p), clock()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60)); // 6 ticks' worth
        assert_eq!(g.generated(), 0, "nothing generated before a reader");
        assert!(!g.finished(), "generation starts at the attach");
        let rx = attach("t5:9000").unwrap().lines;
        let n = rx.iter().count() as u64;
        assert_eq!(g.generated(), n, "nothing dropped with default buffer");
        assert_eq!(n, 200);
        assert!(g.finished());
        g.stop();
    }
}
