//! The glue code of the §7.5 comparison: a Storm topology whose terminal
//! bolt issues one client insert per tuple against the Mongo-like store.
//!
//! "Although a data routing engine does not provide for storage and
//! indexing of data, it can still be used in conjunction with a data
//! store ... such that the routed data output from the data routing engine
//! can be re-directed to the data store using its prescribed APIs" (§2.2).
//! The inefficiencies the paper demonstrates are structural: per-record
//! client calls, ack-tree overhead, the `max.spout.pending` stall loop,
//! and — under durable writes — each insert waiting out a journal group
//! commit.

use crate::mongo::{MongoConfig, MongoStore, WriteConcern};
use crate::topology::{closed_source, Bolt, BoltOutcome, Topology, TopologyConfig};
use asterix_adm::parse_value;
use asterix_common::socket::Line;
use asterix_common::{IngestResult, RateMeter, SimClock, SimDuration, ThroughputSeries};
use crossbeam_channel::Receiver;
use std::sync::Arc;

/// Configuration of the glued run.
pub struct StormMongoConfig {
    /// Write concern for the store bolt.
    pub concern: WriteConcern,
    /// Parse/transform bolt parallelism.
    pub transform_parallelism: usize,
    /// Store bolt parallelism (client connections).
    pub store_parallelism: usize,
    /// Storm knobs.
    pub topology: TopologyConfig,
    /// Mongo knobs.
    pub mongo: MongoConfig,
    /// Per-record transform busy-spin (models the UDF).
    pub udf_spin: u64,
    /// Throughput meter bucket.
    pub meter_bucket: SimDuration,
}

impl Default for StormMongoConfig {
    fn default() -> Self {
        StormMongoConfig {
            concern: WriteConcern::NonDurable,
            transform_parallelism: 2,
            store_parallelism: 2,
            topology: TopologyConfig::default(),
            mongo: MongoConfig::default(),
            udf_spin: 0,
            meter_bucket: SimDuration::from_secs(2),
        }
    }
}

/// Results of a glued run.
#[derive(Debug)]
pub struct StormMongoReport {
    /// Documents persisted in the store.
    pub persisted: usize,
    /// Tuples fully acked by the topology.
    pub acked: u64,
    /// Tuples replayed (timeouts / failures).
    pub replayed: u64,
    /// Times the spout stalled on `max.spout.pending`.
    pub spout_stalls: u64,
    /// Instantaneous persisted-throughput series (the Fig 7.11/7.12 axes).
    pub throughput: ThroughputSeries,
}

struct TransformBolt {
    spin: u64,
}

impl Bolt for TransformBolt {
    fn execute(&mut self, payload: &str) -> BoltOutcome {
        // parse-validate, like the glue code's JSON handling
        if parse_value(payload).is_err() {
            return BoltOutcome::Fail;
        }
        let mut acc = 0u64;
        for i in 0..self.spin {
            acc = acc.wrapping_add(i).rotate_left(1);
        }
        std::hint::black_box(acc);
        BoltOutcome::Emit(payload.to_string())
    }
}

struct StoreBolt {
    store: Arc<MongoStore>,
    concern: WriteConcern,
    collection: String,
    meter: Arc<RateMeter>,
    clock: SimClock,
}

impl Bolt for StoreBolt {
    fn execute(&mut self, payload: &str) -> BoltOutcome {
        let doc = match parse_value(payload) {
            Ok(d) => d,
            Err(_) => return BoltOutcome::Fail,
        };
        match self.store.insert(&self.collection, &doc, self.concern) {
            Ok(()) => {
                self.meter.record_at(self.clock.now(), 1);
                BoltOutcome::Ack
            }
            Err(_) => BoltOutcome::Fail,
        }
    }
}

/// Drive a tweet workload through the glued Storm+Mongo assembly and report
/// what the paper's Fig 7.11/7.12 report. `source` is an attached socket's
/// lines; the glue has no use for their generation stamps.
pub fn run_storm_mongo(
    config: StormMongoConfig,
    clock: SimClock,
    source: Receiver<Line>,
) -> IngestResult<StormMongoReport> {
    let store = MongoStore::start(config.mongo.clone(), clock.clone());
    let meter = Arc::new(RateMeter::new(clock.now(), config.meter_bucket));
    let collection = "tweets".to_string();

    let udf_spin = config.udf_spin;
    let transform_factory: crate::topology::BoltFactory =
        Box::new(move || Box::new(TransformBolt { spin: udf_spin }) as Box<dyn Bolt>);

    let store2 = Arc::clone(&store);
    let meter2 = Arc::clone(&meter);
    let clock2 = clock.clone();
    let concern = config.concern;
    let coll2 = collection.clone();
    let store_factory: crate::topology::BoltFactory = Box::new(move || {
        Box::new(StoreBolt {
            store: Arc::clone(&store2),
            concern,
            collection: coll2.clone(),
            meter: Arc::clone(&meter2),
            clock: clock2.clone(),
        }) as Box<dyn Bolt>
    });

    let topo = Topology::run_chain(
        config.topology,
        clock,
        source,
        vec![
            (transform_factory, config.transform_parallelism),
            (store_factory, config.store_parallelism),
        ],
    )?;
    let acker = Arc::clone(topo.acker());
    let stalls_counter = topo.stall_counter();
    topo.join();
    Ok(StormMongoReport {
        persisted: store.count(&collection),
        acked: acker.acked(),
        replayed: acker.replayed(),
        spout_stalls: stalls_counter.load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: report read after join
        throughput: meter.series(),
    })
}

/// [`run_storm_mongo`] over a fixed workload vector.
pub fn run_storm_mongo_vec(
    config: StormMongoConfig,
    clock: SimClock,
    workload: Vec<String>,
) -> IngestResult<StormMongoReport> {
    run_storm_mongo(config, clock, closed_source(workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweets(n: usize) -> Vec<String> {
        let mut f = tweetgen::TweetFactory::new(0, 11);
        (0..n).map(|_| f.next_json()).collect()
    }

    #[test]
    fn glued_pipeline_persists_everything_nondurable() {
        let report = run_storm_mongo_vec(
            StormMongoConfig {
                mongo: MongoConfig {
                    per_op_spin: 0,
                    ..MongoConfig::default()
                },
                ..StormMongoConfig::default()
            },
            SimClock::with_scale(10.0),
            tweets(300),
        )
        .unwrap();
        assert_eq!(report.persisted, 300);
        assert_eq!(report.acked, 300);
        assert_eq!(report.throughput.total(), 300);
    }

    #[test]
    fn durable_run_is_much_slower() {
        let clock = SimClock::with_scale(50.0);
        let mk = |concern| StormMongoConfig {
            concern,
            mongo: MongoConfig {
                per_op_spin: 0,
                commit_interval: SimDuration::from_millis(100),
                ..MongoConfig::default()
            },
            store_parallelism: 1,
            ..StormMongoConfig::default()
        };
        let t0 = std::time::Instant::now();
        let nd =
            run_storm_mongo_vec(mk(WriteConcern::NonDurable), clock.clone(), tweets(100)).unwrap();
        let nd_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        let d = run_storm_mongo_vec(mk(WriteConcern::Durable), clock, tweets(100)).unwrap();
        let d_time = t1.elapsed();
        assert_eq!(nd.persisted, 100);
        assert_eq!(d.persisted, 100);
        assert!(
            d_time > nd_time * 3,
            "durable {d_time:?} vs non-durable {nd_time:?}"
        );
    }

    #[test]
    fn malformed_payloads_are_failed_and_replayed_forever_is_avoided() {
        // a malformed record fails at the transform bolt each time; the
        // workload still completes because the spout keeps replaying only
        // while tuples are pending — we kill after the good ones finish
        let mut w = tweets(20);
        w.push("not json {{{".into());
        let clock = SimClock::with_scale(10.0);
        let report = {
            // run with a short message timeout; the bad tuple will keep
            // cycling, so run the topology manually and kill it
            let store = MongoStore::start(
                MongoConfig {
                    per_op_spin: 0,
                    ..MongoConfig::default()
                },
                clock.clone(),
            );
            let meter = Arc::new(RateMeter::new(clock.now(), SimDuration::from_secs(2)));
            let store2 = Arc::clone(&store);
            let meter2 = Arc::clone(&meter);
            let clock2 = clock.clone();
            let topo = Topology::run_chain(
                TopologyConfig::default(),
                clock.clone(),
                closed_source(w),
                vec![(
                    Box::new(move || {
                        Box::new(StoreBolt {
                            store: Arc::clone(&store2),
                            concern: WriteConcern::NonDurable,
                            collection: "tweets".into(),
                            meter: Arc::clone(&meter2),
                            clock: clock2.clone(),
                        }) as Box<dyn Bolt>
                    }),
                    2,
                )],
            )
            .unwrap();
            let acker = Arc::clone(topo.acker());
            // wait until the 20 good tuples are acked
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
            while acker.acked() < 20 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            topo.kill();
            (store.count("tweets"), acker.acked(), acker.failed())
        };
        assert_eq!(report.0, 20);
        assert!(report.2 >= 1, "the malformed tuple failed at least once");
    }
}
