//! What each row of the experiment table keeps of its own: the setups of
//! a sweep point, the function that turns its runs into JSON columns, and
//! the run of each row that drives no feed (Table 5.1's batch path, Fig
//! 7.2's receiver, the Storm side of 7.11/7.12, compaction's storage pass).

use crate::obj;
use crate::report::{Json, ToJson};
use crate::rig::{pace, End, Faults, Feed, Outcome, Probe, Setup, Source};
use crate::table::{Point, Runs};
use asterix_adm::{parse_value, AdmValue};
use asterix_aql::engine::AsterixEngine;
use asterix_aql::eval::{eval, Env, EvalContext};
use asterix_aql::parser::parse_expr;
use asterix_common::{
    socket, FaultPlanConfig, IngestError, IngestResult, MetricsRegistry, MetricsSnapshot, NodeId,
    RateMeter, SimClock, SimDuration, ThroughputSeries, TraceHub,
};
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::governor::GovernorConfig;
use asterix_feeds::plan::{IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterix_feeds::udf::Udf;
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_storage::partition::{LayoutConfig, PartitionConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stormsim::glue::{run_storm_mongo, StormMongoConfig};
use stormsim::WriteConcern;
use tweetgen::{PatternDescriptor, TweetFactory, TweetGen, TweetGenConfig};

/// The Chapter 7 pipeline: its connection, compute joint and UDF.
const CONN: &str = "TwitterFeed->Tweets";
const COMPUTE: &str = "TwitterFeed:addHashTags";
const HASHTAGS: &str = "addHashTags";

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A pattern of `(rate, sim-seconds)` phases, played `repeat` times.
fn phases(phases: &[(u32, u64)], repeat: u32) -> PatternDescriptor {
    let mut pattern = PatternDescriptor::constant(0, 0);
    let phase = |&(rate, s): &(u32, u64)| PatternDescriptor::constant(rate, s).intervals;
    pattern.intervals = phases.iter().flat_map(phase).collect();
    pattern.repeat = repeat;
    pattern
}

/// A rig whose compute stage runs `parallelism` instances, each taking
/// `delay_us` per record on a timer: a fixed per-instance capacity that
/// parallelizes across instances regardless of host cores (DESIGN.md's
/// substitution).
fn capacity(nodes: usize, time_scale: f64, parallelism: usize, delay_us: u64) -> Setup {
    let mut setup = Setup::default();
    (setup.nodes, setup.time_scale) = (nodes, time_scale);
    setup.controller.compute_parallelism = Some(parallelism);
    setup.controller.compute_extra_delay_us = delay_us;
    setup
}

/// The seeded-fault rows' rig: four nodes with failure detection, at 50 ms
/// per sim-second, where the 1.5 sim-s threshold is robust.
fn faulty() -> Setup {
    let mut setup = Setup::default();
    (setup.nodes, setup.time_scale, setup.failure_detection) = (4, 50.0, true);
    setup
}

/// `base` with one TweetGen feed `TwitterFeed` through `addHashTags` into
/// `Tweets` under `policy`: the Chapter 7 pipeline.
fn chapter7(base: Setup, pattern: PatternDescriptor, policy: &'static str) -> Setup {
    Setup {
        gens: vec![pattern],
        datasets: vec![("Tweets", None)],
        udfs: vec![Udf::add_hash_tags()],
        feeds: vec![Feed("TwitterFeed", Source::Gens(&[0]), Some(HASHTAGS))],
        connect: vec![("TwitterFeed", "Tweets", policy)],
        ..base
    }
}

fn ts(series: &ThroughputSeries) -> (Vec<f64>, Vec<f64>) {
    series.points.iter().map(|p| (p.t_secs, p.rate)).unzip()
}

fn only(runs: &Runs) -> &Outcome {
    &runs[0].1[0]
}

// ---- Table 5.1: batch inserts vs a feed ------------------------------------

/// Table 5.1: repeated `insert` statements (batch 1 and 20) against one
/// file-based feed that sets its pipeline up once, timed on the wall clock.
pub fn table_5_1(seed: u64) -> (Json, Option<MetricsSnapshot>) {
    let clock = SimClock::with_scale(10.0);
    let config = ClusterConfig {
        heartbeat_interval: secs(5),
        failure_threshold: secs(1_000_000),
    };
    let cluster = Cluster::start(4, clock.clone(), config);
    let engine = AsterixEngine::start(cluster.clone(), ControllerConfig::default());
    let ddl = r#"create type TwitterUser as open {
            screen_name: string, lang: string, friends_count: int32,
            statuses_count: int32, name: string, followers_count: int32 };
        create type Tweet as open {
            id: string, user: TwitterUser, latitude: double?, longitude: double?,
            created_at: string, message_text: string, country: string? };
        create dataset BatchTweets(Tweet) primary key id;
        create dataset FeedTweets(Tweet) primary key id;"#;
    engine.execute(ddl).expect("ddl");
    let mut factory = TweetFactory::new(7, seed);
    let batch: Vec<String> = (0..600).map(|_| factory.next_json()).collect();
    let feed: Vec<String> = (0..20_000).map(|_| factory.next_json()).collect();
    let path = std::env::temp_dir().join("asterix_table_5_1_feed.adm");
    std::fs::write(&path, feed.join("\n")).expect("write feed file");
    let row = |method: String, records: usize, t0: Instant| {
        let ms = t0.elapsed().as_secs_f64() * 1000.0;
        obj! { method: method, records: records, total_ms: ms, avg_ms_per_record: ms / records as f64 }
    };
    let mut rows = Vec::new();
    for (records, size) in [(&batch[..300], 1), (&batch[..], 20)] {
        let t0 = Instant::now();
        for chunk in records.chunks(size) {
            let values = chunk.join(",\n");
            let stmt = format!("insert into dataset BatchTweets (for $x in [{values}] return $x);");
            engine.execute(&stmt).expect("batch insert");
        }
        let method = format!("Batch Insert (Batch Size = {size})");
        rows.push(row(method, records.len(), t0));
    }
    let t0 = Instant::now();
    let connect = format!(
        r#"create feed TweetsOnDisk using file_based_feed ("path"="{}");
           connect feed TweetsOnDisk to dataset FeedTweets;"#,
        path.display()
    );
    engine.execute(&connect).expect("connect file feed");
    let ds = engine.catalog().dataset("FeedTweets").expect("dataset");
    let (step, limit) = (SimDuration::from_millis(500), Duration::from_secs(600));
    pace(&clock, step, limit, || ds.len() >= feed.len());
    rows.push(row("Data Feed".into(), feed.len(), t0));
    let disconnect = "disconnect feed TweetsOnDisk from dataset FeedTweets;";
    engine.execute(disconnect).expect("disconnect");
    std::fs::remove_file(&path).ok();
    let per = |i: usize| rows[i].num("avg_ms_per_record");
    let (one, twenty) = (per(0) / per(2), per(1) / per(2));
    println!("per record, the feed beats batch(1) {one:.0}x and batch(20) {twenty:.0}x");
    let snap = engine.controller().registry().snapshot();
    engine.controller().shutdown();
    cluster.shutdown();
    (rows.to_json(), Some(snap))
}

// ---- Fig 5.13: cascade vs independent network ------------------------------

/// Total work of f3 = f2 ∘ f1, in busy-spin iterations (Table 5.2's 50 ms
/// scaled to simulation cost units).
const F3_COST: u64 = 600_000;

/// Fig 5.13: at each %OVERLAP, three runs each of the cascade (Feed_B a
/// secondary of Feed_A, f1 computed once) and of the independent network
/// (two connections to the source, Feed_B recomputing f1 inside f3), both
/// CPU-saturated under Discard so persisted counts measure capacity.
pub fn fig_5_13(point: Point, _seed: u64) -> Vec<Setup> {
    let f1 = F3_COST * point.n() / 100;
    let network = |cascade: bool| {
        let (source, f, cost) = match cascade {
            true => (Source::Parent("FeedA"), "f2", F3_COST - f1),
            false => (Source::Gens(&[0]), "f3", F3_COST),
        };
        let mut setup = capacity(4, 10.0, 2, 0);
        setup.gens = vec![PatternDescriptor::constant(500, 40)];
        setup.datasets = vec![("D1", None), ("D2", None)];
        setup.udfs = vec![Udf::busy_spin("f1", f1), Udf::busy_spin(f, cost)];
        let a = Feed("FeedA", Source::Gens(&[0]), Some("f1"));
        setup.feeds = vec![a, Feed("FeedB", source, Some(f))];
        setup.connect = vec![("FeedA", "D1", "Discard"), ("FeedB", "D2", "Discard")];
        setup.end = End::Drain(secs(30));
        setup
    };
    (0..3)
        .flat_map(|_| [network(true), network(false)])
        .collect()
}

/// Fig 5.13's columns: each network's persisted counts, averaged.
pub fn fig_5_13_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let row = |(point, outcomes): &(Point, Vec<Outcome>)| {
        let (overlap, reps) = (point.n(), outcomes.len() as u64 / 2);
        let mean = |network: usize, d: usize| {
            let picked = outcomes.iter().skip(network).step_by(2);
            picked.map(|o| o.persisted[d]).sum::<u64>() / reps
        };
        let f1_cost = F3_COST * overlap / 100;
        obj! {
            overlap_pct: overlap, f1_cost: f1_cost, f2_cost: F3_COST - f1_cost,
            cascade_feed_a: mean(0, 0), cascade_feed_b: mean(0, 1),
            independent_feed_a: mean(1, 0), independent_feed_b: mean(1, 1),
        }
    };
    runs.iter().map(row).collect()
}

// ---- Fig 5.16: scalability with cluster size -------------------------------

/// Fig 5.16: six generators at 700 twps each against `n` nodes whose compute
/// instances take 400 µs a record; Discard sheds the excess, and the count
/// is read 2 sim-s after the window (not after a drain, which would reward
/// larger clusters twice).
pub fn fig_5_16(point: Point, _seed: u64) -> Vec<Setup> {
    let n = point.n() as usize;
    let mut setup = capacity(n, 100.0, n, 400);
    setup.gens = vec![PatternDescriptor::constant(700, 40); 6];
    setup.datasets = vec![("ProcessedTweets", None)];
    setup.udfs = vec![Udf::add_hash_tags()];
    let source = Source::Gens(&[0, 1, 2, 3, 4, 5]);
    setup.feeds = vec![Feed("TweetGenFeed", source, Some(HASHTAGS))];
    setup.connect = vec![("TweetGenFeed", "ProcessedTweets", "Discard")];
    setup.end = End::After(secs(2));
    vec![setup]
}

/// Fig 5.16's columns, with the speed-up over one node.
pub fn fig_5_16_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let base = only(runs).persisted[0].max(1) as f64;
    let row = |(point, o): &(Point, Vec<Outcome>)| {
        let o = &o[0];
        let persisted = o.persisted[0] as f64;
        let discarded = "feed.records_discarded";
        obj! {
            nodes: point.n(), generated: o.generated, persisted: o.persisted[0],
            discarded: o.snap.counter_for(discarded, "TweetGenFeed:addHashTags"),
            persisted_pct: 100.0 * persisted / o.generated.max(1) as f64,
            speedup_vs_1: persisted / base,
        }
    };
    runs.iter().map(row).collect()
}

// ---- Fig 6.5: throughput under interim hardware failures -------------------

/// Fig 6.4's cascade: two generators feed `TweetGenFeed` (raw) and its
/// secondary `ProcessedTweetGenFeed` (hashtags), both FaultTolerant. Intake
/// on nodes 0–1, compute on 2–3, datasets on 6–9 (never killed). A compute
/// node fails at t=70 s; an intake node and another compute node at 140 s.
pub fn fig_6_5(_point: Point, _seed: u64) -> Vec<Setup> {
    const PROCESS: &str = "TweetGenFeed:addHashTags";
    let mut setup = capacity(10, 50.0, 2, 0);
    setup.failure_detection = true;
    setup.controller.compute_node_offset = 2;
    setup.gens = vec![PatternDescriptor::constant(300, 240); 2];
    let stores = Some((6..10).map(NodeId).collect::<Vec<_>>());
    setup.datasets = vec![("Tweets", stores.clone()), ("ProcessedTweets", stores)];
    setup.udfs = vec![Udf::add_hash_tags()];
    let processed = Source::Parent("TweetGenFeed");
    setup.feeds = vec![
        Feed("TweetGenFeed", Source::Gens(&[0, 1]), None),
        Feed("ProcessedTweetGenFeed", processed, Some(HASHTAGS)),
    ];
    // like the paper: the secondary first, then the primary
    setup.connect = vec![
        ("ProcessedTweetGenFeed", "ProcessedTweets", "FaultTolerant"),
        ("TweetGenFeed", "Tweets", "FaultTolerant"),
    ];
    let kills = vec![(70, vec![PROCESS]), (140, vec!["TweetGenFeed", PROCESS])];
    setup.faults = Faults::Kills(kills);
    setup.end = End::At(secs(210));
    vec![setup]
}

/// Fig 6.5's series per feed, with the window means printed beside them.
pub fn fig_6_5_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let o = only(runs);
    let (raw, processed) = (&o.series[1], &o.series[0]);
    let rates = |s: &ThroughputSeries, lo: f64, hi: f64| -> Vec<f64> {
        let window = s.points.iter().filter(|p| p.t_secs >= lo && p.t_secs < hi);
        window.map(|p| p.rate).collect()
    };
    let mean = |r: Vec<f64>| r.iter().sum::<f64>() / r.len().max(1) as f64;
    let dip = rates(processed, 70.0, 90.0)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let (before, after) = (
        mean(rates(processed, 30.0, 68.0)),
        mean(rates(processed, 90.0, 138.0)),
    );
    println!("processed feed: {before:.0} tw/s before t=70, dip to {dip:.0}, then {after:.0}");
    let (during, before) = (mean(rates(raw, 70.0, 90.0)), mean(rates(raw, 30.0, 68.0)));
    let kept = 100.0 * during / before.max(1.0);
    println!("raw feed during the t=70 failure: {during:.0} vs {before:.0} tw/s ({kept:.0}%)");
    let series = |feed: &str, s: &ThroughputSeries| {
        let (t_secs, rate) = ts(s);
        obj! { feed: feed, t_secs: t_secs, rate: rate }
    };
    vec![
        series("TweetGenFeed", raw),
        series("ProcessedTweetGenFeed", processed),
    ]
}

// ---- Fig 6.5 under a seeded fault plan -------------------------------------

/// Fig 6.5 from one seed: a node kill and its rejoin anchored to record
/// counts, plus one operator panic in the store; the same seed replays the
/// same schedule (`--seed`).
pub fn chaos_recovery(_point: Point, _seed: u64) -> Vec<Setup> {
    let pattern = PatternDescriptor::constant(300, 60);
    let total = pattern.total_tweets();
    // the kill lands in the first half of the stream, the rejoin ~13 sim-s
    // later, well past the 1.5 sim-s detection threshold
    let plan = FaultPlanConfig {
        nodes: 4,
        protected_nodes: 1,
        horizon_records: total / 2,
        node_kills: 1,
        operator_panics: 1,
        rejoin_delay_records: 300 * 13,
        ..FaultPlanConfig::default()
    };
    vec![Setup {
        gens: vec![pattern],
        datasets: vec![("Tweets", None)],
        feeds: vec![Feed("TweetGenFeed", Source::Gens(&[0]), None)],
        connect: vec![("TweetGenFeed", "Tweets", "FaultTolerant")],
        faults: Faults::Plan(plan),
        complete: vec![Some(total)],
        end: End::Drain(secs(10)),
        audit: true,
        ..faulty()
    }]
}

/// The chaos run's series and its at-least-once id audit.
pub fn chaos_recovery_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let o = only(runs);
    let present = |i: &u64| o.ids[0].contains(&format!("0-{i}"));
    let missing = (0..o.generated).filter(|i| !present(i)).count();
    let conn = "TweetGenFeed->Tweets";
    let count = |name: &str| o.snap.counter_for(name, conn);
    let (t_secs, rate) = ts(&o.series[0]);
    vec![obj! {
        feed: "TweetGenFeed", t_secs: t_secs, rate: rate, schedule: o.schedule.clone(),
        generated: o.generated, persisted: o.persisted[0], missing: missing,
        hard_recoveries: count("feed.hard_failures_recovered"),
        zombie_frames_adopted: count("feed.zombie_frames_adopted"),
        last_recovery_millis: o.snap.gauge_for("feed.last_recovery_millis", conn).unwrap_or(0),
    }]
}

// ---- Fig 7.2: the arrival pattern, at a receiver ---------------------------

/// Fig 7.2: the Chapter 7 square wave (300/600 twps alternating every 30
/// sim-s, two cycles), measured at a receiver in 2-second buckets.
pub fn fig_7_2(_seed: u64) -> (Json, Option<MetricsSnapshot>) {
    let clock = SimClock::with_scale(10.0);
    let config = TweetGenConfig::new("fig72:9000", 0, phases(&[(300, 30), (600, 30)], 2));
    let gen = TweetGen::bind(config, clock.clone()).expect("bind");
    let meter = RateMeter::new(clock.now(), secs(2));
    for _tweet in socket::attach("fig72:9000").expect("attach").lines.iter() {
        meter.record_at(clock.now(), 1);
    }
    let series = meter.series();
    let (got, sent, dropped) = (series.total(), gen.generated(), gen.wire_drops());
    println!("received {got} of {sent} generated (wire drops: {dropped})");
    gen.stop();
    let point = |p: &asterix_common::meter::RatePoint| obj! { t_secs: p.t_secs, rate: p.rate };
    (Json::Arr(series.points.iter().map(point).collect()), None)
}

// ---- Figs 7.3–7.7 and 7.9/7.10: policies under overload --------------------

/// Figs 7.3–7.7: one compute instance at 320 µs a record (measured: ~3 110
/// rec/s real) between a 2 000/s low phase and a 5 000/s high one. Elastic
/// scales on its excess alone (no lag trigger) until compute is back to one.
pub fn fig_7_policies(point: Point, _seed: u64) -> Vec<Setup> {
    let wave = phases(&[(200, 30), (500, 30)], 2);
    let mut setup = chapter7(capacity(4, 100.0, 1, 320), wave, point.policy());
    setup.probes = vec![("compute", Probe::Compute(COMPUTE))];
    setup.settle_on = Some((0, 1));
    setup.controller.governor.high_lag_millis = u64::MAX;
    vec![setup]
}

/// Each policy's counts, scaling steps and throughput series.
pub fn fig_7_policies_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let row = |(point, o): &(Point, Vec<Outcome>)| {
        let o = &o[0];
        let conn = |name: &str| o.snap.counter_for(name, CONN);
        let both = |name: &str| o.snap.counter_for(name, COMPUTE) + conn(name);
        let (t_secs, rate) = ts(&o.series[0]);
        obj! {
            policy: point.policy(), generated: o.generated,
            persisted: conn("feed.records_persisted"),
            discarded: both("feed.records_discarded"), throttled: both("feed.records_throttled"),
            spilled: both("feed.records_spilled"), despilled: both("feed.records_despilled"),
            elastic_scaleouts: both("feed.elastic_scaleouts"),
            scale_outs: conn("elastic.scale_out_total"), scale_ins: conn("elastic.scale_in_total"),
            final_compute_parallelism: o.finals[0], t_secs: t_secs, rate: rate,
        }
    };
    runs.iter().map(row).collect()
}

/// Figs 7.9/7.10: a sustained 2x overload (800 twps against ~4 000 rec/s
/// real), the persisted ids audited.
pub fn fig_7_9_10(point: Point, _seed: u64) -> Vec<Setup> {
    let load = PatternDescriptor::constant(800, 60);
    let setup = chapter7(capacity(2, 100.0, 1, 250), load, point.policy());
    vec![Setup {
        audit: true,
        ..setup
    }]
}

/// The gap structure of each policy's lost ids: Discard drops whole frames
/// (long gaps), Throttle samples (short ones).
pub fn fig_7_9_10_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let row = |(point, o): &(Point, Vec<Outcome>)| {
        let offered = o[0].generated as usize;
        let mut present = vec![false; offered];
        let seqs = o[0].ids[0]
            .iter()
            .filter_map(|id| id.strip_prefix("0-")?.parse().ok());
        seqs.filter(|&i: &usize| i < offered)
            .for_each(|i| present[i] = true);
        let gaps: Vec<usize> = present
            .split(|&p| p)
            .map(<[bool]>::len)
            .filter(|&n| n > 0)
            .collect();
        let kept = |c: &[bool]| c.iter().filter(|&&b| b).count();
        let persisted = kept(&present);
        let chunks = present.chunks(offered.div_ceil(50).max(1));
        let buckets: Vec<f64> = chunks.map(|c| kept(c) as f64 / c.len() as f64).collect();
        let level = |f: &f64| [' ', '.', ':', '+', '#'][((f * 4.0).round() as usize).min(4)];
        let spark: String = buckets.iter().map(level).collect();
        println!("{:<8} persisted ids, 2% a char: [{spark}]", point.policy());
        obj! {
            policy: point.policy(), offered: offered, persisted: persisted,
            kept_fraction: persisted as f64 / offered.max(1) as f64,
            longest_gap: gaps.iter().copied().max().unwrap_or(0),
            mean_gap: gaps.iter().sum::<usize>() as f64 / gaps.len().max(1) as f64,
            gap_count: gaps.len(), buckets: buckets,
        }
    };
    runs.iter().map(row).collect()
}

// ---- Figs 7.11/7.12: Storm+MongoDB vs the native feed ----------------------

/// Figs 7.11/7.12's AsterixDB side: the native feed, durable, under Basic.
pub fn fig_7_11_12(_point: Point, _seed: u64) -> Vec<Setup> {
    vec![Setup {
        nodes: 2,
        time_scale: 100.0,
        gens: vec![PatternDescriptor::constant(300, 60)],
        datasets: vec![("Tweets", None)],
        feeds: vec![Feed("TwitterFeed", Source::Gens(&[0]), None)],
        connect: vec![("TwitterFeed", "Tweets", "Basic")],
        end: End::Drain(secs(4)),
        ..Setup::default()
    }]
}

/// The Storm side of Figs 7.11/7.12: spout → parse/UDF bolt → store bolt
/// with one client insert per tuple, on the same workload.
fn storm(concern: WriteConcern, addr: &str) -> Json {
    let clock = SimClock::with_scale(100.0);
    let config = TweetGenConfig::new(addr, 0, PatternDescriptor::constant(300, 60));
    let gen = TweetGen::bind(config, clock.clone()).expect("bind");
    let source = socket::attach(addr).expect("attach").lines;
    let mut glue = StormMongoConfig::default();
    (glue.concern, glue.udf_spin) = (concern, 1_000);
    glue.topology.max_spout_pending = 512;
    // journal group commit every 100 sim-ms (MongoDB's default)
    glue.mongo.commit_interval = SimDuration::from_millis(100);
    glue.mongo.per_op_spin = 2_000;
    let report = run_storm_mongo(glue, clock, source).expect("glued run");
    gen.stop();
    let (t_secs, rate) = ts(&report.throughput);
    let system = match concern {
        WriteConcern::Durable => "Storm+MongoDB (durable)",
        WriteConcern::NonDurable => "Storm+MongoDB (non-durable)",
    };
    obj! {
        system: system, generated: gen.generated(), persisted: report.persisted,
        mean_rate: report.throughput.mean_rate(), peak_rate: report.throughput.peak_rate(),
        spout_stalls: report.spout_stalls, replayed: report.replayed, t_secs: t_secs, rate: rate,
    }
}

/// Both Storm runs, then the native feed's row.
pub fn fig_7_11_12_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let o = only(runs);
    let (t_secs, rate) = ts(&o.series[0]);
    let asterix = obj! {
        system: "AsterixDB feed (durable WAL)", generated: o.generated, persisted: o.persisted[0],
        mean_rate: o.series[0].mean_rate(), peak_rate: o.series[0].peak_rate(),
        spout_stalls: 0, replayed: 0, t_secs: t_secs, rate: rate,
    };
    println!("running Storm+MongoDB durable and non-durable...");
    let durable = storm(WriteConcern::Durable, "fig711-d:9000");
    vec![
        durable,
        storm(WriteConcern::NonDurable, "fig711-n:9000"),
        asterix,
    ]
}

// ---- compacted components: storage only ------------------------------------

/// Datasets by name, for the AQL evaluator.
struct Datasets(HashMap<String, Arc<Dataset>>);

impl EvalContext for Datasets {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        let found = self.0.get(name).cloned();
        found.ok_or_else(|| IngestError::Metadata(format!("unknown dataset {name}")))
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!("no function {name}")))
    }
}

/// Compacted components: two datasets loaded with the same tweets, one
/// sealing through the schema inferencer into the compacted layout, one
/// pinned to the open layout; storage bytes per record after a full merge,
/// and a single-field AQL scan with and without projection pushdown.
pub fn exp_compaction(seed: u64) -> (Json, Option<MetricsSnapshot>) {
    const RECORDS: usize = 24_000;
    const ITERS: usize = 8;
    let mut factory = TweetFactory::new(1, seed);
    let parse = |_| Arc::new(parse_value(&factory.next_json()).expect("tweet parses"));
    let tweets: Vec<Arc<AdmValue>> = (0..RECORDS).map(parse).collect();
    let (registry, trace) = (MetricsRegistry::new(), TraceHub::new(SimClock::fast(), 64));
    let load = |name: &str, layout: LayoutConfig| {
        let mut pc = PartitionConfig::keyed_on("id");
        pc.lsm.layout = layout;
        let config = DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        };
        let d = Arc::new(Dataset::create_configured(config, pc).expect("dataset"));
        for chunk in tweets.chunks(512) {
            let outcome = d.upsert_batch(chunk).expect("ingest");
            assert!(outcome.is_clean(), "tweets ingest cleanly");
        }
        d.force_merge_all();
        assert_eq!(d.len(), RECORDS);
        d.register_observability(&registry, &trace);
        let p = d.partition(0);
        let row = obj! {
            layout: if name == "Tweets" { "compacted" } else { "open" }, records: d.len(),
            storage_bytes: d.storage_bytes(), bytes_per_record: d.bytes_per_record(),
            schema_inferred_components: p.schema_inferred_components(),
            fallback_components: p.fallback_components(),
        };
        ((name.to_string(), d), row)
    };
    let (compacted, compacted_row) = load("Tweets", LayoutConfig::default());
    let (open, open_row) = load("TweetsOpen", LayoutConfig::open());
    let ratio = open_row.num("bytes_per_record") / compacted_row.num("bytes_per_record");
    let ctx = Datasets(HashMap::from([compacted, open]));
    // only `country` and `message_text` are touched, so the pushdown scans
    // just those columns; `let $r := $t` pins the whole-record path (a bare
    // `$t` blocks projection) and returns the same rows
    let scan = |layout: &str, ds: &str, path: &str| {
        let (bind, var) = match path {
            "projected" => ("", "$t"),
            _ => ("let $r := $t ", "$r"),
        };
        let query = format!(
            r#"for $t in dataset {ds} {bind}where {var}.country = "US" return {var}.message_text"#
        );
        let expr = parse_expr(&query).expect("query parses");
        let mut env = Env::new();
        let sample = eval(&expr, &mut env, &ctx).expect("query evaluates");
        let t0 = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(eval(&expr, &mut env, &ctx).expect("query evaluates"));
        }
        let total = t0.elapsed().as_secs_f64();
        let rows = sample.as_list().expect("FLWOR yields a list").to_vec();
        let row = obj! {
            layout: layout, scan_path: path, rows_matched: rows.len(), iters: ITERS,
            total_ms: total * 1000.0, krecords_per_sec: (RECORDS * ITERS) as f64 / total / 1000.0,
        };
        (row, rows)
    };
    let paths = ["whole-record", "projected"];
    let runs = [("open", "TweetsOpen"), ("compacted", "Tweets")]
        .map(|(layout, ds)| paths.map(|path| scan(layout, ds, path)));
    let (scans, results): (Vec<Json>, Vec<_>) = runs.into_iter().flatten().unzip();
    assert!(!results[0].is_empty(), "the filter must select something");
    let same = results.iter().all(|rows| *rows == results[0]);
    assert!(same, "layout and projection change no result");
    // old world (open layout, whole records) vs new world (compacted
    // columns + projection pushdown)
    let speedup = scans[3].num("krecords_per_sec") / scans[0].num("krecords_per_sec");
    let storage = vec![compacted_row, open_row];
    let data = obj! {
        storage: storage, scans: scans, bytes_per_record_ratio: ratio, scan_speedup: speedup,
    };
    (data, Some(registry.snapshot()))
}

// ---- closed-loop elastic scaling -------------------------------------------

/// A 10x ramp (75 → 750 → 75 twps per source, two sources) against one
/// compute instance of ~4 000 rec/s real; the governor steers compute 1..5
/// and the intake width 1..2. The gauges are sampled every 2 sim-s until
/// the governor has shed the extra partitions again.
pub fn exp_elastic(_point: Point, _seed: u64) -> Vec<Setup> {
    let mut base = capacity(6, 100.0, 1, 250);
    base.controller.governor = GovernorConfig {
        interval: secs(1),
        cooldown: secs(4),
        // the scale-in band sits well above a calm pipeline's lag
        low_lag_millis: 1_000,
        max_compute: 5,
        max_intake: 2,
        ..GovernorConfig::default()
    };
    let ramp = phases(&[(75, 30), (750, 60), (75, 45)], 1);
    let mut setup = chapter7(base, ramp.clone(), "Elastic");
    // two datasources, two collect instances: the intake width has a range
    setup.gens.push(ramp);
    setup.feeds = vec![Feed("TwitterFeed", Source::Gens(&[0, 1]), Some(HASHTAGS))];
    setup.probes = vec![
        ("compute", Probe::Compute(COMPUTE)),
        ("intake_width", Probe::Intake("TwitterFeed")),
        (
            "lag_p99_millis",
            Probe::Gauge("elastic.lag_p99_millis", CONN),
        ),
        ("backlog_bytes", Probe::Gauge("elastic.backlog_bytes", CONN)),
    ];
    setup.every = secs(2);
    setup.settle_on = Some((0, 1));
    vec![setup]
}

/// The governor's summary and its sampled series.
pub fn exp_elastic_data(runs: &Runs, _seed: u64) -> Vec<Json> {
    let o = only(runs);
    let s = &o.samples;
    let max = |v: &Vec<u64>| v.iter().copied().max().unwrap_or(0);
    let min = |v: &Vec<u64>| v.iter().copied().min().unwrap_or(0);
    let count = |name: &str| o.snap.counter_for(name, CONN);
    vec![obj! {
        generated: o.generated, persisted: o.persisted[0],
        peak_compute: max(&s[0]), final_compute: o.finals[0],
        min_intake_width: min(&s[1]), peak_intake_width: max(&s[1]), final_intake_width: o.finals[1],
        scale_outs: count("elastic.scale_out_total"), scale_ins: count("elastic.scale_in_total"),
        governor_ticks: count("elastic.governor_ticks"),
        max_lag_p99_millis: max(&s[2]), final_lag_p99_millis: s[2].last().copied().unwrap_or(0),
        t_secs: o.t_secs.clone(), compute: s[0].clone(), intake_width: s[1].clone(),
        lag_p99_millis: s[2].clone(), backlog_bytes: s[3].clone(),
    }]
}

// ---- predicate-routed fan-out ----------------------------------------------

/// The three sinks: US tweets (Basic, at-least-once), popular tweets
/// (Spill, at-least-once) and the rest (Discard, the `otherwise` arm).
fn fanout_sinks() -> Vec<SinkSpec> {
    let alo = |to: &str, arm: RoutePredicate, policy: &str| {
        let sink = SinkSpec::to(to).route(arm).policy(policy);
        sink.policy_param("at.least.once.enabled", "true")
    };
    vec![
        alo("UsTweets", RoutePredicate::eq("country", "US"), "Basic"),
        alo(
            "PopularTweets",
            RoutePredicate::gt("user.followers_count", 50_000),
            "Spill",
        ),
        SinkSpec::to("RestTweets").otherwise().policy("Discard"),
    ]
}

/// The plan IR is the delivery oracle: TweetGen's stream is a pure function
/// of `(instance, seed)`, so the first `n` tweets, routed as the router
/// must, give each sink's exact id set.
fn fanout_oracle(seed: u64, n: u64) -> [BTreeSet<String>; 3] {
    let head = IngestPlanBuilder::new("FanFeed").adaptor("TweetGenAdaptor");
    let plan = fanout_sinks()
        .into_iter()
        .fold(head, IngestPlanBuilder::sink);
    let plan = plan.build().expect("plan");
    let mut factory = TweetFactory::new(0, seed);
    let mut sets: [BTreeSet<String>; 3] = Default::default();
    for _ in 0..n {
        let v = parse_value(&factory.next_json()).expect("tweet parses");
        let targets = plan.route_record(&v, None);
        assert_eq!(targets.len(), 1, "FirstMatch + otherwise partitions");
        let id = v.field("id").and_then(AdmValue::as_str).expect("id");
        sets[targets[0]].insert(id.to_string());
    }
    let degenerate = sets.iter().any(BTreeSet::is_empty);
    assert!(
        !degenerate,
        "degenerate split: the seed routes nothing to some sink"
    );
    sets
}

/// One source, three sinks through a routed plan, and a store-node kill
/// drawn from the seed (node 0, collect and router, is protected), revived
/// five sim-seconds later.
pub fn exp_fanout(_point: Point, seed: u64) -> Vec<Setup> {
    let pattern = PatternDescriptor::constant(300, 10);
    let want = fanout_oracle(seed, pattern.total_tweets()).map(|s| s.len() as u64);
    let plan = FaultPlanConfig {
        nodes: 4,
        protected_nodes: 1,
        horizon_records: 300 * 10 / 4,
        node_kills: 1,
        rejoin_delay_records: 300 * 5,
        ..FaultPlanConfig::default()
    };
    vec![Setup {
        gens: vec![pattern],
        gen_seed: Some(seed),
        datasets: vec![
            ("UsTweets", None),
            ("PopularTweets", None),
            ("RestTweets", None),
        ],
        feeds: vec![Feed("FanFeed", Source::Gens(&[0]), None)],
        sinks: fanout_sinks(),
        faults: Faults::Plan(plan),
        complete: vec![Some(want[0]), Some(want[1]), None],
        end: End::Drain(secs(10)),
        audit: true,
        ..faulty()
    }]
}

/// Per-sink delivery against the oracle.
pub fn exp_fanout_data(runs: &Runs, seed: u64) -> Vec<Json> {
    let o = only(runs);
    assert_eq!(o.series.len(), 3, "one connection per sink");
    let want = fanout_oracle(seed, o.generated);
    let diff = |a: &BTreeSet<String>, b: &BTreeSet<String>| a.difference(b).count() as u64;
    let sinks = ["UsTweets", "PopularTweets", "RestTweets"];
    let routed = |d: &str| {
        o.snap
            .counter_for("plan.sink.records_routed", &format!("FanFeed:{d}"))
    };
    vec![obj! {
        generated: o.generated, schedule: o.schedule.clone(),
        expected: want.iter().map(BTreeSet::len).collect::<Vec<_>>(),
        persisted: o.ids.iter().map(BTreeSet::len).collect::<Vec<_>>(),
        missing_basic: diff(&want[0], &o.ids[0]), missing_spill: diff(&want[1], &o.ids[1]),
        discard_gap: diff(&want[2], &o.ids[2]),
        foreign_records: (0..3).map(|i| diff(&o.ids[i], &want[i])).sum::<u64>(),
        routed_counters: sinks.map(routed).to_vec(),
        no_match: o.snap.counter_for("plan.route.no_match_total", "FanFeed"),
    }]
}
