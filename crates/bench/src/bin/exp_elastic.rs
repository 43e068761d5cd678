//! Closed-loop elastic scaling under a 10x load ramp.
//!
//! The governor (DESIGN.md "Elastic scaling") samples the metrics registry
//! once per interval and steers both pipeline dimensions of a live feed:
//! the compute partition count and the intake width. This experiment offers
//! a three-phase pattern — calm, a 10x ramp, calm again — and proves the
//! loop is closed in *both* directions:
//!
//! * during the ramp the compute stage scales out (and the intake widens
//!   back to its full width) until the backlog drains;
//! * after the ramp the quiet-tick hysteresis sheds the extra partitions
//!   again, in-flight frames migrating to the surviving partitions;
//! * ingestion lag stays bounded throughout — the backlog never diverges —
//!   and returns to calm-phase levels at the end.
//!
//! The run fails (non-zero exit) if any of those floors is missed, so CI
//! can execute it as a regression gate.

#![forbid(unsafe_code)]

use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::rig::{wait_pattern_done, wait_until, ExperimentRig, RigOptions};
use asterix_bench::{write_json, ExperimentReport};
use asterix_common::SimDuration;
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::governor::GovernorConfig;
use asterix_feeds::udf::Udf;
use std::time::Duration;
use tweetgen::{Interval, PatternDescriptor};

/// Per-record compute delay, µs → capacity ≈ 4000 records/s real per
/// instance (the Fig 5.16 capacity substitution).
const DELAY_US: u64 = 250;

/// Calm-phase rate per source, records per sim-second. Two sources at time
/// scale 100 offer 1500 records per real second — ~37% of one instance's
/// capacity, genuinely calm.
const LOW_TWPS: u32 = 75;

/// Ramp rate: 10x the calm phase. Both sources together offer 15000
/// records per real second — far over one instance, within reach of the
/// governor's compute ceiling.
const HIGH_TWPS: u32 = 750;

const CONN_KEY: &str = "TwitterFeed->Tweets";
const JOINT: &str = "TwitterFeed:addHashTags";
const ROOT: &str = "TwitterFeed";

fn pattern() -> PatternDescriptor {
    PatternDescriptor {
        intervals: vec![
            Interval {
                rate_twps: LOW_TWPS,
                duration: SimDuration::from_secs(30),
            },
            Interval {
                rate_twps: HIGH_TWPS,
                duration: SimDuration::from_secs(60),
            },
            Interval {
                rate_twps: LOW_TWPS,
                duration: SimDuration::from_secs(45),
            },
        ],
        repeat: 1,
    }
}

#[derive(Debug)]
struct ElasticRun {
    generated: u64,
    persisted: u64,
    peak_compute: usize,
    final_compute: usize,
    min_intake_width: usize,
    peak_intake_width: usize,
    final_intake_width: usize,
    scale_outs: u64,
    scale_ins: u64,
    governor_ticks: u64,
    max_lag_p99_millis: u64,
    final_lag_p99_millis: u64,
    t_secs: Vec<f64>,
    compute: Vec<u64>,
    intake_width: Vec<u64>,
    lag_p99_millis: Vec<u64>,
    backlog_bytes: Vec<u64>,
}
json_fields!(ElasticRun {
    generated,
    persisted,
    peak_compute,
    final_compute,
    min_intake_width,
    peak_intake_width,
    final_intake_width,
    scale_outs,
    scale_ins,
    governor_ticks,
    max_lag_p99_millis,
    final_lag_p99_millis,
    t_secs,
    compute,
    intake_width,
    lag_p99_millis,
    backlog_bytes,
});

fn main() {
    println!("exp_elastic: closed-loop governor under a 10x load ramp");
    println!(
        "(2 sources x {LOW_TWPS} -> {HIGH_TWPS} -> {LOW_TWPS} twps at scale 100; \
         1 compute instance at ~{} rec/s real capacity; governor steers \
         compute 1..5 and intake width 1..2)",
        1_000_000 / DELAY_US
    );
    let rig = ExperimentRig::start(RigOptions {
        nodes: 6,
        time_scale: 100.0,
        // the per-record delay holds a pool worker while it sleeps, so the
        // capacity model only scales with instance count if the pool has a
        // worker for every concurrently-delaying instance (max_compute)
        // plus the collect/intake/store/governor tasks around them
        workers: Some(12),
        controller: ControllerConfig {
            compute_parallelism: Some(1),
            compute_extra_delay_us: DELAY_US,
            governor: GovernorConfig {
                interval: SimDuration::from_secs(1),
                cooldown: SimDuration::from_secs(4),
                // a calm pipeline still shows a few hundred sim-ms of lag
                // from the per-hop poll timeouts, so the scale-in band sits
                // above that floor
                low_lag_millis: 1_000,
                max_compute: 5,
                max_intake: 2,
                ..GovernorConfig::default()
            },
            ..ControllerConfig::default()
        },
        ..RigOptions::default()
    });
    // two datasources ⇒ two collect instances, so the intake width has an
    // elastic range (the instance count itself is pinned by the adaptor)
    let gen_a = rig.tweetgen("elastic-a:9000", 0, pattern());
    let gen_b = rig.tweetgen("elastic-b:9000", 1, pattern());
    let _dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed(ROOT, "elastic-a:9000, elastic-b:9000", Some("addHashTags"));
    rig.controller
        .connect_feed(ROOT, "Tweets", "Elastic")
        .unwrap();

    // sample the governor's own exported gauges while the ramp plays out
    let mut t_secs = Vec::new();
    let mut compute = Vec::new();
    let mut intake_width = Vec::new();
    let mut lag_series = Vec::new();
    let mut backlog_series = Vec::new();
    let sample = |rig: &ExperimentRig,
                  t_secs: &mut Vec<f64>,
                  compute: &mut Vec<u64>,
                  intake_width: &mut Vec<u64>,
                  lag: &mut Vec<u64>,
                  backlog: &mut Vec<u64>| {
        let snap = rig.metrics();
        t_secs.push(rig.clock.now().as_secs_f64());
        compute.push(rig.controller.compute_parallelism_of(JOINT).unwrap_or(0) as u64);
        intake_width.push(rig.controller.intake_width_of(ROOT).unwrap_or(0) as u64);
        lag.push(
            snap.gauge_for("elastic.lag_p99_millis", CONN_KEY)
                .unwrap_or(0),
        );
        backlog.push(
            snap.gauge_for("elastic.backlog_bytes", CONN_KEY)
                .unwrap_or(0),
        );
    };

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            // the return value is unreliable here — a generator stalled by
            // intake-rebuild backpressure looks "done" for a moment — so the
            // totals are re-read once the pipeline has fully drained below
            wait_pattern_done(&gen_a);
            wait_pattern_done(&gen_b);
            done.store(true, std::sync::atomic::Ordering::SeqCst);
        });
        while !done.load(std::sync::atomic::Ordering::SeqCst) {
            sample(
                &rig,
                &mut t_secs,
                &mut compute,
                &mut intake_width,
                &mut lag_series,
                &mut backlog_series,
            );
            std::thread::sleep(Duration::from_millis(200));
        }
        handle.join().expect("pattern watcher");
    });

    // the pattern has ended; keep sampling until the governor has shed the
    // extra compute partitions again (the scale-in half of the loop)
    let scaled_back = wait_until(Duration::from_secs(120), || {
        sample(
            &rig,
            &mut t_secs,
            &mut compute,
            &mut intake_width,
            &mut lag_series,
            &mut backlog_series,
        );
        std::thread::sleep(Duration::from_millis(150));
        rig.controller.compute_parallelism_of(JOINT) == Some(1)
    });

    let dataset = rig.catalog.dataset("Tweets").unwrap();
    asterix_bench::rig::wait_stable(|| dataset.len(), Duration::from_millis(500));
    let generated = gen_a.generated() + gen_b.generated();
    let snap = rig.metrics();
    let peak_compute = compute.iter().copied().max().unwrap_or(0) as usize;
    let final_compute = rig.controller.compute_parallelism_of(JOINT).unwrap_or(0);
    let min_w = intake_width.iter().copied().min().unwrap_or(0) as usize;
    let peak_w = intake_width.iter().copied().max().unwrap_or(0) as usize;
    let final_w = rig.controller.intake_width_of(ROOT).unwrap_or(0);
    let run = ElasticRun {
        generated,
        persisted: dataset.len() as u64,
        peak_compute,
        final_compute,
        min_intake_width: min_w,
        peak_intake_width: peak_w,
        final_intake_width: final_w,
        scale_outs: snap.counter_for("elastic.scale_out_total", CONN_KEY),
        scale_ins: snap.counter_for("elastic.scale_in_total", CONN_KEY),
        governor_ticks: snap.counter_for("elastic.governor_ticks", CONN_KEY),
        max_lag_p99_millis: lag_series.iter().copied().max().unwrap_or(0),
        final_lag_p99_millis: lag_series.last().copied().unwrap_or(0),
        t_secs,
        compute,
        intake_width,
        lag_p99_millis: lag_series,
        backlog_bytes: backlog_series,
    };

    print_table(
        "exp_elastic: governor summary",
        &["Metric", "Value"],
        &[
            vec!["generated".into(), run.generated.to_string()],
            vec!["persisted".into(), run.persisted.to_string()],
            vec!["peak compute ||ism".into(), run.peak_compute.to_string()],
            vec!["final compute ||ism".into(), run.final_compute.to_string()],
            vec![
                "intake width (min/peak/final)".into(),
                format!(
                    "{}/{}/{}",
                    run.min_intake_width, run.peak_intake_width, run.final_intake_width
                ),
            ],
            vec!["governor scale-outs".into(), run.scale_outs.to_string()],
            vec!["governor scale-ins".into(), run.scale_ins.to_string()],
            vec!["governor ticks".into(), run.governor_ticks.to_string()],
            vec![
                "lag p99 (max/final), sim-ms".into(),
                format!("{}/{}", run.max_lag_p99_millis, run.final_lag_p99_millis),
            ],
        ],
    );
    println!("\nCSV: t_secs,compute,intake_width,lag_p99_millis,backlog_bytes");
    for i in 0..run.t_secs.len() {
        println!(
            "{:.0},{},{},{},{}",
            run.t_secs[i],
            run.compute[i],
            run.intake_width[i],
            run.lag_p99_millis[i],
            run.backlog_bytes[i]
        );
    }

    rig.export_metrics("exp_elastic");

    // ---- floors: the loop must be closed in both directions ---------------
    assert!(
        run.peak_compute >= 2,
        "governor never scaled the compute stage out (peak {})",
        run.peak_compute
    );
    assert!(
        scaled_back && run.final_compute < run.peak_compute,
        "governor never scaled back in (final {} vs peak {})",
        run.final_compute,
        run.peak_compute
    );
    assert!(
        run.scale_outs >= 1 && run.scale_ins >= 1,
        "elastic.* counters missed a direction (out {}, in {})",
        run.scale_outs,
        run.scale_ins
    );
    assert!(
        run.min_intake_width == 1 && run.peak_intake_width == 2,
        "intake width never traversed its range (min {}, peak {})",
        run.min_intake_width,
        run.peak_intake_width
    );
    // the width must RISE during the ramp after the calm phase shrank it —
    // a monotone fall would satisfy min/peak alone
    let first_narrow = run.intake_width.iter().position(|&w| w == 1);
    let rose_after_fall = first_narrow
        .map(|i| run.intake_width[i..].contains(&2))
        .unwrap_or(false);
    assert!(
        rose_after_fall,
        "intake width never widened again after the calm-phase scale-in"
    );
    // bounded lag: the backlog never diverges, and the loop returns the
    // pipeline to calm-phase lag once the ramp ends
    assert!(
        run.max_lag_p99_millis < 60_000,
        "ingestion lag diverged (p99 reached {} sim-ms)",
        run.max_lag_p99_millis
    );
    assert!(
        run.final_lag_p99_millis <= 2_000,
        "lag did not return to calm levels (final p99 {} sim-ms)",
        run.final_lag_p99_millis
    );
    // the Elastic policy is best-effort (no at-least-once tracker; the
    // no-loss-under-scaling guarantee is the chaos suite's to prove), but
    // rebuild edges must stay edges — wholesale dropping is a regression
    assert!(
        run.persisted * 10 >= run.generated * 9,
        "more than 10% of the stream was lost across rebuilds ({} of {})",
        run.persisted,
        run.generated
    );
    println!("\nall elastic floors hold");

    gen_a.stop();
    gen_b.stop();
    write_json(&ExperimentReport {
        experiment: "exp_elastic".into(),
        paper_artifact: "closed-loop elastic scaling (§7.3.5 extended: governor)".into(),
        data: vec![run],
    });
    rig.stop();
}
