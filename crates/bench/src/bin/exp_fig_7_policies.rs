//! Figures 7.3–7.7 — the built-in ingestion policies under the Chapter 7
//! square-wave overload.
//!
//! The compute stage's capacity sits between the square wave's low phase
//! (no congestion) and its high phase (sustained congestion), so each
//! policy's signature shows in the instantaneous ingestion throughput:
//!
//! * **Basic** (Fig 7.3) — excess buffers in memory during the high phase
//!   and drains during the low phase: throughput smooths toward the mean,
//!   nothing is lost;
//! * **Spill** (Fig 7.4) — same shape, but the excess sits on disk
//!   (spill/despill counters move instead of memory);
//! * **Discard** (Fig 7.5) — throughput clamps at capacity during the high
//!   phase; the clamped-off records are gone;
//! * **Throttle** (Fig 7.6) — clamps too, but by uniform sampling;
//! * **Elastic** (Fig 7.7) — excess buffers while the scaling governor
//!   (default `GovernorConfig`) adds compute partitions during a high phase
//!   and sheds them again once a low phase has stayed calm, so high phases
//!   are ingested closer to their offered rate and nothing is lost.

#![forbid(unsafe_code)]

use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::rig::{wait_pattern_done, ExperimentRig, RigOptions};
use asterix_bench::{write_json, ExperimentReport};
use asterix_common::SimDuration;
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::udf::Udf;
use tweetgen::{Interval, PatternDescriptor};

/// Per-record compute delay, µs → capacity ≈ 4000 records/s real per
/// instance. At time scale 100 (100 ms real per sim-second) the square
/// wave offers 2000 (low) / 5000 (high) records per real second: the low
/// phase is under capacity, the high phase over it, and the mean (3500) is
/// sustainable so Basic and Spill can catch up during low phases.
const DELAY_US: u64 = 250;

fn pattern() -> PatternDescriptor {
    PatternDescriptor {
        intervals: vec![
            Interval {
                rate_twps: 200,
                duration: SimDuration::from_secs(30),
            },
            Interval {
                rate_twps: 500,
                duration: SimDuration::from_secs(30),
            },
        ],
        repeat: 2,
    }
}

#[derive(Debug)]
struct PolicyRun {
    policy: String,
    generated: u64,
    persisted: u64,
    discarded: u64,
    throttled: u64,
    spilled: u64,
    despilled: u64,
    /// Congestion episodes the flow controllers signalled.
    elastic_scaleouts: u64,
    /// Scaling steps the governor took for the connection.
    scale_outs: u64,
    scale_ins: u64,
    final_compute_parallelism: usize,
    t_secs: Vec<f64>,
    rate: Vec<f64>,
}
json_fields!(PolicyRun {
    policy,
    generated,
    persisted,
    discarded,
    throttled,
    spilled,
    despilled,
    elastic_scaleouts,
    scale_outs,
    scale_ins,
    final_compute_parallelism,
    t_secs,
    rate,
});

fn run(policy: &str, round: usize) -> PolicyRun {
    let rig = ExperimentRig::start(RigOptions {
        nodes: 4,
        time_scale: 100.0,
        controller: ControllerConfig {
            compute_parallelism: Some(1),
            compute_extra_delay_us: DELAY_US,
            ..ControllerConfig::default()
        },
        ..RigOptions::default()
    });
    let addr = format!("fig7pol-{policy}-{round}:9000");
    let gen = rig.tweetgen(&addr, 0, pattern());
    let _dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", &addr, Some("addHashTags"));
    let conn = rig
        .controller
        .connect_feed("TwitterFeed", "Tweets", policy)
        .unwrap();
    let generated = wait_pattern_done(&gen);
    // let deferred work drain (Basic/Spill catch up after the last phase)
    let dataset = rig.catalog.dataset("Tweets").unwrap();
    asterix_bench::rig::wait_stable(|| dataset.len(), std::time::Duration::from_millis(500));
    let m = rig.controller.connection_metrics(conn).unwrap();
    let cm = rig
        .controller
        .compute_metrics("TwitterFeed:addHashTags")
        .unwrap();
    let series = m.throughput();
    let snap = rig.metrics();
    let key = "TwitterFeed->Tweets";
    let out = PolicyRun {
        policy: policy.into(),
        generated,
        persisted: m.records_persisted.get(),
        discarded: cm.records_discarded.get() + m.records_discarded.get(),
        throttled: cm.records_throttled.get() + m.records_throttled.get(),
        spilled: cm.records_spilled.get() + m.records_spilled.get(),
        despilled: cm.records_despilled.get() + m.records_despilled.get(),
        elastic_scaleouts: cm.elastic_scaleouts.get() + m.elastic_scaleouts.get(),
        scale_outs: snap.counter_for("elastic.scale_out_total", key),
        scale_ins: snap.counter_for("elastic.scale_in_total", key),
        final_compute_parallelism: rig
            .controller
            .compute_parallelism_of("TwitterFeed:addHashTags")
            .unwrap_or(0),
        t_secs: series.points.iter().map(|p| p.t_secs).collect(),
        rate: series.points.iter().map(|p| p.rate).collect(),
    };
    gen.stop();
    rig.export_metrics("fig_7_policies");
    rig.stop();
    out
}

fn main() {
    println!("Figures 7.3-7.7 reproduction: ingestion policies under overload");
    println!(
        "(square wave 200/500 twps x 30 sim-s x 2 cycles at scale 100; 1 compute \
         instance at ~{} rec/s real capacity)",
        1_000_000 / DELAY_US
    );
    let policies = ["Basic", "Spill", "Discard", "Throttle", "Elastic"];
    let mut runs = Vec::new();
    for (i, p) in policies.iter().enumerate() {
        println!("running policy {p}...");
        runs.push(run(p, i));
    }

    print_table(
        "Figs 7.3-7.7: policy behaviour summary",
        &[
            "Policy",
            "Generated",
            "Persisted",
            "Discarded",
            "Throttled",
            "Spilled",
            "Scale-outs/ins",
            "Final ||ism",
        ],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.generated.to_string(),
                    r.persisted.to_string(),
                    r.discarded.to_string(),
                    r.throttled.to_string(),
                    r.spilled.to_string(),
                    format!("{}/{}", r.scale_outs, r.scale_ins),
                    r.final_compute_parallelism.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    println!("\nCSV: t_secs,{}", policies.join(","));
    let n = runs.iter().map(|r| r.rate.len()).max().unwrap_or(0);
    for i in 0..n {
        let mut line = format!("{:.0}", i as f64 * 2.0);
        for r in &runs {
            line.push_str(&format!(",{:.0}", r.rate.get(i).copied().unwrap_or(0.0)));
        }
        println!("{line}");
    }
    println!(
        "\nexpected shapes (paper): Basic/Spill lose nothing (throughput clamps \
         in high phase, catches up in low phase); Discard/Throttle lose the \
         clamped-off records; Elastic loses nothing, its governor scales \
         compute out in high phases and back in once low phases stay calm"
    );
    write_json(&ExperimentReport {
        experiment: "fig_7_policies".into(),
        paper_artifact: "Figures 7.3-7.7 — built-in ingestion policies".into(),
        data: runs,
    });
}
