//! Figure 5.13 (+ Table 5.2) — Fetch-Once-Compute-Many: records persisted
//! per feed in a *cascade* network versus an *independent* network, as the
//! %OVERLAP between the feeds' pre-processing varies.
//!
//! Feed_A applies f1(); Feed_B applies f2(f1()) = f3(). In the cascade
//! configuration Feed_B is a secondary feed sourced from Feed_A's compute
//! joint, so f1() runs once per record; in the independent configuration
//! each feed opens its own connection to the external source and Feed_B
//! recomputes f1() inside f3(). Both configurations run CPU-saturated with
//! the Discard policy, so persisted counts measure effective capacity —
//! the cascade wins, and the gap widens with %OVERLAP.

#![forbid(unsafe_code)]

use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::rig::{wait_pattern_done, wait_stable, ExperimentRig, RigOptions};
use asterix_bench::{write_json, ExperimentReport};
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::udf::Udf;
use std::time::Duration;
use tweetgen::PatternDescriptor;

/// Total work of f3 = f2 ∘ f1, in busy-spin iterations (Table 5.2's 50 ms
/// scaled to simulation cost units).
const F3_COST: u64 = 600_000;
/// Offered rate, tweets per sim-second (overload at 1 compute instance).
const RATE: u32 = 500;
/// Window, sim-seconds.
const WINDOW: u64 = 40;

#[derive(Debug)]
struct Row {
    overlap_pct: u64,
    f1_cost: u64,
    f2_cost: u64,
    cascade_feed_a: usize,
    cascade_feed_b: usize,
    independent_feed_a: usize,
    independent_feed_b: usize,
}
json_fields!(Row {
    overlap_pct,
    f1_cost,
    f2_cost,
    cascade_feed_a,
    cascade_feed_b,
    independent_feed_a,
    independent_feed_b,
});

fn rig() -> ExperimentRig {
    ExperimentRig::start(RigOptions {
        nodes: 4,
        time_scale: 10.0,
        controller: ControllerConfig {
            compute_parallelism: Some(2),
            ..ControllerConfig::default()
        },
        ..RigOptions::default()
    })
}

fn run_cascade(overlap: u64, f1_cost: u64, f2_cost: u64) -> (usize, usize) {
    let rig = rig();
    let addr = format!(
        "fig513-casc-{overlap}-{}:9000",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    );
    let gen = rig.tweetgen(&addr, 0, PatternDescriptor::constant(RATE, WINDOW));
    let d1 = rig.dataset("D1", "Tweet");
    let d2 = rig.dataset("D2", "Tweet");
    rig.catalog
        .create_function(Udf::busy_spin("f1", f1_cost))
        .unwrap();
    rig.catalog
        .create_function(Udf::busy_spin("f2", f2_cost))
        .unwrap();
    rig.primary_feed("FeedA", &addr, Some("f1"));
    rig.secondary_feed("FeedB", "FeedA", "f2");
    rig.controller
        .connect_feed("FeedA", "D1", "Discard")
        .unwrap();
    rig.controller
        .connect_feed("FeedB", "D2", "Discard")
        .unwrap();
    wait_pattern_done(&gen);
    let a = wait_stable(|| d1.len(), Duration::from_millis(300));
    let b = wait_stable(|| d2.len(), Duration::from_millis(300));
    gen.stop();
    rig.export_metrics("fig_5_13");
    rig.stop();
    (a, b)
}

fn run_independent(overlap: u64, f1_cost: u64) -> (usize, usize) {
    let rig = rig();
    let addr = format!(
        "fig513-ind-{overlap}-{}:9000",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    );
    let gen = rig.tweetgen(&addr, 0, PatternDescriptor::constant(RATE, WINDOW));
    let d1 = rig.dataset("D1", "Tweet");
    let d2 = rig.dataset("D2", "Tweet");
    rig.catalog
        .create_function(Udf::busy_spin("f1", f1_cost))
        .unwrap();
    // f3 recomputes f1's work plus f2's
    rig.catalog
        .create_function(Udf::busy_spin("f3", F3_COST))
        .unwrap();
    // two independent connections to the same external source
    rig.primary_feed("FeedA", &addr, Some("f1"));
    rig.primary_feed("FeedB", &addr, Some("f3"));
    rig.controller
        .connect_feed("FeedA", "D1", "Discard")
        .unwrap();
    rig.controller
        .connect_feed("FeedB", "D2", "Discard")
        .unwrap();
    wait_pattern_done(&gen);
    let a = wait_stable(|| d1.len(), Duration::from_millis(300));
    let b = wait_stable(|| d2.len(), Duration::from_millis(300));
    gen.stop();
    rig.export_metrics("fig_5_13");
    rig.stop();
    (a, b)
}

fn main() {
    println!("Figure 5.13 reproduction: cascade vs independent network");
    println!(
        "(f3 = {F3_COST} spin units split f1/f2 per %OVERLAP; {RATE} twps for {WINDOW} sim-s, Discard policy)"
    );
    let mut rows = Vec::new();
    const REPS: usize = 3;
    for overlap in [20u64, 40, 60, 80] {
        let f1_cost = F3_COST * overlap / 100;
        let f2_cost = F3_COST - f1_cost;
        let (mut ca, mut cb, mut ia, mut ib) = (0, 0, 0, 0);
        for _ in 0..REPS {
            let (a, b) = run_cascade(overlap, f1_cost, f2_cost);
            ca += a;
            cb += b;
            let (a, b) = run_independent(overlap, f1_cost);
            ia += a;
            ib += b;
        }
        let (ca, cb, ia, ib) = (ca / REPS, cb / REPS, ia / REPS, ib / REPS);
        rows.push(Row {
            overlap_pct: overlap,
            f1_cost,
            f2_cost,
            cascade_feed_a: ca,
            cascade_feed_b: cb,
            independent_feed_a: ia,
            independent_feed_b: ib,
        });
        println!("  %OVERLAP={overlap}: cascade A={ca} B={cb} | independent A={ia} B={ib}");
    }

    print_table(
        "Fig 5.13: records persisted per feed (Table 5.2 parameters)",
        &[
            "%OVERLAP",
            "f1 cost",
            "f2 cost",
            "Cascade A",
            "Cascade B",
            "Indep A",
            "Indep B",
            "A gain",
            "B gain",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.overlap_pct.to_string(),
                    r.f1_cost.to_string(),
                    r.f2_cost.to_string(),
                    r.cascade_feed_a.to_string(),
                    r.cascade_feed_b.to_string(),
                    r.independent_feed_a.to_string(),
                    r.independent_feed_b.to_string(),
                    format!(
                        "{:.2}x",
                        r.cascade_feed_a as f64 / r.independent_feed_a.max(1) as f64
                    ),
                    format!(
                        "{:.2}x",
                        r.cascade_feed_b as f64 / r.independent_feed_b.max(1) as f64
                    ),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nexpected shape (paper): cascade ≥ independent for both feeds, gap \
         widening as %OVERLAP grows"
    );
    write_json(&ExperimentReport {
        experiment: "fig_5_13".into(),
        paper_artifact: "Figure 5.13 + Table 5.2 — cascade vs independent network".into(),
        data: rows,
    });
}
