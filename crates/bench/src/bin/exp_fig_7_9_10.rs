//! Figures 7.9/7.10 — how Discard and Throttle handle excess records,
//! visualized as the persisted-record-id pattern (1 = persisted, 0 = lost).
//!
//! Discard drops whole arriving frames while the backlog persists →
//! *contiguous gaps* ("periods of discontinuity when no records received
//! from the data source are persisted"). Throttle randomly samples →
//! *uniform thinning* with only short gaps.

#![forbid(unsafe_code)]

use asterix_adm::AdmValue;
use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::rig::{wait_pattern_done, wait_stable, ExperimentRig, RigOptions};
use asterix_bench::{write_json, ExperimentReport};
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::udf::Udf;
use std::time::Duration;
use tweetgen::PatternDescriptor;

/// Sustained overload: offered ≈ 2x capacity.
const RATE: u32 = 800;
const WINDOW: u64 = 60;
const DELAY_US: u64 = 250; // capacity ≈ 4000/s real vs offered 8000/s real

#[derive(Debug)]
struct PatternStats {
    policy: String,
    offered: usize,
    persisted: usize,
    kept_fraction: f64,
    longest_gap: usize,
    mean_gap: f64,
    gap_count: usize,
    /// fraction persisted per 2%-of-stream bucket (a printable "plot")
    buckets: Vec<f64>,
}
json_fields!(PatternStats {
    policy,
    offered,
    persisted,
    kept_fraction,
    longest_gap,
    mean_gap,
    gap_count,
    buckets,
});

fn run(policy: &str) -> PatternStats {
    let rig = ExperimentRig::start(RigOptions {
        nodes: 2,
        time_scale: 100.0,
        controller: ControllerConfig {
            compute_parallelism: Some(1),
            compute_extra_delay_us: DELAY_US,
            ..ControllerConfig::default()
        },
        ..RigOptions::default()
    });
    let addr = format!("fig7910-{policy}:9000");
    let gen = rig.tweetgen(&addr, 0, PatternDescriptor::constant(RATE, WINDOW));
    let dataset = rig.dataset("Tweets", "Tweet");
    rig.catalog.create_function(Udf::add_hash_tags()).unwrap();
    rig.primary_feed("TwitterFeed", &addr, Some("addHashTags"));
    rig.controller
        .connect_feed("TwitterFeed", "Tweets", policy)
        .unwrap();
    let offered = wait_pattern_done(&gen) as usize;
    wait_stable(|| dataset.len(), Duration::from_millis(500));

    let mut present = vec![false; offered];
    for rec in dataset.scan_all() {
        if let Some(seq) = rec
            .field("id")
            .and_then(AdmValue::as_str)
            .and_then(|id| id.strip_prefix("0-"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            if seq < offered {
                present[seq] = true;
            }
        }
    }
    gen.stop();
    rig.export_metrics("fig_7_9_10");
    rig.stop();

    // gap statistics
    let mut gaps: Vec<usize> = Vec::new();
    let mut current = 0usize;
    for &p in &present {
        if p {
            if current > 0 {
                gaps.push(current);
                current = 0;
            }
        } else {
            current += 1;
        }
    }
    if current > 0 {
        gaps.push(current);
    }
    let persisted = present.iter().filter(|&&b| b).count();
    let n_buckets = 50;
    let bucket_size = offered.div_ceil(n_buckets);
    let buckets: Vec<f64> = present
        .chunks(bucket_size)
        .map(|c| c.iter().filter(|&&b| b).count() as f64 / c.len() as f64)
        .collect();
    PatternStats {
        policy: policy.into(),
        offered,
        persisted,
        kept_fraction: persisted as f64 / offered as f64,
        longest_gap: gaps.iter().copied().max().unwrap_or(0),
        mean_gap: if gaps.is_empty() {
            0.0
        } else {
            gaps.iter().sum::<usize>() as f64 / gaps.len() as f64
        },
        gap_count: gaps.len(),
        buckets,
    }
}

fn spark(buckets: &[f64]) -> String {
    const LEVELS: [char; 5] = [' ', '.', ':', '+', '#'];
    buckets
        .iter()
        .map(|&f| LEVELS[((f * 4.0).round() as usize).min(4)])
        .collect()
}

fn main() {
    println!("Figures 7.9/7.10 reproduction: Discard vs Throttle persisted-id pattern");
    println!(
        "({RATE} twps for {WINDOW} sim-s at scale 100 vs ~{}/s capacity: 2x overload)",
        1_000_000 / DELAY_US
    );
    let discard = run("Discard");
    let throttle = run("Throttle");

    print_table(
        "Figs 7.9/7.10: gap structure of the lost records",
        &[
            "Policy",
            "Offered",
            "Persisted",
            "Kept",
            "Gaps",
            "Mean gap",
            "Longest gap",
        ],
        &[&discard, &throttle]
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    r.offered.to_string(),
                    r.persisted.to_string(),
                    format!("{:.0}%", 100.0 * r.kept_fraction),
                    r.gap_count.to_string(),
                    format!("{:.1}", r.mean_gap),
                    r.longest_gap.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\npersisted density over the id stream (each char = 2% of stream):");
    println!("  Discard : [{}]", spark(&discard.buckets));
    println!("  Throttle: [{}]", spark(&throttle.buckets));
    println!(
        "\nexpected shape (paper): Discard leaves long contiguous runs of zeros \
         (Fig 7.9); Throttle thins uniformly with short gaps (Fig 7.10)"
    );
    assert!(
        discard.longest_gap > throttle.longest_gap,
        "discard's gaps should dominate"
    );
    write_json(&ExperimentReport {
        experiment: "fig_7_9_10".into(),
        paper_artifact: "Figures 7.9/7.10 — excess-record handling patterns".into(),
        data: vec![discard, throttle],
    });
}
