//! Figures 5.14/5.15/5.16 — Scalability: records ingested (persisted and
//! indexed) in a fixed window as the cluster grows from 1 to 10 nodes.
//!
//! Six parallel TweetGen instances push at an aggregate rate far above the
//! single-node ingestion capacity; the Discard policy sheds the excess, so
//! the persisted count measures capacity. The compute and store stages get
//! one instance per node, so capacity should grow near-linearly with the
//! cluster (Fig 5.16's linear scale-up).
//!
//! Capacity modelling: each compute instance sleeps `DELAY_US` per record —
//! a fixed per-node processing rate that parallelizes across instances
//! regardless of host cores (see DESIGN.md's substitution note; this host
//! may have a single physical core, where busy-spin capacity could not
//! scale with simulated nodes).

#![forbid(unsafe_code)]

use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::rig::{wait_pattern_done, ExperimentRig, RigOptions};
use asterix_bench::{write_json, ExperimentReport};
use asterix_feeds::controller::ControllerConfig;
use asterix_feeds::udf::Udf;
use std::time::Duration;
use tweetgen::PatternDescriptor;

/// TweetGen instances (fixed intake parallelism, like the paper's 6).
const GENERATORS: usize = 6;
/// Rate per generator, tweets per sim-second.
const RATE: u32 = 700;
/// Window, sim-seconds.
const WINDOW: u64 = 40;
/// Per-record compute delay, µs (per-node capacity = 1e6/DELAY records/s).
const DELAY_US: u64 = 400;

#[derive(Debug)]
struct Row {
    nodes: usize,
    generated: u64,
    persisted: usize,
    discarded: u64,
    persisted_pct: f64,
    speedup_vs_1: f64,
}
json_fields!(Row {
    nodes,
    generated,
    persisted,
    discarded,
    persisted_pct,
    speedup_vs_1,
});

fn run(nodes: usize, round: usize) -> (u64, usize, u64) {
    let rig = ExperimentRig::start(RigOptions {
        nodes,
        time_scale: 100.0,
        controller: ControllerConfig {
            compute_parallelism: Some(nodes),
            compute_extra_delay_us: DELAY_US,
            ..ControllerConfig::default()
        },
        ..RigOptions::default()
    });
    let addrs: Vec<String> = (0..GENERATORS)
        .map(|i| format!("fig516-{nodes}-{round}-{i}:9000"))
        .collect();
    let gens: Vec<_> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| rig.tweetgen(a, i as u32, PatternDescriptor::constant(RATE, WINDOW)))
        .collect();
    let dataset = rig.dataset("ProcessedTweets", "Tweet");
    rig.catalog
        .create_function(Udf::add_hash_tags())
        .expect("udf");
    rig.primary_feed("TweetGenFeed", &addrs.join(","), Some("addHashTags"));
    rig.controller
        .connect_feed("TweetGenFeed", "ProcessedTweets", "Discard")
        .expect("connect");
    let generated: u64 = gens.iter().map(wait_pattern_done).sum();
    // fixed measurement instant: the paper measures the count at the end of
    // the window, not after an open-ended drain (which would reward larger
    // clusters twice)
    std::thread::sleep(Duration::from_millis(200));
    let persisted = dataset.len();
    let m = rig
        .controller
        .compute_metrics("TweetGenFeed:addHashTags")
        .expect("metrics");
    let discarded = m.records_discarded.get();
    for g in gens {
        g.stop();
    }
    rig.export_metrics("fig_5_16");
    rig.stop();
    (generated, persisted, discarded)
}

fn main() {
    println!("Figure 5.16 reproduction: scalability with cluster size");
    println!(
        "({GENERATORS} TweetGen instances x {RATE} twps for {WINDOW} sim-s; per-node \
         capacity 1e6/{DELAY_US} rec/s; Discard policy)"
    );
    let sizes = [1usize, 2, 4, 6, 8, 10];
    let mut rows: Vec<Row> = Vec::new();
    let mut base: Option<f64> = None;
    for (round, &n) in sizes.iter().enumerate() {
        let (generated, persisted, discarded) = run(n, round);
        let speedup = match base {
            Some(b) => persisted as f64 / b,
            None => {
                base = Some(persisted as f64);
                1.0
            }
        };
        println!(
            "  nodes={n}: generated={generated} persisted={persisted} \
             discarded={discarded} speedup={speedup:.2}x"
        );
        rows.push(Row {
            nodes: n,
            generated,
            persisted,
            discarded,
            persisted_pct: 100.0 * persisted as f64 / generated.max(1) as f64,
            speedup_vs_1: speedup,
        });
    }

    print_table(
        "Fig 5.16: ingested records vs cluster size",
        &[
            "Nodes",
            "Generated",
            "Persisted",
            "% persisted",
            "Speedup vs 1",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.generated.to_string(),
                    r.persisted.to_string(),
                    format!("{:.1}%", r.persisted_pct),
                    format!("{:.2}x", r.speedup_vs_1),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nexpected shape (paper): near-linear growth in persisted records with \
         cluster size; % discarded declines"
    );
    write_json(&ExperimentReport {
        experiment: "fig_5_16".into(),
        paper_artifact: "Figures 5.14/5.16 — scalability of feed ingestion".into(),
        data: rows,
    });
}
