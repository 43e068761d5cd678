//! The experiment table: one row per figure of the paper's evaluation, and
//! the one runner that regenerates a row.
//!
//! A row is data: what it regenerates, its sweep, the [`Setup`]s a sweep
//! point runs on the rig (generators, datasets, UDFs, feeds and their
//! policies, faults, sample schedule — see [`crate::rig`]), and its floors.
//! The code a row keeps of its own is what really differs: the function
//! that turns its runs into JSON columns (gap statistics, window means, the
//! id audit), or, for a row that drives no feed, the run itself.
//!
//! The runner runs the row, prints its table and CSV, checks that the JSON
//! keys it writes are those of the committed `results/<row>.json`, writes
//! the JSON and the metrics snapshot (`.metrics.json`, `.prom`), and checks
//! the floors — the metric-family floors against the files it just wrote.

use crate::figures;
use crate::report::{key_paths, print_data, report, write_result, Json};
use crate::rig::{self, Outcome, Setup};
use asterix_common::MetricsSnapshot;

/// A point of a row's sweep.
#[derive(Debug, Clone, Copy)]
pub enum Point {
    /// A row without a sweep.
    Once,
    /// An ingestion policy.
    Policy(&'static str),
    /// A cluster size.
    Nodes(u64),
    /// The %OVERLAP of two feeds' pre-processing.
    Overlap(u64),
}

impl Point {
    /// The number of a cluster-size or %OVERLAP point.
    pub fn n(self) -> u64 {
        match self {
            Point::Nodes(n) | Point::Overlap(n) => n,
            _ => unreachable!("{self:?} has no number"),
        }
    }

    /// The policy of a policy point.
    pub fn policy(self) -> &'static str {
        match self {
            Point::Policy(p) => p,
            _ => unreachable!("{self:?} has no policy"),
        }
    }
}

/// A row's runs: each sweep point with the outcomes of its setups.
pub type Runs = [(Point, Vec<Outcome>)];

/// How a row produces its data.
pub enum Drive {
    /// On the rig: the setups of one sweep point, and the data rows made
    /// of all the row's runs.
    Rig(fn(Point, u64) -> Vec<Setup>, fn(&Runs, u64) -> Vec<Json>),
    /// A row that drives no feed: its data and the registry it reported
    /// into, if any.
    Run(fn(u64) -> (Json, Option<MetricsSnapshot>)),
}

/// What a floor is checked against: the data the row wrote and the
/// metrics files it exported.
pub struct Checked {
    /// The row's `data`.
    pub data: Json,
    /// `results/<row>.prom` as written.
    pub prom: String,
    /// `results/<row>.metrics.json` as written.
    pub metrics_json: String,
}

impl Checked {
    /// The `i`-th data row.
    pub fn row(&self, i: usize) -> &Json {
        self.data.rows().get(i).copied().unwrap_or(&Json::Null)
    }

    /// The values of every series of a Prometheus family.
    pub fn prom_values(&self, family: &str) -> Vec<f64> {
        let head = format!("{family}{{");
        let series = self.prom.lines().filter(|l| l.starts_with(&head));
        series
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect()
    }
}

/// A named check of a row's result; its name states the bound.
pub struct Floor(pub &'static str, pub fn(&Checked) -> bool);

/// One row of the experiment table.
pub struct Figure {
    /// Row name, also the name of its committed `results/<name>.json`.
    pub name: &'static str,
    /// The paper artefact it regenerates.
    pub artifact: &'static str,
    /// The shape the paper shows.
    pub shape: &'static str,
    /// The seed when `--seed` is not given.
    pub seed: u64,
    /// The sweep.
    pub sweep: &'static [Point],
    /// How the row produces its data.
    pub drive: Drive,
    /// Metric families the exported `.prom` must hold.
    pub families: &'static [&'static str],
    /// Its floors.
    pub floors: &'static [Floor],
}

/// The defaults a row overrides: no sweep, seed 0, no families, no floors.
const ROW: Figure = Figure {
    name: "",
    artifact: "",
    shape: "",
    seed: 0,
    sweep: &[Point::Once],
    drive: Drive::Run(|_| (Json::Null, None)),
    families: &[],
    floors: &[],
};

/// The table, in the paper's order.
pub const TABLE: &[Figure] = &[
    Figure {
        name: "table_5_1",
        artifact: "Table 5.1 — batch inserts versus data ingestion",
        shape: "feed << batch(20) << batch(1) per record; the paper's feed is 2458x batch(1) and 207x batch(20)",
        seed: 5,
        drive: Drive::Run(figures::table_5_1),
        families: &[
            "asterix_feed_records_persisted", "asterix_feed_buffer_bytes", "asterix_feed_ingest_lag_millis",
            "asterix_operator_frames_in", "asterix_operator_frame_latency_us", "asterix_storage_wal_bytes",
            "asterix_storage_group_commit_batch_size", "asterix_storage_bytes_per_record",
            "asterix_storage_resident_bytes", "asterix_compaction_schema_inferred_components",
            "asterix_compaction_fallback_components", "asterix_compaction_rows_copied",
            "asterix_compaction_rows_reencoded",
        ],
        floors: &[
            Floor("no NaN in the exported snapshot", |c| !c.prom.contains("NaN") && !c.metrics_json.contains("NaN")),
            Floor("feed.records_persisted sums > 0", |c| c.prom_values("asterix_feed_records_persisted").iter().sum::<f64>() > 0.0),
        ],
        ..ROW
    },
    Figure {
        name: "fig_5_13",
        artifact: "Figure 5.13 + Table 5.2 — cascade vs independent network",
        shape: "cascade >= independent for both feeds, the gap widening as %OVERLAP grows",
        sweep: &[Point::Overlap(20), Point::Overlap(40), Point::Overlap(60), Point::Overlap(80)],
        drive: Drive::Rig(figures::fig_5_13, figures::fig_5_13_data),
        ..ROW
    },
    Figure {
        name: "fig_5_16",
        artifact: "Figures 5.14/5.16 — scalability of feed ingestion",
        shape: "near-linear growth in persisted records with cluster size; % discarded declines",
        sweep: &[Point::Nodes(1), Point::Nodes(2), Point::Nodes(4), Point::Nodes(6), Point::Nodes(8), Point::Nodes(10)],
        drive: Drive::Rig(figures::fig_5_16, figures::fig_5_16_data),
        ..ROW
    },
    Figure {
        name: "fig_6_5",
        artifact: "Figure 6.5 — instantaneous throughput with interim failures",
        shape: "dips at the failures, recovery within seconds; the raw feed keeps its rate through the compute-node failure at t=70",
        drive: Drive::Rig(figures::fig_6_5, figures::fig_6_5_data),
        ..ROW
    },
    Figure {
        name: "chaos_recovery",
        artifact: "Figure 6.5 — seeded fault-injection reproduction",
        shape: "a dip at the kill, recovery after the rejoin; every generated id persisted (at-least-once)",
        seed: 0xF16_65AA,
        drive: Drive::Rig(figures::chaos_recovery, figures::chaos_recovery_data),
        floors: &[Floor("missing == 0 (at-least-once)", |c| c.row(0).num("missing") == 0.0)],
        ..ROW
    },
    Figure {
        name: "fig_7_2",
        artifact: "Figures 7.2/7.8 — rate of arrival of data",
        shape: "a square wave alternating 300/600 twps",
        drive: Drive::Run(figures::fig_7_2),
        ..ROW
    },
    Figure {
        name: "fig_7_policies",
        artifact: "Figures 7.3-7.7 — built-in ingestion policies",
        shape: "Basic/Spill lose nothing (clamp in the high phase, catch up in the low one); Discard/Throttle lose the clamped-off records; Elastic loses nothing, scaling compute out in high phases and back in once low phases stay calm",
        sweep: &[Point::Policy("Basic"), Point::Policy("Spill"), Point::Policy("Discard"), Point::Policy("Throttle"), Point::Policy("Elastic")],
        drive: Drive::Rig(figures::fig_7_policies, figures::fig_7_policies_data),
        ..ROW
    },
    Figure {
        name: "fig_7_9_10",
        artifact: "Figures 7.9/7.10 — excess-record handling patterns",
        shape: "Discard leaves long contiguous runs of lost ids (Fig 7.9); Throttle thins uniformly with short gaps (Fig 7.10)",
        sweep: &[Point::Policy("Discard"), Point::Policy("Throttle")],
        drive: Drive::Rig(figures::fig_7_9_10, figures::fig_7_9_10_data),
        floors: &[Floor("Discard's longest gap > Throttle's", |c| c.row(0).num("longest_gap") > c.row(1).num("longest_gap"))],
        ..ROW
    },
    Figure {
        name: "fig_7_11_12",
        artifact: "Figures 7.11/7.12 — Storm+MongoDB comparison",
        shape: "durable writes collapse the glued system's throughput and stall the spout (Fig 7.11); non-durable writes run near the arrival rate but guarantee nothing (Fig 7.12); AsterixDB ingests durably at the arrival rate",
        drive: Drive::Rig(figures::fig_7_11_12, figures::fig_7_11_12_data),
        ..ROW
    },
    Figure {
        name: "exp_compaction",
        artifact: "compacted LSM components: bytes/record + vectorized scan throughput",
        shape: "the compacted layout stores a tweet in <= 1/1.5 of the open layout's bytes, and its projected scan beats the open whole-record scan >= 1.5x",
        seed: 424_242,
        drive: Drive::Run(figures::exp_compaction),
        floors: &[
            Floor("bytes/record ratio (open / compacted) >= 1.5", |c| c.data.num("bytes_per_record_ratio") >= 1.5),
            Floor("scan speedup (compacted+projected / open+whole) >= 1.5", |c| c.data.num("scan_speedup") >= 1.5),
        ],
        ..ROW
    },
    Figure {
        name: "exp_elastic",
        artifact: "closed-loop elastic scaling (§7.3.5 extended: governor)",
        shape: "compute scales out during the 10x ramp and back in after it; the intake narrows, widens and narrows; lag stays bounded",
        drive: Drive::Rig(figures::exp_elastic, figures::exp_elastic_data),
        families: &[
            "asterix_elastic_governor_ticks", "asterix_elastic_lag_p99_millis", "asterix_elastic_backlog_bytes",
            "asterix_elastic_compute_partitions", "asterix_elastic_intake_partitions",
            "asterix_elastic_scale_out_total", "asterix_elastic_scale_in_total", "asterix_elastic_frames_migrated",
        ],
        floors: &[
            Floor("peak_compute >= 2", |c| c.row(0).num("peak_compute") >= 2.0),
            Floor("scaled back to 1 and final_compute < peak_compute", |c| {
                let r = c.row(0);
                r.nums("compute").last() == Some(&1.0) && r.num("final_compute") < r.num("peak_compute")
            }),
            Floor("scale_outs >= 1 and scale_ins >= 1", |c| c.row(0).num("scale_outs") >= 1.0 && c.row(0).num("scale_ins") >= 1.0),
            Floor("min_intake_width == 1 and peak_intake_width == 2", |c| {
                c.row(0).num("min_intake_width") == 1.0 && c.row(0).num("peak_intake_width") == 2.0
            }),
            Floor("intake width widens again after the calm-phase scale-in", |c| {
                let w = c.row(0).nums("intake_width");
                w.iter().position(|&x| x == 1.0).is_some_and(|i| w[i..].contains(&2.0))
            }),
            Floor("max_lag_p99_millis < 60000", |c| c.row(0).num("max_lag_p99_millis") < 60_000.0),
            Floor("final_lag_p99_millis <= 2000", |c| c.row(0).num("final_lag_p99_millis") <= 2_000.0),
            Floor("persisted >= 90% of generated", |c| c.row(0).num("persisted") * 10.0 >= c.row(0).num("generated") * 9.0),
            Floor("scale_out_total sums > 0", |c| c.prom_values("asterix_elastic_scale_out_total").iter().sum::<f64>() > 0.0),
            Floor("scale_in_total sums > 0", |c| c.prom_values("asterix_elastic_scale_in_total").iter().sum::<f64>() > 0.0),
        ],
        ..ROW
    },
    Figure {
        name: "exp_fanout",
        artifact: "predicate-routed multi-sink ingestion plan under a seeded node kill",
        shape: "every record reaches exactly the sink its predicate picks; the at-least-once sinks lose nothing across the kill; the Discard sink may gap",
        seed: 0xFA_0007,
        drive: Drive::Rig(figures::exp_fanout, figures::exp_fanout_data),
        families: &[
            "asterix_plan_sink_records_routed", "asterix_plan_route_no_match_total",
            "asterix_parse_malformed_lines", "asterix_feed_records_persisted",
        ],
        floors: &[
            Floor("foreign_records == 0 (no record in a sink its predicate fails)", |c| c.row(0).num("foreign_records") == 0.0),
            Floor("missing_basic == 0 and missing_spill == 0", |c| c.row(0).num("missing_basic") == 0.0 && c.row(0).num("missing_spill") == 0.0),
            Floor("no_match == 0 (the otherwise arm routes every record)", |c| c.row(0).num("no_match") == 0.0),
            Floor("routed_counters >= expected for the at-least-once sinks", |c| {
                let (routed, expected) = (c.row(0).nums("routed_counters"), c.row(0).nums("expected"));
                routed.len() == 3 && (0..2).all(|i| routed[i] >= expected[i])
            }),
            Floor("3 non-zero plan.sink.records_routed series", |c| {
                let v = c.prom_values("asterix_plan_sink_records_routed");
                v.len() == 3 && v.iter().all(|&x| x > 0.0)
            }),
        ],
        ..ROW
    },
];

/// Regenerate one row with `seed`; `Err` names what failed.
pub fn run_figure(fig: &Figure, seed: u64) -> Result<(), String> {
    println!(
        "\n######## {} — {} (seed {seed:#x})",
        fig.name, fig.artifact
    );
    let (data, metrics) = match fig.drive {
        Drive::Run(run) => run(seed),
        Drive::Rig(setups, derive) => {
            let mut runs = Vec::new();
            for &point in fig.sweep {
                println!("running {point:?}...");
                let mut outcomes = Vec::new();
                for setup in setups(point, seed) {
                    let tag = format!("{}-{}", fig.name, runs.len() * 100 + outcomes.len());
                    outcomes.push(rig::run(setup, seed, &tag));
                }
                runs.push((point, outcomes));
            }
            let snap = runs
                .last()
                .and_then(|(_, o)| o.last())
                .map(|o| o.snap.clone());
            (Json::Arr(derive(&runs, seed)), snap)
        }
    };
    print_data(fig.artifact, &data);
    println!("\nexpected shape (paper): {}", fig.shape);

    let record = report(fig.name, fig.artifact, data.clone());
    let file = format!("{}.json", fig.name);
    let committed = std::fs::read_to_string(format!("results/{file}"))
        .map_err(|e| format!("cannot read the committed results/{file}: {e}"))?;
    let want = key_paths(&committed).ok_or(format!("results/{file} does not parse"))?;
    let got = key_paths(&record.pretty()).expect("the record parses");
    if got != want {
        let diff: Vec<_> = got.symmetric_difference(&want).collect();
        return Err(format!(
            "JSON keys differ from the committed results/{file}: {diff:?}"
        ));
    }
    write_result(&file, &record.pretty());
    let (mut checked, mut failed) = (
        Checked {
            data,
            prom: String::new(),
            metrics_json: String::new(),
        },
        Vec::new(),
    );
    if let Some(snap) = metrics {
        let name = fig.name;
        write_result(&format!("{name}.metrics.json"), &snap.to_json());
        write_result(&format!("{name}.prom"), &snap.to_prometheus());
        // read back what was written: the export path is what the floors check
        let read = |ext: &str| std::fs::read_to_string(format!("results/{name}.{ext}"));
        checked.prom = read("prom").unwrap_or_default();
        checked.metrics_json = read("metrics.json").unwrap_or_default();
        if checked.prom.is_empty() || checked.metrics_json.is_empty() {
            failed.push(format!(
                "results/{name}.prom or .metrics.json missing or empty"
            ));
        }
    }
    let missing = fig
        .families
        .iter()
        .filter(|f| !checked.prom.contains(&format!("# TYPE {f} ")));
    failed.extend(missing.map(|f| format!("metric family {f} missing from the export")));
    for Floor(what, holds) in fig.floors {
        let ok = holds(&checked);
        println!("floor {}: {what}", if ok { "holds" } else { "FAILED" });
        if !ok {
            failed.push(what.to_string());
        }
    }
    match failed.is_empty() {
        true => Ok(()),
        false => Err(failed.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elastic_floor(what: &str) -> fn(&Checked) -> bool {
        let row = TABLE.iter().find(|f| f.name == "exp_elastic").unwrap();
        row.floors
            .iter()
            .find(|Floor(w, _)| w.contains(what))
            .unwrap()
            .1
    }

    #[test]
    fn every_row_has_a_committed_record_and_a_unique_name() {
        let mut names: Vec<&str> = TABLE.iter().map(|f| f.name).collect();
        for name in &names {
            let path = format!("{}/../../results/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(key_paths(&text).unwrap().contains("data"), "{path}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn prom_values_read_every_series_of_one_family() {
        let prom =
            "# TYPE a_total counter\na_total{x=\"1\"} 2\na_total{x=\"2\"} 0\nab{x=\"1\"} 7\n";
        let checked = Checked {
            data: Json::Null,
            prom: prom.into(),
            metrics_json: String::new(),
        };
        assert_eq!(checked.prom_values("a_total"), [2.0, 0.0]);
        assert!(checked.prom_values("a").is_empty());
    }

    #[test]
    fn the_intake_width_must_widen_again_after_it_narrowed() {
        let holds = elastic_floor("widens again");
        let width = |w: Vec<u64>| Checked {
            data: Json::Arr(vec![crate::obj! { intake_width: w }]),
            prom: String::new(),
            metrics_json: String::new(),
        };
        assert!(holds(&width(vec![2, 1, 1, 2, 1])));
        assert!(
            !holds(&width(vec![2, 2, 1, 1])),
            "a monotone fall is not the loop closing"
        );
        let scaled_back = elastic_floor("scaled back");
        let compute = |c: Vec<u64>, last: u64| Checked {
            data: Json::Arr(vec![
                crate::obj! { compute: c, final_compute: last, peak_compute: 5 },
            ]),
            prom: String::new(),
            metrics_json: String::new(),
        };
        assert!(scaled_back(&compute(vec![1, 5, 1], 1)));
        assert!(
            !scaled_back(&compute(vec![1, 5, 2], 1)),
            "the last sample never read 1"
        );
    }
}
