//! The parent side of a measurement: run repetitions of one workload in
//! child processes until the requested seconds of timed window are used,
//! drop repetitions the host disturbed, and reduce the rest to medians.
//!
//! Every repetition is a fresh process because socket names are
//! process-global and `VmHWM` is per process.

use crate::ledger;
use crate::rep::RepOptions;
use crate::stats;
use crate::workload::{self, Workload};
use asterixdb_ingestion::adm::{parse_value, to_adm_string, AdmValue};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced measurement: name, unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ingest_rps", "records/s"),
    ("cpu_us_per_rec", "us"),
    ("lag_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-repetition diagnostics that are reported with the per-layer metrics
/// and never gate: name, unit.
pub const DIAGNOSTICS: [(&str, &str); 6] = [
    ("lag_p90_ms", "ms"),
    ("lag_p99_ms", "ms"),
    ("lag_max_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_max_ms", "ms"),
    ("catchup_s", "s"),
];

/// Per-layer metrics read from a traced repetition: name, unit.
pub const TRACED_LAYERS: [(&str, &str); 31] = [
    ("gen.send_blocked_share", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("adm.reparse_per_rec", "count"),
    ("common.recs_per_frame", "count"),
    ("hyracks.wire_bytes_per_rec", "B"),
    ("hyracks.polls_per_krec", "count"),
    ("hyracks.yields_per_krec", "count"),
    ("hyracks.steals", "count"),
    ("hyracks.sched_queue_max", "count"),
    ("op.assign_busy_s", "s"),
    ("op.route_busy_s", "s"),
    ("op.store_busy_s", "s"),
    ("op.store_frames", "count"),
    ("core.spilled_share", "ratio"),
    ("core.max_backlog_recs", "count"),
    ("core.handoff_depth_max", "count"),
    ("core.buffer_bytes_max", "B"),
    ("core.spill_bytes_max", "B"),
    ("core.connect_ms", "ms"),
    ("core.first_durable_ms", "ms"),
    ("core.soft_failures", "count"),
    ("core.records_replayed", "count"),
    ("core.malformed_lines", "count"),
    ("storage.compactions", "count"),
    ("storage.components_end", "count"),
    ("storage.group_commit_recs", "count"),
    ("storage.merge_busy_share", "ratio"),
    ("storage.bytes_per_user_byte", "ratio"),
    ("storage.rps_decay", "ratio"),
    ("aql.ddl_ms", "ms"),
    ("aql.rows_last_query", "count"),
];

/// A repetition whose calibration spin ran this much slower than the
/// session's median spin is set aside and run again. (The median, not the
/// best: on the reference host the spin is bimodal, 73 ms or 93 ms, and
/// judging by the best would set aside every repetition but the lucky one.)
const MAX_SLOWDOWN: f64 = 1.15;

/// Extra repetitions the noise guard may spend per measurement.
const MAX_EXTRA_REPS: usize = 3;

/// Throw-away set-ups each repetition times before its measured one.
const EXTRA_SETUPS: usize = 4;

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// No repetition starts once a measurement has run this long (the driver
/// allows 180 s per invocation).
const MEASURE_BUDGET: Duration = Duration::from_secs(110);

/// One named value of a finished measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// Median over the repetitions used (`burst_spill`'s `ingest_rps`:
    /// pooled over them).
    pub value: f64,
    /// Min, quartiles and max over the repetitions used, and their number.
    pub spread: [f64; 5],
    pub reps: usize,
    /// Samples behind a percentile metric, pooled over the repetitions.
    pub samples: Option<u64>,
}

/// The outcome of measuring one workload.
#[derive(Debug)]
pub struct Measurement {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// One line per repetition run, used or not.
    pub runs: Vec<String>,
}

/// Where traces and child outputs go: `ingestbench/out` under the checkout
/// root the driver runs from, `out` when run from inside the crate.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = match std::path::Path::new("ingestbench").is_dir() {
        true => PathBuf::from("ingestbench/out"),
        false => PathBuf::from("out"),
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A finished repetition: its parsed result record and raw text.
struct Rep {
    record: AdmValue,
    raw: String,
    traced: bool,
    spin_ms: f64,
}

impl Rep {
    fn num(&self, name: &str) -> Option<f64> {
        self.record.field(name).and_then(AdmValue::as_f64)
    }

    fn layer(&self, name: &str) -> Option<f64> {
        self.record.field("layers")?.field(name)?.as_f64()
    }
}

/// Run one repetition in a child process. `Err` means the child crashed,
/// hung or printed no result.
fn run_child(opts: RepOptions) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = out_dir()
        .map_err(|e| format!("create out dir: {e}"))?
        .join(format!("rep_{}_{}.json", std::process::id(), opts.rep));
    let file = std::fs::File::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "run-one",
            opts.workload.name(),
            &opts.seed.to_string(),
            &opts.rep.to_string(),
            &opts.n.to_string(),
            &u8::from(opts.traced).to_string(),
            &opts.extra_setups.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::from(file))
        .spawn()
        .map_err(|e| format!("spawn repetition: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&path);
                return Err(format!("repetition {} hung, killed", opts.rep));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"));
    let _ = std::fs::remove_file(&path);
    if !status.success() {
        return Err(format!("repetition {} exited with {status}", opts.rep));
    }
    let raw = raw?.trim().to_string();
    let record = parse_value(&raw).map_err(|e| format!("repetition output: {e}"))?;
    let spin_ms = record
        .field("spin_ms")
        .and_then(AdmValue::as_f64)
        .ok_or("repetition output lacks spin_ms")?;
    Ok(Rep {
        record,
        raw,
        traced: opts.traced,
        spin_ms,
    })
}

fn metric(name: &str, unit: &'static str, values: &[f64], samples: Option<u64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: stats::median(values),
        spread: stats::five_numbers(values),
        reps: values.len(),
        samples,
    }
}

/// The repetitions of one measurement and their running totals.
struct Session {
    workload: Workload,
    seed: u64,
    n: usize,
    traced: bool,
    started: Instant,
    reps: Vec<Rep>,
    /// Repetitions that died, for the run listing.
    lost: Vec<String>,
    launched: u32,
    attempted: u64,
    failed: u64,
}

impl Session {
    fn has_budget(&self) -> bool {
        self.started.elapsed() < MEASURE_BUDGET
    }

    fn window_s(&self) -> f64 {
        self.reps.iter().filter_map(|r| r.num("window_s")).sum()
    }

    fn run_one(&mut self) {
        let opts = RepOptions {
            workload: self.workload,
            seed: self.seed,
            rep: self.launched,
            n: self.n,
            // traced measurements alternate, starting traced, so both kinds
            // see the same host conditions
            traced: self.traced && self.launched.is_multiple_of(2),
            extra_setups: EXTRA_SETUPS,
        };
        self.launched += 1;
        let offered = workload::offered_lines(self.workload, self.n) as u64;
        self.attempted += offered;
        match run_child(opts) {
            Ok(rep) => {
                self.failed += rep.num("failed").map_or(offered, |f| f as u64);
                self.reps.push(rep);
            }
            Err(e) => {
                // a repetition that dies delivers nothing
                self.failed += offered;
                self.lost.push(format!("rep {} lost: {e}", opts.rep));
            }
        }
    }

    /// Indices of the repetitions whose calibration spin was within
    /// [`MAX_SLOWDOWN`] of the session's median spin.
    fn quiet(&self) -> Vec<usize> {
        let spins: Vec<f64> = self.reps.iter().map(|r| r.spin_ms).collect();
        let limit = stats::median(&spins) * MAX_SLOWDOWN;
        (0..self.reps.len())
            .filter(|&i| self.reps[i].spin_ms <= limit)
            .collect()
    }

    fn best_spin_ms(&self) -> f64 {
        self.reps
            .iter()
            .map(|r| r.spin_ms)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Measure `workload`: repetitions of `n` records until `seconds` of timed
/// window are spent. With `traced`, repetitions alternate between traced and
/// untraced and the per-layer metrics (traced repetitions, ledger,
/// diagnostics) are reported; without, the end-to-end metrics.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    n: usize,
) -> Result<Measurement, String> {
    let mut session = Session {
        workload,
        seed,
        n,
        traced,
        started: Instant::now(),
        reps: Vec::new(),
        lost: Vec::new(),
        launched: 0,
        attempted: 0,
        failed: 0,
    };
    while (session.window_s() < seconds || session.launched < 1 + u32::from(traced))
        && session.has_budget()
        // children that die at once must not be respawned all budget long
        && session.launched < 64
    {
        session.run_one();
    }
    // host-noise guard: set aside repetitions that started on a slow host
    // and run replacements
    let planned = session.reps.len();
    for _ in 0..MAX_EXTRA_REPS {
        if session.quiet().len() >= planned || !session.has_budget() {
            break;
        }
        session.run_one();
    }
    let used = session.quiet();
    let best_spin = session.best_spin_ms();
    let Session {
        reps,
        lost: mut runs,
        attempted,
        failed,
        ..
    } = session;
    for (i, rep) in reps.iter().enumerate() {
        runs.push(format!(
            "rep {} {} host_slowdown {:.3} {}",
            rep.num("rep").unwrap_or(-1.0),
            if used.contains(&i) {
                "used"
            } else {
                "set aside"
            },
            rep.spin_ms / best_spin,
            match rep.traced {
                // the trace file holds a traced repetition's full record
                true => format!("traced window_s {:?}", rep.num("window_s")),
                false => rep.raw.clone(),
            }
        ));
    }
    if reps.is_empty() {
        return Err(format!("no repetition of {} finished", workload.name()));
    }

    // the repetitions of one kind that the noise guard kept; all of that
    // kind when it kept none
    let of_kind = |traced: bool| -> Vec<&Rep> {
        let pick = |only_used: bool| -> Vec<&Rep> {
            reps.iter()
                .enumerate()
                .filter(|(i, r)| r.traced == traced && (!only_used || used.contains(i)))
                .map(|(_, r)| r)
                .collect()
        };
        match pick(true) {
            kept if kept.is_empty() => pick(false),
            kept => kept,
        }
    };
    let column = |reps: &[&Rep], name: &str| -> Vec<f64> {
        reps.iter().filter_map(|r| r.num(name)).collect()
    };
    // every value of a list-valued field, over all of `reps`
    let pooled_list = |reps: &[&Rep], name: &str| -> Vec<f64> {
        reps.iter()
            .filter_map(|r| r.record.field(name)?.as_list())
            .flatten()
            .filter_map(AdmValue::as_f64)
            .collect()
    };
    // query percentiles come from the queries of all repetitions pooled (a
    // repetition runs 75 at most, too few for a steady percentile); the
    // spread columns still show the per-repetition values
    let query_metric = |reps: &[&Rep], name: &str, unit: &'static str, q: f64| -> Metric {
        let mut m = metric(name, unit, &column(reps, name), None);
        let all = stats::sorted(&pooled_list(reps, "query_ms"));
        m.value = stats::percentile_sorted(&all, q);
        m.samples = Some(all.len() as u64);
        m
    };
    let pooled = |reps: &[&Rep], name: &str| -> u64 {
        reps.iter().filter_map(|r| r.num(name)).sum::<f64>() as u64
    };
    let samples_of = |reps: &[&Rep], name: &str| -> Option<u64> {
        name.starts_with("lag_")
            .then(|| pooled(reps, "lag_samples"))
    };

    let mut metrics = Vec::new();
    let plain = of_kind(false);
    if !traced {
        for (name, unit) in END_TO_END {
            if name == "query_p50_ms" {
                metrics.push(query_metric(&plain, name, unit, 0.5));
                continue;
            }
            let values: Vec<f64> = match name {
                // every set-up of every repetition used
                "setup_s" => pooled_list(&plain, name),
                _ => column(&plain, name),
            };
            let mut m = metric(name, unit, &values, samples_of(&plain, name));
            // `burst_spill` repetitions fall into two modes (a merge round
            // lands inside the burst or not) and a median of them flips
            // between the two; its throughput is therefore pooled: records
            // caught up in all burst windows over the windows' total length
            if name == "ingest_rps" && workload == Workload::BurstSpill {
                let total = |name: &str| column(&plain, name).iter().sum::<f64>();
                m.value = total("rate_records") / total("rate_s");
            }
            metrics.push(m);
        }
    } else {
        let with_spans = of_kind(true);
        for (name, unit) in TRACED_LAYERS {
            let values: Vec<f64> = with_spans.iter().filter_map(|r| r.layer(name)).collect();
            metrics.push(metric(name, unit, &values, None));
        }
        for (name, unit) in DIAGNOSTICS {
            metrics.push(match name {
                "query_p90_ms" => query_metric(&with_spans, name, unit, 0.9),
                "query_max_ms" => query_metric(&with_spans, name, unit, 1.0),
                _ => {
                    let values = column(&with_spans, name);
                    metric(name, unit, &values, samples_of(&with_spans, name))
                }
            });
        }
        let rps = |reps: &[&Rep]| stats::median(&column(reps, "ingest_rps"));
        let overhead = match (rps(&plain), rps(&with_spans)) {
            (p, t) if p > 0.0 && !plain.is_empty() => 100.0 * (p - t) / p,
            _ => -1.0,
        };
        metrics.push(metric("trace_overhead_pct", "%", &[overhead], None));
        let slowdowns: Vec<f64> = reps.iter().map(|r| r.spin_ms / best_spin).collect();
        let worst = slowdowns.iter().copied().fold(1.0, f64::max);
        metrics.push(metric("host_slowdown_max", "ratio", &[worst], None));
        let ledger = ledger::run(seed);
        for (name, unit, value) in &ledger {
            metrics.push(metric(name, unit, &[*value], None));
        }
        write_trace(workload, &reps, &ledger).map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(Measurement {
        workload,
        attempted,
        failed,
        metrics,
        runs,
    })
}

/// `out/trace_<workload>.json`: every traced repetition's spans, registry
/// dump and layer metrics, then the ledger.
fn write_trace(workload: Workload, reps: &[Rep], ledger: &[ledger::Row]) -> std::io::Result<()> {
    let trace = AdmValue::record(vec![
        ("workload", AdmValue::string(workload.name())),
        (
            "reps",
            AdmValue::OrderedList(
                reps.iter()
                    .filter(|r| r.traced)
                    .map(|r| r.record.clone())
                    .collect(),
            ),
        ),
        (
            "ledger",
            AdmValue::Record(
                ledger
                    .iter()
                    .map(|(name, _, v)| (name.to_string(), AdmValue::Double(*v)))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir()?.join(format!("trace_{}.json", workload.name()));
    std::fs::write(path, to_adm_string(&trace))
}

impl Measurement {
    /// Every output of every repetition matched the reference.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    AdmValue::record(vec![
                        ("value", AdmValue::Double(m.value)),
                        ("unit", AdmValue::string(m.unit)),
                    ]),
                )
            })
            .collect();
        to_adm_string(&AdmValue::record(vec![
            ("correct", AdmValue::Boolean(self.correct())),
            ("attempted", AdmValue::Int(self.attempted as i64)),
            ("failed", AdmValue::Int(self.failed as i64)),
            ("metrics", AdmValue::Record(metrics)),
        ]))
    }

    /// Every metric by name with unit, median, spread and counts; then every
    /// repetition run.
    pub fn print_table(&self) {
        println!(
            "# {}  correct={} attempted={} failed={} failed_share={:.6}",
            self.workload.name(),
            self.correct(),
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "{:<34} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12} {:>5} {:>12}",
            "metric", "unit", "value", "min", "q1", "q3", "max", "reps", "samples"
        );
        for m in &self.metrics {
            let [min, q1, _, q3, max] = m.spread;
            let cell = |v: f64| match v == -1.0 {
                // −1 marks a registry name that no longer exists
                true => "null".to_string(),
                false => format!("{v:.4}"),
            };
            println!(
                "{:<34} {:>10} {:>14} {:>12} {:>12} {:>12} {:>12} {:>5} {:>12}",
                m.name,
                m.unit,
                cell(m.value),
                cell(min),
                cell(q1),
                cell(q3),
                cell(max),
                m.reps,
                // samples behind a percentile, and the highest percentile
                // they support (at least ten samples beyond it)
                m.samples.map_or("-".to_string(), |s| format!(
                    "{s} (p{})",
                    stats::highest_supported_percentile(s as usize)
                )),
            );
        }
        for run in &self.runs {
            println!("  {run}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger;

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let m = Measurement {
            workload: Workload::SatStore,
            attempted: 1_000,
            failed: 0,
            metrics: vec![
                metric("latency_ms", "ms", &[1.5, 1.2034, 2.0], Some(300)),
                metric("setup_s", "s", &[0.8127], None),
            ],
            runs: Vec::new(),
        };
        let line = m.result_line();
        assert!(!line.contains('\n'));
        let v = parse_value(&line).expect("parses as JSON");
        let keys: Vec<&str> = v
            .as_record()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.field("attempted"), Some(&AdmValue::Int(1_000)));
        let latency = v
            .field("metrics")
            .and_then(|m| m.field("latency_ms"))
            .unwrap();
        assert_eq!(latency.field("value").and_then(AdmValue::as_f64), Some(1.5));
        assert_eq!(latency.field("unit").and_then(AdmValue::as_str), Some("ms"));
    }

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(bench: &AdmValue, list: &str) -> Vec<(String, String)> {
        let text =
            |m: &AdmValue, k: &str| m.field(k).and_then(AdmValue::as_str).unwrap().to_string();
        bench
            .field(list)
            .and_then(AdmValue::as_list)
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&bench, "end_to_end"), own(&END_TO_END));
        let mut per_layer = own(&ledger::ROWS);
        per_layer.extend(own(&TRACED_LAYERS));
        per_layer.extend(own(&DIAGNOSTICS));
        per_layer.extend(own(&[
            ("trace_overhead_pct", "%"),
            ("host_slowdown_max", "ratio"),
        ]));
        assert_eq!(declared(&bench, "per_layer"), per_layer);
        let workloads: Vec<String> = bench
            .field("workloads")
            .and_then(AdmValue::as_list)
            .unwrap()
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(AdmValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    }
}
