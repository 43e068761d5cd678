//! Runs the built binary the way a user does: the `check` smoke (all four
//! workloads at N = 5 000 with the full reference check) and one contract
//! invocation whose last line must be the result object.

use asterixdb_ingestion::adm::{parse_value, AdmValue};
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_ingestbench");

#[test]
fn check_runs_all_four_workloads_against_the_reference() {
    let started = Instant::now();
    let out = Command::new(BIN).arg("check").output().expect("run check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "check failed:\n{stdout}");
    for w in ["sat_store", "sat_compute_tcp", "burst_spill", "paced_scan"] {
        assert!(
            stdout.contains(&format!("# {w}  correct=true")),
            "{w} missing or incorrect:\n{stdout}"
        );
    }
    // the time limit is for the optimized build the benchmark always uses
    if !cfg!(debug_assertions) {
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{:?}",
            started.elapsed()
        );
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn contract_invocation_ends_with_a_parseable_result_object() {
    // 0 seconds: one repetition of the full-size workload
    let out = Command::new(BIN)
        .args([
            "--workload",
            "paced_scan",
            "--seed",
            "9",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = parse_value(stdout.trim().lines().last().expect("a last line")).expect("JSON");
    assert_eq!(result.field("correct"), Some(&AdmValue::Boolean(true)));
    assert_eq!(result.field("failed"), Some(&AdmValue::Int(0)));
    assert_eq!(result.field("attempted"), Some(&AdmValue::Int(45_001)));
    let metrics = result
        .field("metrics")
        .and_then(AdmValue::as_record)
        .expect("metrics");
    assert_eq!(metrics.len(), 6);
    for (name, m) in metrics {
        let value = m.field("value").and_then(AdmValue::as_f64).expect("value");
        assert!(value > 0.0, "{name} = {value}");
        assert!(m.field("unit").and_then(AdmValue::as_str).is_some());
    }
}
