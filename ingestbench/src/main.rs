#![forbid(unsafe_code)]

//! `ingestbench`: wall-clock ingestion benchmark. See README.md.
//!
//! ```text
//! ingestbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ingestbench run [--seed <n>] [--seconds <s>] [--traced]
//! ingestbench check
//! ingestbench ledger [--seed <n>]
//! ```
//!
//! The first form measures one workload and prints, as its last line, the
//! result object the benchmark driver reads. `run` does the same for all
//! four workloads, `check` is a fast smoke of all four with the full
//! reference check.

mod host;
mod ledger;
mod measure;
mod rep;
mod spans;
mod stats;
mod workload;

use asterixdb_ingestion::adm::to_adm_string;
use measure::{measure, Measurement};
use rep::RepOptions;
use std::process::ExitCode;
use workload::Workload;

/// Records per repetition of the `check` smoke.
const CHECK_RECORDS: usize = 5_000;

const USAGE: &str = "usage: ingestbench --workload <sat_store|sat_compute_tcp|burst_spill|paced_scan> \
--seed <n> --seconds <s> --trace <0|1>\n       ingestbench run [--seed <n>] [--seconds <s>] [--traced]\n       ingestbench check\n       ingestbench ledger [--seed <n>]";

/// Value of `--flag` in `args`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (flag(args, name), default) {
        (Some(v), _) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing {name}\n{USAGE}")),
    }
}

/// The child side: one repetition, its result record on stdout.
fn run_one(args: &[String]) -> Result<(), String> {
    let arg = |i: usize| {
        args.get(i)
            .ok_or_else(|| "run-one: missing argument".to_string())
    };
    let num = |i: usize| -> Result<u64, String> {
        arg(i)?
            .parse()
            .map_err(|_| format!("run-one: bad number {:?}", args[i]))
    };
    let opts = RepOptions {
        workload: Workload::from_name(arg(0)?).ok_or("run-one: unknown workload")?,
        seed: num(1)?,
        rep: num(2)? as u32,
        n: num(3)? as usize,
        traced: num(4)? != 0,
        extra_setups: num(5)? as usize,
    };
    println!("{}", to_adm_string(&rep::run(opts)?));
    Ok(())
}

fn report(m: &Measurement) -> bool {
    m.print_table();
    m.correct()
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run-one") => run_one(&args[1..]).map(|()| true),
        Some("ledger") => {
            for (name, unit, value) in ledger::run(parsed(&args, "--seed", Some(1u64))?) {
                println!("{name:<34} {unit:>4} {value:>14.2}");
            }
            Ok(true)
        }
        Some("check") => {
            let mut ok = true;
            for w in Workload::ALL {
                ok &= report(&measure(w, 1, 0.0, false, CHECK_RECORDS)?);
            }
            Ok(ok)
        }
        Some("run") => {
            let seed = parsed(&args, "--seed", Some(1u64))?;
            let seconds = parsed(&args, "--seconds", Some(10.0f64))?;
            let traced = args.iter().any(|a| a == "--traced");
            let mut ok = true;
            for w in Workload::ALL {
                ok &= report(&measure(w, seed, seconds, false, w.records())?);
                if traced {
                    ok &= report(&measure(w, seed, seconds, true, w.records())?);
                }
            }
            Ok(ok)
        }
        _ => {
            let name: String = parsed(&args, "--workload", None)?;
            let workload = Workload::from_name(&name)
                .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
            let seed = parsed(&args, "--seed", None::<u64>)?;
            let seconds = parsed(&args, "--seconds", None::<f64>)?;
            let traced = parsed(&args, "--trace", None::<u8>)? != 0;
            let m = measure(workload, seed, seconds, traced, workload.records())?;
            m.print_table();
            println!("{}", m.result_line());
            // lost or wrong records are reported in the result object; the
            // exit code stays 0 so the driver reads it
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ingestbench: reference check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ingestbench: {e}");
            ExitCode::FAILURE
        }
    }
}
