//! `exp` — regenerate the paper's evaluation, one row of the experiment
//! table at a time or all of them.
//!
//! ```text
//! cargo run --release -p asterix-bench --bin exp -- [--figure <row>] [--seed <n|0xhex>]
//! ```
//!
//! Without `--figure` every row runs, in the table's order. `--seed` replays
//! a seeded row (the fault plans of `chaos_recovery` and `exp_fanout`, the
//! tweet streams of `table_5_1` and `exp_compaction`); without it each row
//! uses its own. The exit status is 1 when a row fails a floor or its key
//! check, 2 on a usage error.

#![forbid(unsafe_code)]

use asterix_bench::table::{run_figure, Figure, TABLE};

fn usage(problem: &str) -> ! {
    let rows: Vec<&str> = TABLE.iter().map(|f| f.name).collect();
    eprintln!(
        "{problem}\nusage: exp [--figure <row>] [--seed <n|0xhex>]\nrows: {}",
        rows.join(", ")
    );
    std::process::exit(2)
}

fn main() {
    let (mut figure, mut seed) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{arg} needs a value")));
        match arg.as_str() {
            "--figure" => figure = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.unwrap_or_else(|_| usage(&format!("bad seed {value}"))));
            }
            _ => usage(&format!("unknown option {arg}")),
        }
    }
    let rows: Vec<_> = TABLE
        .iter()
        .filter(|f| figure.as_ref().is_none_or(|n| *n == f.name))
        .collect();
    if rows.is_empty() {
        usage(&format!("no row named {}", figure.unwrap_or_default()));
    }
    let run = |f: &&Figure| {
        let seed = seed.unwrap_or(f.seed);
        run_figure(f, seed)
            .err()
            .map(|e| format!("{} (seed {seed:#x}): {e}", f.name))
    };
    let failed: Vec<String> = rows.iter().filter_map(run).collect();
    for failure in &failed {
        eprintln!("FAILED {failure}");
    }
    std::process::exit(i32::from(!failed.is_empty()));
}
