#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The experiment harness: the paper's evaluation as one table
//! ([`table::TABLE`]), one row per figure, regenerated by one binary:
//!
//! ```text
//! cargo run --release -p asterix-bench --bin exp -- [--figure <row>] [--seed <n>]
//! ```
//!
//! The rows: `table_5_1` (Table 5.1), `fig_5_13` (Fig 5.13 + Table 5.2),
//! `fig_5_16` (Figs 5.14/5.16), `fig_6_5` (Fig 6.5), `chaos_recovery` (Fig
//! 6.5 from a seeded fault plan), `fig_7_2` (Figs 7.2/7.8), `fig_7_policies`
//! (Figs 7.3–7.7), `fig_7_9_10` (Figs 7.9/7.10), `fig_7_11_12` (Figs
//! 7.11/7.12), `exp_compaction` (compacted components), `exp_elastic` (the
//! governor under a 10x ramp) and `exp_fanout` (a routed three-sink plan
//! under a seeded node kill). A row is data ([`table::Figure`]: its
//! [`rig::Setup`]s, sweep and floors); the runner ([`table::run_figure`])
//! prints a table and a CSV, writes `results/<row>.json` (its keys checked
//! against the committed file) and the metrics snapshot, and checks the
//! floors. Absolute numbers are simulator-scale; the *shapes* reproduce the
//! paper (EXPERIMENTS.md).

pub mod figures;
pub mod report;
pub mod rig;
pub mod table;
