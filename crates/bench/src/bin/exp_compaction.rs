//! exp_compaction — schema-inferred compacted components: storage size and
//! vectorized scan throughput on the tweet workload.
//!
//! Two identically-loaded datasets differ only in storage layout: one seals
//! components through the schema inferencer into the compacted layout
//! (schema header + per-field columns + sparse residual), the other is
//! pinned to the uncompacted open layout (per-record binary ADM). The
//! experiment measures
//!
//! * storage bytes per record after a full merge, and
//! * single-field AQL scan throughput (`where $t.country = ... return
//!   $t.message_text`), on both layouts, with and without the projection
//!   pushdown that drives the vectorized column-scan path.
//!
//! Acceptance floor (enforced here, so CI catches regressions): the
//! compacted layout stores the tweet workload in ≤ 1/1.5 of the open
//! layout's bytes/record, and the projected scan over compacted columns
//! beats the whole-record scan by ≥ 1.5x.

#![forbid(unsafe_code)]

use asterix_adm::{parse_value, AdmValue};
use asterix_aql::eval::{eval, Env, EvalContext};
use asterix_aql::parser::parse_expr;
use asterix_bench::json_fields;
use asterix_bench::report::print_table;
use asterix_bench::{write_json, ExperimentReport};
use asterix_common::{IngestError, IngestResult, MetricsRegistry, NodeId, SimClock, TraceHub};
use asterix_storage::partition::{LayoutConfig, PartitionConfig};
use asterix_storage::{Dataset, DatasetConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const RECORDS: usize = 24_000;
const SCAN_ITERS: usize = 8;

#[derive(Debug)]
struct StorageRow {
    layout: String,
    records: usize,
    storage_bytes: usize,
    bytes_per_record: f64,
    schema_inferred_components: u64,
    fallback_components: u64,
}
json_fields!(StorageRow {
    layout,
    records,
    storage_bytes,
    bytes_per_record,
    schema_inferred_components,
    fallback_components,
});

#[derive(Debug)]
struct ScanRow {
    layout: String,
    scan_path: String,
    rows_matched: usize,
    iters: usize,
    total_ms: f64,
    krecords_per_sec: f64,
}
json_fields!(ScanRow {
    layout,
    scan_path,
    rows_matched,
    iters,
    total_ms,
    krecords_per_sec,
});

#[derive(Debug)]
struct Summary {
    storage: Vec<StorageRow>,
    scans: Vec<ScanRow>,
    bytes_per_record_ratio: f64,
    scan_speedup: f64,
}
json_fields!(Summary {
    storage,
    scans,
    bytes_per_record_ratio,
    scan_speedup,
});

struct Datasets(HashMap<String, Arc<Dataset>>);

impl EvalContext for Datasets {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        self.0
            .get(name)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown dataset {name}")))
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!("no function {name}")))
    }
}

fn make_dataset(name: &str, layout: LayoutConfig) -> Dataset {
    let mut pc = PartitionConfig::keyed_on("id");
    pc.lsm.layout = layout;
    Dataset::create_configured(
        DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        },
        pc,
    )
    .expect("dataset")
}

fn storage_row(name: &str, d: &Dataset) -> StorageRow {
    let p = d.partition(0);
    StorageRow {
        layout: name.into(),
        records: d.len(),
        storage_bytes: d.storage_bytes(),
        bytes_per_record: d.bytes_per_record(),
        schema_inferred_components: p.schema_inferred_components(),
        fallback_components: p.fallback_components(),
    }
}

/// Time `iters` evaluations of `query` against `ctx`; returns the scan row
/// and the result rows of the last evaluation (for cross-checking).
fn timed_scan(
    layout: &str,
    path: &str,
    query: &str,
    ctx: &Datasets,
    iters: usize,
) -> (ScanRow, Vec<AdmValue>) {
    let expr = parse_expr(query).expect("query parses");
    let mut env = Env::new();
    // warm-up evaluation, also the correctness sample
    let sample = eval(&expr, &mut env, ctx)
        .expect("query evaluates")
        .as_list()
        .expect("FLWOR yields a list")
        .to_vec();
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(eval(&expr, &mut env, ctx).expect("query evaluates"));
    }
    let total = t0.elapsed();
    let scanned = RECORDS * iters;
    (
        ScanRow {
            layout: layout.into(),
            scan_path: path.into(),
            rows_matched: sample.len(),
            iters,
            total_ms: total.as_secs_f64() * 1000.0,
            krecords_per_sec: scanned as f64 / total.as_secs_f64() / 1000.0,
        },
        sample,
    )
}

fn main() {
    let mut factory = tweetgen::TweetFactory::new(1, 424_242);
    let tweets: Vec<Arc<AdmValue>> = (0..RECORDS)
        .map(|_| Arc::new(parse_value(&factory.next_json()).expect("tweet parses")))
        .collect();

    let compacted = Arc::new(make_dataset("Tweets", LayoutConfig::default()));
    let open = Arc::new(make_dataset("TweetsOpen", LayoutConfig::open()));
    for d in [&compacted, &open] {
        for chunk in tweets.chunks(512) {
            let outcome = d.upsert_batch(chunk).expect("ingest");
            assert!(outcome.is_clean(), "tweet workload must ingest cleanly");
        }
        d.force_merge_all();
    }
    assert_eq!(compacted.len(), RECORDS);
    assert_eq!(open.len(), RECORDS);

    let registry = MetricsRegistry::new();
    let trace = TraceHub::new(SimClock::fast(), 64);
    compacted.register_observability(&registry, &trace);
    open.register_observability(&registry, &trace);

    let storage = vec![
        storage_row("compacted", &compacted),
        storage_row("open", &open),
    ];
    let ratio = storage[1].bytes_per_record / storage[0].bytes_per_record;

    let ctx = Datasets(HashMap::from([
        ("Tweets".to_string(), Arc::clone(&compacted)),
        ("TweetsOpen".to_string(), Arc::clone(&open)),
    ]));
    // the projected query: only `country` and `message_text` are touched, so
    // the pushdown scans just those columns. The `let $r := $t` variant pins
    // the whole-record path (a bare `$t` blocks projection) and returns the
    // same rows.
    let projected_q = |ds: &str| {
        format!(r#"for $t in dataset {ds} where $t.country = "US" return $t.message_text"#)
    };
    let whole_q = |ds: &str| {
        format!(
            r#"for $t in dataset {ds} let $r := $t where $r.country = "US" return $r.message_text"#
        )
    };

    let (open_whole, sample_a) = timed_scan(
        "open",
        "whole-record",
        &whole_q("TweetsOpen"),
        &ctx,
        SCAN_ITERS,
    );
    let (open_proj, sample_b) = timed_scan(
        "open",
        "projected",
        &projected_q("TweetsOpen"),
        &ctx,
        SCAN_ITERS,
    );
    let (comp_whole, sample_c) = timed_scan(
        "compacted",
        "whole-record",
        &whole_q("Tweets"),
        &ctx,
        SCAN_ITERS,
    );
    let (comp_proj, sample_d) = timed_scan(
        "compacted",
        "projected",
        &projected_q("Tweets"),
        &ctx,
        SCAN_ITERS,
    );
    assert_eq!(
        sample_a, sample_b,
        "projection changed the open-layout result"
    );
    assert_eq!(sample_a, sample_c, "layout changed the result");
    assert_eq!(
        sample_a, sample_d,
        "projection changed the compacted result"
    );
    assert!(!sample_a.is_empty(), "the filter must select something");

    // old world (open layout, whole records) vs new world (compacted
    // columns + projection pushdown)
    let speedup = comp_proj.krecords_per_sec / open_whole.krecords_per_sec;
    let scans = vec![open_whole, open_proj, comp_whole, comp_proj];

    let mut out = String::new();
    out.push_str(&format!(
        "exp_compaction: schema-inferred compacted components, {RECORDS} tweets\n"
    ));
    out.push_str(&format!(
        "\nstorage (after full merge):\n{}",
        storage
            .iter()
            .map(|r| format!(
                "  {:<10} {:>9} bytes total, {:>7.1} bytes/record, {} compacted / {} fallback components\n",
                r.layout, r.storage_bytes, r.bytes_per_record,
                r.schema_inferred_components, r.fallback_components
            ))
            .collect::<String>()
    ));
    out.push_str(&format!(
        "  bytes/record ratio (open / compacted): {ratio:.2}x\n"
    ));
    out.push_str("\nsingle-field AQL scan (country filter -> message_text):\n");
    for r in &scans {
        out.push_str(&format!(
            "  {:<10} {:<13} {:>6} rows matched, {:>8.1} ms / {} iters, {:>8.1} krec/s\n",
            r.layout, r.scan_path, r.rows_matched, r.total_ms, r.iters, r.krecords_per_sec
        ));
    }
    out.push_str(&format!(
        "  scan speedup (compacted+projected vs open+whole-record): {speedup:.2}x\n"
    ));
    print!("{out}");

    print_table(
        "exp_compaction: storage layout comparison",
        &[
            "Layout",
            "Bytes/record",
            "Compacted comps",
            "Fallback comps",
        ],
        &storage
            .iter()
            .map(|r| {
                vec![
                    r.layout.clone(),
                    format!("{:.1}", r.bytes_per_record),
                    r.schema_inferred_components.to_string(),
                    r.fallback_components.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    assert!(
        ratio >= 1.5,
        "compacted layout must be >=1.5x smaller per record, got {ratio:.2}x"
    );
    assert!(
        speedup >= 1.5,
        "projected compacted scan must be >=1.5x faster, got {speedup:.2}x"
    );

    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: cannot create results/: {e}");
    } else if let Err(e) = std::fs::write("results/exp_compaction.txt", &out) {
        eprintln!("warning: cannot write results/exp_compaction.txt: {e}");
    }
    write_json(&ExperimentReport {
        experiment: "exp_compaction".into(),
        paper_artifact: "compacted LSM components: bytes/record + vectorized scan throughput"
            .into(),
        data: Summary {
            storage,
            scans,
            bytes_per_record_ratio: ratio,
            scan_speedup: speedup,
        },
    });
    asterix_bench::report::write_metrics_snapshot("exp_compaction", &registry.snapshot());
    println!("\nresults written to results/exp_compaction.{{txt,json,metrics.json,prom}}");
}
