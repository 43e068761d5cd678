//! The allocation and memory pin of the reader query: 40 000 generated
//! tweets in a one-partition dataset, and
//! `for $t in dataset Tweets where $t.country = "US" return $t.id` evaluated
//! through `eval_flwor`. The `where` is pushed into the scan: it compares
//! each row's `country` where it is stored (a column cell, or the payload
//! bytes), so a row it rejects costs no allocation at all — what is left is
//! the partition's read snapshot (the memtable's keys) and the plan, at most
//! 0.1 allocations per non-matching row, measured on a query nothing
//! matches. A returned row is projected to `id` in the scan's one row
//! buffer and its `id` cloned into the result: at most 2 allocations per
//! returned row more. The transient heap stays under 2 MB. Testing the tree
//! `where` on a decoded two-field record per scanned row read 5.19
//! allocations per scanned row here; a materialised scan that cloned an
//! environment per row, 19.6 and a 29 MB peak.
//!
//! Then a B-tree on `country` is created, and the same two queries are
//! answered from it (the partition's `index_reads` counter says so): no row
//! is scanned, so a non-matching row costs nothing — what is left is the
//! plan — and a returned row's key is copied out of the index into one
//! shared buffer, decoded into the scan's row buffer and its `id` cloned
//! into the result: at most 2 allocations per returned row.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::{encode_value, parse_value, AdmValue};
use asterix_aql::eval::{eval_flwor, Env, EvalContext};
use asterix_aql::parser::parse_expr;
use asterix_common::{IngestError, IngestResult, NodeId};
use asterix_storage::partition::PartitionConfig;
use asterix_storage::{Dataset, DatasetConfig, IndexKind};
use bytes::Bytes;
use std::sync::Arc;
use tweetgen::TweetFactory;

#[path = "../../storage/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs, live, peak, reset_peak, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 40_000;
const FRAME: usize = 64;
const MB: f64 = 1024.0 * 1024.0;

struct Tweets(Arc<Dataset>);

impl EvalContext for Tweets {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        match name {
            "Tweets" => Ok(Arc::clone(&self.0)),
            _ => Err(IngestError::Metadata(format!("unknown dataset {name}"))),
        }
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!("no function {name}")))
    }
}

#[test]
fn the_reader_query_streams_its_rows() {
    let mut config = PartitionConfig::keyed_on("id");
    // no background merge may allocate while the query is measured: the
    // seals leave a stack of components under a partly full memtable
    config.lsm.max_components = usize::MAX;
    let dataset = Dataset::create_configured(
        DatasetConfig {
            name: "Tweets".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        },
        config,
    )
    .expect("dataset");
    let mut factory = TweetFactory::new(0, 30);
    let payloads: Vec<Bytes> = (0..TWEETS)
        .map(|_| {
            let tweet = parse_value(&factory.next_json()).expect("generated tweet parses");
            encode_value(&tweet).into()
        })
        .collect();
    let partition = dataset.partition(0);
    for frame in payloads.chunks(FRAME) {
        let outcome = partition.upsert_batch_bytes(frame, None).expect("upsert");
        assert_eq!(outcome.committed, frame.len());
    }
    drop(payloads);
    assert!(partition.component_count() > 1);
    let mut want: Vec<AdmValue> = dataset
        .scan_all()
        .into_iter()
        .filter(|t| t.field("country") == Some(&AdmValue::string("US")))
        .map(|t| t.field("id").cloned().expect("a tweet has an id"))
        .collect();
    want.shrink_to_fit();

    let ctx = Tweets(Arc::new(dataset));
    let run = |query: &str| -> (Vec<AdmValue>, usize, f64) {
        let query = parse_expr(query).expect("the query parses");
        let resident = live();
        reset_peak();
        let before = allocs();
        let rows = eval_flwor(&query, &mut Env::new(), &ctx).expect("the query evaluates");
        let spent = allocs() - before;
        (rows, spent, (peak() - resident) as f64 / MB)
    };
    // nothing matches: what a scanned row costs when the pushed predicate
    // rejects it (the snapshot and the plan included)
    let (none, rejected, _) =
        run(r#"for $t in dataset Tweets where $t.country = "nowhere" return $t.id"#);
    assert!(none.is_empty());
    let (rows, spent, over) =
        run(r#"for $t in dataset Tweets where $t.country = "US" return $t.id"#);
    let per_rejected = rejected as f64 / TWEETS as f64;
    let per_returned = spent.saturating_sub(rejected) as f64 / rows.len() as f64;
    println!(
        "{per_rejected:.3} allocations per non-matching scanned row; {per_returned:.2} more per \
         returned row ({:.3} per scanned row over all); peak {over:.1} MB over {:.1} MB \
         resident; {} rows",
        spent as f64 / TWEETS as f64,
        live() as f64 / MB,
        rows.len()
    );
    assert_eq!(rows, want);
    assert!(
        per_rejected <= 0.1,
        "{per_rejected:.3} allocations per non-matching row: rejected rows are decoded"
    );
    assert!(
        per_returned <= 2.0,
        "{per_returned:.2} allocations per returned row: returned rows are copied"
    );
    assert!(
        over <= 2.0,
        "the query peaked {over:.1} MB over resident: the scan is materialised"
    );

    // the index-only path: the same queries, answered by countryIdx
    ctx.0
        .create_index("countryIdx", "country", IndexKind::BTree)
        .expect("index");
    let partition = ctx.0.partition(0);
    let (none, rejected, _) =
        run(r#"for $t in dataset Tweets where $t.country = "nowhere" return $t.id"#);
    assert!(none.is_empty());
    let (indexed, spent, over) =
        run(r#"for $t in dataset Tweets where $t.country = "US" return $t.id"#);
    assert_eq!(
        partition.index_reads(),
        2,
        "the index answered both queries"
    );
    let per_rejected = rejected as f64 / TWEETS as f64;
    let per_returned = spent.saturating_sub(rejected) as f64 / indexed.len() as f64;
    println!(
        "index: {rejected} allocations in all when nothing matches ({per_rejected:.4} per \
         non-matching row); {per_returned:.2} more per returned row; peak {over:.1} MB; {} rows",
        indexed.len()
    );
    assert_eq!(indexed, rows);
    assert!(
        per_rejected <= 0.001,
        "{rejected} allocations for an index read that matches nothing: rows are scanned"
    );
    assert!(
        per_returned <= 2.0,
        "{per_returned:.2} allocations per row the index returns: keys are copied one by one"
    );
    assert!(
        over <= 2.0,
        "the index read peaked {over:.1} MB over resident"
    );
}
