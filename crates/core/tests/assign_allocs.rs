//! The regression pin for "the UDF stage builds no tree": 10 000 generated
//! tweet payloads through `Udf::apply_bytes`, as the assign stage calls it
//! with one reused scratch. `sentiment_analysis` reads its text in place and
//! appends one double, so the one allocation per record is the output
//! payload; `busy_spin` and a filter that keeps the record forward the input
//! payload and allocate nothing. The tree body it replaced (kept as the test
//! oracle) is reported beside them.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::payload_from_text;
use asterix_feeds::udf::{Udf, UdfScratch};
use bytes::Bytes;
use tweetgen::TweetFactory;

#[path = "../../storage/tests/common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocs, Counting};

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 10_000;

/// Allocations per record `udf` makes over `payloads`, after one warm-up
/// call has grown the scratch buffers.
fn allocs_per_record(udf: &Udf, payloads: &[Bytes]) -> f64 {
    let mut scratch = UdfScratch::default();
    udf.apply_bytes(&payloads[0], &mut scratch).unwrap();
    let before = allocs();
    for p in payloads {
        let out = udf.apply_bytes(p, &mut scratch).unwrap();
        assert!(out.is_some(), "{} filtered a tweet", udf.name);
    }
    let per_record = (allocs() - before) as f64 / payloads.len() as f64;
    println!("{:<28} {per_record:.3} allocations per record", udf.name);
    per_record
}

#[test]
fn a_view_udf_allocates_only_what_it_writes() {
    let mut factory = TweetFactory::new(0, 29);
    let payloads: Vec<Bytes> = (0..TWEETS)
        .map(|_| payload_from_text(&factory.next_json()).unwrap())
        .collect();

    let sentiment = allocs_per_record(&Udf::sentiment_analysis(), &payloads);
    let spin = allocs_per_record(&Udf::busy_spin("spin", 100), &payloads);
    let keep = allocs_per_record(&Udf::filter("hasId", |t| t.str("id").is_some()), &payloads);
    let tree = allocs_per_record(
        &Udf::external("oracle#sentimentAnalysis", oracle::sentiment_analysis),
        &payloads,
    );

    assert!(
        sentiment <= 1.05,
        "{sentiment:.3} allocations per record: sentiment builds more than its output"
    );
    assert_eq!(spin, 0.0, "busy_spin forwards its input");
    assert_eq!(keep, 0.0, "a kept record is forwarded as it came");
    assert!(tree > sentiment, "the tree body costs {tree:.3}");
}
