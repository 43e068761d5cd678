//! The regression pin for "no tree is retained" and "the log keeps only the
//! unsealed tail": after 50 000 tweets went in through the bytes path,
//! their inputs were dropped and the partition merged down to one
//! component, the live heap is a fraction of the payload bytes — the
//! compacted image (≈ 0.45×) and the keys (≈ 0.15×), 0.60× in all. The
//! merge's seal checkpointed the WAL, so it holds nothing; a log that kept
//! a copy of every record ever ingested adds ≈ 1.07× (1.67× in all), and
//! holding an `AdmValue` per sealed record beside the image (1 678 B for a
//! 388 B tweet, as sealed components did before they went keys-only) puts
//! the ratio near 6.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::{encode_value, parse_value};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use bytes::Bytes;
use tweetgen::TweetFactory;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{live, Counting};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 50_000;
const FRAME: usize = 32;

#[test]
fn a_merged_partition_holds_no_record_tree() {
    let before = live();
    let mut factory = TweetFactory::new(0, 17);
    let payloads: Vec<Bytes> = (0..TWEETS)
        .map(|_| {
            let tweet = parse_value(&factory.next_json()).expect("generated tweet parses");
            encode_value(&tweet).into()
        })
        .collect();
    let payload_bytes: usize = payloads.iter().map(Bytes::len).sum();

    let mut config = PartitionConfig::keyed_on("id");
    // only the forced merge merges: no background round can still be holding
    // its input snapshot when the heap is read
    config.lsm.max_components = usize::MAX;
    let partition = DatasetPartition::new(config);
    for frame in payloads.chunks(FRAME) {
        let outcome = partition.upsert_batch_bytes(frame, None).expect("upsert");
        assert_eq!(outcome.committed, frame.len());
    }
    let inputs = live();
    drop(payloads);
    let inputs = (inputs - live()) as usize;
    assert!(
        inputs >= payload_bytes * 9 / 10,
        "dropping the inputs freed {inputs} of {payload_bytes} B: storage kept them alive"
    );
    partition.force_merge();
    assert_eq!(partition.len(), TWEETS);
    assert_eq!(partition.component_count(), 1);

    let live = (live() - before) as usize;
    let ratio = live as f64 / payload_bytes as f64;
    println!(
        "live heap {live} B for {payload_bytes} B of payloads ({ratio:.2}x): \
         WAL {} B, resident (keys + image) {} B",
        partition.wal_size_bytes(),
        partition.resident_bytes()
    );
    assert!(
        ratio <= 0.8,
        "live heap is {ratio:.2}x the payload bytes: something per-record is retained"
    );
    // the gauge accounts for what the heap holds beside the log
    let accounted = partition.wal_size_bytes() + partition.resident_bytes();
    assert!(
        accounted as f64 >= 0.8 * live as f64 && accounted <= live * 11 / 10,
        "gauge + WAL say {accounted} B, the heap holds {live} B"
    );
}
