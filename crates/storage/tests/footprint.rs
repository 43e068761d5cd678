//! The regression pin for "no tree is retained": after 50 000 tweets went
//! in through the bytes path, their inputs were dropped and the partition
//! merged down to one component, the live heap is a small multiple of the
//! payload bytes — the in-memory WAL's copy (≈ 1.05×), the compacted image
//! (≈ 0.45×) and the keys (≈ 0.2×). Holding an `AdmValue` per sealed record
//! beside the image (1 678 B for a 388 B tweet, as sealed components did
//! before they went keys-only) puts this ratio near 6.
//!
//! One `#[test]` in its own binary, so the counting allocator sees nothing
//! but this scenario.

use asterix_adm::{encode_value, parse_value};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use tweetgen::TweetFactory;

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TWEETS: usize = 50_000;
const FRAME: usize = 32;

#[test]
fn a_merged_partition_holds_no_record_tree() {
    let before = LIVE.load(Ordering::SeqCst);
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
    let inputs = LIVE.load(Ordering::SeqCst);
    drop(payloads);
    let inputs = (inputs - LIVE.load(Ordering::SeqCst)) as usize;
    assert!(
        inputs >= payload_bytes * 9 / 10,
        "dropping the inputs freed {inputs} of {payload_bytes} B: storage kept them alive"
    );
    partition.force_merge();
    assert_eq!(partition.len(), TWEETS);
    assert_eq!(partition.component_count(), 1);

    let live = (LIVE.load(Ordering::SeqCst) - before) as usize;
    let ratio = live as f64 / payload_bytes as f64;
    println!(
        "live heap {live} B for {payload_bytes} B of payloads ({ratio:.2}x): \
         WAL {} B, resident (keys + image) {} B",
        partition.wal_size_bytes(),
        partition.resident_bytes()
    );
    assert!(
        ratio <= 2.5,
        "live heap is {ratio:.2}x the payload bytes: something per-record is retained"
    );
    // the gauge accounts for what the heap holds beside the log
    let accounted = partition.wal_size_bytes() + partition.resident_bytes();
    assert!(
        accounted as f64 >= 0.8 * live as f64 && accounted <= live * 11 / 10,
        "gauge + WAL say {accounted} B, the heap holds {live} B"
    );
}
