//! Concurrency tests for the off-critical-path compaction worker: merges
//! must never lose or duplicate a key, must not block the insert path, and
//! secondary indexes must stay consistent with the primary throughout.

use asterix_adm::AdmValue;
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::IndexKind;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[path = "common/keys_eq.rs"]
mod keys_eq;
use keys_eq::keys_eq;

fn rec(key: &str, group: i64) -> Arc<AdmValue> {
    Arc::new(AdmValue::record(vec![
        ("id", key.into()),
        ("group", AdmValue::Int(group)),
    ]))
}

fn small_components(merge_spin: u64) -> PartitionConfig {
    let mut cfg = PartitionConfig::keyed_on("id");
    cfg.lsm.memtable_budget = 16;
    cfg.lsm.max_components = 3;
    cfg.merge_spin = merge_spin;
    cfg
}

/// Writers hammer disjoint key ranges in batches while forced merges run in
/// a loop; at the end every key is present exactly once.
#[test]
fn concurrent_inserts_and_merges_lose_and_duplicate_nothing() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 300;
    let p = Arc::new(DatasetPartition::new(small_components(0)));
    let stop_merging = Arc::new(AtomicBool::new(false));

    let merger = {
        let p = Arc::clone(&p);
        let stop = Arc::clone(&stop_merging);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                p.force_merge();
                std::thread::yield_now();
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                let records: Vec<Arc<AdmValue>> = (0..PER_WRITER)
                    .map(|i| rec(&format!("w{w}-k{i:04}"), w as i64))
                    .collect();
                for chunk in records.chunks(16) {
                    let outcome = p.insert_batch(chunk).unwrap();
                    assert_eq!(outcome.committed, chunk.len(), "writer {w} lost records");
                }
            })
        })
        .collect();
    for t in writers {
        t.join().unwrap();
    }
    stop_merging.store(true, Ordering::Relaxed);
    merger.join().unwrap();

    assert_eq!(p.len(), WRITERS * PER_WRITER);
    let keys: Vec<String> = p
        .scan_all()
        .into_iter()
        .map(|(k, _)| k.as_str().unwrap().to_string())
        .collect();
    let unique: BTreeSet<&String> = keys.iter().collect();
    assert_eq!(unique.len(), keys.len(), "duplicated keys after merges");
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            let key = format!("w{w}-k{i:04}");
            assert!(unique.contains(&key), "lost {key}");
        }
    }
}

/// The tentpole property: a forced merge of many sealed components
/// completes while concurrent `insert_batch` calls keep making progress —
/// inserts observe the merge in flight and still commit.
#[test]
fn inserts_make_progress_while_a_merge_runs() {
    // expensive merge: ~1k spin iterations per surviving entry over ~2k
    // entries makes the merge window wide enough to observe reliably
    let mut cfg = small_components(20_000);
    cfg.lsm.max_components = 1_000_000; // worker stays idle; we force merges
    let p = Arc::new(DatasetPartition::new(cfg));
    let seed: Vec<Arc<AdmValue>> = (0..2_000).map(|i| rec(&format!("seed{i:05}"), 0)).collect();
    for chunk in seed.chunks(16) {
        p.insert_batch(chunk).unwrap();
    }
    assert!(p.component_count() > 10, "seed did not seal components");

    let committed_during_merge = Arc::new(AtomicU64::new(0));
    let writer = {
        let p = Arc::clone(&p);
        let counter = Arc::clone(&committed_during_merge);
        std::thread::spawn(move || {
            let mut i = 0usize;
            let deadline = Instant::now() + Duration::from_secs(10);
            // insert until we have demonstrably committed during a merge
            while counter.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                let batch: Vec<Arc<AdmValue>> =
                    (0..8).map(|j| rec(&format!("live{i}-{j}"), 1)).collect();
                i += 1;
                let before = p.is_merging();
                let outcome = p.insert_batch(&batch).unwrap();
                assert_eq!(outcome.committed, batch.len());
                // only count a batch whose whole critical section overlapped
                // the merge: merging before *and* after the call
                if before && p.is_merging() {
                    counter.fetch_add(outcome.committed as u64, Ordering::Relaxed);
                }
            }
        })
    };

    // run merges until the writer has proven overlap (or the deadline hits)
    let deadline = Instant::now() + Duration::from_secs(10);
    while committed_during_merge.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        p.force_merge();
    }
    writer.join().unwrap();

    assert!(
        committed_during_merge.load(Ordering::Relaxed) > 0,
        "no insert_batch ever completed while a merge was in flight"
    );
    assert!(p.compactions() >= 1, "no merge actually ran");
    // and nothing was lost along the way
    let live: Vec<String> = p
        .scan_all()
        .into_iter()
        .map(|(k, _)| k.as_str().unwrap().to_string())
        .collect();
    assert!(live.len() >= seed.len());
    let unique: BTreeSet<&String> = live.iter().collect();
    assert_eq!(unique.len(), live.len());
}

/// Secondary-index lookups agree with the primary while compaction churns:
/// a reader continuously picks a known key, queries the secondary, and
/// cross-checks the primary's answer.
#[test]
fn secondary_lookups_agree_with_primary_during_compaction() {
    let p = Arc::new(DatasetPartition::new(small_components(2_000)));
    p.add_secondary("byGroup", "group", IndexKind::BTree)
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let p = Arc::clone(&p);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut checks = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for group in 0..4i64 {
                    for key in keys_eq(&p, "group", &AdmValue::Int(group)) {
                        // every key the secondary returns must be live in
                        // the primary, under the group it was indexed by
                        let via_primary = p
                            .get(&key)
                            .unwrap_or_else(|| panic!("secondary returned {key}, primary lost it"));
                        assert_eq!(via_primary.field("group"), Some(&AdmValue::Int(group)));
                        checks += 1;
                    }
                }
            }
            checks
        })
    };

    for i in 0..600usize {
        let batch: Vec<Arc<AdmValue>> = (0..4)
            .map(|g| rec(&format!("g{g}-i{i:04}"), g as i64))
            .collect();
        p.upsert_batch(&batch).unwrap();
        if i % 50 == 0 {
            p.force_merge();
        }
    }
    p.force_merge();
    stop.store(true, Ordering::Relaxed);
    let checks = reader.join().unwrap();
    assert!(checks > 0, "reader never validated a secondary hit");
    assert_eq!(p.len(), 600 * 4);
    // post-churn: secondary and primary agree exactly per group
    for group in 0..4i64 {
        let hits = keys_eq(&p, "group", &AdmValue::Int(group));
        assert_eq!(hits.len(), 600, "group {group}");
    }
}
