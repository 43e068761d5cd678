//! Property tests over the storage engine: LSM semantics match a model map,
//! recovery is lossless, and partitioning preserves every record.

use asterix_adm::AdmValue;
use asterix_common::NodeId;
use asterix_storage::lsm::{LayoutConfig, LsmConfig, LsmTree};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::{Dataset, DatasetConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A record whose field set and per-field value types vary with the inputs,
/// so sealed components range from perfectly uniform (all slots) through
/// partially sparse (residuals) to churn-heavy (forcing the open-layout
/// fallback past the threshold).
fn layout_rec(k: u8, v: u16) -> AdmValue {
    let mut fields = vec![("id".to_string(), AdmValue::Int(i64::from(k)))];
    if v.is_multiple_of(3) {
        fields.push(("v".to_string(), AdmValue::Int(i64::from(v))));
    } else {
        fields.push(("v".to_string(), AdmValue::string(format!("s{v}"))));
    }
    if v.is_multiple_of(2) {
        fields.push(("extra".to_string(), AdmValue::Double(f64::from(v))));
    }
    AdmValue::Record(fields)
}

fn batch_rec(batch: usize, row: usize) -> Arc<AdmValue> {
    Arc::new(AdmValue::record(vec![
        ("id", format!("b{batch}-r{row}").into()),
        ("batch", AdmValue::Int(batch as i64)),
    ]))
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16),
    Delete(u8),
    Flush,
    Merge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Merge),
    ]
}

proptest! {
    /// The LSM tree behaves exactly like a BTreeMap regardless of flush and
    /// merge timing.
    #[test]
    fn lsm_matches_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut tree = LsmTree::new(LsmConfig {
            memtable_budget: 8,
            max_components: 3,
            defer_merge: false,
            ..LsmConfig::default()
        });
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    tree.put(AdmValue::Int(k as i64), AdmValue::Int(v as i64));
                    model.insert(k as i64, v as i64);
                }
                Op::Delete(k) => {
                    tree.delete(AdmValue::Int(k as i64));
                    model.remove(&(k as i64));
                }
                Op::Flush => tree.flush(),
                Op::Merge => tree.merge_all(),
            }
        }
        let got: Vec<(i64, i64)> = tree
            .scan_all()
            .into_iter()
            .map(|(k, v)| (k.as_int().unwrap(), v.as_int().unwrap()))
            .collect();
        let want: Vec<(i64, i64)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// The storage layout is invisible to reads: the same operation
    /// sequence — including flushes and merges at arbitrary points — leaves
    /// a schema-inferred compacted tree and an always-open tree in
    /// observationally identical states, for full scans, single-field scans
    /// and point field lookups alike. Mixed-type fields in the generated
    /// records push some components over the churn threshold, so the
    /// per-component fallback path is exercised under the same assertions.
    #[test]
    fn storage_layout_is_invisible_to_reads(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut compacted = LsmTree::new(LsmConfig {
            memtable_budget: 8,
            max_components: 3,
            defer_merge: false,
            ..LsmConfig::default()
        });
        let mut open = LsmTree::new(LsmConfig {
            memtable_budget: 8,
            max_components: 3,
            defer_merge: false,
            layout: LayoutConfig::open(),
        });
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let key = AdmValue::Int(i64::from(k));
                    compacted.put(key.clone(), layout_rec(k, v));
                    open.put(key, layout_rec(k, v));
                }
                Op::Delete(k) => {
                    compacted.delete(AdmValue::Int(i64::from(k)));
                    open.delete(AdmValue::Int(i64::from(k)));
                }
                Op::Flush => {
                    compacted.flush();
                    open.flush();
                }
                Op::Merge => {
                    compacted.merge_all();
                    open.merge_all();
                }
            }
        }
        prop_assert_eq!(compacted.scan_all(), open.scan_all());
        for field in ["id", "v", "extra", "zz_absent"] {
            let mut a = Vec::new();
            compacted.for_each_live_ref(|k, r| a.push((k.clone(), r.field(field))));
            let mut b = Vec::new();
            open.for_each_live_ref(|k, r| b.push((k.clone(), r.field(field))));
            prop_assert_eq!(&a, &b, "field scan '{}' diverged", field);
            for (k, want) in a {
                prop_assert_eq!(compacted.get_field(&k, field), want, "get_field '{}'", field);
            }
        }
        prop_assert_eq!(open.schema_inferred_components(), 0);
    }

    /// Recovery — the sealed components plus a replay of the log's
    /// unsealed tail — reproduces the exact partition contents, with
    /// checkpoints (budget 3) or without (the default budget), crashing at
    /// arbitrary points (`Flush`) and after forced merges (`Merge`). After
    /// every op the log holds exactly the entries logged since the last
    /// seal.
    #[test]
    fn recovery_is_lossless(
        ops in prop::collection::vec(op_strategy(), 0..120),
        memtable_budget in prop_oneof![Just(3usize), Just(LsmConfig::default().memtable_budget)],
    ) {
        let mut config = PartitionConfig::keyed_on("id");
        config.lsm.memtable_budget = memtable_budget;
        let p = DatasetPartition::new(config);
        // the model of the memtable: keys written since the last seal, and
        // the log entries that wrote them
        let mut unsealed: std::collections::BTreeSet<u8> = Default::default();
        let mut logged = 0usize;
        let mut live: std::collections::BTreeSet<u8> = Default::default();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let rec = AdmValue::record(vec![
                        ("id", AdmValue::Int(k as i64)),
                        ("v", AdmValue::Int(v as i64)),
                    ]);
                    p.upsert(&rec).unwrap();
                    live.insert(k);
                    unsealed.insert(k);
                    logged += 1;
                }
                Op::Delete(k) => {
                    p.delete(&AdmValue::Int(k as i64)).unwrap();
                    if live.remove(&k) {
                        unsealed.insert(k);
                        logged += 1;
                    }
                }
                Op::Flush => {
                    let before = p.scan_all();
                    p.recover().unwrap();
                    prop_assert_eq!(p.scan_all(), before);
                }
                Op::Merge => {
                    p.force_merge();
                    unsealed.clear();
                    logged = 0;
                    prop_assert_eq!(p.wal_size_bytes(), 0);
                }
            }
            if unsealed.len() >= memtable_budget {
                unsealed.clear();
                logged = 0;
            }
            prop_assert_eq!(p.wal_len(), logged);
        }
        let before = p.scan_all();
        p.recover().unwrap();
        prop_assert_eq!(p.scan_all(), before);
    }

    /// Every record inserted into a partitioned dataset is retrievable, and
    /// partition contents are disjoint and complete.
    #[test]
    fn partitioning_is_complete(keys in prop::collection::btree_set(0u32..500, 1..100),
                                parts in 1usize..6) {
        let d = Dataset::create(DatasetConfig {
            name: "T".into(),
            datatype: "T".into(),
            primary_key: "id".into(),
            nodegroup: (0..parts as u64).map(NodeId).collect(),
        }).unwrap();
        for &k in &keys {
            let rec = AdmValue::record(vec![("id", AdmValue::Int(k as i64))]);
            d.upsert(&rec).unwrap();
        }
        prop_assert_eq!(d.len(), keys.len());
        for &k in &keys {
            prop_assert!(d.get(&AdmValue::Int(k as i64)).is_some());
        }
        let total: usize = (0..parts).map(|i| d.partition(i).len()).sum();
        prop_assert_eq!(total, keys.len());
    }

    /// Crash-consistency of group commit: tearing an arbitrary number of
    /// bytes off the WAL tail (a crash mid-append) and replaying recovers
    /// exactly the records of fully-appended batches — each batch is
    /// all-or-nothing, and batch survival is prefix-monotone in append
    /// order.
    #[test]
    fn batch_replay_is_all_or_nothing(
        batch_sizes in prop::collection::vec(1usize..12, 1..8),
        torn_bytes in 0usize..400,
    ) {
        let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
        let mut batches: Vec<Vec<Arc<AdmValue>>> = Vec::new();
        for (b, &n) in batch_sizes.iter().enumerate() {
            let batch: Vec<Arc<AdmValue>> = (0..n).map(|r| batch_rec(b, r)).collect();
            let outcome = p.upsert_batch(&batch).unwrap();
            prop_assert_eq!(outcome.committed, n);
            batches.push(batch);
        }
        p.corrupt_wal_tail(torn_bytes);
        p.recover().unwrap();
        let recovered: std::collections::BTreeSet<String> = p
            .scan_all()
            .into_iter()
            .map(|(k, _)| k.as_str().unwrap().to_string())
            .collect();
        // each batch survived whole or not at all, and the survivors form
        // a prefix of the append order
        let mut torn_seen = false;
        for (b, batch) in batches.iter().enumerate() {
            let present = batch
                .iter()
                .filter(|r| {
                    recovered.contains(r.field("id").unwrap().as_str().unwrap())
                })
                .count();
            prop_assert!(
                present == 0 || present == batch.len(),
                "batch {} partially recovered: {}/{}", b, present, batch.len()
            );
            if present == 0 {
                torn_seen = true;
            } else {
                prop_assert!(!torn_seen, "batch {} survived after a lost batch", b);
            }
        }
        // tearing nothing must lose nothing
        if torn_bytes == 0 {
            let total: usize = batch_sizes.iter().sum();
            prop_assert_eq!(recovered.len(), total);
        }
    }

    /// Batched and per-record writes are observationally identical: the
    /// same records pushed through `upsert`/`insert` one at a time or
    /// through `upsert_batch`/`insert_batch` in arbitrary chunks leave the
    /// partition in the same `scan_all()` state.
    #[test]
    fn batched_and_per_record_writes_agree(
        ops in prop::collection::vec((0u8..30, any::<u16>()), 1..80),
        chunk in 1usize..17,
        strict in any::<bool>(),
    ) {
        let single = DatasetPartition::new(PartitionConfig::keyed_on("id"));
        let batched = DatasetPartition::new(PartitionConfig::keyed_on("id"));
        let records: Vec<Arc<AdmValue>> = ops
            .iter()
            .map(|&(k, v)| {
                Arc::new(AdmValue::record(vec![
                    ("id", AdmValue::Int(k as i64)),
                    ("v", AdmValue::Int(v as i64)),
                ]))
            })
            .collect();
        for r in &records {
            if strict {
                let _ = single.insert(r); // duplicate keys fail softly
            } else {
                single.upsert(r).unwrap();
            }
        }
        for c in records.chunks(chunk) {
            if strict {
                batched.insert_batch(c).unwrap();
            } else {
                batched.upsert_batch(c).unwrap();
            }
        }
        prop_assert_eq!(single.scan_all(), batched.scan_all());
    }
}
