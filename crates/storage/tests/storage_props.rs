//! Property tests over the storage engine: LSM semantics match a model map,
//! recovery is lossless, and partitioning preserves every record.

use asterix_adm::AdmValue;
use asterix_common::NodeId;
use asterix_storage::lsm::{LayoutConfig, LsmConfig, LsmTree};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::{Dataset, DatasetConfig, IndexKind};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[path = "common/keys_eq.rs"]
mod keys_eq;
use keys_eq::keys_eq;

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

/// One record of a write batch: keyed, with a `country` for the btree (a
/// string or an int: any value suits a btree) and maybe a `location` for
/// the rtree (a point, or a word no rtree accepts) — or keyless.
#[derive(Debug, Clone)]
enum Poison {
    Keyed { k: u8, country: u8, loc: u8 },
    Keyless,
}

impl Poison {
    fn value(&self) -> AdmValue {
        let (key, country, loc) = match *self {
            Poison::Keyed { k, country, loc } => (Some(k), country, loc),
            Poison::Keyless => (None, 0, 0),
        };
        let mut fields = Vec::new();
        if let Some(k) = key {
            fields.push(("id".to_string(), AdmValue::Int(i64::from(k))));
        }
        fields.push(("country".to_string(), country_value(country)));
        if let Some(location) = location_value(loc) {
            fields.push(("location".to_string(), location));
        }
        AdmValue::Record(fields)
    }
}

fn country_value(country: u8) -> AdmValue {
    match country % 4 {
        3 => AdmValue::Int(7),
        c => AdmValue::string(format!("c{c}")),
    }
}

/// `loc % 4`: 0 absent, 1 a word, else a point.
fn location_value(loc: u8) -> Option<AdmValue> {
    match loc % 4 {
        0 => None,
        1 => Some(AdmValue::string("nowhere")),
        _ => Some(AdmValue::Point(f64::from(loc), f64::from(loc / 2))),
    }
}

#[derive(Debug, Clone)]
enum PoisonOp {
    Batch { recs: Vec<Poison>, strict: bool },
    Delete(u8),
    Crash,
    Merge,
    AddRtree,
}

fn poison_op_strategy() -> impl Strategy<Value = PoisonOp> {
    let rec = prop_oneof![
        8 => (0u8..12, any::<u8>(), any::<u8>())
            .prop_map(|(k, country, loc)| Poison::Keyed { k, country, loc }),
        1 => Just(Poison::Keyless),
    ];
    prop_oneof![
        6 => (prop::collection::vec(rec, 1..6), any::<bool>())
            .prop_map(|(recs, strict)| PoisonOp::Batch { recs, strict }),
        2 => (0u8..12).prop_map(PoisonOp::Delete),
        1 => Just(PoisonOp::Crash),
        1 => Just(PoisonOp::Merge),
        1 => Just(PoisonOp::AddRtree),
    ]
}

/// The keys each index answers with: the btree per country value, the
/// rtree over the whole plane (when installed).
fn index_answers(p: &DatasetPartition, rtree: bool) -> (Vec<BTreeSet<i64>>, Option<BTreeSet<i64>>) {
    let by_country = (0..4)
        .map(|c| {
            let keys = keys_eq(p, "country", &country_value(c));
            keys.iter().map(|k| k.as_int().unwrap()).collect()
        })
        .collect();
    let by_loc = rtree.then(|| {
        let recs = p.query_rect("byLoc", -1.0, -1.0, 300.0, 300.0).unwrap();
        recs.iter()
            .map(|r| r.field("id").and_then(AdmValue::as_int).unwrap())
            .collect()
    });
    (by_country, by_loc)
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

    /// A logged record always applies. Batches mix poison records — a
    /// location no rtree accepts, keyless records, duplicates within a
    /// batch — under a btree and (from the start, or installed at an
    /// arbitrary point) an rtree, with crashes and forced merges anywhere.
    /// A poison record is refused before the log; an rtree is installed
    /// only over live records it accepts. After every op the live set
    /// equals the oracle, both indexes answer from it, `wal_len()` equals
    /// the entries logged since the last seal, and every crash's
    /// `recover()` is `Ok` and changes nothing.
    #[test]
    fn a_logged_record_always_applies(
        ops in prop::collection::vec(poison_op_strategy(), 1..60),
        rtree_at_start in any::<bool>(),
        memtable_budget in prop_oneof![Just(3usize), Just(LsmConfig::default().memtable_budget)],
    ) {
        let mut config = PartitionConfig::keyed_on("id");
        config.lsm.memtable_budget = memtable_budget;
        let p = DatasetPartition::new(config);
        p.add_secondary("byCountry", "country", IndexKind::BTree).unwrap();
        let mut rtree = rtree_at_start;
        if rtree {
            p.add_secondary("byLoc", "location", IndexKind::RTree).unwrap();
        }
        // the oracle: live records by key; keys staged since the last seal
        // and the log entries that wrote them
        let mut live: BTreeMap<u8, Poison> = BTreeMap::new();
        let mut unsealed: BTreeSet<u8> = BTreeSet::new();
        let mut logged = 0usize;
        for op in ops {
            match op {
                PoisonOp::Batch { recs, strict } => {
                    let values: Vec<Arc<AdmValue>> = recs.iter().map(|r| Arc::new(r.value())).collect();
                    let outcome = if strict {
                        p.insert_batch(&values).unwrap()
                    } else {
                        p.upsert_batch(&values).unwrap()
                    };
                    // refused: a keyless record, a word under the rtree
                    // and (strict) a key stored or taken earlier in the
                    // batch by a record the rtree did not refuse
                    let mut in_batch = BTreeSet::new();
                    let mut accepted = Vec::new();
                    for rec in &recs {
                        let Poison::Keyed { k, loc, .. } = *rec else { continue };
                        if rtree && loc % 4 == 1 {
                            continue;
                        }
                        if strict && (live.contains_key(&k) || !in_batch.insert(k)) {
                            continue;
                        }
                        accepted.push((k, rec.clone()));
                    }
                    prop_assert_eq!(outcome.committed, accepted.len());
                    prop_assert_eq!(outcome.soft.len(), recs.len() - accepted.len());
                    logged += accepted.len();
                    for (k, rec) in accepted {
                        unsealed.insert(k);
                        live.insert(k, rec);
                    }
                }
                PoisonOp::Delete(k) => {
                    p.delete(&AdmValue::Int(i64::from(k))).unwrap();
                    if live.remove(&k).is_some() {
                        unsealed.insert(k);
                        logged += 1;
                    }
                }
                PoisonOp::Crash => {
                    let before = (p.scan_all(), index_answers(&p, rtree));
                    p.recover().unwrap();
                    prop_assert_eq!((p.scan_all(), index_answers(&p, rtree)), before);
                }
                PoisonOp::Merge => {
                    p.force_merge();
                    unsealed.clear();
                    logged = 0;
                }
                PoisonOp::AddRtree if !rtree => {
                    let refusable = live.values().any(|r| {
                        matches!(r, Poison::Keyed { loc, .. } if loc % 4 == 1)
                    });
                    let added = p.add_secondary("byLoc", "location", IndexKind::RTree);
                    prop_assert_eq!(added.is_ok(), !refusable);
                    rtree = added.is_ok();
                }
                PoisonOp::AddRtree => {}
            }
            if unsealed.len() >= memtable_budget {
                unsealed.clear();
                logged = 0;
            }
            prop_assert_eq!(p.wal_len(), logged);
            let expected: Vec<(AdmValue, AdmValue)> = live
                .iter()
                .map(|(k, r)| (AdmValue::Int(i64::from(*k)), r.value()))
                .collect();
            prop_assert_eq!(p.scan_all(), expected);
            let by_country: Vec<BTreeSet<i64>> = (0..4)
                .map(|c| {
                    let of = |r: &Poison| matches!(r, Poison::Keyed { country, .. } if country % 4 == c);
                    live.iter().filter(|(_, r)| of(r)).map(|(k, _)| i64::from(*k)).collect()
                })
                .collect();
            let located = live.iter().filter(|(_, r)| matches!(r, Poison::Keyed { loc, .. } if loc % 4 >= 2));
            let by_loc = rtree.then(|| located.map(|(k, _)| i64::from(*k)).collect());
            prop_assert_eq!(index_answers(&p, rtree), (by_country, by_loc));
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
