//! Property tests for the linear-time sealed-component paths: a merge that
//! copies cells out of its inputs' images is indistinguishable from one that
//! re-encodes the merged rows, and the shared newest-wins k-way iterator
//! reads exactly what a `BTreeMap` overlay of the runs would.

use asterix_adm::compact::{BlockBuilder, CompactedBlock};
use asterix_adm::{encode_value, AdmValue};
use asterix_storage::lsm::{
    merge_components_with, ComponentStorage, LayoutConfig, LsmConfig, LsmTree,
};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const FIELDS: [&str; 6] = ["id", "name", "score", "extra", "tags", "zz_absent"];

/// One stored value. `shape` picks among: canonical order, an open field
/// between slots, slots out of order, a duplicated field name, a null, an
/// `Int`/`Double` flip of `score` (widening between components) and — only
/// when `opaque_ok` — a non-record row that cannot be compacted at all.
fn value(k: u8, v: u16, shape: u8, opaque_ok: bool) -> AdmValue {
    let id = ("id".to_string(), AdmValue::Int(i64::from(k)));
    let name = ("name".to_string(), AdmValue::string(format!("n{v}")));
    let score = |double: bool| {
        let s = if double {
            AdmValue::Double(f64::from(v) / 4.0)
        } else {
            AdmValue::Int(i64::from(v))
        };
        ("score".to_string(), s)
    };
    let extra = ("extra".to_string(), AdmValue::Point(f64::from(v), 1.5));
    AdmValue::Record(match shape % 8 {
        0 | 1 => vec![id, name, score(false)],
        2 => vec![id, name, extra, score(false)],
        3 => vec![score(false), name, id],
        4 => vec![id, name.clone(), score(false), name],
        5 => vec![id, ("name".to_string(), AdmValue::Null), score(false)],
        6 => vec![id, name, score(true)],
        _ if opaque_ok => return AdmValue::string(format!("opaque{v}")),
        _ => vec![
            id,
            name,
            ("tags".to_string(), AdmValue::OrderedList(vec![])),
        ],
    })
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u16, u8),
    Delete(u8),
}

/// A stack of components, oldest first: each a batch of writes over a small
/// key space, so keys are upserted and deleted across components. A batch's
/// `mode` narrows its shapes, which is what makes whole components share a
/// layout (mode 0: canonical only; mode 4: residuals, odd orders and
/// duplicates over fixed columns), differ in one column's encoding (mode 1:
/// `score` flips to `Double`), vary freely (mode 2) or fall back to the open
/// layout (mode 3: opaque rows allowed). Half the stacks force one
/// layout-sharing mode on every batch, so multi-input cell copies are common.
fn stack() -> impl Strategy<Value = Vec<(u8, Vec<Op>)>> {
    let op = prop_oneof![
        5 => (0u8..24, any::<u16>(), any::<u8>()).prop_map(|(k, v, s)| Op::Put(k, v, s)),
        1 => (0u8..24).prop_map(Op::Delete),
    ];
    let batches = prop::collection::vec((0u8..5, prop::collection::vec(op, 0..20)), 1..6);
    (0u8..4, batches).prop_map(|(common, mut batches)| {
        for (mode, _) in &mut batches {
            *mode = match common {
                0 => 0,
                1 => 4,
                _ => *mode,
            };
        }
        batches
    })
}

fn shape_in_mode(mode: u8, shape: u8) -> u8 {
    match mode {
        0 => 0,
        1 => 6,
        4 => [0, 2, 3, 4][usize::from(shape % 4)],
        _ => shape,
    }
}

/// Seal `batches` into one component each; returns the tree and the model
/// (newest version per key, deletes applied).
fn build(batches: &[(u8, Vec<Op>)], opaque_ok: bool) -> (LsmTree, BTreeMap<i64, AdmValue>) {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_budget: usize::MAX,
        defer_merge: true,
        ..LsmConfig::default()
    });
    let mut model = BTreeMap::new();
    for (mode, ops) in batches {
        for op in ops {
            match *op {
                Op::Put(k, v, shape) => {
                    let val = value(k, v, shape_in_mode(*mode, shape), opaque_ok && *mode == 3);
                    tree.put(AdmValue::Int(i64::from(k)), val.clone());
                    model.insert(i64::from(k), val);
                }
                Op::Delete(k) => {
                    tree.delete(AdmValue::Int(i64::from(k)));
                    model.remove(&i64::from(k));
                }
            }
        }
        tree.seal();
    }
    (tree, model)
}

fn compacted(storage: &ComponentStorage) -> Option<&CompactedBlock> {
    match storage {
        ComponentStorage::Compacted(b) => Some(b),
        ComponentStorage::Open(_) => None,
    }
}

/// Run `f` on the builder over `rows` in the form storage holds them:
/// binary ADM records.
fn with_builder<R>(rows: &[&AdmValue], f: impl FnOnce(&BlockBuilder) -> R) -> R {
    let bytes: Vec<Vec<u8>> = rows.iter().map(|r| encode_value(r)).collect();
    let refs: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
    f(&BlockBuilder::infer(&refs))
}

fn field_of(row: &AdmValue, name: &str) -> Option<AdmValue> {
    row.as_record()?
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
}

proptest! {
    /// merge-by-cell-copy ≡ merge-by-re-encode. The oracle is the builder run
    /// over the merged rows — a full re-encode.
    #[test]
    fn merge_by_cell_copy_equals_merge_by_re_encode(batches in stack()) {
        let (mut tree, model) = build(&batches, true);
        let inputs = tree.components_snapshot();
        if inputs.is_empty() {
            return Ok(());
        }
        let merged = merge_components_with(&inputs, 0, &LayoutConfig::default());
        let rows: Vec<&AdmValue> = model.values().collect();

        // every survivor, once, in key order; each row built one way
        let keys: Vec<i64> = merged.component.iter().map(|(k, _)| k.0.as_int().unwrap()).collect();
        prop_assert_eq!(&keys, &model.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(merged.rows_copied + merged.rows_reencoded, rows.len() as u64);
        let input_blocks: Option<Vec<&CompactedBlock>> =
            inputs.iter().map(|c| compacted(c.storage())).collect();
        let same_layout = input_blocks
            .as_ref()
            .is_some_and(|b| b.windows(2).all(|w| w[0].same_layout(w[1])));
        if same_layout {
            prop_assert_eq!(merged.rows_reencoded, 0, "same-layout inputs must be copied");
        } else {
            prop_assert_eq!(merged.rows_copied, 0);
        }

        // the image holds exactly the merged rows, field by field
        let image = merged.component.storage();
        for (i, row) in rows.iter().enumerate() {
            let got = image.materialize(i);
            prop_assert_eq!(got.as_ref(), Some(*row), "row {}", i);
        }
        if let Some(block) = compacted(image) {
            let (oracle, fresh) =
                with_builder(&rows, |b| (b.encode(&block.slot_names()), b.schema().clone()));
            for (i, row) in rows.iter().enumerate() {
                for name in FIELDS {
                    prop_assert_eq!(block.field_value(i, name), oracle.field_value(i, name));
                    prop_assert_eq!(block.field_value(i, name), field_of(row, name));
                }
            }
            // exact header counts, whichever way the image was built
            let (header, inferred) = (block.schema(), oracle.schema());
            prop_assert_eq!(header.records, rows.len() as u64);
            prop_assert_eq!(header.total_items, inferred.total_items);
            prop_assert_eq!(header.opaque_rows, inferred.opaque_rows);
            for (h, o) in header.fields.iter().zip(&inferred.fields) {
                prop_assert_eq!((&h.name, h.present, h.nulls), (&o.name, o.present, o.nulls));
            }
            // no slot every input agreed on is demoted
            if let Some(blocks) = &input_blocks {
                let slots = block.slot_names();
                for name in blocks[0].slot_names() {
                    if blocks.iter().all(|b| b.slot_names().contains(&name))
                        && fresh.fields.iter().any(|f| f.name == name)
                    {
                        prop_assert!(slots.contains(&name), "slot {} demoted", name);
                    }
                }
            }
        }

        // and reads through the tree agree once the merge is installed
        prop_assert!(tree.install_merged(&inputs, Arc::new(merged.component)));
        let want: Vec<(AdmValue, AdmValue)> =
            model.iter().map(|(k, v)| (AdmValue::Int(*k), v.clone())).collect();
        prop_assert_eq!(tree.scan_all(), want);
        for name in FIELDS {
            let mut got = Vec::new();
            tree.for_each_live_field(name, |_, v| got.push(v));
            let want: Vec<Option<AdmValue>> = rows.iter().map(|r| field_of(r, name)).collect();
            prop_assert_eq!(got, want, "field scan '{}'", name);
        }
    }

    /// `scan_projected` over a partition whose components were merged reads
    /// what the model holds (records only: a partition keys on a field).
    #[test]
    fn scan_projected_is_unchanged_by_merges(batches in stack()) {
        let mut cfg = PartitionConfig::keyed_on("id");
        cfg.lsm.memtable_budget = 7;
        cfg.lsm.max_components = 1_000_000; // only the forced merge merges
        let p = DatasetPartition::new(cfg);
        let mut model = BTreeMap::new();
        for (mode, ops) in &batches {
            for op in ops {
                match *op {
                    Op::Put(k, v, shape) => {
                        let val = value(k, v, shape_in_mode(*mode, shape), false);
                        p.upsert(&val).unwrap();
                        model.insert(i64::from(k), val);
                    }
                    Op::Delete(k) => {
                        p.delete(&AdmValue::Int(i64::from(k))).unwrap();
                        model.remove(&i64::from(k));
                    }
                }
            }
        }
        p.force_merge();
        let fields = ["score".to_string(), "extra".to_string(), "id".to_string()];
        let want: Vec<AdmValue> = model
            .values()
            .map(|row| {
                AdmValue::Record(
                    fields
                        .iter()
                        .filter_map(|f| field_of(row, f).map(|v| (f.clone(), v)))
                        .collect(),
                )
            })
            .collect();
        prop_assert_eq!(p.scan_projected(&fields), want);
    }

    /// The one k-way iterator behind every ordered read equals a `BTreeMap`
    /// overlay of memtable and runs: inclusive `lo..=hi` bounds (either side
    /// open, `lo > hi` empty), tombstones hidden, shadowed versions never
    /// surfacing — for full-record and vectorized scans alike.
    #[test]
    fn kway_iterator_matches_a_btreemap_overlay(
        batches in stack(),
        live in prop::collection::vec((0u8..24, any::<u16>()), 0..10),
        lo in prop::collection::vec(0u8..26, 0..2),
        hi in prop::collection::vec(0u8..26, 0..2),
    ) {
        let (mut tree, mut model) = build(&batches, true);
        // an unsealed tail: the memtable is the newest run
        for (k, v) in live {
            if v % 5 == 0 {
                tree.delete(AdmValue::Int(i64::from(k)));
                model.remove(&i64::from(k));
            } else {
                tree.put(AdmValue::Int(i64::from(k)), value(k, v, 0, false));
                model.insert(i64::from(k), value(k, v, 0, false));
            }
        }
        let bound = |b: &[u8]| b.first().map(|k| AdmValue::Int(i64::from(*k)));
        let (lo, hi) = (bound(&lo), bound(&hi));
        let in_range = |k: &i64| {
            lo.as_ref().is_none_or(|lo| *k >= lo.as_int().unwrap())
                && hi.as_ref().is_none_or(|hi| *k <= hi.as_int().unwrap())
        };
        let want: Vec<(AdmValue, AdmValue)> = model
            .iter()
            .filter(|(k, _)| in_range(k))
            .map(|(k, v)| (AdmValue::Int(*k), v.clone()))
            .collect();
        prop_assert_eq!(tree.scan_range(lo.as_ref(), hi.as_ref()), want);

        let mut refs = Vec::new();
        tree.for_each_live_ref(|k, r| refs.push((k.clone(), r.materialize().unwrap(), r.field("name"))));
        let want: Vec<(AdmValue, AdmValue, Option<AdmValue>)> = model
            .iter()
            .map(|(k, v)| (AdmValue::Int(*k), v.clone(), field_of(v, "name")))
            .collect();
        prop_assert_eq!(refs, want);
        for k in 0..26 {
            let key = AdmValue::Int(k);
            prop_assert_eq!(tree.get(&key), model.get(&k).cloned());
            prop_assert_eq!(tree.contains(&key), model.contains_key(&k));
            prop_assert_eq!(
                tree.get_field(&key, "score"),
                model.get(&k).and_then(|v| field_of(v, "score"))
            );
        }
    }
}

fn tweet(i: usize) -> AdmValue {
    AdmValue::record(vec![
        ("id", format!("t{i:06}").into()),
        (
            "user",
            AdmValue::record(vec![
                ("screen_name", format!("u{}", i % 97).into()),
                ("followers_count", AdmValue::Int((i * 7) as i64)),
            ]),
        ),
        ("latitude", AdmValue::Double(i as f64 / 3.0)),
        (
            "created_at",
            AdmValue::DateTime(1_400_000_000_000 + i as i64),
        ),
        ("message_text", format!("tweet number {i}").into()),
        (
            "country",
            if i.is_multiple_of(3) { "US" } else { "IN" }.into(),
        ),
    ])
}

/// The complexity pin, in the spirit of `feed.parse_calls`: merging
/// same-layout tweet components re-encodes no row — every cell is copied —
/// and upserts across components still resolve newest-wins.
#[test]
fn merging_same_layout_tweet_components_reencodes_nothing() {
    let mut tree = LsmTree::new(LsmConfig {
        memtable_budget: 500,
        defer_merge: true,
        ..LsmConfig::default()
    });
    for i in 0..2_500 {
        // every 10th tweet rewrites a key of the previous component
        let v = if i >= 500 && i % 10 == 9 {
            tweet(i - 501)
        } else {
            tweet(i)
        };
        tree.put(v.field("id").unwrap().clone(), v);
    }
    let inputs = tree.components_snapshot();
    assert_eq!(inputs.len(), 5);
    let merged = merge_components_with(&inputs, 0, &LayoutConfig::default());
    assert_eq!(merged.rows_reencoded, 0);
    assert_eq!(merged.rows_copied, 2_300);
    assert_eq!(merged.component.live_records(), 2_300);
    // same bytes as a fresh encode of the merged rows: same layout, and the
    // header recount equals a fresh inference
    let rows: Vec<AdmValue> = tree.scan_all().into_iter().map(|(_, v)| v).collect();
    let refs: Vec<&AdmValue> = rows.iter().collect();
    let fresh = with_builder(&refs, |b| b.encode(&b.schema().slot_fields(0.5)));
    let copied = compacted(merged.component.storage()).expect("compacted");
    assert_eq!(copied.as_bytes(), fresh.as_bytes());
    // a second-generation merge (merged + fresh seals) still copies
    assert!(tree.install_merged(&inputs, Arc::new(merged.component)));
    for i in 2_500..3_000 {
        let v = tweet(i);
        tree.put(v.field("id").unwrap().clone(), v);
    }
    let inputs = tree.components_snapshot();
    let merged = merge_components_with(&inputs, 0, &LayoutConfig::default());
    assert_eq!((merged.rows_copied, merged.rows_reencoded), (2_800, 0));
}
