//! Property tests for the bytes write path: a record enters storage as its
//! binary ADM payload and no `AdmValue` of it is ever held.
//!
//! * **Hostile bytes are soft failures** — the store trusts payloads that
//!   crossed a wire or a spill file without decoding them, so the checked
//!   walk is load-bearing: truncations, noise, bad UTF-8, impossible counts
//!   and trailing bytes are each rejected per index, nothing of them
//!   reaches the log, and whatever *was* accepted seals, merges and
//!   materializes without a panic.
//! * **Equivalence** — for any records (duplicate names, NaN/−0.0, odd field
//!   order, nested and empty records) every read returns bit-exactly the
//!   value that was written — the model a value-holding store trivially
//!   satisfied — from the memtable, from sealed components, after a merge
//!   (cell copy or re-encode, as the layouts fall), and after WAL recovery
//!   with or without a torn tail; the value-taking adapters and the bytes
//!   path are indistinguishable.

use asterix_adm::binary::validate;
use asterix_adm::{decode_value, encode_value, AdmValue};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::IndexKind;
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[path = "../../adm/tests/common/gen.rs"]
mod gen;
use gen::adm_value;

/// A record keyed `id = k`: generated fields (names repeat, values are
/// anything) with the key spliced in at `at`, sometimes an indexed `tag`
/// and `loc`, sometimes a second `id` (only the first is the key).
fn record(k: u8, fields: Vec<(String, AdmValue)>, at: usize, extras: u8) -> AdmValue {
    let mut fields = fields;
    fields.retain(|(n, _)| n != "id");
    fields.insert(
        at % (fields.len() + 1),
        ("id".to_string(), AdmValue::Int(i64::from(k))),
    );
    if extras & 1 != 0 {
        fields.push(("tag".into(), AdmValue::string(format!("t{}", extras >> 6))));
    }
    match (extras >> 1) & 3 {
        0 => {}
        1 => fields.push(("loc".into(), AdmValue::Null)),
        _ => fields.push((
            "loc".into(),
            AdmValue::Point(f64::from(extras >> 4), f64::from(k)),
        )),
    }
    if extras & 8 != 0 {
        fields.push(("id".into(), AdmValue::string("not the key")));
    }
    AdmValue::Record(fields)
}

fn keyed_record() -> impl Strategy<Value = AdmValue> {
    (
        0u8..12,
        prop::collection::vec(("[ab]{1,2}", adm_value()), 0..5),
        any::<usize>(),
        any::<u8>(),
    )
        .prop_map(|(k, fields, at, extras)| record(k, fields, at, extras))
}

#[derive(Debug, Clone)]
enum Op {
    Put(AdmValue),
    Delete(u8),
}

/// Batches of writes: each batch is one group commit (one WAL block).
fn batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op = prop_oneof![
        6 => keyed_record().prop_map(Op::Put),
        // a value that is no record at all: rejected, softly, by every path
        1 => adm_value().prop_map(Op::Put),
        1 => (0u8..12).prop_map(Op::Delete),
    ];
    prop::collection::vec(prop::collection::vec(op, 1..8), 1..8)
}

fn partition(memtable_budget: usize) -> DatasetPartition {
    let mut cfg = PartitionConfig::keyed_on("id");
    cfg.lsm.memtable_budget = memtable_budget;
    cfg.lsm.max_components = 1_000_000; // only a forced merge merges
    let p = DatasetPartition::new(cfg);
    p.add_secondary("byTag", "tag", IndexKind::BTree).unwrap();
    p.add_secondary("byLoc", "loc", IndexKind::RTree).unwrap();
    p
}

fn key_of(record: &AdmValue) -> Option<i64> {
    record.field("id").and_then(AdmValue::as_int)
}

/// Values compared by their encoding: injective, and NaNs compare by bits.
fn bits<'a>(values: impl IntoIterator<Item = &'a AdmValue>) -> Vec<Vec<u8>> {
    values.into_iter().map(encode_value).collect()
}

fn sorted_bits<'a>(values: impl IntoIterator<Item = &'a AdmValue>) -> Vec<Vec<u8>> {
    let mut out = bits(values);
    out.sort();
    out
}

/// Every read of `p` returns what `model` (key → the value written last)
/// holds.
fn check_reads(p: &DatasetPartition, model: &BTreeMap<i64, AdmValue>) -> Result<(), TestCaseError> {
    let scanned = p.scan_all();
    let keys: Vec<AdmValue> = model.keys().map(|k| AdmValue::Int(*k)).collect();
    prop_assert_eq!(
        scanned.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        keys
    );
    prop_assert_eq!(bits(scanned.iter().map(|(_, v)| v)), bits(model.values()));
    prop_assert_eq!(p.len(), model.len());
    let names = ["id", "a", "ab", "tag", "loc", "zz_absent"];
    for k in 0..12 {
        let (key, want) = (AdmValue::Int(k), model.get(&k));
        prop_assert_eq!(bits(&p.get(&key)), bits(want));
        for name in names {
            let want = want.and_then(|r| r.field(name));
            prop_assert_eq!(bits(&p.get_field(&key, name)), bits(want), "{}.{}", k, name);
        }
    }
    let fields: Vec<String> = ["b", "id", "tag"].map(String::from).to_vec();
    let projected: Vec<AdmValue> = model
        .values()
        .map(|r| {
            let present = |f: &String| r.field(f).map(|v| (f.clone(), v.clone()));
            AdmValue::Record(fields.iter().filter_map(present).collect())
        })
        .collect();
    prop_assert_eq!(bits(&p.scan_projected(&fields)), bits(&projected));
    for tag in 0..4 {
        let tag = AdmValue::string(format!("t{tag}"));
        let want = model.values().filter(|r| r.field("tag") == Some(&tag));
        prop_assert_eq!(
            sorted_bits(&p.query_eq("byTag", &tag).unwrap()),
            sorted_bits(want)
        );
    }
    let in_rect = |r: &&AdmValue| matches!(r.field("loc"), Some(AdmValue::Point(x, y)) if *x < 7.5 && *y < 5.5);
    let hits = p.query_rect("byLoc", -0.5, -0.5, 7.5, 5.5).unwrap();
    prop_assert_eq!(
        sorted_bits(&hits),
        sorted_bits(model.values().filter(in_rect))
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// What the bytes path stores reads back bit-exactly at every stage of a
    /// record's life, and the value-taking adapters are the same path.
    #[test]
    fn bytes_path_reads_back_what_was_written(
        batches in batches(),
        memtable_budget in prop_oneof![Just(3usize), Just(1_000_000)],
        tear in any::<bool>(),
    ) {
        let by_bytes = partition(memtable_budget);
        let by_value = partition(memtable_budget);
        let mut model: BTreeMap<i64, AdmValue> = BTreeMap::new();
        // the model after each WAL block: what a torn tail rolls back through
        let mut history = vec![model.clone()];
        for batch in &batches {
            // deletes split a batch: puts between them group-commit together
            for run in batch.split_inclusive(|op| matches!(op, Op::Delete(_))) {
                let puts: Vec<&AdmValue> = run
                    .iter()
                    .filter_map(|op| match op {
                        Op::Put(v) => Some(v),
                        Op::Delete(_) => None,
                    })
                    .collect();
                let payloads: Vec<Bytes> = puts.iter().map(|v| encode_value(v).into()).collect();
                let shared: Vec<Arc<AdmValue>> =
                    puts.iter().map(|v| Arc::new((*v).clone())).collect();
                let a = by_bytes.upsert_batch_bytes(&payloads, None).unwrap();
                let b = by_value.upsert_batch(&shared).unwrap();
                let rejected: Vec<usize> =
                    (0..puts.len()).filter(|&i| key_of(puts[i]).is_none()).collect();
                let soft = |o: &asterix_storage::BatchOutcome| -> Vec<usize> {
                    o.soft.iter().map(|(i, _)| *i).collect()
                };
                prop_assert_eq!(soft(&a), rejected.clone());
                prop_assert_eq!(soft(&b), rejected);
                prop_assert_eq!(a.committed, b.committed);
                for v in puts {
                    if let Some(k) = key_of(v) {
                        model.insert(k, v.clone());
                    }
                }
                if a.committed > 0 {
                    history.push(model.clone());
                }
                if let Some(Op::Delete(k)) = run.last() {
                    let key = AdmValue::Int(i64::from(*k));
                    by_bytes.delete(&key).unwrap();
                    by_value.delete(&key).unwrap();
                    if model.remove(&i64::from(*k)).is_some() {
                        history.push(model.clone());
                    }
                }
            }
        }
        prop_assert_eq!(by_bytes.wal_size_bytes(), by_value.wal_size_bytes());
        prop_assert_eq!(by_bytes.wal_len(), by_value.wal_len());

        // memtable and sealed components (budget 3), or the memtable alone
        check_reads(&by_bytes, &model)?;
        check_reads(&by_value, &model)?;
        prop_assert_eq!(by_bytes.resident_bytes(), by_value.resident_bytes());

        // one merged component: cells copied where the layouts agreed,
        // rows rebuilt and re-encoded where they did not
        by_bytes.force_merge();
        check_reads(&by_bytes, &model)?;

        // recovery replays the payload bytes the log copied; a torn tail
        // takes exactly the last block with it
        if tear {
            by_bytes.corrupt_wal_tail(1);
            history.pop();
        }
        let survived = history.last().cloned().unwrap_or_default();
        by_bytes.recover().unwrap();
        check_reads(&by_bytes, &survived)?;
        by_bytes.force_merge();
        check_reads(&by_bytes, &survived)?;
    }

    /// Every way a payload can be wrong is a soft failure at its own index;
    /// the log holds exactly the accepted records; what was accepted
    /// survives seal → merge → materialize.
    #[test]
    fn hostile_payloads_fail_softly_and_never_reach_the_log(
        good in prop::collection::vec(keyed_record(), 1..4),
        noise in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..4),
        count in prop_oneof![Just(u32::MAX), 1u32..1 << 20],
    ) {
        let p = partition(4);
        let valid: Vec<Vec<u8>> = good.iter().map(encode_value).collect();
        let mut batch: Vec<Bytes> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut push = |bytes: Vec<u8>, ok: bool| {
            batch.push(bytes.into());
            accept.push(ok);
        };
        for payload in &valid {
            push(payload.clone(), true);
            // every truncation
            for cut in 0..payload.len() {
                push(payload[..cut].to_vec(), false);
            }
            // trailing bytes
            push([&payload[..], &[0]].concat(), false);
            // a record count the input cannot hold
            let mut counted = payload.clone();
            counted[1..5].copy_from_slice(&count.max(payload.len() as u32).to_le_bytes());
            push(counted, false);
        }
        // invalid UTF-8 in a name, and in a string
        for marker in ["nXme", "brXken"] {
            let marked = AdmValue::record(vec![("id", AdmValue::Int(1)), ("nXme", "brXken".into())]);
            let mut bytes = encode_value(&marked);
            let at = bytes.windows(marker.len()).position(|w| w == marker.as_bytes()).unwrap();
            bytes[at + marker.find('X').unwrap()] = 0xFF;
            push(bytes, false);
        }
        // arbitrary bytes: accepted only if they happen to be a keyed record
        for bytes in noise {
            let keyed = validate(&bytes).is_ok()
                && decode_value(&bytes).is_ok_and(|v| key_of(&v).is_some());
            push(bytes, keyed);
        }

        let outcome = p.upsert_batch_bytes(&batch, None).unwrap();
        let rejected: Vec<usize> = (0..batch.len()).filter(|&i| !accept[i]).collect();
        let mut soft: Vec<usize> = outcome.soft.iter().map(|(i, _)| *i).collect();
        soft.sort_unstable();
        prop_assert_eq!(soft, rejected);
        prop_assert!(outcome.soft.iter().all(|(_, e)| e.is_soft()));
        let accepted = accept.iter().filter(|ok| **ok).count();
        prop_assert_eq!(outcome.committed, accepted);
        prop_assert_eq!(p.wal_len(), accepted, "a rejected payload reached the log");

        // whatever was accepted survives the rest of its life
        let before = bits(p.scan_all().iter().map(|(_, v)| v));
        p.force_merge();
        prop_assert_eq!(bits(p.scan_all().iter().map(|(_, v)| v)), before.clone());
        p.recover().unwrap();
        prop_assert_eq!(bits(p.scan_all().iter().map(|(_, v)| v)), before);
    }
}
