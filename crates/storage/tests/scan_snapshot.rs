//! Lock discipline of the scan path: a partition scan reads a snapshot
//! taken under one short acquisition of the partition lock and runs its
//! visitor with the lock released. A visitor parked mid-scan therefore
//! cannot stall a writer, still sees the partition as of the instant its
//! scan began, and every scan sees a group-committed batch all or nothing.

use asterix_adm::{encode_value, AdmValue};
use asterix_common::IngestError;
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use bytes::Bytes;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn key(k: usize) -> AdmValue {
    AdmValue::string(format!("k{k:03}"))
}

fn record(k: usize, generation: i64) -> Bytes {
    encode_value(&AdmValue::record(vec![
        ("id", key(k)),
        ("gen", AdmValue::Int(generation)),
    ]))
    .into()
}

/// A partition whose records spread over sealed components, background
/// merges and the memtable.
fn partition() -> Arc<DatasetPartition> {
    let mut config = PartitionConfig::keyed_on("id");
    config.lsm.memtable_budget = 16;
    config.lsm.max_components = 3;
    Arc::new(DatasetPartition::new(config))
}

fn generation(row: &AdmValue) -> i64 {
    row.field("gen").and_then(AdmValue::as_int).expect("gen")
}

#[test]
fn a_parked_scan_neither_blocks_a_writer_nor_sees_its_records() {
    let p = partition();
    let old: Vec<Bytes> = (0..100).map(|i| record(2 * i, 0)).collect();
    for frame in old.chunks(10) {
        p.upsert_batch_bytes(frame, None).expect("upsert");
    }
    let (parked_tx, parked) = mpsc::channel();
    let (resume, resume_rx) = mpsc::channel::<()>();
    let scanner = {
        let p = Arc::clone(&p);
        thread::spawn(move || {
            let mut seen = Vec::new();
            p.try_for_each_row(None, None, |key, row| {
                if seen.is_empty() {
                    parked_tx.send(()).expect("test alive");
                    resume_rx.recv().expect("test alive");
                }
                seen.push((key.clone(), generation(row)));
                Ok::<_, IngestError>(())
            })
            .expect("scan");
            seen
        })
    };
    parked
        .recv_timeout(Duration::from_secs(5))
        .expect("the scan reaches its first row");

    // overwrite every old key and add as many new ones between them
    let new: Vec<Bytes> = (0..200).map(|k| record(k, 1)).collect();
    let (done_tx, done) = mpsc::channel();
    let writer = {
        let p = Arc::clone(&p);
        thread::spawn(move || {
            for frame in new.chunks(50) {
                p.upsert_batch_bytes(frame, None).expect("upsert");
            }
            done_tx.send(()).expect("test alive");
        })
    };
    let finished = done.recv_timeout(Duration::from_secs(5));
    resume.send(()).expect("scanner alive");
    assert!(
        finished.is_ok(),
        "an upsert beside a parked scan did not finish in 5 s: the scan holds the partition lock"
    );
    writer.join().expect("writer");

    let seen = scanner.join().expect("scanner");
    let want: Vec<(AdmValue, i64)> = (0..100).map(|i| (key(2 * i), 0)).collect();
    assert_eq!(
        seen, want,
        "the parked scan saw records written after it began"
    );
    let after: Vec<(AdmValue, i64)> = p
        .scan_all()
        .iter()
        .map(|(k, row)| (k.clone(), generation(row)))
        .collect();
    let want: Vec<(AdmValue, i64)> = (0..200).map(|k| (key(k), 1)).collect();
    assert_eq!(after, want, "the next scan misses records");
}

#[test]
fn a_scan_beside_batched_upserts_sees_each_batch_whole() {
    const KEYS: usize = 64;
    const BATCHES: i64 = 300;
    let p = partition();
    p.upsert_batch_bytes(&(0..KEYS).map(|k| record(k, 0)).collect::<Vec<_>>(), None)
        .expect("upsert");
    let writer = {
        let p = Arc::clone(&p);
        // batch g rewrites every key with generation g
        thread::spawn(move || {
            for g in 1..=BATCHES {
                let batch: Vec<Bytes> = (0..KEYS).map(|k| record(k, g)).collect();
                p.upsert_batch_bytes(&batch, None).expect("upsert");
            }
        })
    };
    let mut scans = 0;
    let mut last = 0;
    while !writer.is_finished() || scans == 0 {
        let mut generations = Vec::with_capacity(KEYS);
        p.try_for_each_row(Some(&["gen".to_string()]), None, |_, row| {
            generations.push(generation(row));
            Ok::<_, IngestError>(())
        })
        .expect("scan");
        assert_eq!(generations.len(), KEYS);
        let g = generations[0];
        assert!(
            generations.iter().all(|&x| x == g),
            "a scan saw a batch in part: generations {generations:?}"
        );
        assert!(
            g >= last,
            "a later scan saw an older state ({g} after {last})"
        );
        last = g;
        scans += 1;
    }
    writer.join().expect("writer");
    println!("{scans} scans beside {BATCHES} batches");
}
