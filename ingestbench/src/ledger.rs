//! The per-layer ledger: the benchmark times calls into each layer's public
//! functions from outside, single-threaded, over the same generated tweets.
//! Every probe runs for at least 200 ms.
//!
//! A change that removes a public function called here must be preceded by
//! a benchmark change that re-points that one probe (see the README).

use asterixdb_ingestion::adm::binary::{decode_prefix, encode_into};
use asterixdb_ingestion::adm::{parse_value, payload_from_value, AdmValue};
use asterixdb_ingestion::aql::parse_statements;
use asterixdb_ingestion::common::{DataFrame, FrameBuilder, NodeId, Record};
use asterixdb_ingestion::feeds::flow::SpillFile;
use asterixdb_ingestion::feeds::plan::{IngestPlan, IngestPlanBuilder, RoutePredicate, SinkSpec};
use asterixdb_ingestion::feeds::udf::Udf;
use asterixdb_ingestion::hyracks::transport::{encode_msg, FrameDecoder, WireMsg};
use asterixdb_ingestion::storage::lsm::merge_components;
use asterixdb_ingestion::storage::{
    Dataset, DatasetConfig, DatasetPartition, LsmConfig, LsmTree, WriteAheadLog,
};
use asterixdb_ingestion::tweetgen::TweetFactory;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::workload::Workload;

/// Shortest time a probe measures.
const MIN_PROBE: Duration = Duration::from_millis(200);

/// Records per frame in the frame, wire, spill and WAL probes.
const FRAME_RECORDS: usize = 32;

/// Tweets the per-record probes cycle through.
const SAMPLE: usize = 4096;

/// Resident records of the two upsert probes (their ratio is the growth law
/// of the write path) and new records each of them upserts.
const RESIDENT_SMALL: usize = 10_000;
const RESIDENT_LARGE: usize = 200_000;
const UPSERT_BATCH: usize = 4096;

/// One ledger row: metric name, unit, value.
pub type Row = (&'static str, &'static str, f64);

/// Names and units of the rows [`run`] returns, in order.
pub const ROWS: [(&str, &str); 21] = [
    ("tweetgen.gen_ns_per_rec", "ns"),
    ("adm.parse_ns_per_rec", "ns"),
    ("adm.bin_encode_ns_per_rec", "ns"),
    ("adm.bin_decode_ns_per_rec", "ns"),
    ("adm.bin_bytes_per_rec", "B"),
    ("common.frame_build_ns_per_rec", "ns"),
    ("hyracks.wire_encode_ns_per_rec", "ns"),
    ("hyracks.wire_decode_ns_per_rec", "ns"),
    ("core.udf_ns_per_rec", "ns"),
    ("core.route_ns_per_rec", "ns"),
    ("core.spill_ns_per_rec", "ns"),
    ("core.despill_ns_per_rec", "ns"),
    ("core.spill_bytes_per_rec", "B"),
    ("storage.wal_append_ns_per_rec", "ns"),
    ("storage.wal_bytes_per_rec", "B"),
    ("storage.upsert_ns_per_rec_10k", "ns"),
    ("storage.upsert_ns_per_rec_200k", "ns"),
    ("storage.seal_ns_per_rec", "ns"),
    ("storage.merge_ns_per_rec", "ns"),
    ("storage.scan_ns_per_rec", "ns"),
    ("aql.query_parse_us", "us"),
];

/// Call `work` until it has counted [`MIN_PROBE`]; nanoseconds per record,
/// where one call handles `recs` records. `work` returns the time it wants
/// counted, so a probe can leave its own preparation out.
fn probe(recs: usize, mut work: impl FnMut() -> Duration) -> f64 {
    let (mut counted, mut calls) = (Duration::ZERO, 0u64);
    while counted < MIN_PROBE {
        counted += work();
        calls += 1;
    }
    counted.as_nanos() as f64 / (calls as f64 * recs as f64)
}

/// Time one closure call.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

/// The `sat_compute_tcp` route, built through the typed plan API.
fn compute_plan() -> IngestPlan {
    IngestPlanBuilder::new("F")
        .adaptor("socket_adaptor")
        .param("sockets", "ledger:0")
        .sink(SinkSpec::to("D1").route(RoutePredicate::eq("country", "US")))
        .sink(SinkSpec::to("D2").route(RoutePredicate::gt("user.followers_count", 50_000i64)))
        .sink(SinkSpec::to("D3").otherwise())
        .build()
        .expect("the ledger's route plan is valid")
}

fn tweets(factory: &mut TweetFactory, count: usize) -> Vec<Arc<AdmValue>> {
    (0..count)
        .map(|_| Arc::new(parse_value(&factory.next_json()).expect("generated tweet parses")))
        .collect()
}

fn upsert_all(partition: &DatasetPartition, records: &[Arc<AdmValue>]) {
    for batch in records.chunks(FRAME_RECORDS) {
        partition
            .upsert_batch(batch)
            .expect("upsert of generated tweets");
    }
}

fn one_partition_dataset() -> Dataset {
    Dataset::create(DatasetConfig {
        name: "L".into(),
        datatype: "Tweet".into(),
        primary_key: "id".into(),
        nodegroup: vec![NodeId(0)],
    })
    .expect("one-partition dataset")
}

/// Fill `ds` with `resident` more records and let the merges that queued
/// finish.
fn fill(ds: &Dataset, factory: &mut TweetFactory, resident: usize) {
    let partition = ds.partition(0);
    upsert_all(&partition, &tweets(factory, resident));
    while partition.is_merging() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Upsert cost of new keys, [`UPSERT_BATCH`] at a time, into `ds`.
fn upsert_ns_per_rec(ds: &Dataset, factory: &mut TweetFactory) -> Duration {
    let fresh = tweets(factory, UPSERT_BATCH);
    let partition = ds.partition(0);
    timed(|| upsert_all(&partition, &fresh))
}

/// Run every probe. `seed` feeds the tweet generator.
pub fn run(seed: u64) -> Vec<Row> {
    let mut factory = TweetFactory::new(0, seed);
    let lines: Vec<String> = (0..SAMPLE).map(|_| factory.next_json()).collect();
    let values: Vec<AdmValue> = lines
        .iter()
        .map(|l| parse_value(l).expect("parses"))
        .collect();
    let mut out = Vec::with_capacity(ROWS.len());

    let gen = probe(1_000, || {
        timed(|| {
            for _ in 0..1_000 {
                black_box(factory.next_json());
            }
        })
    });
    out.push(gen);

    out.push(probe(SAMPLE, || {
        timed(|| lines.iter().for_each(|l| drop(black_box(parse_value(l)))))
    }));

    let mut buf = Vec::new();
    out.push(probe(SAMPLE, || {
        timed(|| {
            for v in &values {
                buf.clear();
                encode_into(v, &mut buf);
                black_box(&buf);
            }
        })
    }));
    let encoded: Vec<Vec<u8>> = values
        .iter()
        .map(|v| {
            let mut b = Vec::new();
            encode_into(v, &mut b);
            b
        })
        .collect();
    out.push(probe(SAMPLE, || {
        timed(|| {
            encoded
                .iter()
                .for_each(|b| drop(black_box(decode_prefix(b))))
        })
    }));
    out.push(encoded.iter().map(Vec::len).sum::<usize>() as f64 / SAMPLE as f64);

    let records: Vec<Record> = values
        .iter()
        .map(|v| Record::untracked(0, payload_from_value(v.clone())))
        .collect();
    out.push(probe(SAMPLE, || {
        let input = records.clone();
        timed(|| {
            let mut builder = FrameBuilder::new(FRAME_RECORDS);
            for r in input {
                black_box(builder.push(r));
            }
            black_box(builder.flush());
        })
    }));

    let frames: Vec<DataFrame> = records
        .chunks(FRAME_RECORDS)
        .map(|c| DataFrame::from_records(c.to_vec()))
        .collect();
    let mut wire = Vec::new();
    out.push(probe(SAMPLE, || {
        let msgs: Vec<WireMsg> = frames.iter().cloned().map(WireMsg::Frame).collect();
        wire.clear();
        timed(|| msgs.iter().for_each(|m| encode_msg(m, &mut wire)))
    }));
    out.push(probe(SAMPLE, || {
        timed(|| {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&wire);
            while let Ok(Some(msg)) = decoder.next_msg() {
                black_box(msg);
            }
        })
    }));

    let udf = Udf::sentiment_analysis();
    out.push(probe(SAMPLE, || {
        timed(|| values.iter().for_each(|v| drop(black_box(udf.apply(v)))))
    }));
    let plan = compute_plan();
    out.push(probe(SAMPLE, || {
        timed(|| {
            values
                .iter()
                .for_each(|v| drop(black_box(plan.route_record(v, None))))
        })
    }));

    let mut spill_bytes = 0usize;
    let mut despill = Duration::ZERO;
    let mut spill_calls = 0u32;
    out.push(probe(SAMPLE, || {
        let mut file = SpillFile::default();
        let push = timed(|| frames.iter().for_each(|f| file.push(f)));
        spill_bytes = file.bytes();
        despill += timed(|| while black_box(file.pop()).is_some() {});
        spill_calls += 1;
        push
    }));
    out.push(despill.as_nanos() as f64 / (f64::from(spill_calls) * SAMPLE as f64));
    out.push(spill_bytes as f64 / SAMPLE as f64);

    let keyed: Vec<(AdmValue, &AdmValue)> = values
        .iter()
        .map(|v| (v.field("id").cloned().expect("tweet has an id"), v))
        .collect();
    let mut wal_bytes = 0usize;
    out.push(probe(SAMPLE, || {
        let wal = WriteAheadLog::new();
        let took = timed(|| {
            for batch in keyed.chunks(FRAME_RECORDS) {
                black_box(wal.append_put_batch(batch.iter().map(|(k, v)| (k, *v))));
            }
        });
        wal_bytes = wal.size_bytes();
        took
    }));
    out.push(wal_bytes as f64 / SAMPLE as f64);

    // small: a fresh dataset per batch, so every batch meets 10 k resident
    // records; large: one dataset, which the batches grow by a fifth
    out.push(probe(UPSERT_BATCH, || {
        let small = one_partition_dataset();
        fill(&small, &mut factory, RESIDENT_SMALL);
        upsert_ns_per_rec(&small, &mut factory)
    }));
    let large = one_partition_dataset();
    fill(&large, &mut factory, RESIDENT_LARGE);
    let mut large_batches = 0;
    out.push(probe(UPSERT_BATCH, || {
        large_batches += 1;
        upsert_ns_per_rec(&large, &mut factory)
    }));

    // a budget above the sample keeps `put` from sealing on its own
    let manual_seal = LsmConfig {
        memtable_budget: usize::MAX,
        defer_merge: true,
        ..LsmConfig::default()
    };
    out.push(probe(SAMPLE, || {
        let mut tree = LsmTree::new(manual_seal.clone());
        for (k, v) in &keyed {
            tree.put(k.clone(), (*v).clone());
        }
        timed(|| tree.seal())
    }));

    let mut tree = LsmTree::new(manual_seal);
    for _ in 0..5 {
        for v in tweets(&mut factory, SAMPLE) {
            tree.put_shared(v.field("id").cloned().expect("id"), v);
        }
        tree.seal();
    }
    let components = tree.components_snapshot();
    out.push(probe(5 * SAMPLE, || {
        timed(|| merge_components(&components, 0))
    }));

    let fields = ["id".to_string(), "country".to_string()];
    let scanned = RESIDENT_LARGE + large_batches * UPSERT_BATCH;
    out.push(probe(scanned, || {
        timed(|| assert_eq!(large.scan_projected(&fields).len(), scanned))
    }));

    let query = Workload::PacedScan.reader_query();
    out.push(
        probe(1, || {
            timed(|| parse_statements(&query).expect("reader query parses"))
        }) / 1e3,
    );

    // the probes above run in the order `ROWS` names them
    assert_eq!(out.len(), ROWS.len());
    ROWS.iter()
        .zip(out)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_plan_matches_the_reference_route() {
        let plan = compute_plan();
        let mut factory = TweetFactory::new(0, 5);
        for _ in 0..500 {
            let line = factory.next_json();
            let arm = crate::workload::reference_arm(&line).unwrap();
            let routed = plan.route_record(&parse_value(&line).unwrap(), None);
            assert_eq!(routed, vec![usize::from(arm)]);
        }
    }
}
