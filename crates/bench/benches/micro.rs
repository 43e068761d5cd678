//! Criterion microbenchmarks over the substrate hot paths: ADM
//! parse/print, value hashing, LSM and R-tree operations, feed-joint
//! routing, the WAL, and the UDF sandbox.

use asterix_adm::{
    decode_fields, decode_value, encode_value, hash::hash_value, parse_value, to_adm_string,
    transcode, AdmValue,
};
use asterix_common::{DataFrame, Record, RecordId};
use asterix_feeds::joint::FeedJoint;
use asterix_feeds::udf::Udf;
use asterix_storage::lsm::{LsmConfig, LsmTree};
use asterix_storage::partition::{DatasetPartition, PartitionConfig};
use asterix_storage::rtree::{RTree, Rect};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn sample_tweet_json() -> String {
    let mut f = tweetgen::TweetFactory::new(0, 42);
    f.next_json()
}

fn bench_adm(c: &mut Criterion) {
    let json = sample_tweet_json();
    let value = parse_value(&json).unwrap();
    let text = to_adm_string(&value);
    c.bench_function("adm/parse_tweet", |b| {
        b.iter(|| parse_value(black_box(&text)).unwrap())
    });
    c.bench_function("adm/print_tweet", |b| {
        b.iter(|| to_adm_string(black_box(&value)))
    });
    c.bench_function("adm/hash_tweet", |b| {
        b.iter(|| hash_value(black_box(&value)))
    });
}

fn bench_lsm(c: &mut Criterion) {
    c.bench_function("lsm/put_1k", |b| {
        b.iter(|| {
            let mut t = LsmTree::new(LsmConfig::default());
            for i in 0..1000 {
                t.put(AdmValue::Int(i), AdmValue::Int(i));
            }
            black_box(t.live_count())
        })
    });
    let mut t = LsmTree::new(LsmConfig::default());
    for i in 0..10_000 {
        t.put(AdmValue::Int(i), AdmValue::Int(i));
    }
    c.bench_function("lsm/get_hit", |b| {
        b.iter(|| black_box(t.get(&AdmValue::Int(5000))))
    });
}

fn bench_partition(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    c.bench_function("partition/upsert_tweet", |b| {
        let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
        b.iter(|| p.upsert(black_box(&tweet)).unwrap())
    });
}

fn bench_rtree(c: &mut Criterion) {
    let mut tree = RTree::new();
    for i in 0..10_000usize {
        tree.insert((i % 100) as f64, (i / 100) as f64, i);
    }
    c.bench_function("rtree/query_100_of_10k", |b| {
        b.iter(|| black_box(tree.query(&Rect::new(20.0, 20.0, 29.0, 29.0)).len()))
    });
    c.bench_function("rtree/insert", |b| {
        b.iter(|| {
            let mut t: RTree<usize> = RTree::new();
            for i in 0..500usize {
                t.insert((i % 25) as f64, (i / 25) as f64, i);
            }
            black_box(t.len())
        })
    });
}

fn frame(n: usize) -> DataFrame {
    DataFrame::from_records(
        (0..n)
            .map(|i| Record::tracked(RecordId(i as u64), 0, "payload-bytes-here"))
            .collect(),
    )
}

// subscriber queues are bounded and a full one blocks the depositor, so each
// iteration also receives what it deposited
fn bench_joint(c: &mut Criterion) {
    c.bench_function("joint/deposit_short_circuit", |b| {
        let joint = FeedJoint::new("bench");
        let sub = joint.subscribe("only");
        let f = frame(64);
        b.iter(|| {
            joint.deposit(black_box(f.clone())).unwrap();
            black_box(sub.try_recv())
        })
    });
    c.bench_function("joint/deposit_shared_3_subscribers", |b| {
        let joint = FeedJoint::new("bench3");
        let subs = [
            joint.subscribe("a"),
            joint.subscribe("b"),
            joint.subscribe("c"),
        ];
        let f = frame(64);
        b.iter(|| {
            joint.deposit(black_box(f.clone())).unwrap();
            for sub in &subs {
                black_box(sub.try_recv());
            }
        })
    });
}

fn bench_udf(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    let add_tags = Udf::add_hash_tags();
    c.bench_function("udf/add_hash_tags", |b| {
        b.iter(|| add_tags.apply(black_box(&tweet)).unwrap())
    });
    let spin = Udf::busy_spin("bench", 10_000);
    c.bench_function("udf/busy_spin_10k", |b| {
        b.iter(|| spin.apply(black_box(&tweet)).unwrap())
    });
}

/// What a record's bytes cost the stages that read or write them, over one
/// tweet: the adaptor's translate (text straight to the payload bytes), the
/// full decode a UDF stage pays (assign), the one-field projection the
/// partitioner's key function pays, and the encode a stage that built a
/// value pays on the way out (a UDF's output, an AQL insert row).
/// `adm/parse_tweet` above is `parse_value`, the tree-building decode of a
/// transcode, which no feed stage calls.
fn bench_parse_once(c: &mut Criterion) {
    let text = sample_tweet_json();
    let value = parse_value(&text).unwrap();
    let bytes = encode_value(&value);
    c.bench_function("pipeline/stage_transcode", |b| {
        // translate: one reused scratch buffer, one exactly-sized payload
        let mut scratch = Vec::new();
        b.iter(|| {
            scratch.clear();
            transcode(black_box(&text), &mut scratch).unwrap();
            Record::untracked(0, &scratch[..])
        })
    });
    c.bench_function("pipeline/stage_decode_full", |b| {
        b.iter(|| decode_value(black_box(&bytes)).unwrap())
    });
    c.bench_function("pipeline/stage_project_key", |b| {
        b.iter(|| decode_fields(black_box(&bytes), &["id"]).unwrap())
    });
    c.bench_function("pipeline/stage_encode", |b| {
        // `payload_from_value` minus the drop of the value it consumes
        b.iter(|| {
            let mut out = Vec::with_capacity(512);
            asterix_adm::binary::encode_into(black_box(&value), &mut out);
            Record::untracked(0, out)
        })
    });
}

/// The storage write path at frame granularity: 64 tweets (one default
/// frame) pushed through the per-record seed path (`upsert` — one lock, one
/// WAL append, one deep clone per record) versus the group-commit batch
/// path (`upsert_batch` — one lock, one multi-entry WAL block, `Arc`-shared
/// records). The acceptance bar for this refactor is ≥ 2x.
fn bench_store_batch(c: &mut Criterion) {
    use std::sync::Arc;
    const FRAME: usize = 64;
    const FRAMES: usize = 32;
    let mut factory = tweetgen::TweetFactory::new(0, 42);
    let tweets: Vec<AdmValue> = (0..FRAME * FRAMES)
        .map(|_| parse_value(&factory.next_json()).unwrap())
        .collect();
    let shared: Vec<Arc<AdmValue>> = tweets.iter().cloned().map(Arc::new).collect();
    // a fresh partition per iteration keeps the tree the same bounded size
    // on both sides, so the measurement is the write path itself rather
    // than lookups in an ever-growing accumulated tree
    c.bench_function("store_batch/per_record_64", |b| {
        b.iter(|| {
            let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
            for t in &tweets {
                p.upsert(black_box(t)).unwrap();
            }
            black_box(p.wal_len())
        })
    });
    c.bench_function("store_batch/batched_64", |b| {
        b.iter(|| {
            let p = DatasetPartition::new(PartitionConfig::keyed_on("id"));
            let mut committed = 0usize;
            for f in shared.chunks(FRAME) {
                committed += p.upsert_batch(black_box(f)).unwrap().committed;
            }
            black_box(committed)
        })
    });
}

/// WAL encoding: the binary codec against the ADM-text format it replaced.
fn bench_wal_codec(c: &mut Criterion) {
    let json = sample_tweet_json();
    let tweet = parse_value(&json).unwrap();
    let key = tweet.field("id").unwrap().clone();
    c.bench_function("wal/encode_put_binary", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(256);
            asterix_adm::binary::encode_into(black_box(&key), &mut buf);
            asterix_adm::binary::encode_into(black_box(&tweet), &mut buf);
            black_box(buf.len())
        })
    });
    c.bench_function("wal/encode_put_text", |b| {
        b.iter(|| {
            let line = format!(
                "PUT {} {}",
                to_adm_string(black_box(&key)),
                to_adm_string(black_box(&tweet))
            );
            black_box(line.len())
        })
    });
}

criterion_group!(
    benches,
    bench_adm,
    bench_lsm,
    bench_partition,
    bench_rtree,
    bench_joint,
    bench_udf,
    bench_parse_once,
    bench_store_batch,
    bench_wal_codec
);
criterion_main!(benches);
