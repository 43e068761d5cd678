//! exp_scaling — frame throughput versus scheduler worker-pool size.
//!
//! The §3/§5 runtime claim behind the work-stealing refactor: operator
//! instances are cooperative tasks, so adding workers to the pool scales
//! pipeline throughput without changing the job. This harness runs the
//! same compute-heavy pipeline (16 sources → 8 hashing maps → 4 sinks)
//! on pools of 1, 2, 4 and 8 workers and reports records/second.
//!
//! Run with `cargo bench -p asterix-bench --bench exp_scaling`; results
//! land in `results/exp_scaling.{txt,json}`.

use asterix_common::{DataFrame, IngestResult, Record, RecordId, SimClock, SimDuration};
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{Collector, FnUnary, FrameWriter, OperatorRuntime, VecSource};
use std::path::PathBuf;
use std::time::Instant;

const SOURCES: usize = 16;
const FRAMES_PER_SOURCE: usize = 64;
const RECORDS_PER_FRAME: usize = 64;
const MAPS: usize = 8;
const SINKS: usize = 4;
const TOTAL: usize = SOURCES * FRAMES_PER_SOURCE * RECORDS_PER_FRAME;
/// FNV passes over each record's payload in the map stage — stands in for
/// the parse/transform cost of a real intake pipeline.
const HASH_PASSES: usize = 600;

struct SourceDesc;

impl OperatorDescriptor for SourceDesc {
    fn name(&self) -> String {
        "scaling-source".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(SOURCES)
    }
    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        let base = (ctx.partition * FRAMES_PER_SOURCE * RECORDS_PER_FRAME) as u64;
        let frames: Vec<DataFrame> = (0..FRAMES_PER_SOURCE)
            .map(|f| {
                DataFrame::from_records(
                    (0..RECORDS_PER_FRAME)
                        .map(|i| {
                            let id = base + (f * RECORDS_PER_FRAME + i) as u64;
                            Record::tracked(RecordId(id), 0, format!("scaling-payload-{id:020}"))
                        })
                        .collect(),
                )
            })
            .collect();
        Ok(OperatorRuntime::Source(Box::new(VecSource::new(
            frames, output,
        ))))
    }
}

fn fnv_spin(frame: &DataFrame) {
    for rec in frame.records() {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..HASH_PASSES {
            for &b in rec.payload.iter() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        std::hint::black_box(h);
    }
}

struct MapDesc;

impl OperatorDescriptor for MapDesc {
    fn name(&self) -> String {
        "scaling-map".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(MAPS)
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Unary(
            Box::new(FnUnary::new(|f: DataFrame| {
                fnv_spin(&f);
                Ok(f)
            })),
            output,
        ))
    }
}

struct SinkDesc {
    collector: Collector,
}

impl OperatorDescriptor for SinkDesc {
    fn name(&self) -> String {
        "scaling-sink".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(SINKS)
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Unary(
            Box::new(self.collector.operator()),
            output,
        ))
    }
}

struct Row {
    workers: usize,
    secs: f64,
    throughput: f64,
}

fn run_once(workers: usize) -> Row {
    // failure detection off: at fast() clock scale the default threshold is
    // ~25 real ms, and a CPU-saturating bench on a small host starves the
    // heartbeat threads long enough to declare healthy nodes dead
    let cluster = Cluster::start_with_workers(
        2,
        SimClock::fast(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
        workers,
    );
    let collector = Collector::new();
    let mut job = JobSpec::new(format!("scaling-{workers}w"));
    let src = job.add_operator(Box::new(SourceDesc));
    let map = job.add_operator(Box::new(MapDesc));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: collector.clone(),
    }));
    job.connect(src, map, ConnectorSpec::MNRandomPartition);
    job.connect(map, sink, ConnectorSpec::MNRandomPartition);

    let t0 = Instant::now();
    let handle = run_job(&cluster, job).expect("plan job");
    handle.wait_ok().expect("job runs clean");
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(collector.len(), TOTAL, "lost records at {workers} workers");
    cluster.shutdown();
    Row {
        workers,
        secs,
        throughput: TOTAL as f64 / secs,
    }
}

fn results_dir() -> PathBuf {
    // cargo bench runs with CWD = crates/bench; results/ lives at the
    // workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn main() {
    // warm-up run so allocator/page-cache effects don't penalise the first
    // configuration measured
    let _ = run_once(2);

    let rows: Vec<Row> = [1, 2, 4, 8].into_iter().map(run_once).collect();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut txt = String::new();
    txt.push_str("exp_scaling: frame throughput vs scheduler worker count\n");
    txt.push_str(&format!(
        "(host: {cores} CPU core(s) — parallel speedup is capped by the host)\n"
    ));
    txt.push_str(&format!(
        "(pipeline: {SOURCES} sources x {FRAMES_PER_SOURCE} frames x \
         {RECORDS_PER_FRAME} records -> {MAPS} hashing maps -> {SINKS} sinks; \
         {TOTAL} records per run)\n\n"
    ));
    txt.push_str("CSV: workers,total_secs,records_per_sec\n");
    for r in &rows {
        txt.push_str(&format!(
            "{},{:.3},{:.0}\n",
            r.workers, r.secs, r.throughput
        ));
    }
    let speedup = rows.last().unwrap().throughput / rows.first().unwrap().throughput;
    txt.push_str(&format!("\nspeedup 8 workers vs 1: {speedup:.2}x\n"));
    print!("{txt}");

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    std::fs::write(dir.join("exp_scaling.txt"), &txt).expect("write txt");
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workers\": {}, \"total_secs\": {:.4}, \"records_per_sec\": {:.0}}}",
                r.workers, r.secs, r.throughput
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"exp_scaling\",\n  \"paper_artifact\": \
         \"runtime scaling — throughput vs worker count\",\n  \"host_cores\": {cores},\n  \
         \"data\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write(dir.join("exp_scaling.json"), json).expect("write json");

    if cores > 1 {
        assert!(
            rows.last().unwrap().throughput > rows.first().unwrap().throughput,
            "throughput must increase with workers (got {speedup:.2}x)"
        );
    } else {
        // single-core host: parallel speedup is impossible; only require
        // that the bigger pool doesn't collapse under scheduling overhead
        assert!(
            speedup > 0.85,
            "worker pool overhead too high on 1 core (got {speedup:.2}x)"
        );
    }
}
