//! Scale smoke: 10 000 concurrent source operators on a fixed worker pool.
//!
//! The old runtime gave every operator instance its own OS thread, which
//! capped a node at a few hundred concurrent feeds. The work-stealing
//! scheduler multiplexes cooperative tasks over a handful of workers, so
//! operator count and thread count are decoupled — this test proves it by
//! running a 10k-source job while watching the process's thread count.

use asterix_common::{DataFrame, IngestResult, Record, RecordId};
use asterix_common::{SimClock, SimDuration};
use asterix_hyracks::cluster::{Cluster, ClusterConfig};
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{Collector, FrameWriter, OperatorRuntime, VecSource};

const SOURCES: usize = 10_000;
const SINKS: usize = 8;
const WORKERS: usize = 4;

/// Current OS-thread count of this process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

struct TinySourceDesc;

impl OperatorDescriptor for TinySourceDesc {
    fn name(&self) -> String {
        "smoke-source".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(SOURCES)
    }
    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        // each of the 10k "feeds" emits one single-record frame whose id is
        // the partition number, so delivery is checkable end to end
        let frame = DataFrame::from_records(vec![Record::tracked(
            RecordId(ctx.partition as u64),
            0,
            "smoke",
        )]);
        Ok(OperatorRuntime::Source(Box::new(VecSource::new(
            vec![frame],
            output,
        ))))
    }
}

struct SinkDesc {
    collector: Collector,
}

impl OperatorDescriptor for SinkDesc {
    fn name(&self) -> String {
        "smoke-sink".into()
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

#[test]
fn ten_thousand_sources_run_on_a_fixed_pool() {
    // generous failure threshold: 10k tasks on a small host can starve the
    // heartbeat threads past the default ~25 real-ms detection window
    let cluster = Cluster::start_with_workers(
        2,
        SimClock::fast(),
        ClusterConfig {
            heartbeat_interval: SimDuration::from_secs(5),
            failure_threshold: SimDuration::from_secs(1_000_000),
        },
        WORKERS,
    );
    let baseline = os_threads();
    let collector = Collector::new();

    let mut job = JobSpec::new("scale-smoke");
    let src = job.add_operator(Box::new(TinySourceDesc));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: collector.clone(),
    }));
    job.connect(src, sink, ConnectorSpec::MNRandomPartition);

    let handle = run_job(&cluster, job).unwrap();
    // sample while the job is in flight: with 10_008 live operator
    // instances a thread-per-operator runtime would show ~10k threads here
    let in_flight = os_threads();
    handle.wait_ok().unwrap();

    assert_eq!(collector.len(), SOURCES, "every feed's record arrived");
    let ids: std::collections::BTreeSet<u64> =
        collector.records().iter().map(|r| r.id.raw()).collect();
    assert_eq!(ids.len(), SOURCES, "no duplicates, no losses");

    let snap = cluster.registry().snapshot();
    assert!(
        snap.counter("scheduler.tasks_spawned") >= (SOURCES + SINKS) as u64,
        "each operator instance became a scheduler task"
    );

    if let (Some(base), Some(peak)) = (baseline, in_flight) {
        assert!(
            peak < base + 64,
            "thread count must stay bounded: baseline {base}, in-flight {peak}"
        );
    }
    cluster.shutdown();
}
