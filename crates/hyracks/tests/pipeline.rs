//! End-to-end tests of the Hyracks engine: scheduling, routing, draining,
//! back-pressure and node-failure behaviour.

use asterix_common::{DataFrame, IngestResult, NodeId, Record, RecordId};
use asterix_hyracks::cluster::Cluster;
use asterix_hyracks::connector::ConnectorSpec;
use asterix_hyracks::executor::{run_job, TaskContext};
use asterix_hyracks::job::{Constraint, JobSpec, OperatorDescriptor};
use asterix_hyracks::operator::{
    Collector, FnUnary, FrameWriter, OperatorRuntime, SourceOperator, SourcePoll, StopToken,
    VecSource,
};
use std::sync::Arc;
use std::time::Duration;

fn frames(n_frames: usize, per_frame: usize) -> Vec<DataFrame> {
    (0..n_frames)
        .map(|f| {
            DataFrame::from_records(
                (0..per_frame)
                    .map(|i| Record::tracked(RecordId((f * per_frame + i) as u64), 0, "payload"))
                    .collect(),
            )
        })
        .collect()
}

struct SourceDesc {
    frames: Vec<DataFrame>,
    count: usize,
}

impl OperatorDescriptor for SourceDesc {
    fn name(&self) -> String {
        "test-source".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(self.count)
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Source(Box::new(VecSource::new(
            self.frames.clone(),
            output,
        ))))
    }
}

struct MapDesc {
    count: usize,
}

impl OperatorDescriptor for MapDesc {
    fn name(&self) -> String {
        "test-map".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(self.count)
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        // pass-through map
        Ok(OperatorRuntime::Unary(Box::new(FnUnary::new(Ok)), output))
    }
}

struct SinkDesc {
    collector: Collector,
    count: usize,
}

impl OperatorDescriptor for SinkDesc {
    fn name(&self) -> String {
        "test-sink".into()
    }
    fn constraints(&self) -> Constraint {
        Constraint::Count(self.count)
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
fn single_stage_pipeline_delivers_all_records() {
    let cluster = Cluster::start_default(3);
    let collector = Collector::new();

    let mut job = JobSpec::new("simple");
    let src = job.add_operator(Box::new(SourceDesc {
        frames: frames(10, 8),
        count: 1,
    }));
    let map = job.add_operator(Box::new(MapDesc { count: 3 }));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: collector.clone(),
        count: 3,
    }));
    job.connect(src, map, ConnectorSpec::MNRandomPartition);
    job.connect(
        map,
        sink,
        ConnectorSpec::MNHashPartition(Arc::new(|r: &Record| r.id.raw())),
    );

    let handle = run_job(&cluster, job).unwrap();
    handle.wait_ok().unwrap();
    assert_eq!(collector.len(), 80);
    // every record exactly once
    let mut ids: Vec<u64> = collector.records().iter().map(|r| r.id.raw()).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..80).collect::<Vec<_>>());
    cluster.shutdown();
}

#[test]
fn multiple_source_partitions_close_correctly() {
    let cluster = Cluster::start_default(4);
    let collector = Collector::new();
    let mut job = JobSpec::new("multi-producer");
    let src = job.add_operator(Box::new(SourceDesc {
        frames: frames(5, 4),
        count: 3, // each source partition emits all frames
    }));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: collector.clone(),
        count: 2,
    }));
    job.connect(src, sink, ConnectorSpec::MNRandomPartition);
    let handle = run_job(&cluster, job).unwrap();
    handle.wait_ok().unwrap();
    // 3 producers x 20 records; sink waits for close from every producer
    assert_eq!(collector.len(), 60);
    assert!(collector.is_closed());
    cluster.shutdown();
}

#[test]
fn one_to_one_requires_matching_cardinality() {
    let cluster = Cluster::start_default(2);
    let mut job = JobSpec::new("mismatch");
    let src = job.add_operator(Box::new(SourceDesc {
        frames: vec![],
        count: 2,
    }));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: Collector::new(),
        count: 3,
    }));
    job.connect(src, sink, ConnectorSpec::OneToOne);
    assert!(run_job(&cluster, job).is_err());
    cluster.shutdown();
}

#[test]
fn location_constraints_are_respected() {
    let cluster = Cluster::start_default(4);
    struct Located(Collector);
    impl OperatorDescriptor for Located {
        fn name(&self) -> String {
            "located-sink".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Locations(vec![NodeId(2), NodeId(3)])
        }
        fn instantiate(
            &self,
            _ctx: &TaskContext,
            output: Box<dyn FrameWriter>,
        ) -> IngestResult<OperatorRuntime> {
            Ok(OperatorRuntime::Unary(Box::new(self.0.operator()), output))
        }
    }
    let collector = Collector::new();
    let mut job = JobSpec::new("located");
    let src = job.add_operator(Box::new(SourceDesc {
        frames: frames(2, 2),
        count: 1,
    }));
    let sink = job.add_operator(Box::new(Located(collector.clone())));
    job.connect(src, sink, ConnectorSpec::MNRandomPartition);
    let handle = run_job(&cluster, job).unwrap();
    let layout = handle.layout().to_vec();
    handle.wait_ok().unwrap();
    let sink_nodes: Vec<NodeId> = layout
        .iter()
        .filter(|p| p.op_name == "located-sink")
        .map(|p| p.node)
        .collect();
    assert_eq!(sink_nodes, vec![NodeId(2), NodeId(3)]);
    assert_eq!(collector.len(), 4);
    cluster.shutdown();
}

#[test]
fn scheduling_on_dead_location_fails() {
    let cluster = Cluster::start_default(2);
    cluster.kill_node(NodeId(1));
    struct OnDead;
    impl OperatorDescriptor for OnDead {
        fn name(&self) -> String {
            "on-dead".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Locations(vec![NodeId(1)])
        }
        fn instantiate(
            &self,
            _ctx: &TaskContext,
            output: Box<dyn FrameWriter>,
        ) -> IngestResult<OperatorRuntime> {
            Ok(OperatorRuntime::Source(Box::new(VecSource::new(
                vec![],
                output,
            ))))
        }
    }
    let mut job = JobSpec::new("dead-loc");
    job.add_operator(Box::new(OnDead));
    assert!(run_job(&cluster, job).is_err());
    cluster.shutdown();
}

/// An endless source so a pipeline stays busy until it is stopped: one
/// single-record frame per poll, at most one every `pace`.
struct Endless {
    output: Box<dyn FrameWriter>,
    next: u64,
    pace: Option<Duration>,
}

impl SourceOperator for Endless {
    fn poll(&mut self, stop: &StopToken) -> IngestResult<SourcePoll> {
        if self.next == 0 {
            self.output.open()?;
        }
        if stop.is_stopped() {
            self.output.close()?;
            return Ok(SourcePoll::Done);
        }
        let rec = Record::tracked(RecordId(self.next), 0, "x");
        self.output.next_frame(DataFrame::from_records(vec![rec]))?;
        self.next += 1;
        Ok(match self.pace {
            Some(pace) => SourcePoll::Idle(Some(pace)),
            None => SourcePoll::Produced,
        })
    }
}

struct EndlessDesc {
    constraint: Constraint,
    pace: Option<Duration>,
}

impl OperatorDescriptor for EndlessDesc {
    fn name(&self) -> String {
        "endless".into()
    }
    fn constraints(&self) -> Constraint {
        self.constraint.clone()
    }
    fn instantiate(
        &self,
        _ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime> {
        Ok(OperatorRuntime::Source(Box::new(Endless {
            output,
            next: 0,
            pace: self.pace,
        })))
    }
}

#[test]
fn killing_a_node_aborts_its_tasks() {
    use asterix_common::SimDuration;

    struct SinkOn1(Collector);
    impl OperatorDescriptor for SinkOn1 {
        fn name(&self) -> String {
            "sink-on-1".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Locations(vec![NodeId(1)])
        }
        fn instantiate(
            &self,
            _ctx: &TaskContext,
            output: Box<dyn FrameWriter>,
        ) -> IngestResult<OperatorRuntime> {
            Ok(OperatorRuntime::Unary(Box::new(self.0.operator()), output))
        }
    }

    let cluster = Cluster::start_default(2);
    let collector = Collector::new();
    let mut job = JobSpec::new("kill-test");
    let src = job.add_operator(Box::new(EndlessDesc {
        constraint: Constraint::Locations(vec![NodeId(0)]),
        pace: None,
    }));
    let sink = job.add_operator(Box::new(SinkOn1(collector.clone())));
    job.connect(src, sink, ConnectorSpec::MNRandomPartition);
    let handle = run_job(&cluster, job).unwrap();

    // let data flow, then kill the sink's node
    cluster.clock().sleep(SimDuration::from_millis(500));
    assert!(!collector.is_empty(), "pipeline should be flowing");
    cluster.kill_node(NodeId(1));

    // the sink task dies; the producer's sends error; all tasks end
    let results = handle.wait();
    assert!(
        results.iter().any(|(_, r)| r.is_err()),
        "some task should report the failure"
    );
    assert!(!collector.is_closed(), "sink never closed gracefully");
    cluster.shutdown();
}

#[test]
fn stop_sources_drains_gracefully() {
    let cluster = Cluster::start_default(1);
    let collector = Collector::new();
    let mut job = JobSpec::new("drain");
    let src = job.add_operator(Box::new(EndlessDesc {
        constraint: Constraint::Count(1),
        pace: Some(Duration::from_millis(1)),
    }));
    let sink = job.add_operator(Box::new(SinkDesc {
        collector: collector.clone(),
        count: 1,
    }));
    job.connect(src, sink, ConnectorSpec::MNRandomPartition);
    let handle = run_job(&cluster, job).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    handle.stop_sources();
    // the source closes, the sink drains and closes gracefully
    handle.wait_ok().unwrap();
    assert!(!collector.is_empty());
    assert!(collector.is_closed());
    cluster.shutdown();
}
