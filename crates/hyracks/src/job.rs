//! Job specifications.
//!
//! A job is a DAG of operator descriptors and connector specs (§3.2.2).
//! Descriptors are factories: at schedule time the executor asks each
//! descriptor for its constraints (how many parallel instances, where) and
//! then instantiates one runtime per partition.

use crate::connector::ConnectorSpec;
use crate::executor::TaskContext;
use crate::operator::{FrameWriter, OperatorRuntime};
use crate::transport::TransportKind;
use asterix_common::{IngestResult, NodeId};

/// Index of an operator within a [`JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorSpecId(pub usize);

/// Parallelism/placement constraint for an operator (§5.2: "an operator can
/// have an associated set of constraints (count or location constraints)").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `n` instances, placed by the scheduler on any alive nodes.
    Count(usize),
    /// One instance on each listed node, in order.
    Locations(Vec<NodeId>),
}

impl Constraint {
    /// Number of partitions this constraint implies.
    pub fn cardinality(&self) -> usize {
        match self {
            Constraint::Count(n) => *n,
            Constraint::Locations(locs) => locs.len(),
        }
    }
}

/// Factory for one operator of a job.
pub trait OperatorDescriptor: Send + Sync {
    /// Human-readable operator name (shows up in errors and layouts).
    fn name(&self) -> String;

    /// Parallelism and placement.
    fn constraints(&self) -> Constraint;

    /// Build the runtime for partition `ctx.partition`, writing its output
    /// to `output`: a source takes the writer with it, a unary operator
    /// returns it beside itself. Descriptors that interpose taps (feed
    /// joints) wrap `output` first.
    fn instantiate(
        &self,
        ctx: &TaskContext,
        output: Box<dyn FrameWriter>,
    ) -> IngestResult<OperatorRuntime>;
}

/// An edge of the job DAG.
#[derive(Debug)]
pub struct Edge {
    /// Producing operator.
    pub from: OperatorSpecId,
    /// Consuming operator.
    pub to: OperatorSpecId,
    /// How frames are redistributed between them.
    pub connector: ConnectorSpec,
}

/// A complete job specification.
pub struct JobSpec {
    /// Job display name.
    pub name: String,
    ops: Vec<Box<dyn OperatorDescriptor>>,
    edges: Vec<Edge>,
    /// Capacity (in frames) of each inter-operator queue. Bounded queues are
    /// the source of back-pressure along the pipeline.
    pub queue_capacity: usize,
    /// Which wire the job's edges ride on: in-process ports (default) or
    /// length-prefixed TCP over loopback.
    pub transport: TransportKind,
}

impl JobSpec {
    /// Empty job with the default queue capacity.
    pub fn new(name: impl Into<String>) -> Self {
        JobSpec {
            name: name.into(),
            ops: Vec::new(),
            edges: Vec::new(),
            queue_capacity: 32,
            transport: TransportKind::InProcess,
        }
    }

    /// Add an operator, returning its id.
    pub fn add_operator(&mut self, op: Box<dyn OperatorDescriptor>) -> OperatorSpecId {
        self.ops.push(op);
        OperatorSpecId(self.ops.len() - 1)
    }

    /// Connect `from` to `to` with the given connector.
    pub fn connect(&mut self, from: OperatorSpecId, to: OperatorSpecId, connector: ConnectorSpec) {
        assert!(from.0 < self.ops.len(), "unknown producer {from:?}");
        assert!(to.0 < self.ops.len(), "unknown consumer {to:?}");
        assert_ne!(from, to, "self-loops are not allowed");
        self.edges.push(Edge {
            from,
            to,
            connector,
        });
    }

    /// Operators in insertion order.
    pub fn operators(&self) -> &[Box<dyn OperatorDescriptor>] {
        &self.ops
    }

    /// Edges of the DAG.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The operator descriptor for `id`.
    pub fn operator(&self, id: OperatorSpecId) -> &dyn OperatorDescriptor {
        self.ops[id.0].as_ref()
    }

    /// Ids of operators with no incoming edge (the sources).
    pub fn source_ops(&self) -> Vec<OperatorSpecId> {
        (0..self.ops.len())
            .map(OperatorSpecId)
            .filter(|id| !self.edges.iter().any(|e| e.to == *id))
            .collect()
    }

    /// Ids of operators feeding `id`.
    pub fn producers_of(&self, id: OperatorSpecId) -> Vec<OperatorSpecId> {
        self.edges
            .iter()
            .filter(|e| e.to == id)
            .map(|e| e.from)
            .collect()
    }

    /// Topological order of operators; errors on cycles.
    pub fn topo_order(&self) -> IngestResult<Vec<OperatorSpecId>> {
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to.0] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(OperatorSpecId(i));
            for e in self.edges.iter().filter(|e| e.from.0 == i) {
                indegree[e.to.0] -= 1;
                if indegree[e.to.0] == 0 {
                    queue.push(e.to.0);
                }
            }
        }
        if order.len() != n {
            return Err(asterix_common::IngestError::Plan(format!(
                "job '{}' contains a cycle",
                self.name
            )));
        }
        Ok(order)
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field(
                "ops",
                &self.ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
            )
            .field("edges", &self.edges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{NullSink, VecSource};

    struct SrcDesc;
    impl OperatorDescriptor for SrcDesc {
        fn name(&self) -> String {
            "src".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Count(1)
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

    struct SinkDesc;
    impl OperatorDescriptor for SinkDesc {
        fn name(&self) -> String {
            "sink".into()
        }
        fn constraints(&self) -> Constraint {
            Constraint::Count(2)
        }
        fn instantiate(
            &self,
            _ctx: &TaskContext,
            output: Box<dyn FrameWriter>,
        ) -> IngestResult<OperatorRuntime> {
            Ok(OperatorRuntime::Unary(Box::new(NullSink), output))
        }
    }

    #[test]
    fn build_and_introspect() {
        let mut job = JobSpec::new("j");
        let s = job.add_operator(Box::new(SrcDesc));
        let k = job.add_operator(Box::new(SinkDesc));
        job.connect(s, k, ConnectorSpec::OneToOne);
        assert_eq!(job.source_ops(), vec![s]);
        assert_eq!(job.producers_of(k), vec![s]);
        assert_eq!(job.topo_order().unwrap(), vec![s, k]);
        assert_eq!(job.operator(k).constraints().cardinality(), 2);
    }

    #[test]
    fn cycle_detected() {
        let mut job = JobSpec::new("cyclic");
        let a = job.add_operator(Box::new(SinkDesc));
        let b = job.add_operator(Box::new(SinkDesc));
        job.connect(a, b, ConnectorSpec::OneToOne);
        job.connect(b, a, ConnectorSpec::OneToOne);
        assert!(job.topo_order().is_err());
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut job = JobSpec::new("bad");
        let a = job.add_operator(Box::new(SinkDesc));
        job.connect(a, a, ConnectorSpec::OneToOne);
    }

    #[test]
    fn constraint_cardinality() {
        assert_eq!(Constraint::Count(3).cardinality(), 3);
        assert_eq!(
            Constraint::Locations(vec![NodeId(0), NodeId(5)]).cardinality(),
            2
        );
    }
}
