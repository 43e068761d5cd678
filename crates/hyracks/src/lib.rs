#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A Hyracks-like partitioned-parallel dataflow engine (§3.2 of the paper),
//! running on a simulated shared-nothing cluster.
//!
//! AsterixDB compiles every statement — including the head and tail sections
//! of a data-ingestion pipeline — into a *Hyracks job*: a DAG of operators
//! (partitioned-parallel computation steps) and connectors (the
//! redistribution of data between steps). This crate reproduces the subset
//! of Hyracks the feeds work depends on:
//!
//! * [`job`] — job specifications: operator descriptors with *count* and
//!   *location* constraints, wired by connectors;
//! * [`operator`] — the runtime interfaces ([`operator::FrameWriter`],
//!   polled sources and frame-driven unary operators) and a library of
//!   built-ins (`NullSink`, `FnUnary`, collectors for tests);
//! * [`connector`] — one-to-one, M:N hash-partitioning and M:N
//!   random-partitioning exchange;
//! * [`cluster`] — the Cluster Controller and Node Controllers: node
//!   lifecycle, heartbeats, failure detection, cluster/job event
//!   subscription, node-local services (used by feeds for the per-node Feed
//!   Manager), and failure injection for the Chapter 6 experiments;
//! * [`scheduler`] — the execution runtime: a sharded work-stealing pool
//!   where every operator instance is a lightweight cooperative task
//!   (per-worker deques, a global injector, steal-from-the-back), so
//!   operator count is decoupled from OS thread count;
//! * [`port`] — bounded frame queues between tasks; saturation makes a
//!   cooperative producer *yield* (back-pressure, the mechanism behind
//!   Chapter 7's congestion study) instead of blocking a thread;
//! * [`transport`] — the pluggable wire behind connectors: in-process
//!   ports or length-prefixed TCP reusing the binary ADM codec, so the
//!   halves of a pipeline can run in separate OS processes;
//! * [`executor`] — plans a job's tasks onto nodes and spawns them on the
//!   cluster's scheduler; sources and unary operators alike are tasks, there
//!   is no thread-per-source way to run one.
//!
//! ## Simplifications vs. real Hyracks
//!
//! Real Hyracks expands operators into activities and schedules stage by
//! stage. Ingestion pipelines are single-stage pipelined jobs, so this
//! engine co-schedules all tasks of a job at once. A "node" is a logical
//! container of tasks rather than a machine, and frames move over
//! in-process ports by default — but [`transport::TransportKind::Tcp`]
//! routes every edge through real length-prefixed sockets, so the process
//! boundary is exercisable everywhere — see DESIGN.md for why this
//! preserves the behaviour the paper measures.

pub mod cluster;
pub mod connector;
pub mod executor;
pub mod job;
pub mod operator;
pub mod port;
pub mod scheduler;
pub mod services;
pub mod transport;

pub use cluster::{Cluster, ClusterConfig, ClusterEvent, NodeHandle};
pub use connector::ConnectorSpec;
pub use executor::{JobHandle, TaskContext};
pub use job::{Constraint, JobSpec, OperatorDescriptor, OperatorSpecId};
pub use operator::{
    FrameWriter, OperatorRuntime, RouterOperator, SourceOperator, SourcePoll, StopToken,
    UnaryOperator,
};
pub use scheduler::{Scheduler, SliceState, Task, TaskHandle, Waker};
pub use transport::TransportKind;
