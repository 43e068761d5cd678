#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Shared primitives for the AsterixDB data-feed reproduction.
//!
//! Every other crate in the workspace builds on the small set of concepts
//! defined here:
//!
//! * [`ids`] — strongly-typed identifiers for nodes, jobs, operators, feeds
//!   and records.
//! * [`error`] — the common error type distinguishing *soft* failures
//!   (record-level runtime exceptions, recoverable by the MetaFeed sandbox)
//!   from *hard* failures (loss of a node).
//! * [`clock`] — the scaled simulation clock. The paper's experiments run for
//!   hundreds of wall-clock seconds; we express all durations in
//!   *sim-seconds* and map them onto a configurable number of real
//!   milliseconds so a full figure regenerates in seconds.
//! * [`frame`] — fixed-capacity data frames, the unit in which records move
//!   between operators (Hyracks §3.2.2).
//! * [`meter`] — instantaneous-throughput meters used to produce the paper's
//!   timeline figures.
//! * [`fault`] — the seeded deterministic fault-injection plan used by the
//!   chaos harness to provoke §6 failure scenarios reproducibly.
//! * [`metrics`] — the typed metrics registry (counters, gauges, histograms
//!   with lock-free hot paths) every layer reports into, snapshottable as
//!   JSON or Prometheus text.
//! * [`sync`] — the workspace synchronization facade: poison-recovering
//!   locks, the compactor [`sync::WakeSignal`], the bounded
//!   [`sync::handoff`] channel, and cfg-switched atomics that build against
//!   the vendored `loom` model checker under `RUSTFLAGS="--cfg loom"`.
//! * [`trace`] — span-style tracing of structural events (feed connects,
//!   recoveries, compactions) into per-node ring-buffer logs.

pub mod clock;
pub mod error;
pub mod fault;
pub mod frame;
pub mod ids;
pub mod meter;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use clock::{SimClock, SimDuration, SimInstant};
pub use error::{IngestError, IngestResult, SoftError};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
pub use frame::{DataFrame, FrameBuilder, Record, DEFAULT_FRAME_CAPACITY};
pub use ids::{FeedId, JobId, NodeId, OperatorId, RecordId};
pub use meter::{RateMeter, ThroughputSeries};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use trace::{SpanGuard, TraceEvent, TraceHub, TraceLog};
