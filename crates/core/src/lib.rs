#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Data feeds for AsterixDB — the paper's primary contribution.
//!
//! A *data feed* is "a flow of data from an external source into persistent
//! (indexed) storage inside a BDMS" (Ch. 1). This crate implements the
//! complete feed machinery of Chapters 4–7:
//!
//! * [`adaptor`] — feed adaptors (Ch. 4.1): pluggable connectors to external
//!   sources, with built-ins for TweetGen, socket-style channels and files;
//! * [`udf`] — the pre-processing UDF framework (Ch. 4.2): transparent
//!   AQL-style functions and black-box external ("Java") functions;
//! * [`policy`] — ingestion policies (Ch. 4.5, Table 4.1/4.2): Basic, Spill,
//!   Discard, Throttle, Elastic, plus custom policies built by extension;
//! * [`joint`] — feed joints (§5.4): the routing points that let one flow of
//!   data feed many pipelines, with guaranteed delivery and congestion
//!   isolation; each subscription is the one custody queue for its key,
//!   zombie state (§6.2.2) included, and the one excess queue (Ch. 7), where
//!   the connection's policy buffers, spills, discards or throttles;
//! * [`manager`] — the per-node Feed Manager (§5.3.1): joints and their
//!   search API;
//! * [`flow`] — where excess records wait (Ch. 7), in brief;
//! * [`ops`] — the pipeline operators: FeedCollect, FeedIntake, Assign and
//!   the store operator, each wrapped in the MetaFeed sandbox (§6.1) that
//!   survives soft failures by frame slicing;
//! * [`ack`] — at-least-once semantics (§5.6): tracking ids, grouped acks
//!   from the store stage, timeout-based replay;
//! * [`catalog`] — the feeds metadata (§5.1): feed definitions, adaptor
//!   factories, functions, policies and datasets;
//! * [`plan`] — declarative ingestion plans: the typed [`IngestPlan`] IR
//!   (source → UDF stages → predicate routing → N sinks, each with its own
//!   dataset, policy and durability knobs) and the fluent
//!   [`IngestPlanBuilder`], the one construction surface — it also builds
//!   and registers plain feed definitions, validated before they reach the
//!   catalog;
//! * [`controller`] — the Central Feed Manager: one segment table, one plan
//!   compiler behind `connect feed` and `connect plan`, and one rebuild
//!   path behind the hard-failure protocol (§6.2) and elastic restructuring
//!   (§7.3.5);
//! * [`governor`] — the scaling governor, the Elastic policy's one control
//!   loop: scale out under congestion, back in when calm;
//! * [`metrics`] — per-connection counters matching Table 7.1.
//!
//! ## Job granularity (deviation from the paper, documented)
//!
//! The paper builds one head job and one tail job (intake + compute + store)
//! per connection, and partially dismantles tail jobs on disconnect. Here
//! every *feed joint* is a durable rendezvous point between jobs, and every
//! job is one *segment* — one row of the controller's table: the head
//! (collect) job ends in a joint; each feed with a UDF runs a *compute job*
//! (intake → assign → joint); a routed plan runs a *route job* (intake →
//! route → one joint per sink); each connection runs a *store job* (intake
//! → store). Disconnecting a feed kills only its store job, which gives
//! exactly the paper's partial-dismantling behaviour (Fig 5.10) with
//! whole-job granularity. Joint subscriptions survive pipeline failures, so
//! a rebuilt pipeline resumes from its subscription queue — the paper's
//! "buffer mode" during recovery (Fig 6.3). A joint lives where its
//! producing segment is placed; changing that placement (node failure,
//! elastic scaling) reschedules the producer and every job downstream.

pub mod ack;
pub mod adaptor;
pub mod catalog;
pub mod controller;
pub mod flow;
pub mod governor;
pub mod joint;
pub mod manager;
pub mod metrics;
pub mod ops;
pub mod plan;
pub mod policy;
pub mod udf;

pub use adaptor::{AdaptorConfig, AdaptorFactory, FeedAdaptor};
pub use catalog::{FeedCatalog, FeedDef, FeedKind};
pub use controller::{ConnectionId, FeedController};
pub use joint::FeedJoint;
pub use manager::FeedManager;
pub use metrics::FeedMetrics;
pub use plan::{
    CmpOp, IngestPlan, IngestPlanBuilder, PlanError, PlanResult, PlanSource, RoutePredicate,
    RoutingMode, SinkSpec,
};
pub use policy::{IngestionPolicy, PolicyParam};
pub use udf::{Udf, UdfKind};
