#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The "glued-together" baseline of Chapter 7.5: a Storm-like data-routing
//! engine coupled with a MongoDB-like document store.
//!
//! "A popular choice made within the open-source community is to use Storm
//! as a streaming engine coupled with MongoDB as a data store" (Ch. 1). The
//! paper's §7.5 evaluation drives the same tweet workload through such a
//! glued assembly and measures instantaneous throughput under durable
//! (Fig 7.11) and non-durable (Fig 7.12) write concerns.
//!
//! This crate implements the structural properties that comparison hinges
//! on:
//!
//! * [`topology`] — a mini Storm: a spout reading a socket's lines and
//!   bolts wired into a chain, with Storm's at-least-once machinery
//!   (per-tuple message ids, acks, a `max.spout.pending` window, timeout
//!   replay);
//! * [`mongo`] — a mini MongoDB: collections of documents with an
//!   acknowledged in-memory write path (non-durable) and a journaled
//!   write path with group commit (durable);
//! * [`glue`] — the glue code an open-source user would write: a spout
//!   reading the tweet source, a parse/UDF bolt, and a store bolt issuing
//!   one client insert per tuple against the document store.

pub mod glue;
pub mod mongo;
pub mod topology;

pub use glue::{run_storm_mongo, StormMongoConfig, StormMongoReport};
pub use mongo::{MongoStore, WriteConcern};
pub use topology::{Bolt, BoltOutcome, Topology, TopologyConfig};
