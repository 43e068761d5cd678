//! Congestion (Chapter 7): excess records wait in one place, the intake's
//! joint subscription, which applies the connection's ingestion policy to
//! them as they are deposited ([`crate::joint`]). The intake only moves
//! frames from its subscription into its port while the port has room.
//!
//! The spill file is re-exported here, where the cost ledger
//! (`ingestbench/src/ledger.rs`) times it.

pub use crate::joint::SpillFile;
