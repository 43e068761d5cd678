#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! LSM-based partitioned storage for AsterixDB datasets.
//!
//! §3.1.1: "datasets ... are stored and managed by AsterixDB as partitioned
//! LSM-based B+-trees with optional LSM-based secondary indexes", and the
//! insert path "uses write-ahead logging and offers record-level ACID
//! semantics" (§5.3.1, footnote 3).
//!
//! This crate provides that substrate:
//!
//! * [`lsm`] — the LSM tree: a mutable memtable over immutable sorted
//!   components, with flush and merge;
//! * [`wal`] — the write-ahead log of what no sealed component holds yet
//!   (checkpointed at every seal) and log-based restart recovery;
//! * [`secondary`] — secondary indexes: a B-tree index over any field and an
//!   R-tree over `point` fields (the paper's `create index ... type rtree`);
//! * [`rtree`] — the R-tree implementation backing spatial indexes;
//! * [`partition`] — one storage partition: WAL + primary LSM + secondaries,
//!   with record-level commit;
//! * [`dataset`] — a dataset hash-partitioned by primary key across a
//!   nodegroup.

pub mod dataset;
pub mod lsm;
pub mod partition;
pub mod rtree;
pub mod secondary;
pub mod wal;

pub use dataset::{Dataset, DatasetConfig};
pub use lsm::LsmTree;
pub use lsm::{Component, LsmConfig};
pub use partition::{BatchOutcome, DatasetPartition, PartitionConfig};
pub use secondary::{IndexKind, SecondaryIndex};
pub use wal::{LogOp, LogRecord, WriteAheadLog};

use asterix_adm::AdmValue;
use std::borrow::Borrow;
use std::cmp::Ordering;

/// An `AdmValue` wrapper ordered by [`AdmValue::total_cmp`], usable as a
/// B-tree key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyOrd(pub AdmValue);

impl Eq for KeyOrd {}

impl PartialOrd for KeyOrd {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyOrd {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A key seen through a reference: lets a map keyed by [`KeyOrd`] be probed
/// with a plain `&AdmValue` (`map.get(key as &dyn AsKey)`) instead of a
/// cloned `KeyOrd` — the `Borrow<dyn Trait>` idiom.
pub trait AsKey {
    /// The key value.
    fn as_key(&self) -> &AdmValue;
}

impl AsKey for KeyOrd {
    fn as_key(&self) -> &AdmValue {
        &self.0
    }
}

impl AsKey for AdmValue {
    fn as_key(&self) -> &AdmValue {
        self
    }
}

impl<'a> Borrow<dyn AsKey + 'a> for KeyOrd {
    fn borrow(&self) -> &(dyn AsKey + 'a) {
        self
    }
}

impl PartialEq for dyn AsKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn AsKey + '_ {}

impl PartialOrd for dyn AsKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn AsKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_key().total_cmp(other.as_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyord_orders_like_total_cmp() {
        let mut keys = [
            KeyOrd(AdmValue::string("b")),
            KeyOrd(AdmValue::Int(3)),
            KeyOrd(AdmValue::string("a")),
            KeyOrd(AdmValue::Int(1)),
        ];
        keys.sort();
        assert_eq!(keys[0].0, AdmValue::Int(1));
        assert_eq!(keys[1].0, AdmValue::Int(3));
        assert_eq!(keys[2].0, AdmValue::string("a"));
        assert_eq!(keys[3].0, AdmValue::string("b"));
    }
}
