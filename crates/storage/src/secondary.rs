//! Secondary indexes.
//!
//! "Secondary indexes in AsterixDB are partitioned and co-located with the
//! corresponding primary index partition" (§5.3.1, footnote 3). A secondary
//! index maps a record's *indexed field* to its primary key; the store
//! operator maintains every secondary alongside the primary on each insert
//! or delete.
//!
//! Two kinds are supported, matching the paper's DDL:
//! * `btree` — ordered index over any scalar field;
//! * `rtree` — spatial index over `point` fields (Listing 3.2's
//!   `locationIndex`).

use crate::rtree::{RTree, Rect};
use crate::KeyOrd;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};
use std::collections::{BTreeMap, BTreeSet};

/// Which index structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Ordered B-tree index.
    BTree,
    /// Spatial R-tree index (field must be `point`).
    RTree,
}

#[derive(Debug)]
enum IndexImpl {
    BTree(BTreeMap<KeyOrd, BTreeSet<KeyOrd>>),
    RTree(RTree<KeyOrd>),
}

/// A secondary index over one field of a dataset's records.
#[derive(Debug)]
pub struct SecondaryIndex {
    /// Index name (as in `create index <name> ...`).
    pub name: String,
    /// The indexed field.
    pub field: String,
    /// Structure kind.
    pub kind: IndexKind,
    index: IndexImpl,
    entries: usize,
}

impl SecondaryIndex {
    /// New empty index on `field`.
    pub fn new(name: impl Into<String>, field: impl Into<String>, kind: IndexKind) -> Self {
        SecondaryIndex {
            name: name.into(),
            field: field.into(),
            kind,
            index: match kind {
                IndexKind::BTree => IndexImpl::BTree(BTreeMap::new()),
                IndexKind::RTree => IndexImpl::RTree(RTree::new()),
            },
            entries: 0,
        }
    }

    /// Whether [`insert`](SecondaryIndex::insert) takes this value of the
    /// indexed field: absent, `null` and `missing` are skipped by every
    /// kind; an R-tree index takes only points, anything else is a type
    /// error. The write path asks before it logs a record.
    pub fn accepts(&self, indexed: Option<&AdmValue>) -> IngestResult<()> {
        match indexed {
            Some(v) if self.kind == IndexKind::RTree => match v {
                AdmValue::Null | AdmValue::Missing | AdmValue::Point(..) => Ok(()),
                _ => Err(IngestError::Type(format!(
                    "rtree index {} requires point values, got {}",
                    self.name,
                    v.type_name()
                ))),
            },
            _ => Ok(()),
        }
    }

    /// Index the record under `primary_key`, given its value for the
    /// indexed field (the caller projects that one field; the index never
    /// sees the record). Records whose indexed field is absent, `null` or
    /// `missing` are skipped (optional fields are not indexed); a value the
    /// index does not [`accept`](SecondaryIndex::accepts) is a type error.
    pub fn insert(
        &mut self,
        primary_key: &AdmValue,
        indexed: Option<&AdmValue>,
    ) -> IngestResult<()> {
        self.accepts(indexed)?;
        let field_val = match indexed {
            None | Some(AdmValue::Null) | Some(AdmValue::Missing) => return Ok(()),
            Some(v) => v,
        };
        match &mut self.index {
            IndexImpl::BTree(map) => {
                map.entry(KeyOrd(field_val.clone()))
                    .or_default()
                    .insert(KeyOrd(primary_key.clone()));
            }
            IndexImpl::RTree(tree) => {
                let (x, y) = field_val.as_point().expect("accepted above");
                tree.insert(x, y, KeyOrd(primary_key.clone()));
            }
        }
        self.entries += 1;
        Ok(())
    }

    /// Remove the entry of the record under `primary_key`, given the value
    /// it was indexed under.
    pub fn remove(
        &mut self,
        primary_key: &AdmValue,
        indexed: Option<&AdmValue>,
    ) -> IngestResult<()> {
        let field_val = match indexed {
            None | Some(AdmValue::Null) | Some(AdmValue::Missing) => return Ok(()),
            Some(v) => v,
        };
        let removed = match &mut self.index {
            IndexImpl::BTree(map) => {
                let k = KeyOrd(field_val.clone());
                if let Some(set) = map.get_mut(&k) {
                    let removed = set.remove(&KeyOrd(primary_key.clone()));
                    if set.is_empty() {
                        map.remove(&k);
                    }
                    removed
                } else {
                    false
                }
            }
            IndexImpl::RTree(tree) => match field_val.as_point() {
                Some((x, y)) => tree.remove(x, y, &KeyOrd(primary_key.clone())),
                None => false,
            },
        };
        if removed {
            self.entries -= 1;
        }
        Ok(())
    }

    /// Primary keys whose indexed value equals `value` (B-tree only).
    pub fn lookup_eq(&self, value: &AdmValue) -> Vec<AdmValue> {
        match &self.index {
            IndexImpl::BTree(map) => map
                .get(&KeyOrd(value.clone()))
                .map(|set| set.iter().map(|k| k.0.clone()).collect())
                .unwrap_or_default(),
            IndexImpl::RTree(tree) => match value.as_point() {
                Some((x, y)) => tree
                    .query(&Rect::point(x, y))
                    .into_iter()
                    .map(|k| k.0)
                    .collect(),
                None => Vec::new(),
            },
        }
    }

    /// Primary keys with indexed value in `[lo, hi]` (B-tree only; empty for
    /// R-tree — use [`SecondaryIndex::lookup_rect`]).
    pub fn lookup_range(&self, lo: &AdmValue, hi: &AdmValue) -> Vec<AdmValue> {
        match &self.index {
            IndexImpl::BTree(map) => map
                .range(KeyOrd(lo.clone())..=KeyOrd(hi.clone()))
                .flat_map(|(_, set)| set.iter().map(|k| k.0.clone()))
                .collect(),
            IndexImpl::RTree(_) => Vec::new(),
        }
    }

    /// Primary keys of records whose point falls in the rectangle (R-tree
    /// only; empty for B-tree).
    pub fn lookup_rect(&self, x0: f64, y0: f64, x1: f64, y1: f64) -> Vec<AdmValue> {
        match &self.index {
            IndexImpl::RTree(tree) => tree
                .query(&Rect::new(x0, y0, x1, y1))
                .into_iter()
                .map(|k| k.0)
                .collect(),
            IndexImpl::BTree(_) => Vec::new(),
        }
    }

    /// Total indexed entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweet(id: &str, country: Option<&str>, loc: Option<(f64, f64)>) -> AdmValue {
        let mut fields = vec![("id", AdmValue::string(id))];
        if let Some(c) = country {
            fields.push(("country", c.into()));
        }
        if let Some((x, y)) = loc {
            fields.push(("location", AdmValue::Point(x, y)));
        }
        AdmValue::record(fields)
    }

    #[test]
    fn btree_eq_and_range_lookup() {
        let mut idx = SecondaryIndex::new("byCountry", "country", IndexKind::BTree);
        for (id, country) in [("t1", "US"), ("t2", "US"), ("t3", "IN")] {
            let t = tweet(id, Some(country), None);
            idx.insert(&id.into(), t.field("country")).unwrap();
        }
        assert_eq!(idx.len(), 3);
        let mut us = idx.lookup_eq(&"US".into());
        us.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(us, vec![AdmValue::string("t1"), AdmValue::string("t2")]);
        let all = idx.lookup_range(&"A".into(), &"Z".into());
        assert_eq!(all.len(), 3);
        assert!(idx.lookup_eq(&"FR".into()).is_empty());
    }

    #[test]
    fn null_or_absent_field_skipped() {
        let mut idx = SecondaryIndex::new("byCountry", "country", IndexKind::BTree);
        idx.insert(&"t1".into(), tweet("t1", None, None).field("country"))
            .unwrap();
        let with_null = AdmValue::record(vec![("id", "t2".into()), ("country", AdmValue::Null)]);
        idx.insert(&"t2".into(), with_null.field("country"))
            .unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn btree_remove_cleans_up() {
        let mut idx = SecondaryIndex::new("byCountry", "country", IndexKind::BTree);
        let t = tweet("t1", Some("US"), None);
        idx.insert(&"t1".into(), t.field("country")).unwrap();
        idx.remove(&"t1".into(), t.field("country")).unwrap();
        assert!(idx.lookup_eq(&"US".into()).is_empty());
        assert!(idx.is_empty());
        // double-remove is a no-op
        idx.remove(&"t1".into(), t.field("country")).unwrap();
    }

    #[test]
    fn rtree_spatial_lookup() {
        let mut idx = SecondaryIndex::new("locationIndex", "location", IndexKind::RTree);
        for (id, at) in [("irvine", (-117.8, 33.6)), ("sf", (-122.4, 37.7))] {
            let t = tweet(id, None, Some(at));
            idx.insert(&id.into(), t.field("location")).unwrap();
        }
        let socal = idx.lookup_rect(-120.0, 32.0, -115.0, 35.0);
        assert_eq!(socal, vec![AdmValue::string("irvine")]);
        let eq = idx.lookup_eq(&AdmValue::Point(-122.4, 37.7));
        assert_eq!(eq, vec![AdmValue::string("sf")]);
        // range lookup is a btree-only operation
        assert!(idx.lookup_range(&"a".into(), &"z".into()).is_empty());
    }

    #[test]
    fn rtree_rejects_non_point() {
        let mut idx = SecondaryIndex::new("locationIndex", "location", IndexKind::RTree);
        let bad = AdmValue::record(vec![("id", "x".into()), ("location", "nowhere".into())]);
        assert!(idx.insert(&"x".into(), bad.field("location")).is_err());
    }

    #[test]
    fn btree_rect_lookup_is_empty() {
        let mut idx = SecondaryIndex::new("byCountry", "country", IndexKind::BTree);
        idx.insert(&"t1".into(), tweet("t1", Some("US"), None).field("country"))
            .unwrap();
        assert!(idx.lookup_rect(0.0, 0.0, 1.0, 1.0).is_empty());
    }
}
