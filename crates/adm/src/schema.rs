//! Single-pass schema inference over open ADM records.
//!
//! The LSM-based tuple-compaction approach infers a schema for each sealed
//! component from the records it actually holds, instead of trusting the
//! (open) declared type. This module is the inference half: feed every
//! record of a component — in its binary ADM form, as the memtable holds it;
//! no value tree is built — through [`SchemaBuilder::observe`] and the
//! resulting [`InferredSchema`] reports, per field, how often it appeared
//! and where it sits on a small type lattice. The storage layer uses that
//! to pick *slot* fields (stable, dense — worth a column in the compacted
//! layout) and to decide when a component's schema churn is too high to
//! bother compacting at all.
//!
//! The lattice is deliberately shallow:
//!
//! ```text
//!          Mixed
//!         /  |  \
//!   Double  ...  (every other concrete type)
//!      |
//!     Int
//! ```
//!
//! `Int ⊔ Double = Double` (numeric widening, as in the tuple-compaction
//! paper); any other pair of distinct concrete types joins to `Mixed`.
//! `Null`/`Missing` occurrences mark a field nullable without disturbing
//! its concrete type. Schemas from different components can be merged with
//! [`InferredSchema::widen`], which unions fields and joins types — the
//! cell-copy merge ([`CompactedBlock::copy_rows`](crate::compact::CompactedBlock::copy_rows))
//! builds the merged component's header with it, so a merge can only *widen*
//! a slot's type, never narrow it.

use crate::binary::{self, record_spans, FieldSpan};
use std::collections::HashMap;

/// A concrete leaf position on the inference lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotType {
    /// `boolean`
    Boolean,
    /// `int64`
    Int,
    /// `double` (also the join of `Int ⊔ Double`)
    Double,
    /// `string`
    String,
    /// `point`
    Point,
    /// `datetime`
    DateTime,
    /// ordered list
    OrderedList,
    /// unordered list
    UnorderedList,
    /// nested record
    Record,
}

impl SlotType {
    /// Classify an encoded value by its tag byte; `None` for
    /// `Null`/`Missing` (they carry no type).
    pub fn of(value: &[u8]) -> Option<SlotType> {
        match *value.first()? {
            binary::TAG_BOOLEAN => Some(SlotType::Boolean),
            binary::TAG_INT => Some(SlotType::Int),
            binary::TAG_DOUBLE => Some(SlotType::Double),
            binary::TAG_STRING => Some(SlotType::String),
            binary::TAG_POINT => Some(SlotType::Point),
            binary::TAG_DATETIME => Some(SlotType::DateTime),
            binary::TAG_ORDERED_LIST => Some(SlotType::OrderedList),
            binary::TAG_UNORDERED_LIST => Some(SlotType::UnorderedList),
            binary::TAG_RECORD => Some(SlotType::Record),
            _ => None,
        }
    }
}

/// A field's position on the lattice after observing zero or more values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FieldType {
    /// No typed occurrence yet (only `Null`/`Missing`, or never seen).
    #[default]
    Empty,
    /// Every typed occurrence joined to one concrete type.
    Stable(SlotType),
    /// Occurrences with incompatible types — the lattice top.
    Mixed,
}

impl FieldType {
    /// Lattice join with one more observed concrete type.
    pub fn join(self, ty: SlotType) -> FieldType {
        match self {
            FieldType::Empty => FieldType::Stable(ty),
            FieldType::Stable(cur) if cur == ty => self,
            FieldType::Stable(SlotType::Int) if ty == SlotType::Double => {
                FieldType::Stable(SlotType::Double)
            }
            FieldType::Stable(SlotType::Double) if ty == SlotType::Int => {
                FieldType::Stable(SlotType::Double)
            }
            _ => FieldType::Mixed,
        }
    }

    /// Lattice join of two field positions (used by [`InferredSchema::widen`]).
    pub fn join_type(self, other: FieldType) -> FieldType {
        match (self, other) {
            (FieldType::Empty, t) | (t, FieldType::Empty) => t,
            (FieldType::Mixed, _) | (_, FieldType::Mixed) => FieldType::Mixed,
            (FieldType::Stable(a), FieldType::Stable(b)) => FieldType::Stable(a).join(b),
        }
    }
}

/// Field-name sequence of nested record values: tracked so the compacted
/// codec can elide nested field names when every occurrence agrees.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RecordShape {
    /// No record-valued occurrence observed.
    #[default]
    Unseen,
    /// Every record-valued occurrence had exactly this field-name sequence.
    Uniform(Vec<String>),
    /// Record-valued occurrences disagreed on their field sequence.
    Divergent,
}

impl RecordShape {
    /// Fold in one nested record, split into `fields` (`None`: its bytes
    /// did not split, which no uniform shape can describe).
    fn observe(&mut self, record: &[u8], fields: Option<&[FieldSpan]>) {
        let names = fields.and_then(|fields| {
            let name = |f: &FieldSpan| std::str::from_utf8(f.name(record)).ok();
            match self {
                RecordShape::Unseen => fields
                    .iter()
                    .map(|f| name(f).map(str::to_string))
                    .collect::<Option<Vec<_>>>(),
                RecordShape::Uniform(names) => {
                    let same = names.len() == fields.len()
                        && names
                            .iter()
                            .zip(fields)
                            .all(|(n, f)| n.as_bytes() == f.name(record));
                    same.then(|| std::mem::take(names))
                }
                RecordShape::Divergent => None,
            }
        });
        *self = names.map_or(RecordShape::Divergent, RecordShape::Uniform);
    }

    fn widen(&self, other: &RecordShape) -> RecordShape {
        match (self, other) {
            (RecordShape::Unseen, s) | (s, RecordShape::Unseen) => s.clone(),
            (RecordShape::Uniform(a), RecordShape::Uniform(b)) if a == b => {
                RecordShape::Uniform(a.clone())
            }
            _ => RecordShape::Divergent,
        }
    }
}

/// Per-field statistics accumulated by the inferencer.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldStats {
    /// Field name (top-level; nested names live in [`RecordShape`]).
    pub name: String,
    /// Records in which the field appeared (first occurrence per record).
    pub present: u64,
    /// Occurrences whose value was `Null` or `Missing`.
    pub nulls: u64,
    /// Lattice position joined over all typed occurrences.
    pub ty: FieldType,
    /// Nested-record field-name uniformity, for name elision.
    pub shape: RecordShape,
}

impl FieldStats {
    fn new(name: &str) -> FieldStats {
        FieldStats {
            name: name.to_string(),
            present: 0,
            nulls: 0,
            ty: FieldType::Empty,
            shape: RecordShape::Unseen,
        }
    }
}

/// The result of one inference pass: field stats in first-seen order plus
/// component-level counts used for the churn/fallback decision.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InferredSchema {
    /// Per-field stats, ordered by first appearance across the component.
    pub fields: Vec<FieldStats>,
    /// Records observed (including non-record values, see `opaque_rows`).
    pub records: u64,
    /// Observed values that were not records at all.
    pub opaque_rows: u64,
    /// Total field occurrences, duplicates included, plus one per opaque row.
    pub total_items: u64,
}

impl InferredSchema {
    /// Fields dense enough (and type-stable enough) to earn a column slot:
    /// present in at least `min_presence` of records and not `Mixed`.
    pub fn slot_fields(&self, min_presence: f64) -> Vec<String> {
        if self.records == 0 {
            return Vec::new();
        }
        let floor = min_presence * self.records as f64;
        self.fields
            .iter()
            .filter(|f| f.present as f64 >= floor && f.ty != FieldType::Mixed && f.present > 0)
            .map(|f| f.name.clone())
            .collect()
    }

    /// Fraction of field occurrences that would land in the residual
    /// section given `slots` — the schema-churn signal. `1.0` means nothing
    /// conforms (e.g. all rows opaque), `0.0` means every occurrence has a
    /// slot.
    pub fn churn(&self, slots: &[String]) -> f64 {
        if self.total_items == 0 {
            return 0.0;
        }
        let conforming: u64 = self
            .fields
            .iter()
            .filter(|f| slots.iter().any(|s| s == &f.name))
            .map(|f| f.present)
            .sum();
        1.0 - conforming as f64 / self.total_items as f64
    }

    /// Widen this schema with another: union of fields (this schema's order
    /// first), summed counts, lattice-joined types. Used when merging
    /// compacted components so the merged schema never narrows.
    pub fn widen(&self, other: &InferredSchema) -> InferredSchema {
        let mut fields = self.fields.clone();
        for of in &other.fields {
            if let Some(f) = fields.iter_mut().find(|f| f.name == of.name) {
                f.present += of.present;
                f.nulls += of.nulls;
                f.ty = f.ty.join_type(of.ty);
                f.shape = f.shape.widen(&of.shape);
            } else {
                fields.push(of.clone());
            }
        }
        InferredSchema {
            fields,
            records: self.records + other.records,
            opaque_rows: self.opaque_rows + other.opaque_rows,
            total_items: self.total_items + other.total_items,
        }
    }
}

/// Flag on a [`same_shape`] entry: this position repeats a field name seen
/// earlier in the same record (only first occurrences count).
pub(crate) const REPEAT: u32 = 0x8000_0000;

/// Does `row`, split into `spans`, have exactly the field-name sequence that
/// `shape` (per position: index into `fields`, possibly [`REPEAT`]-flagged)
/// was resolved from? The last-seen-shape cache test: feeds repeat one shape
/// for thousands of records, so a hit replaces a hash lookup per field with
/// a short byte compare.
pub(crate) fn same_shape(
    row: &[u8],
    spans: &[FieldSpan],
    shape: &[u32],
    fields: &[FieldStats],
) -> bool {
    spans.len() == shape.len()
        && spans
            .iter()
            .zip(shape)
            .all(|(span, &i)| fields[(i & !REPEAT) as usize].name.as_bytes() == span.name(row))
}

/// The field names of `row`, or `None` when one is not UTF-8 (such a row is
/// opaque to the schema: it cannot be named in a header).
pub(crate) fn field_names<'a>(row: &'a [u8], spans: &[FieldSpan]) -> Option<Vec<&'a str>> {
    spans
        .iter()
        .map(|span| std::str::from_utf8(span.name(row)).ok())
        .collect()
}

/// Streaming schema inferencer: one [`observe`](SchemaBuilder::observe) call
/// per record of a component, then [`finish`](SchemaBuilder::finish).
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    pub(crate) schema: InferredSchema,
    /// Per field: every typed occurrence had the identical concrete type
    /// (`Stable(Double)` alone cannot tell `Double`s from `Int ⊔ Double`).
    /// The compacted encoder needs this to pick a fixed-width column.
    pub(crate) uniform: Vec<bool>,
    pub(crate) index: HashMap<String, u32>,
    /// Field indices of the previous record's positions, see [`same_shape`].
    shape: Vec<u32>,
    /// Scratch: the current record's fields, and a nested record's.
    spans: Vec<FieldSpan>,
    nested: Vec<FieldSpan>,
}

impl SchemaBuilder {
    /// Fresh builder with no observations.
    pub fn new() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Fold one binary ADM record into the running schema. Anything that is
    /// not a record — another value, or bytes that do not split into named
    /// fields — is counted as opaque (it always falls back to the residual
    /// section).
    pub fn observe(&mut self, row: &[u8]) {
        self.schema.records += 1;
        let mut spans = std::mem::take(&mut self.spans);
        let is_record = record_spans(row, &mut spans)
            && (same_shape(row, &spans, &self.shape, &self.schema.fields)
                || self.resolve(row, &spans));
        if !is_record {
            self.schema.opaque_rows += 1;
            self.schema.total_items += 1;
            self.spans = spans;
            return;
        }
        self.schema.total_items += spans.len() as u64;
        for (span, &idx) in spans.iter().zip(&self.shape) {
            // Duplicate field names inside one record: only the first
            // occurrence updates stats (it is the one `field()` resolves and
            // the one the compacted layout slots); later duplicates are
            // residual by fiat.
            if idx & REPEAT != 0 {
                continue;
            }
            let value = span.value(row);
            let f = &mut self.schema.fields[idx as usize];
            f.present += 1;
            match SlotType::of(value) {
                None => f.nulls += 1,
                Some(ty) => {
                    if matches!(f.ty, FieldType::Stable(seen) if seen != ty) {
                        self.uniform[idx as usize] = false;
                    }
                    f.ty = f.ty.join(ty);
                    if ty == SlotType::Record {
                        let split = record_spans(value, &mut self.nested);
                        f.shape.observe(value, split.then_some(&self.nested));
                    }
                }
            }
        }
        self.spans = spans;
    }

    /// Shape-cache miss: look every name up (creating new fields). `false`
    /// — with the cache emptied — when the row cannot be named.
    fn resolve(&mut self, row: &[u8], spans: &[FieldSpan]) -> bool {
        self.shape.clear();
        let Some(names) = field_names(row, spans) else {
            return false;
        };
        for name in names {
            let idx = match self.index.get(name) {
                Some(&i) => i,
                None => {
                    let i = self.schema.fields.len() as u32;
                    self.schema.fields.push(FieldStats::new(name));
                    self.uniform.push(true);
                    self.index.insert(name.to_string(), i);
                    i
                }
            };
            let repeat = self.shape.contains(&idx);
            self.shape.push(if repeat { idx | REPEAT } else { idx });
        }
        true
    }

    /// Seal the pass into an [`InferredSchema`].
    pub fn finish(self) -> InferredSchema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AdmValue;

    fn rec(fields: Vec<(&str, AdmValue)>) -> AdmValue {
        AdmValue::Record(
            fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        )
    }

    fn infer(rows: &[AdmValue]) -> InferredSchema {
        let mut b = SchemaBuilder::new();
        for r in rows {
            b.observe(&binary::encode_value(r));
        }
        b.finish()
    }

    #[test]
    fn int_widens_to_double_but_string_goes_mixed() {
        let s = infer(&[
            rec(vec![("n", AdmValue::Int(1)), ("m", AdmValue::Int(1))]),
            rec(vec![("n", AdmValue::Double(2.5)), ("m", AdmValue::Int(2))]),
            rec(vec![("n", AdmValue::Int(3)), ("m", "x".into())]),
        ]);
        assert_eq!(s.fields[0].ty, FieldType::Stable(SlotType::Double));
        assert_eq!(s.fields[1].ty, FieldType::Mixed);
    }

    #[test]
    fn nulls_mark_nullable_without_disturbing_type() {
        let s = infer(&[
            rec(vec![("a", AdmValue::Int(1))]),
            rec(vec![("a", AdmValue::Null)]),
            rec(vec![("a", AdmValue::Int(2))]),
        ]);
        assert_eq!(s.fields[0].ty, FieldType::Stable(SlotType::Int));
        assert_eq!(s.fields[0].nulls, 1);
        assert_eq!(s.fields[0].present, 3);
    }

    #[test]
    fn slot_fields_respect_presence_threshold_and_mixed() {
        let mut rows: Vec<AdmValue> = (0..10)
            .map(|i| rec(vec![("id", AdmValue::Int(i)), ("txt", "hello".into())]))
            .collect();
        rows[3].set_field("rare", AdmValue::Int(9));
        rows[4].set_field("flip", AdmValue::Int(0));
        rows[5].set_field("flip", "no".into());
        let s = infer(&rows);
        let slots = s.slot_fields(0.5);
        assert_eq!(slots, vec!["id".to_string(), "txt".to_string()]);
        // churn: 2 occurrences of `flip` + 1 of `rare` out of 23 items
        let churn = s.churn(&slots);
        assert!((churn - 3.0 / 23.0).abs() < 1e-9, "churn {churn}");
    }

    #[test]
    fn opaque_rows_drive_churn_to_one() {
        let s = infer(&["a".into(), "b".into()]);
        assert_eq!(s.opaque_rows, 2);
        assert_eq!(s.churn(&s.slot_fields(0.5)), 1.0);
    }

    #[test]
    fn uniform_nested_shape_survives_until_divergence() {
        let user = |n: &str| rec(vec![("name", n.into()), ("lang", "en".into())]);
        let mut rows = vec![rec(vec![("u", user("a"))]), rec(vec![("u", user("b"))])];
        let s = infer(&rows);
        assert_eq!(
            s.fields[0].shape,
            RecordShape::Uniform(vec!["name".into(), "lang".into()])
        );
        rows.push(rec(vec![("u", rec(vec![("name", "c".into())]))]));
        let s = infer(&rows);
        assert_eq!(s.fields[0].shape, RecordShape::Divergent);
    }

    #[test]
    fn widen_unions_fields_and_joins_types() {
        let a = infer(&[rec(vec![("x", AdmValue::Int(1)), ("y", "s".into())])]);
        let b = infer(&[rec(vec![
            ("x", AdmValue::Double(0.5)),
            ("z", AdmValue::Boolean(true)),
        ])]);
        let w = a.widen(&b);
        let names: Vec<&str> = w.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        assert_eq!(w.fields[0].ty, FieldType::Stable(SlotType::Double));
        assert_eq!(w.fields[0].present, 2);
        assert_eq!(w.records, 2);
    }

    #[test]
    fn duplicate_field_names_count_once_for_stats_but_all_for_items() {
        let v = AdmValue::Record(vec![
            ("a".into(), AdmValue::Int(1)),
            ("a".into(), "two".into()),
        ]);
        let s = infer(&[v]);
        assert_eq!(s.fields[0].present, 1);
        assert_eq!(s.fields[0].ty, FieldType::Stable(SlotType::Int));
        assert_eq!(s.total_items, 2);
    }
}
