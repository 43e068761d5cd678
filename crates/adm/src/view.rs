//! Reading and rewriting a record in place of its bytes.
//!
//! A function that reads a field or two of a record and attaches a derived
//! field — a feed's UDF, an enrichment step — need not build the record's
//! tree. [`RecordView`] runs the checked walk over the binary ADM once and
//! keeps the top-level field spans it passed; a field is then a lookup among
//! them, decoded on its own ([`RecordView::field`]) or borrowed in place
//! ([`RecordView::str`]). [`RecordPatch`] collects what the function writes
//! and [`RecordPatch::write`] produces the new record: the input's bytes
//! copied span by span, a replaced field's value swapped for its new
//! encoding, new fields appended. The output is byte for byte what
//! [`encode_value`](crate::binary::encode_value) writes for the record
//! [`AdmValue::set_field`] would have built.

use crate::binary::{checked_spans, decode_value, encode_into, encode_str, FieldSpan};
use crate::binary::{TAG_MISSING, TAG_RECORD, TAG_STRING};
use crate::value::AdmValue;
use asterix_common::{IngestError, IngestResult};

/// A well-formed binary ADM value read through its top-level fields. Any
/// value views; a non-record simply has no fields.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    bytes: &'a [u8],
    spans: &'a [FieldSpan],
}

impl<'a> RecordView<'a> {
    /// View `bytes` after the checked walk ([`checked_spans`]), which fails
    /// exactly when [`validate`](crate::binary::validate) does. The span
    /// table goes into `spans`, which the caller keeps for the next record,
    /// so a view allocates nothing once it has grown.
    pub fn new(bytes: &'a [u8], spans: &'a mut Vec<FieldSpan>) -> IngestResult<RecordView<'a>> {
        checked_spans(bytes, spans)?;
        Ok(RecordView { bytes, spans })
    }

    /// Is the viewed value a record?
    pub fn is_record(&self) -> bool {
        self.bytes[0] == TAG_RECORD
    }

    /// Is the viewed value `missing`?
    pub fn is_missing(&self) -> bool {
        self.bytes == [TAG_MISSING]
    }

    /// The first occurrence of `name`, as `AdmValue::field` finds it.
    fn first(&self, name: &[u8]) -> Option<&'a FieldSpan> {
        self.spans.iter().find(|s| s.name(self.bytes) == name)
    }

    /// The first `name` field, borrowed from the bytes; `None` when it is
    /// absent or not a string.
    pub fn str(&self, name: &str) -> Option<&'a str> {
        match self.first(name.as_bytes())?.value(self.bytes) {
            [TAG_STRING, _, _, _, _, text @ ..] => std::str::from_utf8(text).ok(),
            _ => None,
        }
    }

    /// The first `name` field, decoded on its own.
    pub fn field(&self, name: &str) -> Option<AdmValue> {
        decode_value(self.first(name.as_bytes())?.value(self.bytes)).ok()
    }
}

/// One field a patch sets: `cells[start..name_end]` is its length-prefixed
/// name, `cells[name_end..end]` its encoded value.
#[derive(Debug, Clone, Copy)]
struct Cell {
    start: usize,
    name_end: usize,
    end: usize,
}

/// The top-level fields a function writes into a viewed record. Empty means
/// "unchanged". Reused across records: [`RecordPatch::clear`] keeps its
/// buffers.
#[derive(Debug, Default)]
pub struct RecordPatch {
    cells: Vec<u8>,
    sets: Vec<Cell>,
}

impl RecordPatch {
    /// An empty patch.
    pub fn new() -> RecordPatch {
        RecordPatch::default()
    }

    /// Forget every field set, keeping the buffers.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.sets.clear();
    }

    /// Does the patch leave the record as it is?
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    fn name<'c>(&'c self, cell: &Cell) -> &'c [u8] {
        &self.cells[cell.start + 4..cell.name_end]
    }

    /// Set field `name` to `value` with [`AdmValue::set_field`]'s meaning:
    /// the record's first `name` field gets the new value in place, or the
    /// field is appended when the record has none. Setting a name twice
    /// keeps the later value.
    pub fn set(&mut self, name: &str, value: &AdmValue) {
        let start = self.cells.len();
        encode_str(name, &mut self.cells);
        let name_end = self.cells.len();
        encode_into(value, &mut self.cells);
        let cell = Cell {
            start,
            name_end,
            end: self.cells.len(),
        };
        match self
            .sets
            .iter()
            .position(|c| self.name(c) == name.as_bytes())
        {
            Some(i) => self.sets[i] = cell,
            None => self.sets.push(cell),
        }
    }

    /// Append to `out` the record `view` becomes under this patch: the
    /// input's field entries copied in order with each replaced value
    /// swapped, then the appended fields, under the new field count. A
    /// non-empty patch over a value that is not a record is a soft error.
    pub fn write(&self, view: &RecordView<'_>, out: &mut Vec<u8>) -> IngestResult<()> {
        if !view.is_record() {
            return Err(IngestError::soft("a record patch over a non-record value"));
        }
        let bytes = view.bytes;
        let mut count = view.spans.len();
        out.push(TAG_RECORD);
        let count_at = out.len();
        out.extend_from_slice(&[0; 4]);
        // the tag and count are rewritten; everything else is copied up to
        // each replaced value
        let mut copied = 5;
        for (i, span) in view.spans.iter().enumerate() {
            let name = span.name(bytes);
            let Some(cell) = self.sets.iter().find(|c| self.name(c) == name) else {
                continue;
            };
            if view.spans[..i].iter().any(|s| s.name(bytes) == name) {
                continue;
            }
            let value = span.value_range();
            out.extend_from_slice(&bytes[copied..value.start]);
            out.extend_from_slice(&self.cells[cell.name_end..cell.end]);
            copied = value.end;
        }
        out.extend_from_slice(&bytes[copied..]);
        for cell in &self.sets {
            if view.first(self.name(cell)).is_none() {
                out.extend_from_slice(&self.cells[cell.start..cell.end]);
                count += 1;
            }
        }
        let count = u32::try_from(count)
            .map_err(|_| IngestError::soft("a record patch past 2^32 fields"))?;
        out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::encode_value;

    /// `set_field` of every `(name, value)` on the tree, against the patch
    /// over the bytes.
    fn agree(record: &AdmValue, sets: &[(&str, AdmValue)]) {
        let bytes = encode_value(record);
        let mut spans = Vec::new();
        let view = RecordView::new(&bytes, &mut spans).unwrap();
        let mut patch = RecordPatch::new();
        let mut tree = record.clone();
        for (name, value) in sets {
            patch.set(name, value);
            tree.set_field(name, value.clone());
        }
        let mut out = b"held".to_vec();
        patch.write(&view, &mut out).unwrap();
        assert_eq!(&out[..4], b"held");
        assert_eq!(&out[4..], &encode_value(&tree)[..], "{record:?} {sets:?}");
    }

    #[test]
    fn a_patch_writes_what_set_field_builds() {
        let dup = AdmValue::Record(vec![
            ("a".into(), AdmValue::Int(1)),
            ("b".into(), "x".into()),
            ("a".into(), AdmValue::Int(2)),
        ]);
        agree(&dup, &[("c", AdmValue::Double(0.5))]);
        agree(&dup, &[("a", AdmValue::Null)]);
        agree(&dup, &[("b", AdmValue::record(vec![("n", 1.into())]))]);
        agree(&dup, &[("c", 1.into()), ("a", "y".into()), ("c", 2.into())]);
        agree(&dup, &[]);
        agree(&AdmValue::Record(vec![]), &[("z", AdmValue::Missing)]);
    }

    #[test]
    fn a_view_reads_first_occurrences_and_non_records_have_no_fields() {
        let dup = AdmValue::Record(vec![
            ("s".into(), AdmValue::Int(1)),
            ("s".into(), "later".into()),
            ("t".into(), "text".into()),
        ]);
        let bytes = encode_value(&dup);
        let mut spans = Vec::new();
        let view = RecordView::new(&bytes, &mut spans).unwrap();
        assert!(view.is_record() && !view.is_missing());
        assert_eq!(view.str("s"), None, "the first `s` is no string");
        assert_eq!(view.field("s"), Some(AdmValue::Int(1)));
        assert_eq!(view.str("t"), Some("text"));
        assert_eq!(view.field("absent"), None);

        let scalar = encode_value(&"t".into());
        let view = RecordView::new(&scalar, &mut spans).unwrap();
        assert!(!view.is_record());
        assert_eq!(view.str("t"), None);
        let mut patch = RecordPatch::new();
        patch.set("t", &AdmValue::Null);
        assert!(patch.write(&view, &mut Vec::new()).unwrap_err().is_soft());

        let missing = encode_value(&AdmValue::Missing);
        assert!(RecordView::new(&missing, &mut spans).unwrap().is_missing());
        assert!(RecordView::new(&bytes[..bytes.len() - 1], &mut spans).is_err());
    }
}
