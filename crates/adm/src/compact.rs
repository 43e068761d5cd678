//! Compacted (columnar-ish) block layout for sealed LSM components.
//!
//! A sealed component holds a batch of open ADM records. Storing each one
//! fully self-describing repeats every field name and type tag per record —
//! the "schema tax" the LSM-based tuple-compaction approach removes. This
//! module is the storage half of that idea: given the rows of a component —
//! binary ADM records, exactly as the memtable holds them — and the slot
//! fields chosen from an [`InferredSchema`](crate::schema), [`BlockBuilder`]
//! lays the component out as
//!
//! * a **schema header** — slot field names, per-field encoding and lattice
//!   stats, written once per component instead of once per record;
//! * one **column** per slot field — values stored contiguously so a
//!   single-field scan touches one stride of bytes;
//! * a sparse **residual section** — fields outside the schema (and whole
//!   non-record values), binary-encoded with the ordinary
//!   [`binary`](crate::binary) codec;
//! * a **shape section** — per-record field order for the rare records whose
//!   field order deviates from canonical (slots in schema order, then
//!   residual fields), so `materialize(row)` rebuilds every record
//!   **bit-exactly**, duplicates and field order included.
//!
//! Column encodings, picked per field from what the rows actually contain:
//!
//! | enc | name      | layout per row                                      |
//! |-----|-----------|-----------------------------------------------------|
//! | 0   | tagged    | offsets + binary-codec value; empty span = absent   |
//! | 1   | int64     | 8 bytes LE (present in all rows, uniform type)      |
//! | 2   | double    | 8 bytes LE bits                                     |
//! | 3   | datetime  | 8 bytes LE                                          |
//! | 4   | boolean   | 1 byte                                              |
//! | 5   | point     | 16 bytes LE                                         |
//! | 6   | string    | offsets + raw UTF-8 (no tag, no length prefix)      |
//! | 7   | record    | offsets + concatenated binary subvalues; the nested |
//! |     |           | field-name sequence is hoisted into the header      |
//!
//! Encoding 7 is what pays for tweets: the nested `user` record's six field
//! names are written once per component instead of once per record.
//!
//! Blocks are built two ways only. [`BlockBuilder`] is the one row encoder:
//! it infers the schema and writes the image in two row-major walks over the
//! records' bytes — every cell of the image is a sub-slice of the record it
//! came from (minus the tag or length prefix the column's encoding implies),
//! so sealing copies bytes and never builds a value. [`CompactedBlock::copy_rows`] is the merge path: when every
//! input block has the same slots and encodings it assembles the merged
//! image from the inputs' cell bytes without decoding a value.
//! [`CompactedBlock::from_bytes`] parses and validates a foreign image.
//!
//! The corresponding *uncompacted* layout is [`OpenBlock`]: one
//! binary-codec record per row behind an offset table. Components whose
//! schema churn defeats inference fall back to it wholesale.

use crate::binary::{self, decode_field_at, decode_prefix, decode_value, record_spans, FieldSpan};
use crate::pred::Val;
use crate::schema::{
    field_names, same_shape, FieldType, InferredSchema, RecordShape, SchemaBuilder, SlotType,
};
use crate::value::AdmValue;
use asterix_common::{IngestError, IngestResult};

const MAGIC: &[u8; 4] = b"ACB1";
/// High bit of a shape item: set = residual-field ordinal, clear = slot index.
const RESIDUAL_BIT: u32 = 0x8000_0000;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Encoding {
    Tagged,
    FixedInt,
    FixedDouble,
    FixedDateTime,
    FixedBool,
    FixedPoint,
    Str,
    RecFixed(Vec<String>),
}

impl Encoding {
    /// The `enc` byte of the module-level table.
    fn tag(&self) -> u8 {
        match self {
            Encoding::Tagged => 0,
            Encoding::FixedInt => 1,
            Encoding::FixedDouble => 2,
            Encoding::FixedDateTime => 3,
            Encoding::FixedBool => 4,
            Encoding::FixedPoint => 5,
            Encoding::Str => 6,
            Encoding::RecFixed(_) => 7,
        }
    }

    /// Fixed row width, or `None` for the offset-delimited encodings.
    fn width(&self) -> Option<usize> {
        match self {
            Encoding::FixedInt | Encoding::FixedDouble | Encoding::FixedDateTime => Some(8),
            Encoding::FixedBool => Some(1),
            Encoding::FixedPoint => Some(16),
            _ => None,
        }
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Header byte of each lattice position: its index in this table.
const FIELD_TYPES: [FieldType; 11] = [
    FieldType::Stable(SlotType::Boolean),
    FieldType::Stable(SlotType::Int),
    FieldType::Stable(SlotType::Double),
    FieldType::Stable(SlotType::String),
    FieldType::Stable(SlotType::Point),
    FieldType::Stable(SlotType::DateTime),
    FieldType::Stable(SlotType::OrderedList),
    FieldType::Stable(SlotType::UnorderedList),
    FieldType::Stable(SlotType::Record),
    FieldType::Mixed,
    FieldType::Empty,
];

fn bad<T>(what: impl std::fmt::Display) -> IngestResult<T> {
    Err(IngestError::Parse(format!("compacted block: {what}")))
}

#[derive(Debug, Clone, PartialEq)]
struct FieldMeta {
    name: String,
    encoding: Encoding,
    ty: FieldType,
    present: u64,
    nulls: u64,
    /// Var-width columns: byte position of the `(records + 1)` offset words.
    offsets_pos: usize,
    data_pos: usize,
    data_len: usize,
}

impl FieldMeta {
    /// A slot whose column has yet to be placed in an image.
    fn new(name: &str, encoding: Encoding, ty: FieldType, present: u64, nulls: u64) -> Self {
        FieldMeta {
            name: name.to_string(),
            encoding,
            ty,
            present,
            nulls,
            offsets_pos: 0,
            data_pos: 0,
            data_len: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ResidualMeta {
    row: u32,
    /// `true`: payload is the whole (non-record) row value; `false`: payload
    /// is a record of the row's leftover (non-slot) fields in row order.
    whole: bool,
    start: usize,
    len: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct ShapeMeta {
    row: u32,
    items: Vec<u32>,
}

/// A component encoded in the compacted, schema-headed columnar layout.
///
/// Holds the flat byte image plus parsed section offsets, so per-field and
/// per-row accessors are slice arithmetic + leaf decode only.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactedBlock {
    bytes: Vec<u8>,
    records: u32,
    total_items: u64,
    opaque_rows: u32,
    fields: Vec<FieldMeta>,
    residual: Vec<ResidualMeta>,
    shapes: Vec<ShapeMeta>,
}

impl CompactedBlock {
    /// Same slot names, in the same order, under the same encodings (nested
    /// field-name lists included)? Cells of such blocks are interchangeable
    /// byte for byte, which is what lets a merge copy them.
    pub fn same_layout(&self, other: &CompactedBlock) -> bool {
        let layout = |f: &FieldMeta, g: &FieldMeta| f.name == g.name && f.encoding == g.encoding;
        self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(&other.fields)
                .all(|(f, g)| layout(f, g))
    }

    /// The bytes of one column cell (empty = absent, tagged columns only).
    fn cell(&self, meta: &FieldMeta, row: usize) -> &[u8] {
        match meta.encoding.width() {
            Some(w) => &self.bytes[meta.data_pos + w * row..][..w],
            None => {
                let start = read_u32_at(&self.bytes, meta.offsets_pos + 4 * row) as usize;
                let end = read_u32_at(&self.bytes, meta.offsets_pos + 4 * (row + 1)) as usize;
                &self.bytes[meta.data_pos + start..meta.data_pos + end]
            }
        }
    }

    /// Build the block holding `picks` — `(input, row)` pairs in output row
    /// order — by copying cell byte-slices column by column out of `inputs`
    /// straight into the new image, never decoding a value. `None` unless
    /// every input has the [same layout](CompactedBlock::same_layout) (the
    /// caller then re-encodes through [`BlockBuilder`]) and every pick is in
    /// range.
    ///
    /// The header is widen-only: field types come from
    /// [`InferredSchema::widen`] over the inputs' headers, so a merge never
    /// narrows a type even when the rows that widened it were dropped, while
    /// `records`/`present`/`nulls`/`total_items`/`opaque_rows` are recounted
    /// exactly over the picked rows.
    pub fn copy_rows(inputs: &[&CompactedBlock], picks: &[(u32, u32)]) -> Option<CompactedBlock> {
        let (first, rest) = inputs.split_first()?;
        let in_range =
            |&(i, row): &(u32, u32)| inputs.get(i as usize).is_some_and(|b| row < b.records);
        if !rest.iter().all(|b| b.same_layout(first)) || !picks.iter().all(in_range) {
            return None;
        }
        let n = picks.len();
        let widened = rest
            .iter()
            .fold(first.schema(), |acc, b| acc.widen(&b.schema()));
        // only a tagged cell can be absent or null: those columns recount
        let mut fields: Vec<FieldMeta> = first
            .fields
            .iter()
            .zip(&widened.fields)
            .map(|(f, stats)| FieldMeta::new(&f.name, f.encoding.clone(), stats.ty, n as u64, 0))
            .collect();
        let mut bytes = Vec::with_capacity(inputs.iter().map(|b| b.bytes.len()).sum());
        // a placeholder: the counts are fixed-width, so the real header
        // overwrites it byte for byte once they are known
        write_header(&mut bytes, 0, 0, 0, &fields);
        for (fi, meta) in fields.iter_mut().enumerate() {
            let (var, tagged) = (
                meta.encoding.width().is_none(),
                meta.encoding == Encoding::Tagged,
            );
            if var {
                meta.offsets_pos = bytes.len();
                // offset words (the first stays 0) + the data length word
                bytes.resize(bytes.len() + 4 * (n + 2), 0);
            }
            if tagged {
                meta.present = 0;
            }
            meta.data_pos = bytes.len();
            for (out_row, &(i, row)) in picks.iter().enumerate() {
                let input = inputs[i as usize];
                let cell = input.cell(&input.fields[fi], row as usize);
                bytes.extend_from_slice(cell);
                if var {
                    let end = (bytes.len() - meta.data_pos) as u32;
                    write_u32_at(&mut bytes, meta.offsets_pos + 4 * (out_row + 1), end);
                }
                if let (true, Some(&tag)) = (tagged, cell.first()) {
                    meta.present += 1;
                    meta.nulls += u64::from(tag == binary::TAG_NULL || tag == binary::TAG_MISSING);
                }
            }
            meta.data_len = bytes.len() - meta.data_pos;
            if var {
                write_u32_at(
                    &mut bytes,
                    meta.offsets_pos + 4 * (n + 1),
                    meta.data_len as u32,
                );
            }
        }
        let (mut residual, mut shapes) = (Vec::new(), Vec::new());
        let (mut opaque_rows, mut total_items) = (0, fields.iter().map(|f| f.present).sum());
        let count_pos = bytes.len();
        push_u32(&mut bytes, 0);
        for (out_row, &(i, row)) in picks.iter().enumerate() {
            let input = inputs[i as usize];
            if let Some(m) = input.residual_for(row) {
                let payload = &input.bytes[m.start..m.start + m.len];
                // an opaque row is one item; a leftover record (tag, u32
                // count, fields) is as many as it holds
                total_items += match payload.get(1..5) {
                    Some(count) if !m.whole => u64::from(read_u32_at(count, 0)),
                    _ => u64::from(m.whole),
                };
                opaque_rows += u32::from(m.whole);
                residual.push(push_residual(&mut bytes, out_row as u32, m.whole, |out| {
                    out.extend_from_slice(payload)
                }));
            }
            if let Some(shape) = input.shape_for(row) {
                shapes.push(ShapeMeta {
                    row: out_row as u32,
                    items: shape.items.clone(),
                });
            }
        }
        write_u32_at(&mut bytes, count_pos, residual.len() as u32);
        write_shapes(&mut bytes, &shapes);
        let mut header = Vec::new();
        write_header(&mut header, n as u32, total_items, opaque_rows, &fields);
        bytes[..header.len()].copy_from_slice(&header);
        Some(CompactedBlock {
            bytes,
            records: n as u32,
            total_items,
            opaque_rows,
            fields,
            residual,
            shapes,
        })
    }

    /// Parse a compacted block from its byte image, validating section
    /// structure (magic, offset monotonicity, spans in bounds).
    pub fn from_bytes(bytes: Vec<u8>) -> IngestResult<CompactedBlock> {
        let mut c = Cursor {
            buf: &bytes,
            pos: 0,
        };
        if c.take(4)? != MAGIC {
            return bad("bad magic");
        }
        let records = c.u32()?;
        let total_items = c.u64()?;
        let opaque_rows = c.u32()?;
        let mut fields = Vec::new();
        for _ in 0..c.count()? {
            let name = c.string()?;
            let tag = c.u8()?;
            let ty = match FIELD_TYPES.get(c.u8()? as usize) {
                Some(ty) => *ty,
                None => return bad("unknown field type byte"),
            };
            let (present, nulls) = (c.u32()? as u64, c.u32()? as u64);
            let encoding = match tag {
                0 => Encoding::Tagged,
                1 => Encoding::FixedInt,
                2 => Encoding::FixedDouble,
                3 => Encoding::FixedDateTime,
                4 => Encoding::FixedBool,
                5 => Encoding::FixedPoint,
                6 => Encoding::Str,
                7 => Encoding::RecFixed(
                    (0..c.count()?)
                        .map(|_| c.string())
                        .collect::<IngestResult<_>>()?,
                ),
                other => return bad(format!("unknown encoding tag {other}")),
            };
            fields.push(FieldMeta::new(&name, encoding, ty, present, nulls));
        }
        for meta in &mut fields {
            if let Some(w) = meta.encoding.width() {
                meta.data_len = w * records as usize;
            } else {
                meta.offsets_pos = c.pos;
                c.take(4 * (records as usize + 1))?;
                meta.data_len = c.u32()? as usize;
                let last = read_u32_at(&bytes, meta.offsets_pos + 4 * records as usize);
                if last as usize != meta.data_len {
                    return bad("offset table does not cover column data");
                }
            }
            meta.data_pos = c.pos;
            c.take(meta.data_len)?;
        }
        let mut residual: Vec<ResidualMeta> = Vec::new();
        for _ in 0..c.count()? {
            let (row, kind, len) = (c.u32()?, c.u8()?, c.u32()? as usize);
            let start = c.pos;
            c.take(len)?;
            if row >= records || kind > 1 || residual.last().is_some_and(|p| p.row >= row) {
                return bad("residual entry out of range or rows not ascending");
            }
            residual.push(ResidualMeta {
                row,
                whole: kind == 1,
                start,
                len,
            });
        }
        let mut shapes: Vec<ShapeMeta> = Vec::new();
        for _ in 0..c.count()? {
            let row = c.u32()?;
            let items = (0..c.count()?)
                .map(|_| c.u32())
                .collect::<IngestResult<_>>()?;
            if row >= records || shapes.last().is_some_and(|p| p.row >= row) {
                return bad("shape entry out of range or rows not ascending");
            }
            shapes.push(ShapeMeta { row, items });
        }
        if c.pos != bytes.len() {
            return bad(format!("{} trailing bytes", bytes.len() - c.pos));
        }
        Ok(CompactedBlock {
            bytes,
            records,
            total_items,
            opaque_rows,
            fields,
            residual,
            shapes,
        })
    }

    /// Number of records in the block.
    pub fn records(&self) -> usize {
        self.records as usize
    }

    /// Size of the encoded image — the disk-equivalent component footprint.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The raw encoded image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Slot field names in schema order.
    pub fn slot_names(&self) -> Vec<String> {
        self.fields.iter().map(|f| f.name.clone()).collect()
    }

    /// Number of residual entries (rows carrying open fields or opaque
    /// values) — the block's realized churn.
    pub fn residual_entries(&self) -> usize {
        self.residual.len()
    }

    /// Reconstruct the slot-field half of the inferred schema from the
    /// header (stats for residual-only fields are not stored).
    pub fn schema(&self) -> InferredSchema {
        InferredSchema {
            fields: self
                .fields
                .iter()
                .map(|f| crate::schema::FieldStats {
                    name: f.name.clone(),
                    present: f.present,
                    nulls: f.nulls,
                    ty: f.ty,
                    shape: match &f.encoding {
                        Encoding::RecFixed(sub) => RecordShape::Uniform(sub.clone()),
                        _ => RecordShape::Unseen,
                    },
                })
                .collect(),
            records: self.records as u64,
            opaque_rows: self.opaque_rows as u64,
            total_items: self.total_items,
        }
    }

    fn residual_for(&self, row: u32) -> Option<&ResidualMeta> {
        self.residual
            .binary_search_by(|m| m.row.cmp(&row))
            .ok()
            .map(|i| &self.residual[i])
    }

    fn shape_for(&self, row: u32) -> Option<&ShapeMeta> {
        self.shapes
            .binary_search_by(|m| m.row.cmp(&row))
            .ok()
            .map(|i| &self.shapes[i])
    }

    fn residual_value(&self, meta: &ResidualMeta) -> Option<AdmValue> {
        decode_value(&self.bytes[meta.start..meta.start + meta.len]).ok()
    }

    /// One field of a row's residual record (or of an opaque record row).
    fn residual_field(&self, meta: &ResidualMeta, name: &str) -> Option<AdmValue> {
        match self.residual_value(meta)? {
            AdmValue::Record(fields) => fields.into_iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The slot holding the field `name`, if the header has one.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field names of slot `fi`'s hoisted records, when its column
    /// holds them.
    pub(crate) fn nested_names(&self, fi: usize) -> Option<&[String]> {
        match &self.fields[fi].encoding {
            Encoding::RecFixed(names) => Some(names),
            _ => None,
        }
    }

    /// Slot `fi`'s cell in `row`, read in place under the column's
    /// encoding. A slot field's first occurrence always lives in its column,
    /// so an absent cell (`None`) means the row lacks the field. (So does a
    /// tagged cell of an unknown type, which the write path's checked walk
    /// keeps out of every image.)
    pub(crate) fn cell_at(&self, fi: usize, row: usize) -> Option<Val<'_>> {
        let meta = &self.fields[fi];
        cell_val(&meta.encoding, self.cell(meta, row))
    }

    /// Slot `fi`'s cells in row order, each as [`CompactedBlock::cell_at`]
    /// reads it, in one pass over the column's stride: its fixed-width
    /// cells, or its offset table and data. A row whose offsets do not
    /// delimit a cell of the data is not visited.
    pub(crate) fn for_each_cell<'s>(
        &'s self,
        fi: usize,
        mut visit: impl FnMut(usize, Option<Val<'s>>),
    ) {
        let meta = &self.fields[fi];
        let n = self.records as usize;
        let data = &self.bytes[meta.data_pos..meta.data_pos + meta.data_len];
        match meta.encoding.width() {
            Some(w) => {
                for (row, cell) in data.chunks_exact(w).take(n).enumerate() {
                    visit(row, cell_val(&meta.encoding, cell));
                }
            }
            None => {
                let offsets = &self.bytes[meta.offsets_pos..meta.offsets_pos + 4 * (n + 1)];
                let mut start = read_u32_at(offsets, 0) as usize;
                for (row, end) in offsets[4..].chunks_exact(4).enumerate() {
                    let end = u32::from_le_bytes(end.try_into().expect("4-byte offset")) as usize;
                    if let Some(cell) = data.get(start..end) {
                        visit(row, cell_val(&meta.encoding, cell));
                    }
                    start = end;
                }
            }
        }
    }

    /// The rows carried whole in the residual: values that are not sound
    /// records.
    pub(crate) fn opaque_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.residual
            .iter()
            .filter(|m| m.whole)
            .map(|m| m.row as usize)
    }

    /// The residual of `row`: `(true, value)` for an opaque row carried
    /// whole, `(false, record)` for the record of its leftover fields, `None`
    /// when every field of the row is in a column.
    pub(crate) fn residual_at(&self, row: usize) -> Option<(bool, &[u8])> {
        let meta = self.residual_for(u32::try_from(row).ok()?)?;
        Some((meta.whole, &self.bytes[meta.start..meta.start + meta.len]))
    }

    /// Decode one column cell. `None` = field absent in that row.
    fn column_value(&self, fi: usize, row: usize) -> Option<AdmValue> {
        let meta = &self.fields[fi];
        let cell = self.cell(meta, row);
        let word = |at: usize| -> Option<[u8; 8]> { cell.get(at..at + 8)?.try_into().ok() };
        Some(match &meta.encoding {
            Encoding::Tagged if cell.is_empty() => return None,
            Encoding::Tagged => decode_value(cell).ok()?,
            Encoding::FixedInt => AdmValue::Int(i64::from_le_bytes(word(0)?)),
            Encoding::FixedDouble => AdmValue::Double(f64::from_le_bytes(word(0)?)),
            Encoding::FixedDateTime => AdmValue::DateTime(i64::from_le_bytes(word(0)?)),
            Encoding::FixedBool => AdmValue::Boolean(cell[0] != 0),
            Encoding::FixedPoint => {
                AdmValue::Point(f64::from_le_bytes(word(0)?), f64::from_le_bytes(word(8)?))
            }
            Encoding::Str => AdmValue::String(std::str::from_utf8(cell).ok()?.to_string()),
            Encoding::RecFixed(names) => rec_value(cell, names)?,
        })
    }

    /// Lazily materialize one field of one row — the vectorized scan
    /// primitive. Slot fields cost one column-cell decode; open fields fall
    /// back to the row's residual record. `None` = absent.
    pub fn field_value(&self, row: usize, name: &str) -> Option<AdmValue> {
        let mut value = AdmValue::Missing;
        self.field_into(row, name, &mut value).then_some(value)
    }

    /// [`CompactedBlock::field_value`] into `dst`, reusing its string buffer
    /// when both are strings. `false` (and `dst` untouched) = absent.
    pub fn field_into(&self, row: usize, name: &str, dst: &mut AdmValue) -> bool {
        self.slot_into(row, self.slot(name), name, dst)
    }

    /// Each of `names` resolved against the header once: its slot, or
    /// `None` for a field read from the residual. A projection binds its
    /// field list so per component, and reads each row's cells with
    /// [`CompactedBlock::slot_into`] without comparing a name.
    pub fn slots_of(&self, names: &[String]) -> Vec<Option<usize>> {
        names.iter().map(|name| self.slot(name)).collect()
    }

    /// [`CompactedBlock::field_into`] of the field `name`, whose slot
    /// [`CompactedBlock::slots_of`] resolved to `slot`.
    pub fn slot_into(
        &self,
        row: usize,
        slot: Option<usize>,
        name: &str,
        dst: &mut AdmValue,
    ) -> bool {
        if row >= self.records as usize {
            return false;
        }
        let residual = self.residual_for(row as u32);
        match (residual.filter(|m| m.whole), slot) {
            (None, Some(fi)) => match &self.fields[fi].encoding {
                Encoding::Str => std::str::from_utf8(self.cell(&self.fields[fi], row))
                    .map(|s| dst.set_str(s))
                    .is_ok(),
                _ => self.column_value(fi, row).map(|v| *dst = v).is_some(),
            },
            _ => residual
                .and_then(|m| self.residual_field(m, name))
                .map(|v| *dst = v)
                .is_some(),
        }
    }

    /// Rebuild the full record for `row`, bit-exactly equal to the value the
    /// component was sealed with (field order and duplicates included).
    pub fn materialize(&self, row: usize) -> Option<AdmValue> {
        if row >= self.records as usize {
            return None;
        }
        let leftovers = match self.residual_for(row as u32) {
            Some(meta) if meta.whole => return self.residual_value(meta),
            Some(meta) => match self.residual_value(meta)? {
                AdmValue::Record(fields) => fields,
                _ => return None,
            },
            None => Vec::new(),
        };
        let slot = |fi: usize| Some((self.fields[fi].name.clone(), self.column_value(fi, row)?));
        let mut leftovers = leftovers.into_iter();
        let fields = match self.shape_for(row as u32) {
            Some(shape) => shape
                .items
                .iter()
                .map(|&item| match item & RESIDUAL_BIT {
                    0 => slot(item as usize),
                    _ => leftovers.next(),
                })
                .collect::<Option<Vec<_>>>()?,
            // canonical order: the slots present, then the leftovers
            None => (0..self.fields.len())
                .filter_map(slot)
                .chain(leftovers)
                .collect(),
        };
        Some(AdmValue::Record(fields))
    }
}

/// A column cell read in place under its column's encoding (`None`: the
/// row lacks the field).
fn cell_val<'a>(encoding: &'a Encoding, cell: &'a [u8]) -> Option<Val<'a>> {
    let word = |at: usize| -> [u8; 8] { cell[at..at + 8].try_into().expect("8-byte cell") };
    Some(match encoding {
        Encoding::Tagged if cell.is_empty() => return None,
        Encoding::Tagged => Val::of_bytes(cell).ok()?,
        Encoding::FixedInt => Val::Int(i64::from_le_bytes(word(0))),
        Encoding::FixedDouble => Val::Double(f64::from_le_bytes(word(0))),
        Encoding::FixedDateTime => Val::DateTime(i64::from_le_bytes(word(0))),
        Encoding::FixedBool => Val::Bool(cell[0] != 0),
        Encoding::FixedPoint => {
            Val::Point(f64::from_le_bytes(word(0)), f64::from_le_bytes(word(8)))
        }
        Encoding::Str => Val::Str(cell),
        Encoding::RecFixed(names) => Val::Rec(cell, names),
    })
}

/// The record a hoisted-record cell holds: `values` encoded back to back,
/// one per name. `None` when they do not split so.
pub(crate) fn rec_value(values: &[u8], names: &[String]) -> Option<AdmValue> {
    let mut rest = values;
    let mut fields = Vec::with_capacity(names.len());
    for name in names {
        let (v, r) = decode_prefix(rest).ok()?;
        fields.push((name.clone(), v));
        rest = r;
    }
    rest.is_empty().then_some(AdmValue::Record(fields))
}

/// Header: magic, counts, then per slot its name, encoding, lattice type and
/// stats (plus the hoisted nested names of a record column).
fn write_header(
    out: &mut Vec<u8>,
    records: u32,
    total_items: u64,
    opaque_rows: u32,
    fields: &[FieldMeta],
) {
    out.extend_from_slice(MAGIC);
    push_u32(out, records);
    push_u64(out, total_items);
    push_u32(out, opaque_rows);
    push_u32(out, fields.len() as u32);
    for f in fields {
        push_str(out, &f.name);
        out.push(f.encoding.tag());
        let ty = FIELD_TYPES.iter().position(|t| *t == f.ty);
        out.push(ty.expect("every lattice position is in the table") as u8);
        push_u32(out, f.present as u32);
        push_u32(out, f.nulls as u32);
        if let Encoding::RecFixed(sub) = &f.encoding {
            push_u32(out, sub.len() as u32);
            for name in sub {
                push_str(out, name);
            }
        }
    }
}

/// Append one residual entry (row, kind, length-prefixed payload); `write`
/// produces the payload in place.
fn push_residual(
    out: &mut Vec<u8>,
    row: u32,
    whole: bool,
    write: impl FnOnce(&mut Vec<u8>),
) -> ResidualMeta {
    push_u32(out, row);
    out.push(whole as u8);
    push_u32(out, 0);
    let start = out.len();
    write(out);
    let len = out.len() - start;
    write_u32_at(out, start - 4, len as u32);
    ResidualMeta {
        row,
        whole,
        start,
        len,
    }
}

fn write_shapes(out: &mut Vec<u8>, shapes: &[ShapeMeta]) {
    push_u32(out, shapes.len() as u32);
    for shape in shapes {
        push_u32(out, shape.row);
        push_u32(out, shape.items.len() as u32);
        for it in &shape.items {
            push_u32(out, *it);
        }
    }
}

/// One column being filled by [`BlockBuilder::encode`].
struct Column {
    /// `None`: fixed width, no offset table.
    offsets: Option<Vec<u32>>,
    data: Vec<u8>,
}

/// The resolved shape of the previous row in [`BlockBuilder::encode`].
struct RowShape {
    /// Per position: schema field index, as [`same_shape`] wants it.
    fields: Vec<u32>,
    /// Per position: slot index, or `RESIDUAL_BIT | ordinal` — the row's
    /// shape-section entry, should it need one.
    items: Vec<u32>,
    leftovers: usize,
    canonical: bool,
}

impl Default for RowShape {
    /// The shape of a record without fields.
    fn default() -> Self {
        RowShape {
            fields: Vec::new(),
            items: Vec::new(),
            leftovers: 0,
            canonical: true,
        }
    }
}

/// The one row encoder of the compacted layout: two row-major walks over a
/// component's records, each a binary ADM value (a row that is not a sound
/// record is opaque: it is carried whole in the residual).
/// [`infer`](BlockBuilder::infer) runs the schema inferencer (walk 1); the
/// caller picks slots from [`schema`](BlockBuilder::schema) and decides
/// whether the component is worth compacting;
/// [`encode`](BlockBuilder::encode) writes the image (walk 2). Both walks
/// resolve a row's fields through a last-seen-shape cache, so uniform feeds
/// pay no per-field hashing and no per-slot search.
pub struct BlockBuilder<'a> {
    rows: &'a [&'a [u8]],
    inferred: SchemaBuilder,
}

impl<'a> BlockBuilder<'a> {
    /// Walk 1: infer the schema of `rows` (key order of the component).
    pub fn infer(rows: &'a [&'a [u8]]) -> BlockBuilder<'a> {
        let mut inferred = SchemaBuilder::new();
        for row in rows {
            inferred.observe(row);
        }
        BlockBuilder { rows, inferred }
    }

    /// The inferred schema: input to the slot and churn decisions, and the
    /// source of the header stats.
    pub fn schema(&self) -> &InferredSchema {
        &self.inferred.schema
    }

    /// Pick the tightest encoding the rows allow for one field. Fixed and
    /// string/record encodings require the field present in *every* row with
    /// an exactly uniform value type — `Int` widened to `Double` in the
    /// lattice stays tagged, so it still round-trips bit-exactly.
    fn encoding_of(&self, fi: usize) -> Encoding {
        let f = &self.inferred.schema.fields[fi];
        let dense = f.present == self.inferred.schema.records && f.nulls == 0;
        match f.ty {
            FieldType::Stable(ty) if dense && self.inferred.uniform[fi] => match ty {
                SlotType::Int => Encoding::FixedInt,
                SlotType::Double => Encoding::FixedDouble,
                SlotType::DateTime => Encoding::FixedDateTime,
                SlotType::Boolean => Encoding::FixedBool,
                SlotType::Point => Encoding::FixedPoint,
                SlotType::String => Encoding::Str,
                SlotType::Record => match &f.shape {
                    RecordShape::Uniform(sub) => Encoding::RecFixed(sub.clone()),
                    _ => Encoding::Tagged,
                },
                SlotType::OrderedList | SlotType::UnorderedList => Encoding::Tagged,
            },
            _ => Encoding::Tagged,
        }
    }

    /// Walk 2: lay the rows out against `slots` (names of schema fields;
    /// unknown or repeated names get an all-absent column).
    pub fn encode(&self, slots: &[String]) -> CompactedBlock {
        let schema = &self.inferred.schema;
        let n = self.rows.len();
        // per schema field: its slot, or `RESIDUAL_BIT` for "not slotted"
        let mut slot_of = vec![RESIDUAL_BIT; schema.fields.len()];
        let mut fields = Vec::with_capacity(slots.len());
        let mut columns = Vec::with_capacity(slots.len());
        for (si, name) in slots.iter().enumerate() {
            let fi = self
                .inferred
                .index
                .get(name)
                .map(|&fi| fi as usize)
                .filter(|&fi| slot_of[fi] == RESIDUAL_BIT);
            let (encoding, ty, present, nulls) = match fi {
                Some(fi) => {
                    slot_of[fi] = si as u32;
                    let f = &schema.fields[fi];
                    (self.encoding_of(fi), f.ty, f.present, f.nulls)
                }
                None => (Encoding::Tagged, FieldType::Empty, 0, 0),
            };
            columns.push(match encoding.width() {
                Some(w) => Column {
                    offsets: None,
                    data: Vec::with_capacity(w * n),
                },
                None => {
                    let mut offsets = Vec::with_capacity(n + 1);
                    offsets.push(0);
                    Column {
                        offsets: Some(offsets),
                        data: Vec::new(),
                    }
                }
            });
            fields.push(FieldMeta::new(name, encoding, ty, present, nulls));
        }

        // residual entries are written in their final form; only their
        // position in the image is still unknown
        let mut residual_bytes = Vec::new();
        let mut residual = Vec::new();
        let mut shapes = Vec::new();
        let mut shape = RowShape::default();
        let (mut spans, mut nested) = (Vec::new(), Vec::new());
        for (ri, row) in self.rows.iter().enumerate() {
            // the verdict of walk 1, reached the same way
            let resolved = record_spans(row, &mut spans)
                && (same_shape(row, &spans, &shape.fields, &schema.fields)
                    || self.resolve(row, &spans, &slot_of, &mut shape));
            if resolved {
                for (span, &item) in spans.iter().zip(&shape.items) {
                    if item & RESIDUAL_BIT == 0 {
                        let si = item as usize;
                        let cell = &mut columns[si].data;
                        write_cell(&fields[si].encoding, span.value(row), &mut nested, cell);
                    }
                }
                if shape.leftovers > 0 {
                    residual.push(push_residual(
                        &mut residual_bytes,
                        ri as u32,
                        false,
                        |out| {
                            // the record's own encoding, minus the slotted
                            // fields
                            out.push(binary::TAG_RECORD);
                            push_u32(out, shape.leftovers as u32);
                            for (span, _) in spans
                                .iter()
                                .zip(&shape.items)
                                .filter(|(_, &item)| item & RESIDUAL_BIT != 0)
                            {
                                out.extend_from_slice(span.entry(row));
                            }
                        },
                    ));
                }
                if !shape.canonical {
                    shapes.push(ShapeMeta {
                        row: ri as u32,
                        items: shape.items.clone(),
                    });
                }
            } else {
                residual.push(push_residual(&mut residual_bytes, ri as u32, true, |out| {
                    out.extend_from_slice(row)
                }));
            }
            for column in &mut columns {
                if let Some(offsets) = &mut column.offsets {
                    offsets.push(column.data.len() as u32);
                }
            }
        }

        let body: usize = columns
            .iter()
            .map(|c| c.data.len() + c.offsets.as_ref().map_or(0, |o| 4 * o.len() + 4))
            .sum();
        let mut bytes = Vec::with_capacity(64 + 32 * fields.len() + body + residual_bytes.len());
        write_header(
            &mut bytes,
            n as u32,
            schema.total_items,
            schema.opaque_rows as u32,
            &fields,
        );
        for (meta, column) in fields.iter_mut().zip(&columns) {
            if let Some(offsets) = &column.offsets {
                meta.offsets_pos = bytes.len();
                for o in offsets {
                    push_u32(&mut bytes, *o);
                }
                push_u32(&mut bytes, column.data.len() as u32);
            }
            meta.data_pos = bytes.len();
            meta.data_len = column.data.len();
            bytes.extend_from_slice(&column.data);
        }
        push_u32(&mut bytes, residual.len() as u32);
        for meta in &mut residual {
            meta.start += bytes.len();
        }
        bytes.extend_from_slice(&residual_bytes);
        write_shapes(&mut bytes, &shapes);
        CompactedBlock {
            bytes,
            records: n as u32,
            total_items: schema.total_items,
            opaque_rows: schema.opaque_rows as u32,
            fields,
            residual,
            shapes,
        }
    }

    /// Shape-cache miss: resolve each field of `row` to its slot (first
    /// occurrence of a slotted field) or to the residual. `false` — with
    /// the cache emptied — for a row walk 1 counted opaque.
    fn resolve(
        &self,
        row: &[u8],
        spans: &[FieldSpan],
        slot_of: &[u32],
        shape: &mut RowShape,
    ) -> bool {
        *shape = RowShape::default();
        let Some(names) = field_names(row, spans) else {
            return false;
        };
        for name in names {
            let fi = self.inferred.index[name];
            let repeat = shape.fields.contains(&fi);
            shape.fields.push(fi);
            if repeat || slot_of[fi as usize] == RESIDUAL_BIT {
                shape.items.push(RESIDUAL_BIT | shape.leftovers as u32);
                shape.leftovers += 1;
            } else {
                shape.items.push(slot_of[fi as usize]);
            }
        }
        shape.canonical = canonical_order(&shape.items);
        true
    }
}

/// Append one encoded value to a column under the column's encoding: the
/// value's bytes minus whatever the encoding makes implicit (the tag, a
/// string's length prefix, a nested record's count and names). `value` is a
/// span of a record that split, so it is as long as its tag says.
fn write_cell(encoding: &Encoding, value: &[u8], nested: &mut Vec<FieldSpan>, out: &mut Vec<u8>) {
    match encoding {
        Encoding::Tagged => out.extend_from_slice(value),
        Encoding::Str => out.extend_from_slice(&value[5..]),
        Encoding::RecFixed(_) => {
            record_spans(value, nested);
            for sub in nested.iter() {
                out.extend_from_slice(sub.value(value));
            }
        }
        _ => out.extend_from_slice(&value[1..]),
    }
}

/// Canonical row order: slotted fields in ascending slot order, then all
/// residual fields. Rows in canonical order need no shape entry. Residual
/// items carry [`RESIDUAL_BIT`] and ascending ordinals, so this is exactly
/// "the items strictly ascend".
fn canonical_order(items: &[u32]) -> bool {
    items.windows(2).all(|w| w[0] < w[1])
}

fn read_u32_at(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("u32 in bounds"))
}

fn write_u32_at(bytes: &mut [u8], pos: usize, v: u32) {
    bytes[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> IngestResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return bad(format!("truncated input at byte {}", self.pos));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> IngestResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> IngestResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> IngestResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An element count: never more than the bytes left (every element is
    /// at least one byte), so garbage cannot drive an allocation.
    fn count(&mut self) -> IngestResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return bad(format!("count {n} exceeds input at byte {}", self.pos));
        }
        Ok(n)
    }

    fn string(&mut self) -> IngestResult<String> {
        let len = self.u32()? as usize;
        match String::from_utf8(self.take(len)?.to_vec()) {
            Ok(s) => Ok(s),
            Err(_) => bad(format!("invalid UTF-8 before byte {}", self.pos)),
        }
    }
}

/// The uncompacted fallback layout: one binary-codec record per row behind
/// an offset table. Used verbatim for components whose schema churn defeats
/// inference, and as the baseline in size/throughput comparisons.
#[derive(Debug, Clone, Default)]
pub struct OpenBlock {
    offsets: Vec<u32>,
    data: Vec<u8>,
}

impl OpenBlock {
    /// Lay `rows` — binary ADM records — out self-describing, in order: a
    /// concatenation.
    pub fn encode(rows: &[&[u8]]) -> OpenBlock {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut data = Vec::with_capacity(rows.iter().map(|r| r.len()).sum());
        for row in rows {
            data.extend_from_slice(row);
            offsets.push(data.len() as u32);
        }
        OpenBlock { offsets, data }
    }

    /// Number of records in the block.
    pub fn records(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Disk-equivalent footprint: record bytes plus the offset table.
    pub fn size_bytes(&self) -> usize {
        self.data.len() + 4 * self.offsets.len()
    }

    /// The encoded bytes of one record.
    pub fn record_slice(&self, row: usize) -> Option<&[u8]> {
        let start = *self.offsets.get(row)? as usize;
        let end = *self.offsets.get(row + 1)? as usize;
        self.data.get(start..end)
    }

    /// Decode one field of one row via the zero-copy skip decoder.
    pub fn field_value(&self, row: usize, name: &str) -> Option<AdmValue> {
        decode_field_at(self.record_slice(row)?, name)
            .ok()
            .flatten()
    }

    /// [`OpenBlock::field_value`] into `dst`, reusing its string buffer when
    /// both are strings. `false` (and `dst` untouched) = absent.
    pub fn field_into(&self, row: usize, name: &str, dst: &mut AdmValue) -> bool {
        self.record_slice(row)
            .is_some_and(|record| binary::field_into(record, name, dst))
    }

    /// Decode the whole record for `row`.
    pub fn materialize(&self, row: usize) -> Option<AdmValue> {
        decode_value(self.record_slice(row)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_of<'a>(row: &'a AdmValue, name: &str) -> Option<&'a AdmValue> {
        match row {
            AdmValue::Record(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn rec(fields: Vec<(&str, AdmValue)>) -> AdmValue {
        AdmValue::Record(
            fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        )
    }

    fn tweet(i: i64) -> AdmValue {
        rec(vec![
            ("id", AdmValue::String(format!("t-{i}"))),
            (
                "user",
                rec(vec![
                    ("screen_name", AdmValue::String(format!("u{i}"))),
                    ("lang", "en".into()),
                    ("friends_count", AdmValue::Int(i * 3)),
                ]),
            ),
            ("latitude", AdmValue::Double(i as f64 * 0.5)),
            ("retweets", AdmValue::Int(i)),
            ("verified", AdmValue::Boolean(i % 2 == 0)),
            ("where", AdmValue::Point(i as f64, -(i as f64))),
            ("at", AdmValue::DateTime(1_400_000_000_000 + i)),
            ("message_text", AdmValue::String(format!("hello #{i}"))),
        ])
    }

    /// The rows as storage holds them: binary ADM.
    fn encoded<'a>(rows: impl IntoIterator<Item = &'a AdmValue>) -> Vec<Vec<u8>> {
        rows.into_iter().map(binary::encode_value).collect()
    }

    fn slices(rows: &[Vec<u8>]) -> Vec<&[u8]> {
        rows.iter().map(Vec::as_slice).collect()
    }

    fn encode_rows(rows: &[AdmValue], min_presence: f64) -> CompactedBlock {
        let bytes = encoded(rows);
        let refs = slices(&bytes);
        let builder = BlockBuilder::infer(&refs);
        builder.encode(&builder.schema().slot_fields(min_presence))
    }

    #[test]
    fn uniform_tweets_round_trip_and_use_fixed_columns() {
        let rows: Vec<AdmValue> = (0..50).map(tweet).collect();
        let block = encode_rows(&rows, 0.5);
        assert_eq!(block.records(), 50);
        assert_eq!(block.residual_entries(), 0);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(block.materialize(i).as_ref(), Some(row), "row {i}");
        }
        // nested user names hoisted: encoding tag for `user` is RecFixed
        let user = block
            .fields
            .iter()
            .find(|f| f.name == "user")
            .expect("user slot");
        assert!(matches!(user.encoding, Encoding::RecFixed(_)));
        // and the fixed columns really are fixed
        for (name, want) in [
            ("retweets", Encoding::FixedInt),
            ("latitude", Encoding::FixedDouble),
            ("verified", Encoding::FixedBool),
            ("where", Encoding::FixedPoint),
            ("at", Encoding::FixedDateTime),
            ("message_text", Encoding::Str),
        ] {
            let f = block.fields.iter().find(|f| f.name == name).expect(name);
            assert_eq!(f.encoding, want, "{name}");
        }
    }

    #[test]
    fn compacted_is_smaller_than_open_for_uniform_records() {
        let rows: Vec<AdmValue> = (0..200).map(tweet).collect();
        let bytes = encoded(&rows);
        let open = OpenBlock::encode(&slices(&bytes));
        let block = encode_rows(&rows, 0.5);
        assert!(
            (block.size_bytes() as f64) * 1.5 < open.size_bytes() as f64,
            "compacted {} vs open {}",
            block.size_bytes(),
            open.size_bytes()
        );
    }

    #[test]
    fn field_value_agrees_with_materialize() {
        let mut rows: Vec<AdmValue> = (0..20).map(tweet).collect();
        rows[7].set_field("extra", AdmValue::Int(99));
        rows[9] = AdmValue::Int(5); // opaque row
        let block = encode_rows(&rows, 0.5);
        for (i, row) in rows.iter().enumerate() {
            for name in ["id", "user", "retweets", "extra", "absent", "message_text"] {
                assert_eq!(
                    block.field_value(i, name),
                    field_of(row, name).cloned(),
                    "row {i} field {name}"
                );
            }
        }
    }

    #[test]
    fn open_fields_and_odd_order_round_trip_exactly() {
        let rows = vec![
            rec(vec![("a", AdmValue::Int(1)), ("b", "x".into())]),
            // extra open field between slots
            rec(vec![
                ("a", AdmValue::Int(2)),
                ("weird", AdmValue::Null),
                ("b", "y".into()),
            ]),
            // slots out of order
            rec(vec![("b", "z".into()), ("a", AdmValue::Int(3))]),
            // duplicate slot name: first occurrence slots, second residual
            AdmValue::Record(vec![
                ("a".into(), AdmValue::Int(4)),
                ("a".into(), AdmValue::Int(5)),
                ("b".into(), "w".into()),
            ]),
            // opaque non-record row
            AdmValue::OrderedList(vec![AdmValue::Int(6)]),
        ];
        let block = encode_rows(&rows, 0.5);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(block.materialize(i).as_ref(), Some(row), "row {i}");
        }
        assert!(block.residual_entries() >= 3);
    }

    #[test]
    fn byte_image_round_trips_through_from_bytes() {
        let mut rows: Vec<AdmValue> = (0..30).map(tweet).collect();
        rows[11].set_field("open1", "o".into());
        let block = encode_rows(&rows, 0.5);
        let reparsed = CompactedBlock::from_bytes(block.as_bytes().to_vec()).expect("reparse");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(reparsed.materialize(i).as_ref(), Some(row), "row {i}");
        }
        assert_eq!(reparsed.schema(), block.schema());
    }

    #[test]
    fn from_bytes_rejects_truncation_without_panicking() {
        let rows: Vec<AdmValue> = (0..5).map(tweet).collect();
        let block = encode_rows(&rows, 0.5);
        let bytes = block.as_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CompactedBlock::from_bytes(bytes[..cut].to_vec()).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn copy_rows_recounts_the_header_and_refuses_other_layouts() {
        // `place` is tagged (absent or null in some rows); row 3 of each
        // block carries an open field out of canonical order
        let rows = |base: i64| -> Vec<AdmValue> {
            (base..base + 6)
                .map(|i| {
                    let mut t = tweet(i);
                    match i % 3 {
                        0 => t.set_field("place", "here".into()),
                        1 => t.set_field("place", AdmValue::Null),
                        _ => {}
                    }
                    if i % 6 == 3 {
                        let AdmValue::Record(fields) = &mut t else {
                            unreachable!()
                        };
                        fields.insert(1, ("rare".to_string(), AdmValue::Int(i)));
                    }
                    t
                })
                .collect()
        };
        let (old, new) = (rows(0), rows(6));
        let (a, b) = (encode_rows(&old, 0.3), encode_rows(&new, 0.3));
        assert!(a.same_layout(&b));
        // newest first; keep rows 1..=4 of each input, alternating
        let picks: Vec<(u32, u32)> = (1..5).flat_map(|r| [(1, r), (0, r)]).collect();
        let copied = CompactedBlock::copy_rows(&[&b, &a], &picks).expect("same layout");
        let picked: Vec<&AdmValue> = (1..5).flat_map(|r| [&old[r], &new[r]]).collect();
        for (i, row) in picked.iter().enumerate() {
            assert_eq!(copied.materialize(i).as_ref(), Some(*row), "row {i}");
        }
        let reparsed = CompactedBlock::from_bytes(copied.as_bytes().to_vec()).expect("reparse");
        assert_eq!(reparsed, copied);
        let place = copied.fields.iter().find(|f| f.name == "place").unwrap();
        assert_eq!((place.present, place.nulls), (6, 4)); // rows 1,3,4 of each; 1 and 4 null
        assert_eq!(copied.residual_entries(), 2);
        assert_eq!(copied.shapes.len(), 2);
        let bytes = encoded(picked.iter().copied());
        let refs = slices(&bytes);
        let fresh = BlockBuilder::infer(&refs);
        assert_eq!(copied.schema().total_items, fresh.schema().total_items);

        // one column changing encoding is enough to refuse the copy
        let mut widened = rows(12);
        widened[0].set_field("retweets", AdmValue::Double(0.5));
        let c = encode_rows(&widened, 0.3);
        assert!(!a.same_layout(&c));
        assert!(CompactedBlock::copy_rows(&[&c, &a], &[(0, 0)]).is_none());
        assert!(
            CompactedBlock::copy_rows(&[&a], &[(0, 6)]).is_none(),
            "row out of range"
        );
    }

    #[test]
    fn int_widened_to_double_stays_tagged_and_bit_exact() {
        let rows = vec![
            rec(vec![("n", AdmValue::Int(1))]),
            rec(vec![("n", AdmValue::Double(2.5))]),
            rec(vec![("n", AdmValue::Int(3))]),
        ];
        let block = encode_rows(&rows, 0.5);
        assert_eq!(block.fields[0].encoding, Encoding::Tagged);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(block.materialize(i).as_ref(), Some(row));
        }
    }

    #[test]
    fn open_block_round_trips_and_serves_fields() {
        let rows: Vec<AdmValue> = (0..10).map(tweet).collect();
        let bytes = encoded(&rows);
        let open = OpenBlock::encode(&slices(&bytes));
        assert_eq!(open.records(), 10);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(open.materialize(i).as_ref(), Some(row));
            assert_eq!(
                open.field_value(i, "id"),
                field_of(row, "id").cloned(),
                "row {i}"
            );
        }
    }

    #[test]
    fn empty_component_encodes_and_decodes() {
        let block = encode_rows(&[], 0.5);
        assert_eq!(block.records(), 0);
        assert!(block.materialize(0).is_none());
        let open = OpenBlock::encode(&[]);
        assert_eq!(open.records(), 0);
    }
}
