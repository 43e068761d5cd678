//! Compact length-prefixed binary codec for ADM values.
//!
//! AsterixDB stores and ships records in a binary ADM format rather than
//! re-printing and re-parsing text at every boundary. This module is the
//! analogue for this codebase: a tag byte per value, little-endian fixed
//! width scalars, and `u32` length prefixes for strings and collections.
//! It is the serialized form of every record between the adaptor and the
//! store (see [`crate::payload`]) and of write-ahead-log records; ADM text
//! exists only at the system boundary.
//!
//! Layout (`tag` byte first):
//!
//! | tag | type          | body                                        |
//! |-----|---------------|---------------------------------------------|
//! | 0   | null          | —                                           |
//! | 1   | missing       | —                                           |
//! | 2   | boolean       | 1 byte (0/1)                                |
//! | 3   | int64         | 8 bytes LE                                  |
//! | 4   | double        | 8 bytes LE (IEEE-754 bits)                  |
//! | 5   | string        | u32 LE length + UTF-8 bytes                 |
//! | 6   | point         | 2 × 8 bytes LE (x, y)                       |
//! | 7   | datetime      | 8 bytes LE (millis since epoch)             |
//! | 8   | ordered list  | u32 LE count + encoded items                |
//! | 9   | unordered list| u32 LE count + encoded items                |
//! | 10  | record        | u32 LE count + (string name, value) pairs   |
//!
//! `decode_value(&encode_value(v)) == v` for every `AdmValue`, including
//! non-finite doubles (bit-exact, unlike the text round-trip) — verified by
//! a proptest suite sharing the generator with the text round-trip tests.
//! The encoding is canonical: bytes that pass [`validate`] are exactly what
//! [`encode_value`] produces for the value they decode to, which is what
//! lets storage keep, log and columnarise the bytes without ever building
//! the value.
//!
//! # Reading without a tree
//!
//! Everything below the store operator works on the bytes through one
//! borrowed reader: [`validate`] is the *checked walk* (tags, bounds,
//! boolean bytes, UTF-8 of every string and field name, nesting depth) a
//! payload must pass once before it is trusted;
//! [`TypeRegistry::check_bytes`](crate::types::TypeRegistry::check_bytes)
//! folds datatype conformance into that same walk. [`record_field_slice`]
//! projects one field, [`record_spans`] splits a record into its top-level
//! `(name, value)` byte ranges — the unit the schema inferencer and the
//! compacted block builder copy cells from — and [`checked_spans`] is the
//! checked walk and that split in one pass, which a
//! [`RecordView`](crate::view::RecordView) is built on.

use crate::value::AdmValue;
use asterix_common::{IngestError, IngestResult};

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_MISSING: u8 = 1;
pub(crate) const TAG_BOOLEAN: u8 = 2;
pub(crate) const TAG_INT: u8 = 3;
pub(crate) const TAG_DOUBLE: u8 = 4;
pub(crate) const TAG_STRING: u8 = 5;
pub(crate) const TAG_POINT: u8 = 6;
pub(crate) const TAG_DATETIME: u8 = 7;
pub(crate) const TAG_ORDERED_LIST: u8 = 8;
pub(crate) const TAG_UNORDERED_LIST: u8 = 9;
pub(crate) const TAG_RECORD: u8 = 10;

/// Deepest nesting of collections a reader follows — and the text grammar
/// walk writes ([`crate::parse`]). Every walk is recursive, so without a
/// bound a few megabytes of `[[[[…` off a wire or a socket would overflow
/// the stack instead of returning an error.
pub(crate) const MAX_DEPTH: u32 = 128;

/// Encode a value into a fresh buffer.
pub fn encode_value(v: &AdmValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(v, &mut out);
    out
}

/// Encode a value, appending to `out`.
pub fn encode_into(v: &AdmValue, out: &mut Vec<u8>) {
    match v {
        AdmValue::Null => out.push(TAG_NULL),
        AdmValue::Missing => out.push(TAG_MISSING),
        AdmValue::Boolean(b) => {
            out.push(TAG_BOOLEAN);
            out.push(*b as u8);
        }
        AdmValue::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        AdmValue::Double(d) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        AdmValue::String(s) => {
            out.push(TAG_STRING);
            encode_str(s, out);
        }
        AdmValue::Point(x, y) => {
            out.push(TAG_POINT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
            out.extend_from_slice(&y.to_bits().to_le_bytes());
        }
        AdmValue::DateTime(ms) => {
            out.push(TAG_DATETIME);
            out.extend_from_slice(&ms.to_le_bytes());
        }
        AdmValue::OrderedList(items) => {
            out.push(TAG_ORDERED_LIST);
            encode_seq(items, out);
        }
        AdmValue::UnorderedList(items) => {
            out.push(TAG_UNORDERED_LIST);
            encode_seq(items, out);
        }
        AdmValue::Record(fields) => {
            out.push(TAG_RECORD);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (name, value) in fields {
                encode_str(name, out);
                encode_into(value, out);
            }
        }
    }
}

pub(crate) fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_seq(items: &[AdmValue], out: &mut Vec<u8>) {
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for item in items {
        encode_into(item, out);
    }
}

/// Decode a single value occupying the whole input.
pub fn decode_value(input: &[u8]) -> IngestResult<AdmValue> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// [`decode_field_at`] into `dst`, reusing its buffer when both are strings
/// ([`AdmValue::set_str`]): `true` when the record has the field and it
/// decoded; `false`, leaving `dst` as it was, for an absent field or bytes
/// that are not a sound record.
pub fn field_into(record: &[u8], field: &str, dst: &mut AdmValue) -> bool {
    match record_field_slice(record, field) {
        Ok(Some(value)) => value_into(value, dst),
        _ => false,
    }
}

/// [`decode_value`] into `dst`, reusing its buffer when both are strings:
/// `false`, leaving `dst` as it was, for bytes that are not one sound value.
pub fn value_into(value: &[u8], dst: &mut AdmValue) -> bool {
    match (value.first(), value.get(5..).map(std::str::from_utf8)) {
        (Some(&TAG_STRING), Some(Ok(s))) => dst.set_str(s),
        (Some(&TAG_STRING), _) => return false,
        _ => match decode_value(value) {
            Ok(v) => *dst = v,
            Err(_) => return false,
        },
    }
    true
}

/// The first encoded value of `input` and what follows it, split by length
/// arithmetic only.
pub(crate) fn split_value(input: &[u8]) -> IngestResult<(&[u8], &[u8])> {
    let mut r = Reader::new(input);
    r.skip_value()?;
    Ok(input.split_at(r.pos))
}

/// Decode a value from the front of `input`; returns it and the rest.
pub fn decode_prefix(input: &[u8]) -> IngestResult<(AdmValue, &[u8])> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    Ok((v, &input[r.pos..]))
}

/// The checked walk: is `input` exactly one well-formed value? Verifies
/// everything [`decode_value`] would — type tags, lengths and counts against
/// the input, boolean bytes, UTF-8 of every string and field name, nesting
/// depth, no trailing bytes — without materializing anything. Bytes that
/// pass decode without error, project without error, and are what
/// [`encode_value`] writes for the value they decode to.
pub fn validate(input: &[u8]) -> IngestResult<()> {
    let mut r = Reader::new(input);
    r.check_value()?;
    r.finish()
}

/// Byte ranges of one top-level field of an encoded record, as
/// [`record_spans`] reports them. Resolve against the record the spans were
/// split from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpan {
    name: (u32, u32),
    value_end: u32,
}

impl FieldSpan {
    /// The field's name bytes (UTF-8 once the record passed [`validate`]).
    pub fn name<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[self.name.0 as usize..self.name.1 as usize]
    }

    /// The field's encoded value, tag byte first.
    pub fn value<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[self.value_range()]
    }

    /// Where [`FieldSpan::value`] lies in the record.
    pub(crate) fn value_range(&self) -> std::ops::Range<usize> {
        self.name.1 as usize..self.value_end as usize
    }

    /// The whole field as the record encodes it: length-prefixed name, then
    /// the value.
    pub fn entry<'a>(&self, record: &'a [u8]) -> &'a [u8] {
        &record[self.name.0 as usize - 4..self.value_end as usize]
    }
}

/// Split an encoded record into its top-level fields, in record order
/// (duplicates included), by length arithmetic only. `spans` is cleared
/// first, so one vector serves a whole scan. Returns `false` — leaving
/// `spans` empty — when `record` is not exactly one structurally sound
/// record (a scalar, a list, truncated, trailing bytes).
pub fn record_spans(record: &[u8], spans: &mut Vec<FieldSpan>) -> bool {
    spans.clear();
    let mut r = Reader::new(record);
    let mut split = || -> IngestResult<()> {
        if r.u8()? != TAG_RECORD || record.len() > u32::MAX as usize {
            return Err(r.err("not a record"));
        }
        for _ in 0..r.count()? {
            let name = r.str_slice()?;
            let name_end = r.pos as u32;
            r.skip_value()?;
            spans.push(FieldSpan {
                name: (name_end - name.len() as u32, name_end),
                value_end: r.pos as u32,
            });
        }
        r.finish()
    };
    let sound = split().is_ok();
    if !sound {
        spans.clear();
    }
    sound
}

/// [`validate`] and, for a record, [`record_spans`] in one pass: the checked
/// walk over `input`, collecting the top-level field spans of a record on the
/// way. `spans` is cleared first and left empty when `input` is not a record
/// (any other well-formed value has no fields) or fails the walk. The verdict
/// is [`validate`]'s, except that a record of 4 GiB or more — past what a
/// span addresses — is an error.
pub fn checked_spans(input: &[u8], spans: &mut Vec<FieldSpan>) -> IngestResult<()> {
    spans.clear();
    let mut r = Reader::new(input);
    let walked = match input.first() {
        Some(&TAG_RECORD) if input.len() > u32::MAX as usize => Err(r.err("record over 4 GiB")),
        Some(&TAG_RECORD) => r.nested(|r| {
            r.pos = 1;
            for _ in 0..r.count()? {
                let name = r.str_checked()?;
                let name_end = r.pos as u32;
                r.check_value()?;
                spans.push(FieldSpan {
                    name: (name_end - name.len() as u32, name_end),
                    value_end: r.pos as u32,
                });
            }
            Ok(())
        }),
        _ => r.check_value(),
    };
    let verdict = walked.and_then(|()| r.finish());
    if verdict.is_err() {
        spans.clear();
    }
    verdict
}

/// Zero-copy field lookup: return the encoded byte slice of `field` inside an
/// encoded record, without materializing any `AdmValue`.
///
/// The scan path uses this to pull one column out of an uncompacted record:
/// every sibling field is *skipped* (length arithmetic only, no allocation),
/// so the cost is proportional to the record's byte length, not its value
/// tree. Returns `Ok(None)` when the record does not carry the field, and an
/// error when `record` is not an encoded record at all.
pub fn record_field_slice<'a>(record: &'a [u8], field: &str) -> IngestResult<Option<&'a [u8]>> {
    let mut r = Reader::new(record);
    if r.u8()? != TAG_RECORD {
        return Err(r.err("field lookup on non-record value"));
    }
    let n = r.count()?;
    for _ in 0..n {
        let name = r.str_slice()?;
        let start = r.pos;
        r.skip_value()?;
        if name == field.as_bytes() {
            return Ok(Some(&record[start..r.pos]));
        }
    }
    Ok(None)
}

/// Decode a single field out of an encoded record without decoding the rest.
///
/// `decode_field_at(&encode_value(&v), f)` equals `v.field(f).cloned()` for
/// every record `v` whose first occurrence of `f` is at any position — only
/// the requested field's value is materialized. Returns `Ok(None)` for an
/// absent field and an error for a non-record input.
pub fn decode_field_at(record: &[u8], field: &str) -> IngestResult<Option<AdmValue>> {
    match record_field_slice(record, field)? {
        Some(slice) => decode_value(slice).map(Some),
        None => Ok(None),
    }
}

/// The borrowed reader every decode, field lookup and checked walk runs on:
/// a cursor over encoded bytes that hands out sub-slices and never copies.
pub(crate) struct Reader<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) pos: usize,
    /// Collections entered and not yet left, bounded by [`MAX_DEPTH`].
    depth: u32,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    pub(crate) fn err(&self, msg: &str) -> IngestError {
        IngestError::Parse(format!("binary ADM: {msg} at byte {}", self.pos))
    }

    /// The input must be used up.
    pub(crate) fn finish(&self) -> IngestResult<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(IngestError::Parse(format!(
                "binary ADM: {n} trailing bytes after value"
            ))),
        }
    }

    /// The tag of the next value, without consuming it.
    pub(crate) fn peek_tag(&self) -> IngestResult<u8> {
        self.buf
            .get(self.pos)
            .copied()
            .ok_or_else(|| self.err("truncated input"))
    }

    /// Run `body` one collection level down.
    pub(crate) fn nested<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> IngestResult<T>,
    ) -> IngestResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("collections nested too deeply"));
        }
        self.depth += 1;
        let out = body(self);
        self.depth -= 1;
        out
    }

    fn take(&mut self, n: usize) -> IngestResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err("truncated input"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> IngestResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> IngestResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> IngestResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> IngestResult<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    fn string(&mut self) -> IngestResult<String> {
        let bytes = self.str_slice()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid UTF-8 in string"))
    }

    /// The bytes of a length-prefixed string, validated as UTF-8.
    pub(crate) fn str_checked(&mut self) -> IngestResult<&'a [u8]> {
        let bytes = self.str_slice()?;
        match std::str::from_utf8(bytes) {
            Ok(_) => Ok(bytes),
            Err(_) => Err(self.err("invalid UTF-8 in string")),
        }
    }

    /// Raw bytes of a length-prefixed string, without UTF-8 validation or
    /// allocation — used for name comparisons on the zero-copy scan path.
    fn str_slice(&mut self) -> IngestResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Advance past one encoded value without materializing it: structure
    /// only (tags, lengths, counts), contents unread.
    fn skip_value(&mut self) -> IngestResult<()> {
        match self.u8()? {
            TAG_NULL | TAG_MISSING => Ok(()),
            TAG_BOOLEAN => self.take(1).map(|_| ()),
            TAG_INT | TAG_DOUBLE | TAG_DATETIME => self.take(8).map(|_| ()),
            TAG_POINT => self.take(16).map(|_| ()),
            TAG_STRING => self.str_slice().map(|_| ()),
            TAG_ORDERED_LIST | TAG_UNORDERED_LIST => self.nested(|r| {
                for _ in 0..r.count()? {
                    r.skip_value()?;
                }
                Ok(())
            }),
            TAG_RECORD => self.nested(|r| {
                for _ in 0..r.count()? {
                    r.str_slice()?;
                    r.skip_value()?;
                }
                Ok(())
            }),
            _ => Err(self.err("unknown type tag")),
        }
    }

    /// Advance past one encoded value, verifying everything
    /// [`Reader::value`] would reject: the checked walk of [`validate`].
    pub(crate) fn check_value(&mut self) -> IngestResult<()> {
        match self.u8()? {
            TAG_NULL | TAG_MISSING => Ok(()),
            TAG_BOOLEAN => match self.u8()? {
                0 | 1 => Ok(()),
                _ => Err(self.err("invalid boolean byte")),
            },
            TAG_INT | TAG_DOUBLE | TAG_DATETIME => self.take(8).map(|_| ()),
            TAG_POINT => self.take(16).map(|_| ()),
            TAG_STRING => self.str_checked().map(|_| ()),
            TAG_ORDERED_LIST | TAG_UNORDERED_LIST => self.nested(|r| {
                for _ in 0..r.count()? {
                    r.check_value()?;
                }
                Ok(())
            }),
            TAG_RECORD => self.nested(|r| {
                for _ in 0..r.count()? {
                    r.str_checked()?;
                    r.check_value()?;
                }
                Ok(())
            }),
            _ => Err(self.err("unknown type tag")),
        }
    }

    /// Guard collection counts against allocating on garbage: a count can
    /// never exceed the bytes remaining (every element is ≥ 1 byte).
    pub(crate) fn count(&mut self) -> IngestResult<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(self.err("collection count exceeds input"));
        }
        Ok(n)
    }

    fn value(&mut self) -> IngestResult<AdmValue> {
        match self.u8()? {
            TAG_NULL => Ok(AdmValue::Null),
            TAG_MISSING => Ok(AdmValue::Missing),
            TAG_BOOLEAN => match self.u8()? {
                0 => Ok(AdmValue::Boolean(false)),
                1 => Ok(AdmValue::Boolean(true)),
                _ => Err(self.err("invalid boolean byte")),
            },
            TAG_INT => Ok(AdmValue::Int(self.i64()?)),
            TAG_DOUBLE => Ok(AdmValue::Double(self.f64()?)),
            TAG_STRING => Ok(AdmValue::String(self.string()?)),
            TAG_POINT => Ok(AdmValue::Point(self.f64()?, self.f64()?)),
            TAG_DATETIME => Ok(AdmValue::DateTime(self.i64()?)),
            TAG_ORDERED_LIST => self.nested(Self::items).map(AdmValue::OrderedList),
            TAG_UNORDERED_LIST => self.nested(Self::items).map(AdmValue::UnorderedList),
            TAG_RECORD => self.nested(|r| {
                let n = r.count()?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.string()?;
                    fields.push((name, r.value()?));
                }
                Ok(AdmValue::Record(fields))
            }),
            _ => Err(self.err("unknown type tag")),
        }
    }

    fn items(&mut self) -> IngestResult<Vec<AdmValue>> {
        let n = self.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(self.value()?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweet() -> AdmValue {
        AdmValue::record(vec![
            ("id", "t-42".into()),
            ("user", AdmValue::record(vec![("name", "alice".into())])),
            ("location", AdmValue::Point(-71.1, 42.3)),
            ("created_at", AdmValue::DateTime(1_400_000_000_000)),
            ("tags", AdmValue::OrderedList(vec!["a".into(), "b".into()])),
            ("retweets", AdmValue::Int(7)),
            ("score", AdmValue::Double(0.25)),
            ("verified", AdmValue::Boolean(false)),
            ("maybe", AdmValue::Null),
        ])
    }

    #[test]
    fn round_trip_nested_record() {
        let v = tweet();
        let bytes = encode_value(&v);
        assert_eq!(decode_value(&bytes).unwrap(), v);
    }

    #[test]
    fn round_trip_preserves_nan_and_infinity() {
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            let bytes = encode_value(&AdmValue::Double(d));
            match decode_value(&bytes).unwrap() {
                AdmValue::Double(back) => assert_eq!(back.to_bits(), d.to_bits()),
                other => panic!("expected double, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_is_smaller_than_text_for_tweet_sized_records() {
        // a tweet-sized message body: quotes and newlines cost an escape
        // byte each in text but nothing in binary
        let body = "\"hello\"\n".repeat(18);
        let mut v = tweet();
        v.set_field("message_text", AdmValue::string(body));
        let text = crate::print::to_adm_string(&v);
        let bin = encode_value(&v);
        assert!(
            bin.len() < text.len(),
            "binary {} >= text {}",
            bin.len(),
            text.len()
        );
    }

    #[test]
    fn decode_rejects_truncation_anywhere() {
        let bytes = encode_value(&tweet());
        for cut in 0..bytes.len() {
            assert!(
                decode_value(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut bytes = encode_value(&AdmValue::Int(1));
        bytes.push(0);
        assert!(decode_value(&bytes).is_err());
        assert!(decode_value(&[0xFF]).is_err());
        assert!(decode_value(&[]).is_err());
        // huge collection count with no elements behind it
        let mut garbage = vec![TAG_ORDERED_LIST];
        garbage.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&garbage).is_err());
    }

    /// `depth` lists nested in each other around a null.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(5 * depth + 1);
        for _ in 0..depth {
            bytes.push(TAG_ORDERED_LIST);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let fits = nested_lists(MAX_DEPTH as usize);
        assert!(validate(&fits).is_ok());
        assert_eq!(encode_value(&decode_value(&fits).unwrap()), fits);
        // a few megabytes of `[[[[…` off a wire
        let hostile = nested_lists(1_000_000);
        assert!(validate(&hostile).is_err());
        assert!(decode_value(&hostile).is_err());
        let mut record = vec![TAG_RECORD];
        record.extend_from_slice(&1u32.to_le_bytes());
        record.extend_from_slice(&1u32.to_le_bytes());
        record.push(b'f');
        record.extend_from_slice(&hostile);
        assert!(record_field_slice(&record, "f").is_err());
        assert!(!record_spans(&record, &mut Vec::new()));
    }

    #[test]
    fn validate_rejects_what_the_decoder_rejects() {
        let bytes = encode_value(&tweet());
        assert!(validate(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(validate(&bytes[..cut]).is_err(), "truncation at {cut}");
        }
        assert!(validate(&[&bytes[..], &[0]].concat()).is_err(), "trailing");
        assert!(validate(&[TAG_BOOLEAN, 2]).is_err(), "boolean byte");
        assert!(validate(&[0xFF]).is_err(), "tag");
        // bad UTF-8 in a string, and in a field name
        let at = |needle: &[u8]| {
            bytes
                .windows(needle.len())
                .position(|w| w == needle)
                .unwrap()
        };
        for needle in [&b"alice"[..], &b"location"[..]] {
            let mut bad = bytes.clone();
            bad[at(needle)] = 0xFF;
            assert!(validate(&bad).is_err());
            assert!(decode_value(&bad).is_err());
        }
    }

    #[test]
    fn record_spans_split_a_record_into_its_fields() {
        let v = tweet();
        let bytes = encode_value(&v);
        let mut spans = Vec::new();
        assert!(record_spans(&bytes, &mut spans));
        let fields = v.as_record().unwrap();
        assert_eq!(spans.len(), fields.len());
        let mut rebuilt = bytes[..5].to_vec();
        for (span, (name, value)) in spans.iter().zip(fields) {
            assert_eq!(span.name(&bytes), name.as_bytes());
            assert_eq!(span.value(&bytes), &encode_value(value)[..]);
            rebuilt.extend_from_slice(span.entry(&bytes));
        }
        assert_eq!(rebuilt, bytes, "entries tile the record");
        // not a record, or not exactly one: no spans
        assert!(!record_spans(&encode_value(&AdmValue::Int(1)), &mut spans));
        assert!(!record_spans(&[&bytes[..], &[0]].concat(), &mut spans));
        assert!(spans.is_empty());
    }

    #[test]
    fn checked_spans_are_record_spans_under_validate() {
        let bytes = encode_value(&tweet());
        let (mut checked, mut split) = (Vec::new(), Vec::new());
        assert!(checked_spans(&bytes, &mut checked).is_ok());
        assert!(record_spans(&bytes, &mut split));
        assert_eq!(checked, split);
        // a scalar walks clean and has no fields
        assert!(checked_spans(&encode_value(&AdmValue::Int(1)), &mut checked).is_ok());
        assert!(checked.is_empty());
        // what validate rejects, including bad UTF-8 that the structural
        // split alone lets through, leaves no spans
        let mut bad = bytes.clone();
        let at = bytes.windows(5).position(|w| w == b"alice").unwrap();
        bad[at] = 0xFF;
        assert!(record_spans(&bad, &mut split));
        for input in [
            &bad[..],
            &bytes[..bytes.len() - 1],
            &[&bytes[..], &[0]].concat(),
        ] {
            assert!(validate(input).is_err());
            assert!(checked_spans(input, &mut checked).is_err());
            assert!(checked.is_empty());
        }
    }

    #[test]
    fn decode_field_at_matches_full_decode() {
        let v = tweet();
        let bytes = encode_value(&v);
        let fields = match &v {
            AdmValue::Record(fields) => fields,
            _ => unreachable!(),
        };
        for (name, value) in fields {
            assert_eq!(
                decode_field_at(&bytes, name).unwrap().as_ref(),
                Some(value),
                "field {name}"
            );
        }
        assert_eq!(decode_field_at(&bytes, "absent").unwrap(), None);
    }

    #[test]
    fn decode_field_at_returns_first_occurrence_of_duplicate() {
        let v = AdmValue::Record(vec![
            ("a".into(), AdmValue::Int(1)),
            ("a".into(), AdmValue::Int(2)),
        ]);
        let bytes = encode_value(&v);
        assert_eq!(
            decode_field_at(&bytes, "a").unwrap(),
            Some(AdmValue::Int(1))
        );
    }

    #[test]
    fn decode_field_at_rejects_non_records_and_truncation() {
        assert!(decode_field_at(&encode_value(&AdmValue::Int(3)), "f").is_err());
        let bytes = encode_value(&tweet());
        for cut in 1..bytes.len() {
            // either a clean "absent" (cut before the field) or an error,
            // never a panic or a bogus value
            let _ = decode_field_at(&bytes[..cut], "score");
        }
        assert!(decode_field_at(&bytes[..bytes.len() - 1], "maybe").is_err());
    }

    #[test]
    fn record_field_slice_is_a_subslice() {
        let v = tweet();
        let bytes = encode_value(&v);
        let slice = record_field_slice(&bytes, "user").unwrap().unwrap();
        assert_eq!(
            decode_value(slice).unwrap(),
            AdmValue::record(vec![("name", "alice".into())])
        );
        // zero-copy: the slice points into the original buffer
        let base = bytes.as_ptr() as usize;
        let p = slice.as_ptr() as usize;
        assert!(p >= base && p + slice.len() <= base + bytes.len());
    }

    #[test]
    fn decode_prefix_returns_rest() {
        let mut bytes = encode_value(&AdmValue::Int(5));
        bytes.extend_from_slice(b"rest");
        let (v, rest) = decode_prefix(&bytes).unwrap();
        assert_eq!(v, AdmValue::Int(5));
        assert_eq!(rest, b"rest");
    }
}
