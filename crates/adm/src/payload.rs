//! Record payloads: binary ADM bytes, and the ways a stage reads them.
//!
//! A record's serialized form, from the adaptor to the store *and inside
//! it*, is the [`crate::binary`] encoding of its value — written once by the
//! stage that produced it and carried verbatim through frames, spill
//! segments, wire hops, the write-ahead log and the memtable. The adaptor
//! writes it straight from the text ([`transcode`]; [`payload_from_text`]
//! for tests and tools); a stage that built a value — a UDF's output, an AQL
//! `insert` row — encodes it with [`payload_from_value`]. ADM *text* exists
//! only at the system boundary: [`transcode`] where external text comes in,
//! [`to_adm_string`] where a human reads a record.
//!
//! The bytes are all there is: no `AdmValue` tree travels with a record, so
//! an in-process edge, a wire hop and a despill hand a stage the same thing.
//! A tree is a local of the stage that builds it — a UDF call
//! ([`binary::decode_value`], one per record per UDF stage), AQL evaluation
//! — and is dropped there. A stage that reads a few top-level fields uses
//! [`with_fields`] and builds no tree at all; the store runs one checked walk
//! over the bytes and keeps the bytes.

use crate::binary;
use crate::parse::transcode;
use crate::print::to_adm_string;
use crate::value::AdmValue;
use asterix_common::{Counter, IngestResult};
use bytes::Bytes;

/// Run `f` on a projection of the record that carries its top-level
/// `fields`, decoded straight from the bytes: only those fields are
/// materialised and `misses` stays put. Bytes that do not project (not a
/// record, corrupt) fall back to a full decode, which bumps `misses` and
/// whose verdict is the one returned.
pub fn with_fields<R>(
    payload: &[u8],
    fields: &[String],
    misses: &Counter,
    f: impl FnOnce(&AdmValue) -> R,
) -> IngestResult<R> {
    if let Ok(projection) = binary::decode_fields(payload, fields) {
        return Ok(f(&projection));
    }
    misses.inc();
    binary::decode_value(payload).map(|v| f(&v))
}

/// The record as ADM text, for humans (error log, console): the decoded
/// value printed canonically, or a lossy rendering of the raw bytes when
/// they do not decode.
pub fn to_display_string(payload: &[u8]) -> String {
    match binary::decode_value(payload) {
        Ok(v) => to_adm_string(&v),
        Err(_) => String::from_utf8_lossy(payload).into_owned(),
    }
}

/// The payload of a value: its binary ADM encoding. The value is consumed
/// and dropped here, on the thread that built it.
pub fn payload_from_value(value: AdmValue) -> Bytes {
    let mut bytes = Vec::with_capacity(512);
    binary::encode_into(&value, &mut bytes);
    bytes.into()
}

/// Build a payload from ADM text — [`transcode`] into a buffer, no tree —
/// for tests and tools that write records as text.
pub fn payload_from_text(text: &str) -> IngestResult<Bytes> {
    let mut bytes = Vec::with_capacity(text.len());
    transcode(text, &mut bytes)?;
    Ok(bytes.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_calls;

    #[test]
    fn payload_from_value_is_the_binary_encoding_and_never_parses() {
        let v = AdmValue::record(vec![("k", AdmValue::Int(9))]);
        let before = parse_calls();
        let p = payload_from_value(v.clone());
        // bytes are the binary form; text appears only when a human asks
        assert_eq!(&p[..], &binary::encode_value(&v)[..]);
        assert_eq!(binary::decode_value(&p).unwrap(), v);
        assert_eq!(to_display_string(&p), to_adm_string(&v));
        assert_eq!(parse_calls(), before);
        // text is not a payload: it renders through the lossy fallback
        assert_eq!(to_display_string(b"{ not valid"), "{ not valid");
    }

    #[test]
    fn with_fields_projects_and_counts_only_the_full_decode_fallback() {
        let text = r#"{ "id": "a", "n": 5, "user": { "name": "u" } }"#;
        let fields = ["n".to_string(), "absent".to_string()];
        let misses = Counter::new();
        let read = |v: &AdmValue| (v.field("n").cloned(), v.field("id").is_some());

        let p = payload_from_text(text).unwrap();
        let (n, saw_id) = with_fields(&p, &fields, &misses, read).unwrap();
        assert_eq!((n, saw_id), (Some(AdmValue::Int(5)), false), "projection");
        assert_eq!(misses.get(), 0, "and counts nothing");

        // not a record: the full decode decides, and is counted
        let scalar = payload_from_text("7").unwrap();
        let is_int = |v: &AdmValue| v.as_int() == Some(7);
        assert!(with_fields(&scalar, &fields, &misses, is_int).unwrap());
        assert_eq!(misses.get(), 1);
        assert!(with_fields(b"junk", &fields, &misses, |_| ()).is_err());
    }
}
