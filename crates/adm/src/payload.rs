//! Record payloads: binary ADM bytes plus typed access to the shared decode
//! cache of a [`RecordPayload`].
//!
//! A record's serialized form, from the adaptor to the store *and inside
//! it*, is the [`crate::binary`] encoding of its value — written once by the
//! stage that produced the value ([`payload_from_value`]: the adaptor's
//! translate, a UDF's output, an AQL `insert` row) and carried verbatim
//! through frames, spill segments, wire hops, the write-ahead log and the
//! memtable. ADM *text* exists only at the system boundary: [`parse_value`]
//! where external text comes in, [`to_adm_string`] where a human reads a
//! record.
//!
//! The stages that may hold a record's `AdmValue` tree are the adaptor's
//! translate, a UDF and AQL evaluation. The store never asks for one: it runs
//! one checked walk over the bytes and keeps the bytes, so a tree seeded
//! upstream is freed when the frame that carried it is dropped, not retained.
//!
//! `asterix-common` keeps the payload's decode cell type-erased so it does
//! not depend on this crate; here the erased value is pinned to
//! [`AdmValue`]. Every pipeline stage that needs the structured form of a
//! record goes through [`AdmPayloadExt`]: a warm cache (the producing stage
//! seeded it, or an earlier stage on this side of a wire hop decoded) hands
//! back the shared `Arc<AdmValue>`; a cold one costs one binary decode,
//! after which every clone of the record (in the ack tracker, behind a feed
//! joint) shares the result. A stage that reads a few top-level fields of a
//! cold record uses [`AdmPayloadExt::with_fields`] and builds no tree at all.

use crate::binary;
use crate::parse::parse_value;
use crate::print::to_adm_string;
use crate::value::AdmValue;
use asterix_common::{IngestError, IngestResult, RecordPayload};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed accessors over a payload's shared decode cache.
pub trait AdmPayloadExt {
    /// The payload's ADM value, decoding the bytes on first use and reusing
    /// the shared cache on every later call.
    fn adm_value(&self) -> IngestResult<Arc<AdmValue>>;

    /// Like [`AdmPayloadExt::adm_value`], but bumps `misses` when this call
    /// actually ran the decoder (i.e. the cache was cold). Feed metrics use
    /// this to count decodes per feed.
    fn adm_value_counted(&self, misses: &AtomicU64) -> IngestResult<Arc<AdmValue>>;

    /// Run `f` on a view of the record that carries (at least) its
    /// top-level `fields`: the cached value when the cache is warm,
    /// otherwise a projection decoded straight from the bytes — only those
    /// fields are materialised, nothing is cached and `misses` stays put.
    /// Bytes that do not project (not a record, corrupt) fall back to the
    /// full counted decode, whose verdict is the one returned.
    fn with_fields<R>(
        &self,
        fields: &[String],
        misses: &AtomicU64,
        f: impl FnOnce(&AdmValue) -> R,
    ) -> IngestResult<R>;

    /// The record as ADM text, for humans (error log, console): the cached
    /// or decoded value printed canonically, or a lossy rendering of the
    /// raw bytes when they do not decode.
    fn to_display_string(&self) -> String;
}

fn decode_erased(bytes: &[u8]) -> Result<Arc<dyn Any + Send + Sync>, String> {
    match binary::decode_value(bytes) {
        Ok(v) => Ok(Arc::new(v)),
        // store the bare message; `adm_value` re-wraps it as a parse error
        Err(IngestError::Parse(m)) => Err(m),
        Err(e) => Err(e.to_string()),
    }
}

fn downcast(erased: Result<Arc<dyn Any + Send + Sync>, String>) -> IngestResult<Arc<AdmValue>> {
    match erased {
        Ok(any) => any
            .downcast::<AdmValue>()
            .map_err(|_| IngestError::Parse("payload cache holds a non-ADM value".into())),
        Err(m) => Err(IngestError::Parse(m)),
    }
}

impl AdmPayloadExt for RecordPayload {
    fn adm_value(&self) -> IngestResult<Arc<AdmValue>> {
        downcast(self.parse_with(decode_erased))
    }

    fn adm_value_counted(&self, misses: &AtomicU64) -> IngestResult<Arc<AdmValue>> {
        downcast(self.parse_with(|bytes| {
            // relaxed-ok: standalone cache-miss counter, nothing synchronises
            // through it (the decoded value is published by parse_with)
            misses.fetch_add(1, Ordering::Relaxed);
            decode_erased(bytes)
        }))
    }

    fn with_fields<R>(
        &self,
        fields: &[String],
        misses: &AtomicU64,
        f: impl FnOnce(&AdmValue) -> R,
    ) -> IngestResult<R> {
        if !self.is_parsed() {
            if let Ok(projection) = binary::decode_fields(self.bytes(), fields) {
                return Ok(f(&projection));
            }
        }
        self.adm_value_counted(misses).map(|v| f(&v))
    }

    fn to_display_string(&self) -> String {
        match self.adm_value() {
            Ok(v) => to_adm_string(&v),
            Err(_) => String::from_utf8_lossy(self.bytes()).into_owned(),
        }
    }
}

/// Build a payload from an already-known value: the bytes are its binary
/// ADM encoding and the decode cache is pre-seeded, so no stage on this
/// side of a wire hop ever decodes this record.
pub fn payload_from_value(value: AdmValue) -> RecordPayload {
    let mut bytes = Vec::with_capacity(512);
    binary::encode_into(&value, &mut bytes);
    RecordPayload::with_parsed(bytes, Arc::new(value))
}

/// Build a payload from ADM text — [`parse_value`] then
/// [`payload_from_value`] — for tests and tools that write records as text.
pub fn payload_from_text(text: &str) -> IngestResult<RecordPayload> {
    parse_value(text).map(payload_from_value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_calls;

    /// The bytes of `text`'s value with a cold cache, as a wire hop or a
    /// despill delivers them.
    fn cold(text: &str) -> RecordPayload {
        RecordPayload::new(payload_from_text(text).unwrap().bytes().clone())
    }

    #[test]
    fn adm_value_decodes_once_across_clones() {
        let p = cold(r#"{ "id": 1, "name": "x" }"#);
        let clone = p.clone();
        let misses = AtomicU64::new(0);
        let v1 = p.adm_value_counted(&misses).unwrap();
        let v2 = clone.adm_value_counted(&misses).unwrap();
        let v3 = p.adm_value_counted(&misses).unwrap();
        assert_eq!(misses.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&v1, &v2) && Arc::ptr_eq(&v2, &v3));
        assert_eq!(v1.field("id").and_then(AdmValue::as_int), Some(1));
    }

    #[test]
    fn adm_value_counted_counts_only_misses() {
        let misses = AtomicU64::new(0);
        let p = cold("42");
        p.adm_value_counted(&misses).unwrap();
        p.adm_value_counted(&misses).unwrap();
        p.adm_value().unwrap();
        assert_eq!(misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn decode_errors_are_cached() {
        // text is not a payload: the bytes fail to decode, once
        let p = RecordPayload::new("{ not valid");
        let misses = AtomicU64::new(0);
        assert!(p.adm_value_counted(&misses).is_err());
        assert!(p.adm_value_counted(&misses).is_err());
        assert_eq!(misses.load(Ordering::Relaxed), 1);
        assert_eq!(p.to_display_string(), "{ not valid", "lossy fallback");
    }

    #[test]
    fn payload_from_value_never_decodes_or_parses() {
        let v = AdmValue::record(vec![("k", AdmValue::Int(9))]);
        let p = payload_from_value(v.clone());
        assert!(p.is_parsed());
        let (before, misses) = (parse_calls(), AtomicU64::new(0));
        assert_eq!(*p.adm_value_counted(&misses).unwrap(), v);
        assert_eq!(misses.load(Ordering::Relaxed), 0);
        // bytes are the binary form; text appears only when a human asks
        assert_eq!(&p.bytes()[..], &binary::encode_value(&v)[..]);
        assert_eq!(p.to_display_string(), to_adm_string(&v));
        assert_eq!(parse_calls(), before);
    }

    #[test]
    fn with_fields_projects_cold_payloads_and_reuses_warm_ones() {
        let text = r#"{ "id": "a", "n": 5, "user": { "name": "u" } }"#;
        let fields = ["n".to_string(), "absent".to_string()];
        let misses = AtomicU64::new(0);
        let read = |v: &AdmValue| (v.field("n").cloned(), v.field("id").is_some());

        let p = cold(text);
        let (n, saw_id) = p.with_fields(&fields, &misses, read).unwrap();
        assert_eq!((n, saw_id), (Some(AdmValue::Int(5)), false), "projection");
        assert!(!p.is_parsed(), "a projection caches nothing");
        assert_eq!(misses.load(Ordering::Relaxed), 0, "and counts nothing");

        let warm = payload_from_text(text).unwrap();
        let (n, saw_id) = warm.with_fields(&fields, &misses, read).unwrap();
        assert_eq!((n, saw_id), (Some(AdmValue::Int(5)), true), "cached tree");

        // not a record: the full decode decides, and is counted
        let scalar = cold("7");
        let is_int = |v: &AdmValue| v.as_int() == Some(7);
        assert!(scalar.with_fields(&fields, &misses, is_int).unwrap());
        assert_eq!(misses.load(Ordering::Relaxed), 1);
        assert!(RecordPayload::new("junk")
            .with_fields(&fields, &misses, |_| ())
            .is_err());
    }
}
