#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! The AsterixDB Data Model (ADM), reproduced in Rust.
//!
//! ADM (§3.1.2 of the paper) is a superset of JSON designed for
//! semi-structured data: records may be *open* (instances can carry extra
//! fields beyond the declared schema) or *closed*, fields may be optional,
//! and the scalar types include spatial (`point`) and temporal (`datetime`)
//! primitives alongside the usual numbers and strings. Collections come in
//! ordered (`[...]`) and unordered (`{{...}}`) flavours.
//!
//! This crate provides:
//!
//! * [`value::AdmValue`] — the runtime value tree;
//! * [`types`] — datatype definitions and conformance checking, including
//!   open/closed records and optional fields;
//! * [`parse`] — the one grammar walk over ADM text (JSON-compatible, plus
//!   `point(...)`, `datetime(...)` and `{{ }}` bags): [`transcode`] writes
//!   the binary ADM of the text straight into a buffer, no tree;
//!   [`parse_value`] is the decode of that for callers that want a tree;
//! * [`mod@print`] — the canonical serializer (parse ∘ print = identity, checked
//!   by property tests);
//! * [`binary`] — a compact length-prefixed binary codec (`AdmValue` ↔
//!   bytes), the analogue of AsterixDB's binary ADM format: the serialized
//!   form of every record payload between adaptor and store, and of
//!   write-ahead-log records;
//! * [`schema`] — single-pass schema inference over open records (per-field
//!   type lattice with counts), feeding the compacted storage layout;
//! * [`compact`] — the compacted columnar-ish component codec (schema
//!   header + per-field columns + sparse residual), plus the uncompacted
//!   [`compact::OpenBlock`] fallback;
//! * [`payload`] — record payloads as binary ADM bytes: transcode text or
//!   encode a value once, render them for a human;
//! * [`view`] — a record read through its top-level field spans
//!   ([`RecordView`]) and rewritten by a [`RecordPatch`]: what a function
//!   that reads a field or two and writes one needs, without the tree;
//! * [`pred`] — a filter ([`Pred`]) compiled once and tested against a
//!   record's bytes or a compacted component's column cells, meaning what
//!   AQL's comparisons mean over the decoded record: a query's pushed
//!   `where` and a feed's routing arm alike;
//! * [`functions`] — the builtin scalar functions the feeds chapters use
//!   (`word-tokens`, `starts-with`, `spatial-cell`, `spatial-intersect`, ...);
//! * [`hash`] — a stable 64-bit value hash used for hash-partitioning
//!   records across a dataset's nodegroup.

pub mod binary;
pub mod compact;
pub mod functions;
pub mod hash;
pub mod parse;
pub mod payload;
pub mod pred;
pub mod print;
pub mod schema;
pub mod types;
pub mod value;
pub mod view;

pub use binary::{decode_field_at, decode_value, encode_value, record_field_slice};
pub use compact::{CompactedBlock, OpenBlock};
pub use parse::{parse_calls, parse_value, transcode};
pub use payload::{payload_from_text, payload_from_value, to_display_string};
pub use pred::{CmpOp, Pred};
pub use print::{print_calls, to_adm_string};
pub use schema::{InferredSchema, SchemaBuilder};
pub use types::{AdmType, Field, RecordType, TypeRegistry};
pub use value::AdmValue;
pub use view::{RecordPatch, RecordView};
