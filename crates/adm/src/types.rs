//! ADM datatypes and conformance checking.
//!
//! Mirrors the paper's Listing 3.1: `create type Tweet as open { ... }` with
//! optional fields (`latitude: double?`) and nested record/list types. A
//! dataset's records must *conform* to its datatype; open record types allow
//! extra fields, closed ones do not.

use crate::binary::{self, Reader};
use crate::value::AdmValue;
use asterix_common::sync::{read_or_recover, write_or_recover};
use asterix_common::{IngestError, IngestResult};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A field of a record type.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: AdmType,
    /// Declared with `?` — value may be `missing`/absent or `null`.
    pub optional: bool,
}

impl Field {
    /// Required field.
    pub fn required(name: impl Into<String>, ty: AdmType) -> Self {
        Field {
            name: name.into(),
            ty,
            optional: false,
        }
    }

    /// Optional (`?`) field.
    pub fn optional(name: impl Into<String>, ty: AdmType) -> Self {
        Field {
            name: name.into(),
            ty,
            optional: true,
        }
    }
}

/// A named record type.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordType {
    /// Type name as registered in the metadata.
    pub name: String,
    /// Declared fields, in schema order.
    pub fields: Vec<Field>,
    /// Open types admit undeclared extra fields.
    pub open: bool,
}

impl RecordType {
    /// Look up a declared field.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// An ADM datatype.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmType {
    /// Any value conforms.
    Any,
    /// `boolean`.
    Boolean,
    /// `int32`/`int64` (single integer width in this reproduction).
    Int,
    /// `double`.
    Double,
    /// `string`.
    String,
    /// `point`.
    Point,
    /// `datetime`.
    DateTime,
    /// `[T]`.
    OrderedList(Box<AdmType>),
    /// `{{T}}`.
    UnorderedList(Box<AdmType>),
    /// Inline or named record type.
    Record(Arc<RecordType>),
    /// Reference to a named type resolved through a [`TypeRegistry`].
    Named(String),
}

impl fmt::Display for AdmType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmType::Any => write!(f, "any"),
            AdmType::Boolean => write!(f, "boolean"),
            AdmType::Int => write!(f, "int64"),
            AdmType::Double => write!(f, "double"),
            AdmType::String => write!(f, "string"),
            AdmType::Point => write!(f, "point"),
            AdmType::DateTime => write!(f, "datetime"),
            AdmType::OrderedList(t) => write!(f, "[{t}]"),
            AdmType::UnorderedList(t) => write!(f, "{{{{{t}}}}}"),
            AdmType::Record(r) => write!(f, "{}", r.name),
            AdmType::Named(n) => write!(f, "{n}"),
        }
    }
}

/// Registry of named types (the Datatype metadata dataset). Internally
/// synchronized so `create type` works on a shared registry at runtime.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    types: RwLock<HashMap<String, Arc<RecordType>>>,
}

impl TypeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Register a record type under its name. Re-registration replaces.
    pub fn register(&self, ty: RecordType) -> Arc<RecordType> {
        let arc = Arc::new(ty);
        write_or_recover(&self.types).insert(arc.name.clone(), Arc::clone(&arc));
        arc
    }

    /// Look up a record type by name.
    pub fn get(&self, name: &str) -> Option<Arc<RecordType>> {
        read_or_recover(&self.types).get(name).cloned()
    }

    /// Names of all registered types.
    pub fn type_names(&self) -> Vec<String> {
        read_or_recover(&self.types).keys().cloned().collect()
    }

    /// Resolve a possibly-`Named` type to a concrete one.
    pub fn resolve(&self, ty: &AdmType) -> IngestResult<AdmType> {
        match ty {
            AdmType::Named(n) => self
                .get(n)
                .map(AdmType::Record)
                .ok_or_else(|| IngestError::Metadata(format!("unknown type {n}"))),
            other => Ok(other.clone()),
        }
    }

    /// Check that `value` conforms to `ty`, resolving named types. The
    /// conformance relation is defined over the binary encoding
    /// ([`TypeRegistry::check_bytes`]); a caller holding a tree pays one
    /// encode.
    pub fn check(&self, value: &AdmValue, ty: &AdmType) -> IngestResult<()> {
        self.check_bytes(&binary::encode_value(value), ty)
    }

    /// The checked walk with conformance folded in: `bytes` must be exactly
    /// one well-formed binary ADM value (everything
    /// [`binary::validate`] verifies) *and* conform to `ty`, in a single
    /// pass over the bytes. Nothing is materialized unless a type mismatch
    /// has to be reported.
    pub fn check_bytes(&self, bytes: &[u8], ty: &AdmType) -> IngestResult<()> {
        let mut r = Reader::new(bytes);
        conforms(self, &mut r, ty)?;
        r.finish()
    }
}

/// Core conformance relation: consume one value from `r`, validating every
/// byte of it on the way, and hold it to `ty`.
fn conforms(reg: &TypeRegistry, r: &mut Reader<'_>, ty: &AdmType) -> IngestResult<()> {
    use binary::*;
    let start = r.pos;
    match (ty, r.peek_tag()?) {
        (AdmType::Named(_), _) => conforms(reg, r, &reg.resolve(ty)?),
        (AdmType::Any, _)
        | (AdmType::Boolean, TAG_BOOLEAN)
        | (AdmType::Int, TAG_INT)
        // ints are acceptable where doubles are expected (numeric promotion)
        | (AdmType::Double, TAG_DOUBLE | TAG_INT)
        | (AdmType::String, TAG_STRING)
        | (AdmType::Point, TAG_POINT)
        | (AdmType::DateTime, TAG_DATETIME) => r.check_value(),
        (AdmType::OrderedList(elem), TAG_ORDERED_LIST)
        | (AdmType::UnorderedList(elem), TAG_UNORDERED_LIST) => {
            r.u8()?;
            r.nested(|r| {
                for _ in 0..r.count()? {
                    conforms(reg, r, elem)?;
                }
                Ok(())
            })
        }
        (AdmType::Record(rt), TAG_RECORD) => r.nested(|r| {
            r.u8()?;
            // first occurrences seen, per declared field (a repeated name is
            // an open field: only the first is what `field()` resolves)
            let mut seen = vec![false; rt.fields.len()];
            for _ in 0..r.count()? {
                let name = r.str_checked()?;
                let declared = rt.fields.iter().position(|d| d.name.as_bytes() == name);
                match declared.filter(|&i| !std::mem::replace(&mut seen[i], true)) {
                    Some(i) => {
                        let decl = &rt.fields[i];
                        match r.peek_tag()? {
                            tag @ (TAG_NULL | TAG_MISSING) if !decl.optional => {
                                return Err(IngestError::Type(format!(
                                    "required field '{}' of {} is {}",
                                    decl.name,
                                    rt.name,
                                    if tag == TAG_NULL { "null" } else { "missing" }
                                )));
                            }
                            TAG_NULL | TAG_MISSING => r.check_value()?,
                            _ => conforms(reg, r, &decl.ty).map_err(|e| {
                                IngestError::Type(format!(
                                    "field '{}' of {}: {e}",
                                    decl.name, rt.name
                                ))
                            })?,
                        }
                    }
                    // closed types reject undeclared fields
                    None if declared.is_none() && !rt.open => {
                        return Err(IngestError::Type(format!(
                            "closed type {} does not allow field '{}'",
                            rt.name,
                            String::from_utf8_lossy(name)
                        )));
                    }
                    None => r.check_value()?,
                }
            }
            // every declared required field must have been present
            let absent = |(i, d): &(usize, &Field)| !d.optional && !seen[*i];
            match rt.fields.iter().enumerate().find(absent) {
                Some((_, decl)) => Err(IngestError::Type(format!(
                    "missing required field '{}' of {}",
                    decl.name, rt.name
                ))),
                None => Ok(()),
            }
        }),
        (expected, _) => {
            r.check_value()?;
            let got = binary::decode_value(&r.buf[start..r.pos])?;
            Err(IngestError::Type(format!(
                "expected {expected}, got {} ({got})",
                got.type_name()
            )))
        }
    }
}

/// The paper's `Tweet` open type (Listing 3.1), used across tests and
/// examples.
pub fn tweet_type() -> RecordType {
    RecordType {
        name: "Tweet".into(),
        open: true,
        fields: vec![
            Field::required("id", AdmType::String),
            Field::required("user", AdmType::Named("TwitterUser".into())),
            Field::optional("latitude", AdmType::Double),
            Field::optional("longitude", AdmType::Double),
            Field::required("created_at", AdmType::String),
            Field::required("message_text", AdmType::String),
            Field::optional("country", AdmType::String),
        ],
    }
}

/// The paper's `TwitterUser` open type (Listing 3.1).
pub fn twitter_user_type() -> RecordType {
    RecordType {
        name: "TwitterUser".into(),
        open: true,
        fields: vec![
            Field::required("screen_name", AdmType::String),
            Field::required("lang", AdmType::String),
            Field::required("friends_count", AdmType::Int),
            Field::required("statuses_count", AdmType::Int),
            Field::required("name", AdmType::String),
            Field::required("followers_count", AdmType::Int),
        ],
    }
}

/// The paper's `ProcessedTweet` open type (Listing 3.1).
pub fn processed_tweet_type() -> RecordType {
    RecordType {
        name: "ProcessedTweet".into(),
        open: true,
        fields: vec![
            Field::required("id", AdmType::String),
            Field::required("user_name", AdmType::String),
            Field::optional("location", AdmType::Point),
            Field::required("created_at", AdmType::DateTime),
            Field::required("message_text", AdmType::String),
            Field::optional("country", AdmType::String),
            Field::required("topics", AdmType::OrderedList(Box::new(AdmType::String))),
            Field::required("sentiment", AdmType::Double),
        ],
    }
}

/// A registry pre-loaded with the paper's example types.
pub fn paper_registry() -> TypeRegistry {
    let reg = TypeRegistry::new();
    reg.register(twitter_user_type());
    reg.register(tweet_type());
    reg.register(processed_tweet_type());
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn user() -> AdmValue {
        AdmValue::record(vec![
            ("screen_name", "rg".into()),
            ("lang", "en".into()),
            ("friends_count", AdmValue::Int(10)),
            ("statuses_count", AdmValue::Int(5)),
            ("name", "Raman".into()),
            ("followers_count", AdmValue::Int(3)),
        ])
    }

    fn tweet() -> AdmValue {
        AdmValue::record(vec![
            ("id", "t1".into()),
            ("user", user()),
            ("latitude", AdmValue::Double(33.6)),
            ("longitude", AdmValue::Double(-117.8)),
            ("created_at", "2015-01-01".into()),
            ("message_text", "hi #asterixdb".into()),
        ])
    }

    #[test]
    fn tweet_conforms() {
        let reg = paper_registry();
        reg.check(&tweet(), &AdmType::Named("Tweet".into()))
            .unwrap();
    }

    #[test]
    fn optional_fields_may_be_absent_or_null() {
        let reg = paper_registry();
        let mut t = tweet();
        t.remove_field("latitude");
        t.set_field("country", AdmValue::Null);
        reg.check(&t, &AdmType::Named("Tweet".into())).unwrap();
    }

    #[test]
    fn missing_required_field_fails() {
        let reg = paper_registry();
        let mut t = tweet();
        t.remove_field("message_text");
        let err = reg.check(&t, &AdmType::Named("Tweet".into())).unwrap_err();
        assert!(err.to_string().contains("message_text"), "{err}");
    }

    #[test]
    fn null_required_field_fails() {
        let reg = paper_registry();
        let mut t = tweet();
        t.set_field("id", AdmValue::Null);
        assert!(reg.check(&t, &AdmType::Named("Tweet".into())).is_err());
    }

    #[test]
    fn open_type_allows_extra_fields() {
        let reg = paper_registry();
        let mut t = tweet();
        t.set_field("extra", AdmValue::Int(1));
        reg.check(&t, &AdmType::Named("Tweet".into())).unwrap();
    }

    #[test]
    fn closed_type_rejects_extra_fields() {
        let reg = TypeRegistry::new();
        reg.register(RecordType {
            name: "Pair".into(),
            open: false,
            fields: vec![
                Field::required("a", AdmType::Int),
                Field::required("b", AdmType::Int),
            ],
        });
        let ok = AdmValue::record(vec![("a", AdmValue::Int(1)), ("b", AdmValue::Int(2))]);
        reg.check(&ok, &AdmType::Named("Pair".into())).unwrap();
        let mut bad = ok.clone();
        bad.set_field("c", AdmValue::Int(3));
        assert!(reg.check(&bad, &AdmType::Named("Pair".into())).is_err());
    }

    #[test]
    fn wrong_field_type_fails_with_context() {
        let reg = paper_registry();
        let mut t = tweet();
        t.set_field("latitude", "north".into());
        let err = reg.check(&t, &AdmType::Named("Tweet".into())).unwrap_err();
        assert!(err.to_string().contains("latitude"), "{err}");
    }

    #[test]
    fn int_promotes_to_double() {
        let reg = TypeRegistry::new();
        reg.check(&AdmValue::Int(3), &AdmType::Double).unwrap();
    }

    #[test]
    fn lists_check_elements() {
        let reg = TypeRegistry::new();
        let ty = AdmType::OrderedList(Box::new(AdmType::String));
        reg.check(&AdmValue::OrderedList(vec!["a".into(), "b".into()]), &ty)
            .unwrap();
        assert!(reg
            .check(&AdmValue::OrderedList(vec![AdmValue::Int(1)]), &ty)
            .is_err());
        // ordered value does not satisfy unordered type
        let bag_ty = AdmType::UnorderedList(Box::new(AdmType::String));
        assert!(reg
            .check(&AdmValue::OrderedList(vec!["a".into()]), &bag_ty)
            .is_err());
    }

    #[test]
    fn unknown_named_type_errors() {
        let reg = TypeRegistry::new();
        let err = reg
            .check(&AdmValue::Int(1), &AdmType::Named("Nope".into()))
            .unwrap_err();
        assert!(matches!(err, IngestError::Metadata(_)));
    }

    #[test]
    fn any_accepts_everything() {
        let reg = TypeRegistry::new();
        for v in [
            AdmValue::Null,
            AdmValue::Int(1),
            AdmValue::Point(0.0, 0.0),
            AdmValue::record(vec![]),
        ] {
            reg.check(&v, &AdmType::Any).unwrap();
        }
    }

    #[test]
    fn check_bytes_is_the_checked_walk_with_conformance() {
        let reg = paper_registry();
        let ty = AdmType::Named("Tweet".into());
        let bytes = binary::encode_value(&tweet());
        reg.check_bytes(&bytes, &ty).unwrap();
        // malformed anywhere — inside a declared field, an open field, or
        // after the value — fails the same pass
        for cut in 0..bytes.len() {
            assert!(reg.check_bytes(&bytes[..cut], &ty).is_err(), "cut {cut}");
        }
        assert!(reg.check_bytes(&[&bytes[..], &[0]].concat(), &ty).is_err());
        let mut open_field = tweet();
        open_field.set_field("extra", "caf\u{e9}".into());
        let mut bad = binary::encode_value(&open_field);
        let at = bad.len() - 2;
        bad[at] = 0xFF;
        assert!(
            reg.check_bytes(&bad, &ty).is_err(),
            "UTF-8 of an open field"
        );
        // a mismatch names the field and shows the offending value
        let mut wrong = tweet();
        wrong.set_field("latitude", "north".into());
        let err = reg
            .check_bytes(&binary::encode_value(&wrong), &ty)
            .unwrap_err();
        assert!(err.to_string().contains("latitude"), "{err}");
        assert!(err.to_string().contains("north"), "{err}");
    }

    #[test]
    fn a_recursive_type_does_not_lift_the_nesting_bound() {
        // `Tree { child: Tree? }`: the type follows the data as deep as it
        // goes, so the reader's depth bound has to hold on typed levels too
        let reg = TypeRegistry::new();
        reg.register(RecordType {
            name: "Tree".into(),
            fields: vec![Field::optional("child", AdmType::Named("Tree".into()))],
            open: true,
        });
        let ty = AdmType::Named("Tree".into());
        let nested = |depth: usize| {
            let mut bytes = Vec::new();
            for _ in 0..depth {
                bytes.push(binary::TAG_RECORD);
                bytes.extend_from_slice(&1u32.to_le_bytes());
                bytes.extend_from_slice(&5u32.to_le_bytes());
                bytes.extend_from_slice(b"child");
            }
            bytes.push(binary::TAG_NULL);
            bytes
        };
        reg.check_bytes(&nested(100), &ty).unwrap();
        assert!(reg.check_bytes(&nested(1_000_000), &ty).is_err());
    }

    #[test]
    fn only_the_first_occurrence_of_a_repeated_name_is_declared() {
        let reg = paper_registry();
        let ty = AdmType::Named("TwitterUser".into());
        let AdmValue::Record(mut fields) = user() else {
            unreachable!()
        };
        // `field()` resolves the first `lang`; the repeat is an open field
        fields.push(("lang".into(), AdmValue::Int(7)));
        reg.check(&AdmValue::Record(fields.clone()), &ty).unwrap();
        fields.rotate_right(1);
        assert!(reg.check(&AdmValue::Record(fields), &ty).is_err());
    }

    #[test]
    fn display_types() {
        assert_eq!(
            AdmType::OrderedList(Box::new(AdmType::String)).to_string(),
            "[string]"
        );
        assert_eq!(AdmType::Named("Tweet".into()).to_string(), "Tweet");
    }
}
