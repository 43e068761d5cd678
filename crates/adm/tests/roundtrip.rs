//! Property tests: the ADM printer and parser are mutual inverses, the
//! transcoder is the tree-building parser it replaced byte for byte, the
//! binary codec round-trips bit-exactly, the value hash respects equality,
//! and the total order is indeed total.

use asterix_adm::binary::{record_spans, validate};
use asterix_adm::{
    decode_fields, decode_value, encode_value, parse_value, record_field_slice, to_adm_string,
    transcode, AdmType, AdmValue, TypeRegistry,
};
use proptest::prelude::*;

#[path = "common/gen.rs"]
mod gen;
#[path = "common/oracle.rs"]
mod oracle;

/// What a buffer holds before `transcode` appends to it.
const HELD: &[u8] = b"held";

/// `transcode` and the oracle agree on `text`: both succeed and `transcode`
/// appends `encode_value` of the oracle's tree, or both fail with the same
/// error and `transcode` leaves the buffer as it found it.
fn agree(text: &str) -> Result<(), TestCaseError> {
    let mut out = HELD.to_vec();
    match (oracle::parse(text), transcode(text, &mut out)) {
        (Ok(tree), Ok(())) => {
            prop_assert_eq!(&out[..HELD.len()], HELD);
            prop_assert_eq!(&out[HELD.len()..], &encode_value(&tree)[..], "{:?}", text);
        }
        (Err(want), Err(got)) => {
            prop_assert_eq!(want.to_string(), got.to_string(), "{:?}", text);
            prop_assert_eq!(&out[..], HELD, "{:?}", text);
        }
        (want, got) => prop_assert!(false, "{text:?}: oracle {want:?}, transcode {got:?}"),
    }
    Ok(())
}

/// Non-finite doubles have no text form; everything else in the shared
/// generator's values does.
fn printable(v: AdmValue) -> AdmValue {
    let finite = |d: f64| if d.is_finite() { d } else { 0.5 };
    match v {
        AdmValue::Double(d) => AdmValue::Double(finite(d)),
        AdmValue::Point(x, y) => AdmValue::Point(finite(x), finite(y)),
        AdmValue::OrderedList(items) => {
            AdmValue::OrderedList(items.into_iter().map(printable).collect())
        }
        AdmValue::UnorderedList(items) => {
            AdmValue::UnorderedList(items.into_iter().map(printable).collect())
        }
        AdmValue::Record(fields) => {
            AdmValue::Record(fields.into_iter().map(|(k, v)| (k, printable(v))).collect())
        }
        other => other,
    }
}

/// Bytes a single-byte substitution draws from.
const SUBSTITUTES: &[u8] = b"{}[],:\"\\ 0123456789abcdefghijklmnopqrstuvwxyz";

#[test]
fn transcoder_agrees_with_the_oracle_on_hostile_text() {
    let table = [
        // escapes: a lone surrogate, a short \u, one at the end of input
        r#""\ud800""#,
        r#""\u12""#,
        r#""\u12"#,
        r#""\x""#,
        r#"{"aé\n": "A\t\"\\\/\b\f\r"}"#,
        // numbers: overflow to a bit-exact infinity, negative zero, i64
        // overflow, half a number
        "1e999",
        "-1e999",
        "-0.0",
        "99999999999999999999999",
        "-9223372036854775808",
        "-",
        "1.",
        "1e",
        "--1",
        // collections
        "{{1}",
        "{{1} }",
        "{{}}",
        "{{ } }",
        "[1,]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "[[[]]]",
        // CRLF whitespace and bare identifiers as field names
        "{\r\n  id: \"x\",\r\n  _tag-2: [1,\r\n2]\r\n}\r\n",
        "{ 1: 2 }",
        "nul",
        "NaN",
        // constructors, both forms each
        "point(1, -2.5)",
        "point(\"3.5, -4\")",
        "point(\" inf ,NaN\")",
        "point(\"1\")",
        "point(1)",
        "point(\"1,2\"",
        "datetime(1420070400000)",
        "datetime(\"2015-01-01T00:00:00.123Z\")",
        "datetime(1.5)",
        "datetime(\"2015-02-30\")",
        // hostile dates: a fraction ending inside a character, an instant
        // past i64 milliseconds
        "datetime(\"2015-01-01T00:00:00.a€\")",
        "datetime(\"300000000-01-01\")",
        // text that is not ADM at all
        "",
        "   ",
        "é",
        "\"é\" x",
        "not adm at all {{{",
    ];
    for text in table {
        agree(text).unwrap_or_else(|e| panic!("{e:?}"));
    }
    // the numbers that have no text form of their own arrive bit-exact
    for (text, want) in [("1e999", f64::INFINITY), ("-0.0", -0.0)] {
        match parse_value(text).unwrap() {
            AdmValue::Double(d) => assert_eq!(d.to_bits(), want.to_bits(), "{text}"),
            other => panic!("{text}: {other:?}"),
        }
    }
    for text in [
        "datetime(\"2015-01-01T00:00:00.a€\")",
        "datetime(\"300000000-01-01\")",
    ] {
        let err = transcode(text, &mut Vec::new()).unwrap_err().to_string();
        assert!(err.contains("bad ISO datetime"), "{text}: {err}");
    }
}

/// Strategy producing arbitrary ADM values with finite doubles.
fn adm_value() -> impl Strategy<Value = AdmValue> {
    let leaf = prop_oneof![
        Just(AdmValue::Null),
        Just(AdmValue::Missing),
        any::<bool>().prop_map(AdmValue::Boolean),
        any::<i64>().prop_map(AdmValue::Int),
        // finite doubles only: NaN/inf have no textual form
        prop::num::f64::NORMAL.prop_map(AdmValue::Double),
        Just(AdmValue::Double(0.0)),
        "[a-zA-Z0-9 #@_\\\\\"\n]{0,20}".prop_map(AdmValue::String),
        (prop::num::f64::NORMAL, prop::num::f64::NORMAL).prop_map(|(x, y)| AdmValue::Point(x, y)),
        any::<i64>().prop_map(AdmValue::DateTime),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(AdmValue::OrderedList),
            prop::collection::vec(inner.clone(), 0..6).prop_map(AdmValue::UnorderedList),
            prop::collection::vec(("[a-z_]{1,8}", inner), 0..6).prop_map(|fields| {
                // dedupe keys: records with duplicate fields are not canonical
                let mut seen = std::collections::HashSet::new();
                AdmValue::Record(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
        ]
    })
}

proptest! {
    #[test]
    fn print_parse_roundtrip(v in adm_value()) {
        let text = to_adm_string(&v);
        let back = parse_value(&text)
            .unwrap_or_else(|e| panic!("failed to reparse `{text}`: {e}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn equal_values_hash_equal(v in adm_value()) {
        let copy = v.clone();
        prop_assert_eq!(
            asterix_adm::hash::hash_value(&v),
            asterix_adm::hash::hash_value(&copy)
        );
    }

    #[test]
    fn total_cmp_is_reflexive_and_antisymmetric(a in adm_value(), b in adm_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
        let _ = parse_value(&s);
    }

    /// The adaptor's bytes are the printed value's encoding, appended.
    #[test]
    fn transcode_appends_the_encoding_of_the_printed_value(
        v in gen::adm_value().prop_map(printable)
    ) {
        let mut out = HELD.to_vec();
        transcode(&to_adm_string(&v), &mut out).unwrap();
        prop_assert_eq!(&out[..HELD.len()], HELD);
        prop_assert_eq!(&out[HELD.len()..], &encode_value(&v)[..]);
    }

    /// Every prefix of a printed value, and the text with any one character
    /// replaced by a grammar byte: the transcoder and the tree-building
    /// parser accept the same texts, write the same value and reject the
    /// rest with the same message at the same byte.
    #[test]
    fn transcoder_agrees_with_the_oracle_on_prefixes_and_substitutions(
        v in gen::adm_value(),
        seed in any::<usize>(),
    ) {
        let text = to_adm_string(&v);
        agree(&text)?;
        for (i, c) in text.char_indices() {
            agree(&text[..i])?;
            let sub = SUBSTITUTES[seed.wrapping_add(i) % SUBSTITUTES.len()] as char;
            agree(&format!("{}{sub}{}", &text[..i], &text[i + c.len_utf8()..]))?;
        }
    }

    #[test]
    fn transcoder_agrees_with_the_oracle_on_arbitrary_input(s in "\\PC{0,64}") {
        agree(&s)?;
    }

    #[test]
    fn binary_roundtrip(v in adm_value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes)
            .unwrap_or_else(|e| panic!("failed to decode {v:?}: {e}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn binary_and_text_roundtrips_agree(v in adm_value()) {
        // decoding the binary form and reparsing the text form must land on
        // the same value: the two codecs describe the same data model
        let via_binary = decode_value(&encode_value(&v)).unwrap();
        let via_text = parse_value(&to_adm_string(&v)).unwrap();
        prop_assert_eq!(via_binary, via_text);
    }

    #[test]
    fn binary_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..128)
    ) {
        let _ = decode_value(&bytes);
    }

    /// The checked walk accepts exactly what the decoder accepts — storage
    /// trusts bytes on its say-so — and what it accepts is canonical: the
    /// bytes are the encoding of the value they decode to.
    #[test]
    fn checked_walk_agrees_with_the_decoder(
        v in adm_value(),
        noise in prop::collection::vec(any::<u8>(), 0..128),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let valid = encode_value(&v);
        let mut flipped = valid.clone();
        let i = at % flipped.len();
        flipped[i] ^= flip;
        let registry = TypeRegistry::new();
        for bytes in [&valid, &flipped, &noise] {
            let decoded = decode_value(bytes);
            prop_assert_eq!(validate(bytes).is_ok(), decoded.is_ok());
            prop_assert_eq!(registry.check_bytes(bytes, &AdmType::Any).is_ok(), decoded.is_ok());
            if let Ok(value) = decoded {
                prop_assert_eq!(&encode_value(&value), bytes);
            }
        }
        for cut in 0..valid.len() {
            prop_assert!(validate(&valid[..cut]).is_err(), "truncation at {} accepted", cut);
        }
    }

    /// The projections never panic on hostile bytes, and on any prefix of a
    /// valid record return an error or what the prefix really holds.
    #[test]
    fn projections_never_panic_and_never_invent_a_field(
        fields in prop::collection::vec(("[ab]{1,2}", adm_value()), 0..6),
        noise in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let names = ["a", "ab", "zz"];
        let mut spans = Vec::new();
        let _ = decode_fields(&noise, &names);
        let _ = record_field_slice(&noise, "a");
        let _ = record_spans(&noise, &mut spans);
        let record = AdmValue::Record(fields);
        let bytes = encode_value(&record);
        prop_assert!(record_spans(&bytes, &mut spans));
        for cut in 0..bytes.len() {
            if let Ok(projection) = decode_fields(&bytes[..cut], &names) {
                for name in names {
                    if let Some(got) = projection.field(name) {
                        prop_assert_eq!(Some(got), record.field(name));
                    }
                }
            }
            prop_assert!(!record_spans(&bytes[..cut], &mut spans) && spans.is_empty());
        }
    }

    #[test]
    fn binary_decoder_rejects_appended_garbage(v in adm_value(), junk in 1u8..=255) {
        // a valid encoding followed by any extra byte must be rejected whole
        let mut bytes = encode_value(&v);
        bytes.push(junk);
        prop_assert!(decode_value(&bytes).is_err());
    }
}
