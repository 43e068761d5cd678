//! Property tests: the built-in UDFs' view bodies write, byte for byte, what
//! the tree bodies they replaced (kept in `common/oracle.rs`) build and
//! encode — over tweet-like records that already carry `sentiment` or
//! `topics`, repeat a name, carry a non-string `message_text` or none, and
//! over values that are no record at all — and a payload that is not
//! well-formed binary ADM is a soft failure of every body, never a panic.

use asterix_adm::binary::{checked_spans, record_spans, validate};
use asterix_adm::{decode_value, encode_value, payload_from_value, AdmValue};
use asterix_common::IngestResult;
use asterix_feeds::udf::{Udf, UdfKind, UdfScratch};
use bytes::Bytes;
use proptest::prelude::*;

#[path = "../../adm/tests/common/gen.rs"]
mod gen;
#[path = "common/oracle.rs"]
mod oracle;

const WORDS: &[&str] = &[
    "love", "LOVE", "Great", "hate", "NEVER", "sad.", "#tag", "#Obama", "a#b", "@you", "x_y",
    "déjà", "#", "##a", "good,", "ſad", "\u{212A}", "US",
];
const SEPARATORS: &[&str] = &[" ", "  ", "\t", "\n", ",", "#", "", "\u{3000}"];
const NAMES: &[&str] = &["message_text", "sentiment", "topics", "country", "id", "a"];

/// Message-like text: the sentiment words in several cases, hashtags in
/// every position `word-tokens` treats differently, non-ASCII letters and
/// whitespace.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0..WORDS.len(), 0..SEPARATORS.len()), 0..8).prop_map(|parts| {
        parts
            .into_iter()
            .map(|(w, s)| format!("{}{}", WORDS[w], SEPARATORS[s]))
            .collect()
    })
}

/// A field value: mostly text or a country, sometimes anything at all.
fn field_value() -> impl Strategy<Value = AdmValue> {
    prop_oneof![
        3 => text().prop_map(AdmValue::String),
        1 => prop_oneof![Just("US"), Just("JP")].prop_map(AdmValue::string),
        2 => gen::adm_value(),
    ]
}

/// Tweet-like records over a few names (so duplicates and pre-existing
/// `sentiment` / `topics` fields are common), or any value at all.
fn input() -> impl Strategy<Value = AdmValue> {
    let field = (0..NAMES.len(), field_value()).prop_map(|(n, v)| (NAMES[n].to_string(), v));
    prop_oneof![
        4 => prop::collection::vec(field, 0..8).prop_map(AdmValue::Record),
        1 => gen::adm_value(),
    ]
}

/// Each built-in, with the oracle it must agree with.
type Oracle = fn(&AdmValue) -> IngestResult<AdmValue>;

fn builtins() -> Vec<(Udf, Oracle)> {
    vec![
        (Udf::sentiment_analysis(), oracle::sentiment_analysis),
        (Udf::add_hash_tags(), oracle::add_hash_tags),
        (Udf::busy_spin("spin", 3), |r| Ok(r.clone())),
        (
            Udf::filter("onlyUS", |t| t.str("country") == Some("US")),
            |r| {
                oracle::filter(r, |t| {
                    t.field("country").and_then(AdmValue::as_str) == Some("US")
                })
            },
        ),
        (
            Udf::filter("noText", |t| t.field("message_text").is_none()),
            |r| oracle::filter(r, |t| t.field("message_text").is_none()),
        ),
    ]
}

/// `apply_bytes` on well-formed `payload` equals the oracle's output on the
/// decoded record, encoded (`None` where the oracle returns `missing`), or
/// both are soft failures.
fn agrees(udf: &Udf, oracle: Oracle, payload: &Bytes, scratch: &mut UdfScratch) -> TestCaseResult {
    let got = udf.apply_bytes(payload, scratch);
    let want = oracle(&decode_value(payload).unwrap()).map(|v| match v {
        AdmValue::Missing => None,
        v => Some(payload_from_value(v)),
    });
    match (got, want) {
        (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{}", udf.name),
        (Err(got), Err(want)) => {
            prop_assert!(
                got.is_soft() && want.is_soft(),
                "{}: {got} / {want}",
                udf.name
            )
        }
        (got, want) => prop_assert!(false, "{}: {got:?} but the oracle {want:?}", udf.name),
    }
    Ok(())
}

proptest! {
    #[test]
    fn view_bodies_write_what_the_tree_oracles_encode(record in input()) {
        let payload = payload_from_value(record.clone());
        // one scratch for every call, as an assign instance keeps one
        let mut scratch = UdfScratch::default();
        for (udf, oracle) in builtins() {
            prop_assert!(!udf.decodes_record(), "{} builds a tree", udf.name);
            agrees(&udf, oracle, &payload, &mut scratch)?;
            // the value-taking entry point agrees too
            let by_value = udf.apply(&record).map(|v| encode_value(&v));
            let by_oracle = oracle(&record).map(|v| encode_value(&v));
            match (by_value, by_oracle) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(a.is_err() && b.is_err(), "{}", udf.name),
            }
        }
    }

    #[test]
    fn torn_and_flipped_payloads_fail_softly(
        record in input(),
        cut in any::<usize>(),
        at in any::<usize>(),
        bit in 0u32..8,
    ) {
        let bytes = encode_value(&record);
        let torn = Bytes::from(&bytes[..cut % bytes.len()]);
        let mut flipped = bytes.clone();
        flipped[at % bytes.len()] ^= 1 << bit;
        let flipped = Bytes::from(flipped);
        let mut scratch = UdfScratch::default();
        let tree = Udf::external("tree", |r| Ok(r.clone()));
        for (udf, oracle) in builtins() {
            let torn_out = udf.apply_bytes(&torn, &mut scratch);
            prop_assert!(torn_out.is_err_and(|e| e.is_soft()), "{}", udf.name);
            if validate(&flipped).is_ok() {
                agrees(&udf, oracle, &flipped, &mut scratch)?;
            } else {
                let out = udf.apply_bytes(&flipped, &mut scratch);
                prop_assert!(out.is_err_and(|e| e.is_soft()), "{}", udf.name);
                let out = tree.apply_bytes(&flipped, &mut scratch);
                prop_assert!(out.is_err_and(|e| e.is_soft()));
            }
        }
    }

    #[test]
    fn the_view_walk_is_validate(
        record in input(),
        at in any::<usize>(),
        byte in any::<u8>(),
        junk in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut bytes = encode_value(&record);
        let mut spans = Vec::new();
        let mut split = Vec::new();
        for input in [bytes.clone(), junk] {
            prop_assert_eq!(checked_spans(&input, &mut spans).is_ok(), validate(&input).is_ok());
            if validate(&input).is_ok() && record_spans(&input, &mut split) {
                prop_assert_eq!(&spans, &split);
            } else {
                prop_assert!(spans.is_empty());
            }
        }
        let at = at % bytes.len();
        bytes[at] = byte;
        prop_assert_eq!(checked_spans(&bytes, &mut spans).is_ok(), validate(&bytes).is_ok());
    }
}

#[test]
fn a_panicking_view_udf_is_a_soft_failure_and_leaves_no_trace() {
    let udf = Udf::on_view("lib#flaky", UdfKind::External, |r, patch| {
        patch.set("half", &AdmValue::Int(1));
        if r.str("id") == Some("bad") {
            panic!("NPE on a bad record");
        }
        Ok(true)
    });
    let record = |id: &str| payload_from_value(AdmValue::record(vec![("id", id.into())]));
    let mut scratch = UdfScratch::default();
    let err = udf.apply_bytes(&record("bad"), &mut scratch).unwrap_err();
    assert!(err.is_soft() && err.to_string().contains("NPE"), "{err}");
    // the next record starts from an empty patch
    let out = udf
        .apply_bytes(&record("ok"), &mut scratch)
        .unwrap()
        .unwrap();
    assert_eq!(
        decode_value(&out).unwrap(),
        AdmValue::record(vec![("id", "ok".into()), ("half", AdmValue::Int(1))])
    );
}
