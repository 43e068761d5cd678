//! The user-defined-function framework (Ch. 4.2).
//!
//! A feed may "apply function" a UDF to every record before persistence.
//! Two kinds exist, with different compiler treatment:
//!
//! * **AQL UDFs** — transparent to the compiler ("the AsterixDB compiler can
//!   reason about an AQL UDF and even involve the use of indexes");
//! * **External (Java) UDFs** — "treated as a black box", assumed stateless
//!   and embarrassingly parallel.
//!
//! A UDF's body takes one of two shapes, whatever its kind:
//!
//! * a **view** body ([`ViewFn`]) reads the record through a
//!   [`RecordView`] — the checked walk's top-level field spans over the
//!   binary ADM payload — and writes the fields it derives into a
//!   [`RecordPatch`]. It decodes only the fields it reads and builds no
//!   tree; the output is the input's bytes with the patch applied, or the
//!   input itself when the patch is empty. The built-in functions
//!   ([`Udf::sentiment_analysis`], [`Udf::add_hash_tags`],
//!   [`Udf::busy_spin`], [`Udf::filter`]) are view bodies.
//! * a **tree** body ([`UdfFn`]) is an `AdmValue → AdmValue` function: the
//!   record is decoded, the function runs, its output is encoded. AQL
//!   function bodies and user closures ([`Udf::aql`], [`Udf::external`]) are
//!   tree bodies — the paper's black box.
//!
//! The assign stage calls [`Udf::apply_bytes`] for either; [`Udf::apply`]
//! runs either on a value. The experiments of §5.7.2 use synthetic external
//! UDFs whose cost is a busy spin loop "that runs for a given number of
//! iterations" — [`Udf::busy_spin`] reproduces those.

use asterix_adm::binary::{encode_into, FieldSpan};
use asterix_adm::functions::word_token_strs;
use asterix_adm::{decode_value, encode_value, AdmValue, RecordPatch, RecordView};
use asterix_common::{IngestError, IngestResult};
use bytes::Bytes;
use std::sync::Arc;

/// How the function was authored (affects compiler treatment, not runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdfKind {
    /// Declarative AQL function — inlined by the compiler.
    Aql,
    /// External black-box function (the paper's Java UDFs).
    External,
}

/// A tree body: the record as a value in, the output record out (`missing`
/// filters the record).
pub type UdfFn = Arc<dyn Fn(&AdmValue) -> IngestResult<AdmValue> + Send + Sync>;

/// A view body: reads the record through the view, writes into the patch,
/// and returns `false` to filter the record.
pub type ViewFn = Arc<dyn Fn(&RecordView, &mut RecordPatch) -> IngestResult<bool> + Send + Sync>;

/// What a UDF runs on.
#[derive(Clone)]
enum Body {
    Tree(UdfFn),
    View(ViewFn),
}

/// The buffers one [`Udf::apply_bytes`] caller reuses from record to record:
/// the view's span table, the patch, and the output image.
#[derive(Debug, Default)]
pub struct UdfScratch {
    spans: Vec<FieldSpan>,
    patch: RecordPatch,
    out: Vec<u8>,
}

/// A record-to-record pre-processing function.
#[derive(Clone)]
pub struct Udf {
    /// Function name; external functions use the qualified
    /// `library#function` form (Listing 5.9).
    pub name: String,
    /// AQL or external.
    pub kind: UdfKind,
    body: Body,
}

const POSITIVE: [&str; 6] = ["love", "great", "awesome", "good", "happy", "like"];
const NEGATIVE: [&str; 5] = ["hate", "terrible", "bad", "sad", "never"];

impl Udf {
    /// Wrap a closure over values as an AQL UDF.
    pub fn aql(
        name: impl Into<String>,
        f: impl Fn(&AdmValue) -> IngestResult<AdmValue> + Send + Sync + 'static,
    ) -> Udf {
        Udf {
            name: name.into(),
            kind: UdfKind::Aql,
            body: Body::Tree(Arc::new(f)),
        }
    }

    /// Wrap a closure over values as an external ("Java") UDF.
    pub fn external(
        name: impl Into<String>,
        f: impl Fn(&AdmValue) -> IngestResult<AdmValue> + Send + Sync + 'static,
    ) -> Udf {
        Udf {
            name: name.into(),
            kind: UdfKind::External,
            body: Body::Tree(Arc::new(f)),
        }
    }

    /// Wrap a closure over a record view as a UDF of `kind`.
    pub fn on_view(
        name: impl Into<String>,
        kind: UdfKind,
        f: impl Fn(&RecordView, &mut RecordPatch) -> IngestResult<bool> + Send + Sync + 'static,
    ) -> Udf {
        Udf {
            name: name.into(),
            kind,
            body: Body::View(Arc::new(f)),
        }
    }

    /// Does the body need the record decoded into a tree?
    pub fn decodes_record(&self) -> bool {
        matches!(self.body, Body::Tree(_))
    }

    /// Run `call` — the body — inside the sandbox its kind gets: a panic
    /// inside an external function is caught and surfaced as a soft failure,
    /// the sandbox boundary for buggy user code (§6.1).
    fn sandboxed<T>(&self, call: impl FnOnce() -> IngestResult<T>) -> IngestResult<T> {
        match self.kind {
            UdfKind::Aql => call(),
            UdfKind::External => std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "panic in external UDF".into());
                    Err(IngestError::soft(format!(
                        "external UDF {} panicked: {msg}",
                        self.name
                    )))
                }),
        }
    }

    /// Apply to one record's payload: the output payload, or `None` when the
    /// function filtered the record. A view body forwards `payload` itself
    /// when it sets nothing; otherwise the output is written into `scratch`
    /// and copied once into an exactly-sized payload. Bytes that are not
    /// well-formed binary ADM are a soft failure.
    pub fn apply_bytes(
        &self,
        payload: &Bytes,
        scratch: &mut UdfScratch,
    ) -> IngestResult<Option<Bytes>> {
        let UdfScratch { spans, patch, out } = scratch;
        out.clear();
        match &self.body {
            Body::Tree(f) => {
                let value = decode_value(payload).map_err(|e| IngestError::soft(e.to_string()))?;
                match self.sandboxed(|| f(&value))? {
                    AdmValue::Missing => return Ok(None),
                    record => encode_into(&record, out),
                }
            }
            Body::View(f) => {
                let view = RecordView::new(payload, spans)
                    .map_err(|e| IngestError::soft(e.to_string()))?;
                patch.clear();
                if !self.sandboxed(|| f(&view, patch))? || view.is_missing() {
                    return Ok(None);
                }
                if patch.is_empty() {
                    return Ok(Some(payload.clone()));
                }
                patch.write(&view, out)?;
            }
        }
        Ok(Some(Bytes::from(&out[..])))
    }

    /// Apply to one record as a value; `missing` means filtered. A view
    /// body runs on the value's encoding and its output is decoded.
    pub fn apply(&self, record: &AdmValue) -> IngestResult<AdmValue> {
        match &self.body {
            Body::Tree(f) => self.sandboxed(|| f(record)),
            Body::View(_) => {
                let payload = Bytes::from(encode_value(record));
                match self.apply_bytes(&payload, &mut UdfScratch::default())? {
                    Some(out) => decode_value(&out),
                    None => Ok(AdmValue::Missing),
                }
            }
        }
    }

    /// The paper's Listing 4.2 `addHashTags` AQL UDF: the `#`-words of
    /// `message_text`, as `word-tokens` splits it, appended as an ordered
    /// list `topics`.
    pub fn add_hash_tags() -> Udf {
        Udf::on_view("addHashTags", UdfKind::Aql, |tweet, patch| {
            let text = tweet.str("message_text").ok_or_else(|| {
                IngestError::soft(match tweet.field("message_text") {
                    None => "record has no message_text attribute".to_string(),
                    Some(v) => IngestError::Type(format!(
                        "word-tokens expects string, got {}",
                        v.type_name()
                    ))
                    .to_string(),
                })
            })?;
            let topics = word_token_strs(text)
                .filter(|t| t.starts_with('#'))
                .map(AdmValue::string)
                .collect();
            patch.set("topics", &AdmValue::OrderedList(topics));
            Ok(true)
        })
    }

    /// A synthetic external UDF spinning for `iterations` loop steps per
    /// record and reading nothing — the §5.7.2 technique for modelling UDFs
    /// of varying computational cost.
    pub fn busy_spin(name: impl Into<String>, iterations: u64) -> Udf {
        Udf::on_view(name, UdfKind::External, move |_, _| {
            let mut acc = 0u64;
            for i in 0..iterations {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            std::hint::black_box(acc);
            Ok(true)
        })
    }

    /// A filtering UDF: keeps records satisfying `predicate` as they are
    /// and drops the rest. Subscriptions in the §8.2 publish-subscribe use
    /// case are such predicate feeds.
    pub fn filter(
        name: impl Into<String>,
        predicate: impl Fn(&RecordView) -> bool + Send + Sync + 'static,
    ) -> Udf {
        Udf::on_view(name, UdfKind::Aql, move |r, _| Ok(predicate(r)))
    }

    /// A sentiment-analysis stand-in (the paper's `tweetlib#sentimentAnalysis`,
    /// Listing 5.9): appends a deterministic `sentiment ∈ [0, 1]` derived
    /// from the message text's positive and negative words, matched without
    /// regard to ASCII case.
    pub fn sentiment_analysis() -> Udf {
        Udf::on_view(
            "tweetlib#sentimentAnalysis",
            UdfKind::External,
            |r, patch| {
                let text = r
                    .str("message_text")
                    .ok_or_else(|| IngestError::soft("record has no message_text"))?;
                let mut score = 0i32;
                for w in text.split_whitespace() {
                    if POSITIVE.iter().any(|p| w.eq_ignore_ascii_case(p)) {
                        score += 1;
                    } else if NEGATIVE.iter().any(|n| w.eq_ignore_ascii_case(n)) {
                        score -= 1;
                    }
                }
                let sentiment = 1.0 / (1.0 + (-(score as f64)).exp());
                patch.set("sentiment", &AdmValue::Double(sentiment));
                Ok(true)
            },
        )
    }
}

impl std::fmt::Debug for Udf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Udf({}, {:?})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::payload_from_value;

    fn tweet(text: &str) -> AdmValue {
        AdmValue::record(vec![("id", "t1".into()), ("message_text", text.into())])
    }

    #[test]
    fn add_hash_tags_udf() {
        let u = Udf::add_hash_tags();
        assert_eq!(u.kind, UdfKind::Aql);
        let out = u.apply(&tweet("I like #Obama and #politics, a#b")).unwrap();
        let topics = out.field("topics").unwrap().as_list().unwrap();
        assert_eq!(topics, [AdmValue::string("#Obama"), "#politics".into()]);
        // original fields preserved
        assert_eq!(out.field("id").and_then(AdmValue::as_str), Some("t1"));
    }

    #[test]
    fn add_hash_tags_soft_fails_without_string_text() {
        let u = Udf::add_hash_tags();
        let absent = AdmValue::record(vec![("id", "t1".into())]);
        assert!(u.apply(&absent).unwrap_err().is_soft());
        let mistyped = AdmValue::record(vec![("message_text", AdmValue::Int(3))]);
        let err = u.apply(&mistyped).unwrap_err();
        assert!(
            err.is_soft() && err.to_string().contains("got int64"),
            "{err}"
        );
    }

    #[test]
    fn busy_spin_is_identity_and_forwards_the_payload() {
        let u = Udf::busy_spin("f1", 10_000);
        let t = tweet("x");
        assert_eq!(u.apply(&t).unwrap(), t);
        assert_eq!(u.kind, UdfKind::External);
        let payload = payload_from_value(t);
        let out = u
            .apply_bytes(&payload, &mut UdfScratch::default())
            .unwrap()
            .unwrap();
        assert_eq!(out.as_ptr(), payload.as_ptr(), "the input, not a copy");
    }

    #[test]
    fn busy_spin_cost_scales() {
        let cheap = Udf::busy_spin("cheap", 0);
        let costly = Udf::busy_spin("costly", 3_000_000);
        let t = tweet("x");
        let t0 = std::time::Instant::now();
        for _ in 0..50 {
            cheap.apply(&t).unwrap();
        }
        let cheap_time = t0.elapsed();
        let t1 = std::time::Instant::now();
        for _ in 0..50 {
            costly.apply(&t).unwrap();
        }
        let costly_time = t1.elapsed();
        assert!(
            costly_time > cheap_time * 3,
            "costly {costly_time:?} vs cheap {cheap_time:?}"
        );
    }

    #[test]
    fn sentiment_lands_in_unit_interval() {
        let u = Udf::sentiment_analysis();
        for text in ["love love great", "hate terrible bad sad", "neutral words"] {
            let out = u.apply(&tweet(text)).unwrap();
            let s = out.field("sentiment").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&s), "{text} → {s}");
        }
        let pos = u.apply(&tweet("LOVE Great awesome")).unwrap();
        let neg = u.apply(&tweet("hate terrible bad")).unwrap();
        assert!(
            pos.field("sentiment").unwrap().as_f64().unwrap()
                > neg.field("sentiment").unwrap().as_f64().unwrap()
        );
    }

    #[test]
    fn filter_keeps_the_payload_or_drops_the_record() {
        let u = Udf::filter("hasText", |r| r.str("message_text").is_some());
        let mut scratch = UdfScratch::default();
        let kept = payload_from_value(tweet("x"));
        let out = u.apply_bytes(&kept, &mut scratch).unwrap().unwrap();
        assert_eq!(out.as_ptr(), kept.as_ptr());
        let dropped = payload_from_value(AdmValue::record(vec![("id", "t2".into())]));
        assert_eq!(u.apply_bytes(&dropped, &mut scratch).unwrap(), None);
        assert_eq!(
            u.apply(&AdmValue::record(vec![])).unwrap(),
            AdmValue::Missing
        );
    }

    #[test]
    fn corrupt_payloads_are_soft_failures_on_either_body() {
        let mut scratch = UdfScratch::default();
        let payload = payload_from_value(tweet("love"));
        let torn = Bytes::from(&payload[..payload.len() - 1]);
        for u in [
            Udf::sentiment_analysis(),
            Udf::external("tree", |r| Ok(r.clone())),
        ] {
            assert!(u.apply_bytes(&torn, &mut scratch).unwrap_err().is_soft());
        }
    }

    #[test]
    fn external_panic_becomes_soft_failure() {
        let tree = Udf::external("buggy", |_| panic!("NPE!"));
        let view = Udf::on_view("buggy", UdfKind::External, |_, _| panic!("NPE!"));
        for u in [tree, view] {
            let err = u.apply(&tweet("x")).unwrap_err();
            assert!(err.is_soft());
            assert!(err.to_string().contains("NPE"), "{err}");
        }
    }

    #[test]
    fn aql_errors_pass_through() {
        let u = Udf::aql("checker", |_| Err(IngestError::soft("bad record")));
        assert!(u.apply(&tweet("x")).unwrap_err().is_soft());
    }
}
