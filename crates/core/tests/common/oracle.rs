//! The built-in UDFs as the tree bodies they were before they read record
//! views — a decoded `AdmValue` in, a new `AdmValue` out, `missing` for a
//! filtered record — kept as test oracles: a reference the view bodies in
//! `asterix_feeds::udf` are checked against, not a second path in `src`.

use asterix_adm::functions::starts_with;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};

/// `word-tokens($s)`: split on non-alphanumeric boundaries, keeping `#` and
/// `@` prefixes attached to their word.
fn word_tokens(v: &AdmValue) -> IngestResult<AdmValue> {
    let s = v.as_str().ok_or_else(|| {
        IngestError::Type(format!("word-tokens expects string, got {}", v.type_name()))
    })?;
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in s.chars() {
        if c.is_alphanumeric() || c == '_' || ((c == '#' || c == '@') && current.is_empty()) {
            current.push(c);
        } else if !current.is_empty() {
            tokens.push(AdmValue::String(std::mem::take(&mut current)));
        }
    }
    if !current.is_empty() {
        tokens.push(AdmValue::String(current));
    }
    Ok(AdmValue::OrderedList(tokens))
}

/// Listing 4.2's `addHashTags`: the `#`-tokens of `message_text` appended as
/// `topics`.
pub fn add_hash_tags(tweet: &AdmValue) -> IngestResult<AdmValue> {
    let text = tweet
        .field("message_text")
        .ok_or_else(|| IngestError::soft("record has no message_text attribute"))?;
    let tokens = word_tokens(text).map_err(|e| IngestError::soft(e.to_string()))?;
    let hash_prefix = AdmValue::string("#");
    let mut topics = Vec::new();
    for tok in tokens.as_list().unwrap_or(&[]) {
        if let AdmValue::Boolean(true) = starts_with(tok, &hash_prefix)? {
            topics.push(tok.clone());
        }
    }
    let mut out = tweet.clone();
    out.set_field("topics", AdmValue::OrderedList(topics));
    Ok(out)
}

/// `tweetlib#sentimentAnalysis`: a deterministic `sentiment ∈ [0, 1]` from
/// the lower-cased words of `message_text`.
pub fn sentiment_analysis(r: &AdmValue) -> IngestResult<AdmValue> {
    let text = r
        .field("message_text")
        .and_then(AdmValue::as_str)
        .ok_or_else(|| IngestError::soft("record has no message_text"))?;
    let positive = ["love", "great", "awesome", "good", "happy", "like"];
    let negative = ["hate", "terrible", "bad", "sad", "never"];
    let mut score = 0i32;
    for w in text.split_whitespace() {
        let w = w.to_ascii_lowercase();
        if positive.contains(&w.as_str()) {
            score += 1;
        } else if negative.contains(&w.as_str()) {
            score -= 1;
        }
    }
    let sentiment = 1.0 / (1.0 + (-(score as f64)).exp());
    let mut out = r.clone();
    out.set_field("sentiment", AdmValue::Double(sentiment));
    Ok(out)
}

/// A predicate feed: the record when `predicate` holds, else `missing`.
pub fn filter(r: &AdmValue, predicate: impl Fn(&AdmValue) -> bool) -> IngestResult<AdmValue> {
    if predicate(r) {
        Ok(r.clone())
    } else {
        Ok(AdmValue::Missing)
    }
}
