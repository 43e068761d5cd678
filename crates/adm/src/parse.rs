//! ADM text → binary ADM, in one grammar walk.
//!
//! A hand-written recursive-descent walk over the textual form of ADM. The
//! grammar is JSON plus the ADM extensions the paper uses:
//!
//! * `missing` literal;
//! * unordered lists (bags): `{{ v, v, ... }}`;
//! * `point(x, y)` and `point("x,y")` spatial constructors;
//! * `datetime(millis)` and `datetime("YYYY-MM-DDTHH:MM:SS[.mmm][Z]")`
//!   temporal constructors;
//! * bare identifiers as record field names (`{ id: 1 }`).
//!
//! The walk builds no value: [`transcode`] appends the [`crate::binary`]
//! image of the value the text denotes straight to a byte buffer — record,
//! list and bag counts and string lengths go in as placeholders and are
//! back-patched when the value closes. That is what an adaptor hands on
//! (§5.3.1's "translate into ADM"), one walk and no tree per record.
//! Collections nest at most 128 deep, the binary reader's bound: deeper text
//! is a parse error, not a stack overflow.
//!
//! There is one grammar. [`parse_value`], for callers that want a tree (the
//! glued-system baseline, tests, benchmark set-up), is
//! [`binary::decode_value`] of [`transcode`]'s bytes.
//! `parse_value(to_adm_string(v)) == v` for any value with finite doubles,
//! and `transcode` appends exactly `encode_value` of what the tree-building
//! parser it replaced returned — both verified by proptest suites.

use crate::binary::{
    self, MAX_DEPTH, TAG_BOOLEAN, TAG_DATETIME, TAG_DOUBLE, TAG_INT, TAG_MISSING, TAG_NULL,
    TAG_ORDERED_LIST, TAG_POINT, TAG_RECORD, TAG_STRING, TAG_UNORDERED_LIST,
};
use crate::value::AdmValue;
use asterix_common::metrics::Counter;
use asterix_common::{IngestError, IngestResult};
use std::sync::OnceLock;

/// Process-wide count of text-grammar walks, as a typed [`Counter`].
///
/// The parse-once pipeline tests read this to assert that a record flowing
/// adaptor → intake → assign → store is parsed exactly once; benchmarks use
/// it to attribute cost. Incremented by every [`transcode`] call, so by
/// every [`parse_value`] call too.
fn parse_counter() -> &'static Counter {
    static PARSE_CALLS: OnceLock<Counter> = OnceLock::new();
    PARSE_CALLS.get_or_init(Counter::new)
}

/// Current value of the global parse counter.
pub fn parse_calls() -> u64 {
    parse_counter().get()
}

/// Parse a complete ADM value into a tree: [`transcode`], then
/// [`binary::decode_value`]. Trailing non-whitespace is an error.
pub fn parse_value(input: &str) -> IngestResult<AdmValue> {
    let mut bytes = Vec::with_capacity(input.len());
    transcode(input, &mut bytes)?;
    binary::decode_value(&bytes)
}

/// Parse a complete ADM value, appending its binary ADM encoding — the bytes
/// [`binary::encode_into`] writes for the value the text denotes — to `out`.
/// Trailing non-whitespace is an error; on any error `out` is left as it
/// was on entry.
pub fn transcode(text: &str, out: &mut Vec<u8>) -> IngestResult<()> {
    parse_counter().inc();
    let start = out.len();
    let mut p = Parser {
        text,
        src: text.as_bytes(),
        pos: 0,
        depth: 0,
        out,
    };
    let walked = p.value().and_then(|()| {
        p.skip_ws();
        if p.at_end() {
            Ok(())
        } else {
            Err(p.err("trailing characters after value"))
        }
    });
    if walked.is_err() {
        out.truncate(start);
    }
    walked
}

struct Parser<'a, 'o> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Collections entered and not yet closed, bounded by [`MAX_DEPTH`].
    depth: u32,
    out: &'o mut Vec<u8>,
}

/// A numeric literal, before it is written.
enum Number {
    Int(i64),
    Double(f64),
}

impl<'a> Parser<'a, '_> {
    fn err(&self, msg: impl Into<String>) -> IngestError {
        IngestError::Parse(format!("{} at byte {}", msg.into(), self.pos))
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> IngestResult<()> {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn try_eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Write a fixed-width value: its tag, then its body.
    fn put(&mut self, tag: u8, body: &[u8]) {
        self.out.push(tag);
        self.out.extend_from_slice(body);
    }

    /// Reserve a `u32` count or length whose value the walk has not reached
    /// yet; [`Parser::patch`] fills it in.
    fn placeholder(&mut self) -> usize {
        let at = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        at
    }

    fn patch(&mut self, at: usize, n: usize) {
        self.out[at..at + 4].copy_from_slice(&(n as u32).to_le_bytes());
    }

    /// Run `body` one collection level down.
    fn nested(&mut self, body: fn(&mut Self) -> IngestResult<()>) -> IngestResult<()> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("collections nested too deeply"));
        }
        self.depth += 1;
        let walked = body(self);
        self.depth -= 1;
        walked
    }

    fn value(&mut self) -> IngestResult<()> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                // distinguish `{{` bag from `{` record
                if self.src.get(self.pos + 1) == Some(&b'{') {
                    self.nested(Self::bag)
                } else {
                    self.nested(Self::record)
                }
            }
            Some(b'[') => self.nested(Self::ordered_list),
            Some(b'"') => {
                self.out.push(TAG_STRING);
                self.string_literal()
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                match self.number()? {
                    Number::Int(i) => self.put(TAG_INT, &i.to_le_bytes()),
                    Number::Double(d) => self.put(TAG_DOUBLE, &d.to_bits().to_le_bytes()),
                }
                Ok(())
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.keyword_or_ctor(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn ordered_list(&mut self) -> IngestResult<()> {
        self.eat(b'[')?;
        self.out.push(TAG_ORDERED_LIST);
        let count = self.placeholder();
        self.skip_ws();
        if self.try_eat(b']') {
            return Ok(());
        }
        let mut n = 0;
        loop {
            self.value()?;
            n += 1;
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b']')?;
            self.patch(count, n);
            return Ok(());
        }
    }

    fn bag(&mut self) -> IngestResult<()> {
        self.eat(b'{')?;
        self.eat(b'{')?;
        self.out.push(TAG_UNORDERED_LIST);
        let count = self.placeholder();
        self.skip_ws();
        if self.peek() == Some(b'}') && self.src.get(self.pos + 1) == Some(&b'}') {
            self.pos += 2;
            return Ok(());
        }
        let mut n = 0;
        loop {
            self.value()?;
            n += 1;
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b'}')?;
            self.eat(b'}')?;
            self.patch(count, n);
            return Ok(());
        }
    }

    fn record(&mut self) -> IngestResult<()> {
        self.eat(b'{')?;
        self.out.push(TAG_RECORD);
        let count = self.placeholder();
        self.skip_ws();
        if self.try_eat(b'}') {
            return Ok(());
        }
        let mut n = 0;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'"') => self.string_literal()?,
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let name = self.identifier();
                    self.out
                        .extend_from_slice(&(name.len() as u32).to_le_bytes());
                    self.out.extend_from_slice(name);
                }
                _ => return Err(self.err("expected field name")),
            }
            self.eat(b':')?;
            self.value()?;
            n += 1;
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b'}')?;
            self.patch(count, n);
            return Ok(());
        }
    }

    /// An identifier's bytes (ASCII letters, digits, `_` and `-`).
    fn identifier(&mut self) -> &'a [u8] {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn keyword_or_ctor(&mut self) -> IngestResult<()> {
        match self.identifier() {
            b"null" => self.out.push(TAG_NULL),
            b"missing" => self.out.push(TAG_MISSING),
            b"true" => self.put(TAG_BOOLEAN, &[1]),
            b"false" => self.put(TAG_BOOLEAN, &[0]),
            b"point" => return self.point_ctor(),
            b"datetime" => return self.datetime_ctor(),
            other => {
                let other = String::from_utf8_lossy(other);
                return Err(self.err(format!("unknown keyword '{other}'")));
            }
        }
        Ok(())
    }

    fn point_ctor(&mut self) -> IngestResult<()> {
        self.eat(b'(')?;
        self.skip_ws();
        let (x, y) = if self.peek() == Some(b'"') {
            // point("x,y") form
            self.string_arg(|s| {
                let mut parts = s.splitn(2, ',');
                let x = parts
                    .next()
                    .and_then(|p| p.trim().parse::<f64>().ok())
                    .ok_or("bad point x coordinate")?;
                let y = parts
                    .next()
                    .and_then(|p| p.trim().parse::<f64>().ok())
                    .ok_or("bad point y coordinate")?;
                Ok((x, y))
            })?
        } else {
            let x = self.f64_literal()?;
            self.eat(b',')?;
            let y = self.f64_literal()?;
            (x, y)
        };
        self.eat(b')')?;
        self.put(TAG_POINT, &x.to_bits().to_le_bytes());
        self.out.extend_from_slice(&y.to_bits().to_le_bytes());
        Ok(())
    }

    fn datetime_ctor(&mut self) -> IngestResult<()> {
        self.eat(b'(')?;
        self.skip_ws();
        let millis = if self.peek() == Some(b'"') {
            self.string_arg(|s| parse_iso_datetime(s).ok_or("bad ISO datetime"))?
        } else {
            match self.number()? {
                Number::Int(i) => i,
                Number::Double(_) => return Err(self.err("datetime(millis) requires an integer")),
            }
        };
        self.eat(b')')?;
        self.put(TAG_DATETIME, &millis.to_le_bytes());
        Ok(())
    }

    /// A constructor's string argument, handed to `read`: its contents are
    /// unescaped into a scratch area past the end of the output and cut off
    /// again. `read`'s complaint becomes the parse error.
    fn string_arg<T>(
        &mut self,
        read: impl FnOnce(&str) -> Result<T, &'static str>,
    ) -> IngestResult<T> {
        let scratch = self.out.len();
        self.string_body()?;
        // the contents are runs of `text` and encoded chars: always UTF-8
        let arg = std::str::from_utf8(&self.out[scratch..]).unwrap_or_default();
        let got = read(arg).map_err(|msg| self.err(msg));
        self.out.truncate(scratch);
        got
    }

    fn f64_literal(&mut self) -> IngestResult<f64> {
        Ok(match self.number()? {
            Number::Int(i) => i as f64,
            Number::Double(d) => d,
        })
    }

    fn number(&mut self) -> IngestResult<Number> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_double = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_double = true;
                    self.pos += 1;
                    // allow exponent sign
                    if matches!(self.peek(), Some(b'+' | b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.err("expected number"));
        }
        if is_double {
            text.parse::<f64>()
                .map(Number::Double)
                .map_err(|_| self.err(format!("bad double '{text}'")))
        } else {
            text.parse::<i64>()
                .map(Number::Int)
                .map_err(|_| self.err(format!("bad integer '{text}'")))
        }
    }

    /// A length-prefixed string: the length is back-patched once the
    /// closing quote is found.
    fn string_literal(&mut self) -> IngestResult<()> {
        let len = self.placeholder();
        self.string_body()?;
        self.patch(len, self.out.len() - len - 4);
        Ok(())
    }

    /// Append a string literal's unescaped contents.
    fn string_body(&mut self) -> IngestResult<()> {
        self.skip_ws();
        if self.bump() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        loop {
            // copy the run up to the next quote or escape in one piece; both
            // delimiters are ASCII, so the run is whole characters
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("string run splits a character"))?;
            self.out.extend_from_slice(run.as_bytes());
            let c = match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(()),
                // the run stopped at a backslash
                Some(_) => match self.bump() {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'b') => '\u{0008}',
                    Some(b'f') => '\u{000C}',
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
                            let d = (c as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad hex digit in \\u"))?;
                            code = code * 16 + d;
                        }
                        char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?
                    }
                    _ => return Err(self.err("bad escape")),
                },
            };
            self.out
                .extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        }
    }
}

/// Days-from-civil epoch conversion (Howard Hinnant's algorithm); `None`
/// when the day is not an `i64` away from the epoch.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i64> {
    let y = if m <= 2 { y.checked_sub(1)? } else { y };
    let era = if y >= 0 { y } else { y.checked_sub(399)? } / 400;
    let yoe = y.checked_sub(era.checked_mul(400)?)?;
    let mp = (m + 9) % 12;
    let doy = (153 * mp as i64 + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era.checked_mul(146_097)?.checked_add(doe - 719_468)
}

/// Parse `YYYY-MM-DD[THH:MM:SS[.fff]][Z]` to epoch milliseconds. The
/// fraction is one or more ASCII digits, of which the first three count.
/// `None` for anything else, including an instant outside `i64`
/// milliseconds.
pub fn parse_iso_datetime(s: &str) -> Option<i64> {
    let s = s.trim().trim_end_matches('Z');
    let (date, time) = match s.split_once('T') {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut dp = date.splitn(3, '-');
    // negative years unsupported; fine for tweets
    let y: i64 = dp.next()?.parse().ok()?;
    let m: u32 = dp.next()?.parse().ok()?;
    let d: u32 = dp.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    let mut millis = days_from_civil(y, m, d)?.checked_mul(86_400_000)?;
    if let Some(t) = time {
        let (hms, frac) = match t.split_once('.') {
            Some((a, b)) => (a, Some(b)),
            None => (t, None),
        };
        let mut tp = hms.splitn(3, ':');
        let h: i64 = tp.next()?.parse().ok()?;
        let mi: i64 = tp.next()?.parse().ok()?;
        let se: i64 = tp.next().unwrap_or("0").parse().ok()?;
        if !(0..24).contains(&h) || !(0..60).contains(&mi) || !(0..60).contains(&se) {
            return None;
        }
        millis = millis.checked_add(((h * 60 + mi) * 60 + se) * 1000)?;
        if let Some(f) = frac {
            if f.is_empty() || !f.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let ms = (f.bytes().chain([b'0'; 2]).take(3))
                .fold(0, |ms, digit| ms * 10 + i64::from(digit - b'0'));
            millis = millis.checked_add(ms)?;
        }
    }
    Some(millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse_value("null").unwrap(), AdmValue::Null);
        assert_eq!(parse_value("missing").unwrap(), AdmValue::Missing);
        assert_eq!(parse_value("true").unwrap(), AdmValue::Boolean(true));
        assert_eq!(parse_value(" false ").unwrap(), AdmValue::Boolean(false));
        assert_eq!(parse_value("42").unwrap(), AdmValue::Int(42));
        assert_eq!(parse_value("-7").unwrap(), AdmValue::Int(-7));
        assert_eq!(parse_value("2.5").unwrap(), AdmValue::Double(2.5));
        assert_eq!(parse_value("1e3").unwrap(), AdmValue::Double(1000.0));
        assert_eq!(parse_value("-1.5e-2").unwrap(), AdmValue::Double(-0.015));
        assert_eq!(
            parse_value("\"hi\"").unwrap(),
            AdmValue::String("hi".into())
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_value(r#""a\"b\\c\ndA""#).unwrap(),
            AdmValue::String("a\"b\\c\ndA".into())
        );
        assert_eq!(
            parse_value("\"héllo π\"").unwrap(),
            AdmValue::String("héllo π".into())
        );
    }

    #[test]
    fn collections() {
        assert_eq!(
            parse_value("[1, 2, 3]").unwrap(),
            AdmValue::OrderedList(vec![1.into(), 2.into(), 3.into()])
        );
        assert_eq!(parse_value("[]").unwrap(), AdmValue::OrderedList(vec![]));
        assert_eq!(
            parse_value("{{\"a\", \"b\"}}").unwrap(),
            AdmValue::UnorderedList(vec!["a".into(), "b".into()])
        );
        assert_eq!(
            parse_value("{{}}").unwrap(),
            AdmValue::UnorderedList(vec![])
        );
    }

    #[test]
    fn records() {
        let v = parse_value(r#"{ "id": "t1", count: 3, "nested": { "x": [1] } }"#).unwrap();
        assert_eq!(v.field("id").and_then(AdmValue::as_str), Some("t1"));
        assert_eq!(v.field("count").and_then(AdmValue::as_int), Some(3));
        assert!(v.field("nested").unwrap().field("x").is_some());
        assert_eq!(parse_value("{}").unwrap(), AdmValue::Record(vec![]));
    }

    #[test]
    fn point_forms() {
        assert_eq!(
            parse_value("point(33.1, -117.8)").unwrap(),
            AdmValue::Point(33.1, -117.8)
        );
        assert_eq!(
            parse_value("point(\"33.1,-117.8\")").unwrap(),
            AdmValue::Point(33.1, -117.8)
        );
        assert_eq!(
            parse_value("point(1, 2)").unwrap(),
            AdmValue::Point(1.0, 2.0)
        );
    }

    #[test]
    fn datetime_forms() {
        assert_eq!(parse_value("datetime(0)").unwrap(), AdmValue::DateTime(0));
        assert_eq!(
            parse_value("datetime(\"1970-01-01T00:00:00Z\")").unwrap(),
            AdmValue::DateTime(0)
        );
        assert_eq!(
            parse_value("datetime(\"1970-01-02\")").unwrap(),
            AdmValue::DateTime(86_400_000)
        );
        assert_eq!(
            parse_value("datetime(\"2015-01-01T00:00:00\")").unwrap(),
            AdmValue::DateTime(1_420_070_400_000)
        );
        assert_eq!(
            parse_value("datetime(\"1970-01-01T00:00:01.5\")").unwrap(),
            AdmValue::DateTime(1500)
        );
        assert_eq!(
            parse_value("datetime(\"1970-01-01T00:00:00.1239\")").unwrap(),
            AdmValue::DateTime(123)
        );
    }

    #[test]
    fn iso_rejects_garbage() {
        assert!(parse_iso_datetime("not a date").is_none());
        assert!(parse_iso_datetime("2015-13-01").is_none());
        assert!(parse_iso_datetime("2015-01-01T25:00:00").is_none());
        // a fraction whose first three bytes end inside a character
        assert!(parse_iso_datetime("2015-01-01T00:00:00.a€").is_none());
        // more milliseconds since the epoch than an i64 holds
        assert!(parse_iso_datetime("300000000-01-01").is_none());
        assert!(parse_iso_datetime("2015-01-01T00:00:00.").is_none());
        assert!(parse_iso_datetime("2015-01-01T00:00:00.+5").is_none());
        for text in [
            "datetime(\"2015-01-01T00:00:00.a€\")",
            "datetime(\"300000000-01-01\")",
        ] {
            let err = parse_value(text).unwrap_err().to_string();
            assert!(err.contains("bad ISO datetime"), "{text}: {err}");
        }
    }

    #[test]
    fn errors() {
        assert!(parse_value("").is_err());
        assert!(parse_value("[1,").is_err());
        assert!(parse_value("{\"a\" 1}").is_err());
        assert!(parse_value("\"unterminated").is_err());
        assert!(parse_value("bogus").is_err());
        assert!(parse_value("1 2").is_err()); // trailing
        assert!(parse_value("{{1}").is_err());
        assert!(parse_value("point(1)").is_err());
        assert!(parse_value("datetime(1.5)").is_err());
        assert!(parse_value("-").is_err());
        assert!(parse_value("99999999999999999999999").is_err()); // i64 overflow
    }

    #[test]
    fn whitespace_tolerant() {
        let v = parse_value(" {\n \"a\" :\t[ 1 ,2 ] ,\r\n b : {{ }} } ").unwrap();
        assert_eq!(v.field("a").unwrap().as_list().unwrap().len(), 2);
        assert!(v.field("b").is_some());
    }

    #[test]
    fn transcode_appends_the_encoding_and_leaves_out_alone_on_error() {
        let text = r#"{ "id": "t1", "at": point("1,2"), "when": datetime("1970-01-02") }"#;
        let mut out = b"kept".to_vec();
        transcode(text, &mut out).unwrap();
        let value = parse_value(text).unwrap();
        assert_eq!(&out[..4], b"kept");
        assert_eq!(&out[4..], &binary::encode_value(&value)[..]);
        let before = out.clone();
        for bad in ["{ \"id\": [1, 2", "point(\"1\")", "[1] x"] {
            assert!(transcode(bad, &mut out).is_err(), "{bad}");
            assert_eq!(out, before, "{bad}");
        }
    }

    /// `depth` ordered lists nested in each other around a `1`.
    fn nested_text(depth: usize) -> String {
        format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let depth = MAX_DEPTH as usize;
        let fits = parse_value(&nested_text(depth)).unwrap();
        assert!(binary::validate(&binary::encode_value(&fits)).is_ok());
        for hostile in [nested_text(depth + 1), "[".repeat(1_000_000)] {
            let err = parse_value(&hostile).unwrap_err();
            assert!(matches!(&err, IngestError::Parse(m) if m.contains("nested too deeply")));
        }
        // records and bags count as collections too
        let records = format!("{}1{}", "{\"a\":".repeat(depth + 1), "}".repeat(depth + 1));
        assert!(parse_value(&records).is_err());
        let bags = format!("{}1{}", "{{".repeat(depth + 1), "}}".repeat(depth + 1));
        assert!(parse_value(&bags).is_err());
    }
}
