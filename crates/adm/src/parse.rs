//! ADM text parser.
//!
//! A hand-written recursive-descent parser for the textual form of ADM. The
//! grammar is JSON plus the ADM extensions the paper uses:
//!
//! * `missing` literal;
//! * unordered lists (bags): `{{ v, v, ... }}`;
//! * `point(x, y)` and `point("x,y")` spatial constructors;
//! * `datetime(millis)` and `datetime("YYYY-MM-DDTHH:MM:SS[.mmm][Z]")`
//!   temporal constructors;
//! * bare identifiers as record field names (`{ id: 1 }`).
//!
//! `parse_value(to_adm_string(v)) == v` for any value with finite doubles —
//! verified by a proptest round-trip suite.

use crate::value::AdmValue;
use asterix_common::metrics::Counter;
use asterix_common::{IngestError, IngestResult};
use std::sync::OnceLock;

/// Process-wide count of text-parser invocations, as a typed [`Counter`].
///
/// The parse-once pipeline tests read this to assert that a record flowing
/// adaptor → intake → assign → store is parsed exactly once; benchmarks use
/// it to attribute cost. Incremented by every [`parse_value`] call.
fn parse_counter() -> &'static Counter {
    static PARSE_CALLS: OnceLock<Counter> = OnceLock::new();
    PARSE_CALLS.get_or_init(Counter::new)
}

/// Current value of the global parse counter.
pub fn parse_calls() -> u64 {
    parse_counter().get()
}

/// Parse a complete ADM value; trailing non-whitespace is an error.
pub fn parse_value(input: &str) -> IngestResult<AdmValue> {
    parse_counter().inc();
    let mut p = Parser::new(input);
    let v = p.value()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
}

/// Field slots a record literal starts with: a tweet-sized record (≤ 8
/// fields per nesting level) then fills its vector without regrowing.
const RECORD_FIELDS_HINT: usize = 8;

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            text: input,
            src: input.as_bytes(),
            pos: 0,
        }
    }

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

    fn value(&mut self) -> IngestResult<AdmValue> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => {
                // distinguish `{{` bag from `{` record
                if self.src.get(self.pos + 1) == Some(&b'{') {
                    self.bag()
                } else {
                    self.record()
                }
            }
            Some(b'[') => self.ordered_list(),
            Some(b'"') => Ok(AdmValue::String(self.string_literal()?)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.keyword_or_ctor(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
        }
    }

    fn ordered_list(&mut self) -> IngestResult<AdmValue> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.try_eat(b']') {
            return Ok(AdmValue::OrderedList(items));
        }
        loop {
            items.push(self.value()?);
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b']')?;
            return Ok(AdmValue::OrderedList(items));
        }
    }

    fn bag(&mut self) -> IngestResult<AdmValue> {
        self.eat(b'{')?;
        self.eat(b'{')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') && self.src.get(self.pos + 1) == Some(&b'}') {
            self.pos += 2;
            return Ok(AdmValue::UnorderedList(items));
        }
        loop {
            items.push(self.value()?);
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b'}')?;
            self.eat(b'}')?;
            return Ok(AdmValue::UnorderedList(items));
        }
    }

    fn record(&mut self) -> IngestResult<AdmValue> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.try_eat(b'}') {
            return Ok(AdmValue::Record(Vec::new()));
        }
        let mut fields = Vec::with_capacity(RECORD_FIELDS_HINT);
        loop {
            self.skip_ws();
            let key = match self.peek() {
                Some(b'"') => self.string_literal()?,
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.identifier(),
                _ => return Err(self.err("expected field name")),
            };
            self.eat(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            if self.try_eat(b',') {
                continue;
            }
            self.eat(b'}')?;
            return Ok(AdmValue::Record(fields));
        }
    }

    fn identifier(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn keyword_or_ctor(&mut self) -> IngestResult<AdmValue> {
        let word = self.identifier();
        match word.as_str() {
            "null" => Ok(AdmValue::Null),
            "missing" => Ok(AdmValue::Missing),
            "true" => Ok(AdmValue::Boolean(true)),
            "false" => Ok(AdmValue::Boolean(false)),
            "point" => self.point_ctor(),
            "datetime" => self.datetime_ctor(),
            other => Err(self.err(format!("unknown keyword '{other}'"))),
        }
    }

    fn point_ctor(&mut self) -> IngestResult<AdmValue> {
        self.eat(b'(')?;
        self.skip_ws();
        let (x, y) = if self.peek() == Some(b'"') {
            // point("x,y") form
            let s = self.string_literal()?;
            let mut parts = s.splitn(2, ',');
            let x = parts
                .next()
                .and_then(|p| p.trim().parse::<f64>().ok())
                .ok_or_else(|| self.err("bad point x coordinate"))?;
            let y = parts
                .next()
                .and_then(|p| p.trim().parse::<f64>().ok())
                .ok_or_else(|| self.err("bad point y coordinate"))?;
            (x, y)
        } else {
            let x = self.f64_literal()?;
            self.eat(b',')?;
            let y = self.f64_literal()?;
            (x, y)
        };
        self.eat(b')')?;
        Ok(AdmValue::Point(x, y))
    }

    fn datetime_ctor(&mut self) -> IngestResult<AdmValue> {
        self.eat(b'(')?;
        self.skip_ws();
        let millis = if self.peek() == Some(b'"') {
            let s = self.string_literal()?;
            parse_iso_datetime(&s).ok_or_else(|| self.err("bad ISO datetime"))?
        } else {
            match self.number()? {
                AdmValue::Int(i) => i,
                _ => return Err(self.err("datetime(millis) requires an integer")),
            }
        };
        self.eat(b')')?;
        Ok(AdmValue::DateTime(millis))
    }

    fn f64_literal(&mut self) -> IngestResult<f64> {
        match self.number()? {
            AdmValue::Int(i) => Ok(i as f64),
            AdmValue::Double(d) => Ok(d),
            _ => unreachable!("number() returns Int or Double"),
        }
    }

    fn number(&mut self) -> IngestResult<AdmValue> {
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
                .map(AdmValue::Double)
                .map_err(|_| self.err(format!("bad double '{text}'")))
        } else {
            text.parse::<i64>()
                .map(AdmValue::Int)
                .map_err(|_| self.err(format!("bad integer '{text}'")))
        }
    }

    fn string_literal(&mut self) -> IngestResult<String> {
        self.skip_ws();
        if self.bump() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
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
            out.push_str(run);
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                // the run stopped at a backslash
                Some(_) => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let c = self.bump().ok_or_else(|| self.err("bad \\u escape"))?;
                            let d = (c as char)
                                .to_digit(16)
                                .ok_or_else(|| self.err("bad hex digit in \\u"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code).ok_or_else(|| self.err("invalid codepoint"))?,
                        );
                    }
                    _ => return Err(self.err("bad escape")),
                },
            }
        }
    }
}

/// Days-from-civil epoch conversion (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp as i64 + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Parse `YYYY-MM-DD[THH:MM:SS[.mmm]][Z]` to epoch milliseconds.
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
    let mut millis = days_from_civil(y, m, d) * 86_400_000;
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
        millis += ((h * 60 + mi) * 60 + se) * 1000;
        if let Some(f) = frac {
            let padded = format!("{f:0<3}");
            millis += padded[..3].parse::<i64>().ok()?;
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
    }

    #[test]
    fn iso_rejects_garbage() {
        assert!(parse_iso_datetime("not a date").is_none());
        assert!(parse_iso_datetime("2015-13-01").is_none());
        assert!(parse_iso_datetime("2015-01-01T25:00:00").is_none());
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
}
