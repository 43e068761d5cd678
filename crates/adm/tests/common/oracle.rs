//! The test oracle for [`asterix_adm::transcode`]: the tree-building ADM
//! text parser the crate used to ship, kept verbatim apart from the parse
//! counter (included with `#[path]`). It builds an `AdmValue` for the text,
//! so `encode_value(&parse(t)?)` is what the transcoder must append — byte
//! for byte, with the same error string on every input it rejects. It has
//! no nesting bound; the transcoder stops at 128 collections.
//!
//! Datetime strings go through the crate's own `parse_iso_datetime`, so the
//! two agree on every date.

use asterix_adm::parse::parse_iso_datetime;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};

/// Parse a complete ADM value; trailing non-whitespace is an error.
pub fn parse(input: &str) -> IngestResult<AdmValue> {
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
