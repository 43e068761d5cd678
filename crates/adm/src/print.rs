//! Canonical ADM serializer.
//!
//! The inverse of [`crate::parse`]: `parse_value(to_adm_string(v)) == v` for
//! all values whose doubles are finite (a proptest suite in `tests/` checks
//! this). Doubles print in Rust's shortest round-trip form; integers never
//! gain a decimal point, so the Int/Double distinction survives the trip.

use crate::value::AdmValue;
use asterix_common::metrics::Counter;
use std::fmt::Write;
use std::sync::OnceLock;

/// Process-wide count of [`to_adm_string`] calls, the printing twin of
/// [`crate::parse::parse_calls`]: the parse-once pipeline test reads it to
/// assert that no stage between the adaptor and the store prints a record.
fn print_counter() -> &'static Counter {
    static PRINT_CALLS: OnceLock<Counter> = OnceLock::new();
    PRINT_CALLS.get_or_init(Counter::new)
}

/// Current value of the global print counter.
pub fn print_calls() -> u64 {
    print_counter().get()
}

/// Serialize a value to canonical ADM text.
pub fn to_adm_string(v: &AdmValue) -> String {
    print_counter().inc();
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &AdmValue) {
    match v {
        AdmValue::Null => out.push_str("null"),
        AdmValue::Missing => out.push_str("missing"),
        AdmValue::Boolean(true) => out.push_str("true"),
        AdmValue::Boolean(false) => out.push_str("false"),
        AdmValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        AdmValue::Double(d) => write_double(out, *d),
        AdmValue::String(s) => write_string(out, s),
        AdmValue::Point(x, y) => {
            out.push_str("point(");
            write_double(out, *x);
            out.push(',');
            write_double(out, *y);
            out.push(')');
        }
        AdmValue::DateTime(ms) => {
            let _ = write!(out, "datetime({ms})");
        }
        AdmValue::OrderedList(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        AdmValue::UnorderedList(items) => {
            out.push_str("{{");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push_str("}}");
        }
        AdmValue::Record(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_double(out: &mut String, d: f64) {
    if d == d.trunc() && d.is_finite() && d.abs() < 1e15 {
        // force a decimal point so it re-parses as Double, not Int
        let _ = write!(out, "{d:.1}");
    } else {
        // shortest round-trip representation
        let _ = write!(out, "{d:?}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_value;

    fn roundtrip(v: AdmValue) {
        let s = to_adm_string(&v);
        let back = parse_value(&s).unwrap_or_else(|e| panic!("reparse of `{s}` failed: {e}"));
        assert_eq!(back, v, "via `{s}`");
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(AdmValue::Null);
        roundtrip(AdmValue::Missing);
        roundtrip(AdmValue::Boolean(true));
        roundtrip(AdmValue::Int(-123));
        roundtrip(AdmValue::Double(0.1));
        roundtrip(AdmValue::Double(3.0)); // whole double stays double
        roundtrip(AdmValue::Double(-1.5e-9));
        roundtrip(AdmValue::String("a\"b\\c\n\u{0001}π".into()));
        roundtrip(AdmValue::Point(33.1, -117.8));
        roundtrip(AdmValue::DateTime(1_420_070_400_000));
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(AdmValue::OrderedList(vec![]));
        roundtrip(AdmValue::UnorderedList(vec!["x".into(), 1.into()]));
        roundtrip(AdmValue::record(vec![
            ("id", "t1".into()),
            ("loc", AdmValue::Point(0.5, -0.5)),
            ("tags", AdmValue::OrderedList(vec!["#a".into()])),
            ("nested", AdmValue::record(vec![("n", AdmValue::Null)])),
        ]));
    }

    #[test]
    fn int_double_distinction_survives() {
        assert_eq!(to_adm_string(&AdmValue::Int(3)), "3");
        assert_eq!(to_adm_string(&AdmValue::Double(3.0)), "3.0");
        assert_eq!(parse_value("3").unwrap(), AdmValue::Int(3));
        assert_eq!(parse_value("3.0").unwrap(), AdmValue::Double(3.0));
    }

    #[test]
    fn display_uses_canonical_form() {
        let v = AdmValue::record(vec![("a", 1.into())]);
        assert_eq!(v.to_string(), "{\"a\":1}");
    }

    #[test]
    fn control_chars_escape() {
        let s = to_adm_string(&AdmValue::String("\u{0001}".into()));
        assert_eq!(s, "\"\\u0001\"");
    }
}
