//! Runtime ADM values.

use std::cmp::Ordering;
use std::fmt;

/// A runtime ADM value.
///
/// Records preserve field insertion order (AsterixDB serializes closed fields
/// in schema order and open fields in arrival order); lookup is linear, which
/// is fine for the small records flowing through feeds.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmValue {
    /// SQL-style null (`null`).
    Null,
    /// Absent optional value (`missing`).
    Missing,
    /// `boolean`.
    Boolean(bool),
    /// `int64` (the paper's int32 examples fit; we use one integer width).
    Int(i64),
    /// `double`.
    Double(f64),
    /// `string`.
    String(String),
    /// Spatial `point(x, y)` — longitude/latitude in the tweet examples.
    Point(f64, f64),
    /// Temporal `datetime`, milliseconds since the epoch.
    DateTime(i64),
    /// Ordered list `[ ... ]`.
    OrderedList(Vec<AdmValue>),
    /// Unordered list (bag) `{{ ... }}`.
    UnorderedList(Vec<AdmValue>),
    /// Record `{ "field": value, ... }` with insertion-ordered fields.
    Record(Vec<(String, AdmValue)>),
}

impl AdmValue {
    /// Shorthand record constructor.
    pub fn record(fields: Vec<(&str, AdmValue)>) -> AdmValue {
        AdmValue::Record(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Shorthand string constructor.
    pub fn string(s: impl Into<String>) -> AdmValue {
        AdmValue::String(s.into())
    }

    /// Field lookup on a record; `None` for non-records or absent fields.
    pub fn field(&self, name: &str) -> Option<&AdmValue> {
        match self {
            AdmValue::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable field lookup.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut AdmValue> {
        match self {
            AdmValue::Record(fields) => fields.iter_mut().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Set (insert or replace) a field on a record. Panics on non-records.
    pub fn set_field(&mut self, name: &str, value: AdmValue) {
        match self {
            AdmValue::Record(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == name) {
                    slot.1 = value;
                } else {
                    fields.push((name.to_string(), value));
                }
            }
            other => panic!("set_field on non-record value {other:?}"),
        }
    }

    /// Remove a field from a record; returns the removed value.
    pub fn remove_field(&mut self, name: &str) -> Option<AdmValue> {
        match self {
            AdmValue::Record(fields) => {
                let idx = fields.iter().position(|(k, _)| k == name)?;
                Some(fields.remove(idx).1)
            }
            _ => None,
        }
    }

    /// Make this the string `s`, in its own buffer when it holds a string
    /// already: a scan decoding row after row into one value allocates only
    /// when a string outgrows the last.
    pub fn set_str(&mut self, s: &str) {
        match self {
            AdmValue::String(buf) => {
                buf.clear();
                buf.push_str(s);
            }
            other => *other = AdmValue::String(s.to_owned()),
        }
    }

    /// As string slice if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AdmValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// As i64 if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AdmValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As f64 if numeric (`Int` or `Double`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AdmValue::Int(i) => Some(*i as f64),
            AdmValue::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// As bool if this is a `Boolean`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AdmValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// As `(x, y)` if this is a `Point`.
    pub fn as_point(&self) -> Option<(f64, f64)> {
        match self {
            AdmValue::Point(x, y) => Some((*x, *y)),
            _ => None,
        }
    }

    /// Items if this is any kind of list.
    pub fn as_list(&self) -> Option<&[AdmValue]> {
        match self {
            AdmValue::OrderedList(v) | AdmValue::UnorderedList(v) => Some(v),
            _ => None,
        }
    }

    /// Record fields if this is a record.
    pub fn as_record(&self) -> Option<&[(String, AdmValue)]> {
        match self {
            AdmValue::Record(fields) => Some(fields),
            _ => None,
        }
    }

    /// Name of the value's runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            AdmValue::Null => "null",
            AdmValue::Missing => "missing",
            AdmValue::Boolean(_) => "boolean",
            AdmValue::Int(_) => "int64",
            AdmValue::Double(_) => "double",
            AdmValue::String(_) => "string",
            AdmValue::Point(_, _) => "point",
            AdmValue::DateTime(_) => "datetime",
            AdmValue::OrderedList(_) => "orderedlist",
            AdmValue::UnorderedList(_) => "unorderedlist",
            AdmValue::Record(_) => "record",
        }
    }

    /// The type rank [`AdmValue::total_cmp`] orders by first: `missing`
    /// lowest, then `null`, booleans, numbers (both widths), strings,
    /// points, datetimes, ordered lists, bags, records.
    pub(crate) fn rank(&self) -> u8 {
        match self {
            AdmValue::Missing => 0,
            AdmValue::Null => 1,
            AdmValue::Boolean(_) => 2,
            AdmValue::Int(_) | AdmValue::Double(_) => 3,
            AdmValue::String(_) => 4,
            AdmValue::Point(_, _) => 5,
            AdmValue::DateTime(_) => 6,
            AdmValue::OrderedList(_) => 7,
            AdmValue::UnorderedList(_) => 8,
            AdmValue::Record(_) => 9,
        }
    }

    /// Total order over values, used for sorting and B+-tree keys.
    ///
    /// Values order first by a type rank, then within a type. Numbers
    /// compare by their exact value across widths: two `Int`s as `i64`, an
    /// `Int` against a `Double` without rounding either, so distinct int64
    /// keys above 2^53 stay distinct. An `Int` and a `Double` of the same
    /// value (`3` and `3.0`) are one key, and hash alike
    /// ([`crate::hash::hash_value`]). Doubles keep [`f64::total_cmp`]'s
    /// order among themselves: `-0.0` sorts just below `0` (which equals
    /// `0.0`), and NaN sorts after every other number (a NaN with its sign
    /// bit set, before), so the order stays total.
    pub fn total_cmp(&self, other: &AdmValue) -> Ordering {
        let (ra, rb) = (self.rank(), other.rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (AdmValue::Boolean(a), AdmValue::Boolean(b)) => a.cmp(b),
            (AdmValue::Int(a), AdmValue::Int(b)) => a.cmp(b),
            (AdmValue::Double(a), AdmValue::Double(b)) => a.total_cmp(b),
            (AdmValue::Int(a), AdmValue::Double(b)) => cmp_int_double(*a, *b),
            (AdmValue::Double(a), AdmValue::Int(b)) => cmp_int_double(*b, *a).reverse(),
            (AdmValue::String(a), AdmValue::String(b)) => a.cmp(b),
            (AdmValue::Point(ax, ay), AdmValue::Point(bx, by)) => {
                ax.total_cmp(bx).then_with(|| ay.total_cmp(by))
            }
            (AdmValue::DateTime(a), AdmValue::DateTime(b)) => a.cmp(b),
            (AdmValue::OrderedList(a), AdmValue::OrderedList(b))
            | (AdmValue::UnorderedList(a), AdmValue::UnorderedList(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.total_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (AdmValue::Record(a), AdmValue::Record(b)) => {
                for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
                    let c = ka.cmp(kb).then_with(|| va.total_cmp(vb));
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => Ordering::Equal,
        }
    }
}

/// `i` against `d` under [`AdmValue::total_cmp`]: by exact value. Zeros and
/// NaNs, whose place an `i64` cannot shift by rounding, compare as
/// `i as f64` does.
pub(crate) fn cmp_int_double(i: i64, d: f64) -> Ordering {
    /// 2^63: the first double past `i64::MAX`.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if d.is_nan() || d == 0.0 {
        (i as f64).total_cmp(&d)
    } else if d >= TWO_63 {
        Ordering::Less
    } else if d < -TWO_63 {
        Ordering::Greater
    } else {
        // -2^63 <= d < 2^63: its integer part is an exact i64
        let whole = d.trunc();
        i.cmp(&(whole as i64)).then(whole.total_cmp(&d))
    }
}

impl fmt::Display for AdmValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::print::to_adm_string(self))
    }
}

impl From<i64> for AdmValue {
    fn from(v: i64) -> Self {
        AdmValue::Int(v)
    }
}
impl From<f64> for AdmValue {
    fn from(v: f64) -> Self {
        AdmValue::Double(v)
    }
}
impl From<bool> for AdmValue {
    fn from(v: bool) -> Self {
        AdmValue::Boolean(v)
    }
}
impl From<&str> for AdmValue {
    fn from(v: &str) -> Self {
        AdmValue::String(v.to_string())
    }
}
impl From<String> for AdmValue {
    fn from(v: String) -> Self {
        AdmValue::String(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tweet() -> AdmValue {
        AdmValue::record(vec![
            ("id", "t1".into()),
            ("message_text", "hello #obama".into()),
            ("latitude", AdmValue::Double(33.1)),
        ])
    }

    #[test]
    fn field_access() {
        let t = tweet();
        assert_eq!(t.field("id").and_then(AdmValue::as_str), Some("t1"));
        assert!(t.field("nope").is_none());
        assert!(AdmValue::Int(3).field("x").is_none());
    }

    #[test]
    fn set_and_remove_field() {
        let mut t = tweet();
        t.set_field("sentiment", AdmValue::Double(0.7));
        assert_eq!(t.field("sentiment").and_then(AdmValue::as_f64), Some(0.7));
        t.set_field("sentiment", AdmValue::Double(0.9));
        assert_eq!(t.field("sentiment").and_then(AdmValue::as_f64), Some(0.9));
        assert_eq!(t.remove_field("sentiment"), Some(AdmValue::Double(0.9)));
        assert_eq!(t.remove_field("sentiment"), None);
    }

    #[test]
    #[should_panic(expected = "set_field on non-record")]
    fn set_field_on_scalar_panics() {
        let mut v = AdmValue::Int(1);
        v.set_field("x", AdmValue::Null);
    }

    #[test]
    fn accessors() {
        assert_eq!(AdmValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(AdmValue::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(AdmValue::Boolean(true).as_bool(), Some(true));
        assert_eq!(AdmValue::Point(1.0, 2.0).as_point(), Some((1.0, 2.0)));
        assert_eq!(
            AdmValue::OrderedList(vec![AdmValue::Int(1)])
                .as_list()
                .map(|l| l.len()),
            Some(1)
        );
        assert!(AdmValue::Null.as_str().is_none());
    }

    #[test]
    fn type_names() {
        assert_eq!(AdmValue::Null.type_name(), "null");
        assert_eq!(AdmValue::Point(0.0, 0.0).type_name(), "point");
        assert_eq!(tweet().type_name(), "record");
    }

    #[test]
    fn total_order_is_total_and_cross_numeric() {
        assert_eq!(
            AdmValue::Int(2).total_cmp(&AdmValue::Double(2.0)),
            Ordering::Equal
        );
        assert_eq!(
            AdmValue::Int(1).total_cmp(&AdmValue::Double(1.5)),
            Ordering::Less
        );
        assert_eq!(
            AdmValue::String("a".into()).total_cmp(&AdmValue::String("b".into())),
            Ordering::Less
        );
        // cross-type rank: numbers < strings
        assert_eq!(
            AdmValue::Int(999).total_cmp(&AdmValue::String("a".into())),
            Ordering::Less
        );
        // NaN does not break totality
        let nan = AdmValue::Double(f64::NAN);
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn int_keys_above_2_pow_53_stay_distinct() {
        let (a, b) = (AdmValue::Int(1 << 53), AdmValue::Int((1 << 53) + 1));
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        let two_53 = AdmValue::Double(9_007_199_254_740_992.0);
        assert_eq!(a.total_cmp(&two_53), Ordering::Equal);
        assert_eq!(b.total_cmp(&two_53), Ordering::Greater);
        assert_eq!(two_53.total_cmp(&b), Ordering::Less);
        assert_eq!(
            AdmValue::Int(i64::MAX).total_cmp(&AdmValue::Double(9.223_372_036_854_776e18)),
            Ordering::Less
        );
        assert_eq!(
            AdmValue::Int(i64::MIN).total_cmp(&AdmValue::Double(-9.223_372_036_854_776e18)),
            Ordering::Equal
        );
        // today's zero order: -0.0 < 0 == 0.0
        assert_eq!(
            AdmValue::Int(0).total_cmp(&AdmValue::Double(-0.0)),
            Ordering::Greater
        );
        assert_eq!(
            AdmValue::Int(0).total_cmp(&AdmValue::Double(0.0)),
            Ordering::Equal
        );
        assert_eq!(
            AdmValue::Int(-1).total_cmp(&AdmValue::Double(-0.5)),
            Ordering::Less
        );
        assert_eq!(
            AdmValue::Int(i64::MAX).total_cmp(&AdmValue::Double(f64::NAN)),
            Ordering::Less
        );
    }

    #[test]
    fn list_and_record_order_lexicographic() {
        let a = AdmValue::OrderedList(vec![AdmValue::Int(1)]);
        let b = AdmValue::OrderedList(vec![AdmValue::Int(1), AdmValue::Int(2)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
        let r1 = AdmValue::record(vec![("a", AdmValue::Int(1))]);
        let r2 = AdmValue::record(vec![("a", AdmValue::Int(2))]);
        assert_eq!(r1.total_cmp(&r2), Ordering::Less);
    }
}
