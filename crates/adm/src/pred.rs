//! Predicates over bytes: a filter compiled once and tested against a
//! record where it lies — a binary ADM payload, or a row of a compacted
//! component's columns — without building the record.
//!
//! A [`Pred`] is a tree of [`Pred::Compare`] leaves (`path <op> literal`)
//! and [`Pred::Window`] leaves under `and` ([`Pred::All`]), `or`
//! ([`Pred::Any`]) and `not` ([`Pred::Not`]). It is both the filter a query
//! pushes into a scan and the arm of a feed's routing stage. A comparison
//! means what AQL means over the decoded record, exactly:
//!
//! * a path is read one field at a time from the record: a record yields
//!   its field's first occurrence, or `missing` when it lacks it; `null` and
//!   `missing` yield `missing`; any other value is an error ("field access
//!   on non-record");
//! * a leaf holds when [`AdmValue::total_cmp`] of the value read against the
//!   literal satisfies the operator, so a missing field reads as `missing`
//!   and ranks below everything (`$t.f != "x"` holds for a record without
//!   `f`);
//! * `All` and `Any` test their children left to right and stop at the
//!   first that decides them; an error stops the test.
//!
//! A window reads no field: it tests the record's generation stamp, which
//! only a record in flight carries ([`Pred::test_bytes`]'s `stamp`). A
//! stored row has none, so a window never holds in a scan.
//!
//! [`cmp_encoded`] compares one encoded value with a literal in place:
//! type ranks first, then numbers exactly across widths, strings bytewise,
//! and only a list or a record is decoded. [`Pred::test_bytes`] tests a
//! binary ADM record, walking to each field with the skip walk of
//! [`record_field_slice`]. For a [`CompactedBlock`], [`Pred::bind`] resolves
//! every path once per component — to its slot (and on into the field list
//! of a column of hoisted records), or to the residual for a field with no
//! slot — and [`BlockPred::test`] then compares each row's column cells in
//! place, with no lookup of a name.
//!
//! [`BlockPred::select`] decides a whole component a column at a time: one
//! pass per leaf over that leaf's column stride gives every row a
//! [`Verdict`]. It decides a row only where the row's test cannot err — a
//! one-field path into a slot whose cell is a scalar, against a scalar
//! literal — and leaves the rest [`Verdict::Undecided`]: opaque rows, paths
//! into the residual, into hoisted records or through a cell, and list or
//! record cells. `All`, `Any` and `Not` combine the verdicts in the test's
//! own short-circuit order, so a row whose test would stop at an error is
//! never decided. An undecided row is [`BlockPred::test`]ed.

use crate::binary::{
    decode_value, record_field_slice, split_value, TAG_BOOLEAN, TAG_DATETIME, TAG_DOUBLE, TAG_INT,
    TAG_MISSING, TAG_NULL, TAG_ORDERED_LIST, TAG_POINT, TAG_RECORD, TAG_STRING, TAG_UNORDERED_LIST,
};
use crate::compact::{rec_value, CompactedBlock};
use crate::value::{cmp_int_double, AdmValue};
use asterix_common::{IngestError, IngestResult};
use std::cmp::Ordering;

/// A comparison operator of a [`Pred::Compare`] leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// Apply the operator to an ordering of `lhs` relative to `rhs`.
    pub fn holds(self, ord: Ordering) -> bool {
        use Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with swapped operand sides (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// AQL spelling (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A filter over records (see the module docs for its meaning).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `path <op> literal`: the value the path reads, compared with the
    /// literal under [`AdmValue::total_cmp`].
    Compare {
        /// Field names from the record down (none: the record itself).
        path: Vec<String>,
        /// Comparison operator.
        op: CmpOp,
        /// The right-hand side.
        literal: AdmValue,
    },
    /// Every child holds (`true` when empty).
    All(Vec<Pred>),
    /// Some child holds (`false` when empty).
    Any(Vec<Pred>),
    /// The child does not hold.
    Not(Box<Pred>),
    /// The record's stamp falls in the open prefix of its cycle:
    /// `stamp % period_millis < open_millis`. Never holds without a stamp.
    Window {
        /// Cycle length in sim-milliseconds.
        period_millis: u64,
        /// Open prefix of each cycle in sim-milliseconds.
        open_millis: u64,
    },
}

impl Pred {
    /// `path <op> literal` over a dotted path (`"user.followers_count"`).
    pub fn compare(path: &str, op: CmpOp, literal: impl Into<AdmValue>) -> Pred {
        Pred::Compare {
            path: path.split('.').map(str::to_string).collect(),
            op,
            literal: literal.into(),
        }
    }

    /// `path = literal`.
    pub fn eq(path: &str, literal: impl Into<AdmValue>) -> Pred {
        Pred::compare(path, CmpOp::Eq, literal)
    }

    /// `path < literal`.
    pub fn lt(path: &str, literal: impl Into<AdmValue>) -> Pred {
        Pred::compare(path, CmpOp::Lt, literal)
    }

    /// `path > literal`.
    pub fn gt(path: &str, literal: impl Into<AdmValue>) -> Pred {
        Pred::compare(path, CmpOp::Gt, literal)
    }

    /// The path reads a value: `path != missing`.
    pub fn exists(path: &str) -> Pred {
        Pred::compare(path, CmpOp::Ne, AdmValue::Missing)
    }

    /// Open for the first `open_millis` of every `period_millis`.
    pub fn window(period_millis: u64, open_millis: u64) -> Pred {
        Pred::Window {
            period_millis,
            open_millis,
        }
    }

    /// Conjunction.
    pub fn all(preds: Vec<Pred>) -> Pred {
        Pred::All(preds)
    }

    /// Disjunction.
    pub fn any(preds: Vec<Pred>) -> Pred {
        Pred::Any(preds)
    }

    /// Negation.
    pub fn negate(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Test the record encoded in `record` (binary ADM), generated at
    /// `stamp` (sim-milliseconds; `None` for a stored row).
    pub fn test_bytes(&self, record: &[u8], stamp: Option<u64>) -> IngestResult<bool> {
        match self {
            Pred::Compare { path, op, literal } => {
                let value = walk(Val::of_bytes(record)?, path)?;
                Ok(op.holds(value.cmp(literal)?))
            }
            Pred::All(ps) => all(ps, |p| p.test_bytes(record, stamp)),
            Pred::Any(ps) => any(ps, |p| p.test_bytes(record, stamp)),
            Pred::Not(p) => Ok(!p.test_bytes(record, stamp)?),
            Pred::Window {
                period_millis,
                open_millis,
            } => Ok(stamp
                .and_then(|at| at.checked_rem(*period_millis))
                .is_some_and(|phase| phase < *open_millis)),
        }
    }

    /// Resolve every path against `block`'s header, once: the predicate as
    /// [`BlockPred::test`] runs it over the block's rows (which have no
    /// stamp, so a window is bound to `false`).
    pub fn bind<'a>(&'a self, block: &'a CompactedBlock) -> BlockPred<'a> {
        BlockPred {
            block,
            tree: Bound::of(self, block),
        }
    }
}

/// `and` of `items` under `test`, left to right, stopping at the first
/// that fails or errs.
fn all<T>(items: &[T], mut test: impl FnMut(&T) -> IngestResult<bool>) -> IngestResult<bool> {
    for item in items {
        if !test(item)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `or` of `items` under `test`, left to right, stopping at the first
/// that holds or errs.
fn any<T>(items: &[T], mut test: impl FnMut(&T) -> IngestResult<bool>) -> IngestResult<bool> {
    for item in items {
        if test(item)? {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Where a leaf's path starts in a compacted block.
#[derive(Debug, Clone, Copy)]
enum Access {
    /// In slot `fi`'s column; the rest of the path walks the cell.
    Slot(usize),
    /// In slot `fi`'s column of hoisted records, whose field `at` the
    /// path's second field is (`None`: the records have no such field).
    Nested { fi: usize, at: Option<usize> },
    /// In the row's residual: the field has no slot.
    Residual,
    /// The row itself (an empty path).
    Row,
}

impl Access {
    /// Where `path` starts in `block`.
    fn of(path: &[String], block: &CompactedBlock) -> Access {
        let Some(first) = path.first() else {
            return Access::Row;
        };
        match (block.slot(first), path.get(1)) {
            (None, _) => Access::Residual,
            (Some(fi), Some(next)) => match block.nested_names(fi) {
                Some(names) => Access::Nested {
                    fi,
                    at: names.iter().position(|n| n == next),
                },
                None => Access::Slot(fi),
            },
            (Some(fi), None) => Access::Slot(fi),
        }
    }
}

/// What [`BlockPred::select`] says of one row: what [`BlockPred::test`]
/// returns for it, or that only the test can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The test returns `Ok(false)`.
    Fail,
    /// The test returns `Ok(true)`.
    Pass,
    /// Not decided a column at a time: the test may err, decode or walk.
    Undecided,
}

impl Verdict {
    fn of(holds: bool) -> Verdict {
        match holds {
            true => Verdict::Pass,
            false => Verdict::Fail,
        }
    }
}

/// A [`Pred`] bound to one [`CompactedBlock`] by [`Pred::bind`].
#[derive(Debug)]
pub struct BlockPred<'a> {
    block: &'a CompactedBlock,
    tree: Bound<'a>,
}

/// A [`Pred`]'s tree, each comparison with where its path starts in the
/// block.
#[derive(Debug)]
enum Bound<'a> {
    Compare {
        path: &'a [String],
        op: CmpOp,
        literal: &'a AdmValue,
        access: Access,
    },
    All(Vec<Bound<'a>>),
    Any(Vec<Bound<'a>>),
    Not(Box<Bound<'a>>),
}

impl BlockPred<'_> {
    /// Test row `row` of the block.
    pub fn test(&self, row: usize) -> IngestResult<bool> {
        // a row that is not a sound record is carried whole
        let opaque = match self.block.residual_at(row) {
            Some((true, value)) => Some(value),
            _ => None,
        };
        self.tree.test(self.block, row, opaque)
    }

    /// Decide every row of the block a column at a time: `out` is cleared
    /// and gets one [`Verdict`] per row, each a decided row's
    /// [`BlockPred::test`] result (see the module docs for which rows are
    /// decided).
    pub fn select(&self, out: &mut Vec<Verdict>) {
        out.clear();
        out.resize(self.block.records(), Verdict::Undecided);
        self.tree.select(self.block, out);
        for row in self.block.opaque_rows() {
            out[row] = Verdict::Undecided;
        }
    }
}

impl<'a> Bound<'a> {
    fn of(pred: &'a Pred, block: &CompactedBlock) -> Self {
        let children = |ps: &'a [Pred]| ps.iter().map(|p| Bound::of(p, block)).collect();
        match pred {
            Pred::Compare { path, op, literal } => Bound::Compare {
                path,
                op: *op,
                literal,
                access: Access::of(path, block),
            },
            Pred::All(ps) => Bound::All(children(ps)),
            Pred::Any(ps) => Bound::Any(children(ps)),
            Pred::Not(p) => Bound::Not(Box::new(Bound::of(p, block))),
            Pred::Window { .. } => Bound::Any(Vec::new()),
        }
    }

    /// Fill `out` with each row's verdict under this subtree. Opaque rows
    /// are left to the caller.
    fn select(&self, block: &CompactedBlock, out: &mut [Verdict]) {
        let (bs, unit) = match self {
            Bound::Compare {
                path,
                op,
                literal,
                access: Access::Slot(fi),
            } if path.len() == 1 && is_scalar(literal) => {
                out.fill(Verdict::Undecided);
                block.for_each_cell(*fi, |row, cell| {
                    out[row] = match cell.unwrap_or(Val::Missing) {
                        Val::Nested(_) | Val::Rec(..) => Verdict::Undecided,
                        value => value
                            .cmp_in_place(literal)
                            .map_or(Verdict::Undecided, |ord| Verdict::of(op.holds(ord))),
                    };
                });
                return;
            }
            Bound::Compare { .. } => return out.fill(Verdict::Undecided),
            Bound::Not(b) => {
                b.select(block, out);
                for v in out.iter_mut() {
                    *v = match *v {
                        Verdict::Pass => Verdict::Fail,
                        Verdict::Fail => Verdict::Pass,
                        Verdict::Undecided => Verdict::Undecided,
                    };
                }
                return;
            }
            // `and` runs on while its children pass, `or` while they fail
            Bound::All(bs) => (bs, Verdict::Pass),
            Bound::Any(bs) => (bs, Verdict::Fail),
        };
        // a row keeps the verdict of the first child that does not let the
        // test run on, as the test stops there (an undecided child may err
        // before a later one decides)
        out.fill(unit);
        let mut child = Vec::new();
        for b in bs {
            if !out.contains(&unit) {
                break;
            }
            child.resize(out.len(), Verdict::Undecided);
            b.select(block, &mut child);
            for (v, c) in out.iter_mut().zip(&child) {
                if *v == unit {
                    *v = *c;
                }
            }
        }
    }

    /// Test row `row` of `block`; `opaque` holds the row's bytes when it is
    /// carried whole.
    fn test(
        &self,
        block: &CompactedBlock,
        row: usize,
        opaque: Option<&[u8]>,
    ) -> IngestResult<bool> {
        let (path, op, literal, access) = match self {
            Bound::Compare {
                path,
                op,
                literal,
                access,
            } => (*path, *op, *literal, *access),
            Bound::All(bs) => return all(bs, |b| b.test(block, row, opaque)),
            Bound::Any(bs) => return any(bs, |b| b.test(block, row, opaque)),
            Bound::Not(b) => return Ok(!b.test(block, row, opaque)?),
        };
        let value = match (opaque, access) {
            (Some(value), _) => walk(Val::of_bytes(value)?, path)?,
            (None, Access::Slot(fi)) => {
                let cell = block.cell_at(fi, row).unwrap_or(Val::Missing);
                walk(cell, &path[1..])?
            }
            (None, Access::Nested { fi, at }) => match (block.cell_at(fi, row), at) {
                (Some(Val::Rec(values, _)), Some(at)) => {
                    walk(Val::of_bytes(nth_value(values, at)?)?, &path[2..])?
                }
                _ => Val::Missing,
            },
            (None, Access::Residual) => match block.residual_at(row) {
                Some((_, leftovers)) => walk(Val::of_bytes(leftovers)?, path)?,
                None => Val::Missing,
            },
            (None, Access::Row) => {
                let record = block.materialize(row).ok_or_else(|| {
                    IngestError::Parse("compacted block: row does not rebuild".into())
                })?;
                return Ok(op.holds(record.total_cmp(literal)));
            }
        };
        Ok(op.holds(value.cmp(literal)?))
    }
}

/// Compare the binary ADM value `value` with `literal` under
/// [`AdmValue::total_cmp`], reading scalars in place; only a list or a
/// record is decoded.
pub fn cmp_encoded(value: &[u8], literal: &AdmValue) -> IngestResult<Ordering> {
    Val::of_bytes(value)?.cmp(literal)
}

/// A value read in place — out of binary ADM bytes, or out of a compacted
/// column cell — and compared or walked without being built.
pub(crate) enum Val<'a> {
    /// `missing`, or an absent field.
    Missing,
    Null,
    Bool(bool),
    Int(i64),
    Double(f64),
    /// UTF-8 bytes.
    Str(&'a [u8]),
    Point(f64, f64),
    DateTime(i64),
    /// A binary ADM list or record.
    Nested(&'a [u8]),
    /// A hoisted-record cell: its values, back to back, under the header's
    /// names.
    Rec(&'a [u8], &'a [String]),
}

fn word(bytes: &[u8], at: usize) -> IngestResult<[u8; 8]> {
    bytes
        .get(at..at + 8)
        .and_then(|w| w.try_into().ok())
        .ok_or_else(|| IngestError::Parse("binary ADM: truncated scalar".into()))
}

impl<'a> Val<'a> {
    /// The value `bytes` (binary ADM, tag first) encodes.
    pub(crate) fn of_bytes(bytes: &'a [u8]) -> IngestResult<Val<'a>> {
        let f64_at = |at| word(bytes, at).map(f64::from_le_bytes);
        Ok(match bytes.first().copied() {
            Some(TAG_NULL) => Val::Null,
            Some(TAG_MISSING) => Val::Missing,
            Some(TAG_BOOLEAN) => Val::Bool(bytes.get(1) == Some(&1)),
            Some(TAG_INT) => Val::Int(i64::from_le_bytes(word(bytes, 1)?)),
            Some(TAG_DOUBLE) => Val::Double(f64_at(1)?),
            Some(TAG_DATETIME) => Val::DateTime(i64::from_le_bytes(word(bytes, 1)?)),
            Some(TAG_POINT) => Val::Point(f64_at(1)?, f64_at(9)?),
            Some(TAG_STRING) => Val::Str(bytes.get(5..).unwrap_or_default()),
            Some(TAG_ORDERED_LIST | TAG_UNORDERED_LIST | TAG_RECORD) => Val::Nested(bytes),
            _ => return Err(IngestError::Parse("binary ADM: unknown type tag".into())),
        })
    }

    /// [`AdmValue::rank`] of the value.
    fn rank(&self) -> u8 {
        match self {
            Val::Missing => 0,
            Val::Null => 1,
            Val::Bool(_) => 2,
            Val::Int(_) | Val::Double(_) => 3,
            Val::Str(_) => 4,
            Val::Point(..) => 5,
            Val::DateTime(_) => 6,
            Val::Nested(bytes) => match bytes[0] {
                TAG_ORDERED_LIST => 7,
                TAG_UNORDERED_LIST => 8,
                _ => 9,
            },
            Val::Rec(..) => 9,
        }
    }

    /// [`AdmValue::type_name`] of the value.
    fn type_name(&self) -> &'static str {
        match self {
            Val::Missing => "missing",
            Val::Null => "null",
            Val::Bool(_) => "boolean",
            Val::Int(_) => "int64",
            Val::Double(_) => "double",
            Val::Str(_) => "string",
            Val::Point(..) => "point",
            Val::DateTime(_) => "datetime",
            Val::Nested(bytes) => match bytes[0] {
                TAG_ORDERED_LIST => "orderedlist",
                TAG_UNORDERED_LIST => "unorderedlist",
                _ => "record",
            },
            Val::Rec(..) => "record",
        }
    }

    /// `self.<field>`, as the evaluator reads it.
    fn field(self, name: &str) -> IngestResult<Val<'a>> {
        match self {
            Val::Nested(bytes) if bytes[0] == TAG_RECORD => {
                match record_field_slice(bytes, name)? {
                    Some(value) => Val::of_bytes(value),
                    None => Ok(Val::Missing),
                }
            }
            Val::Rec(values, names) => match names.iter().position(|n| n == name) {
                Some(at) => Val::of_bytes(nth_value(values, at)?),
                None => Ok(Val::Missing),
            },
            Val::Null | Val::Missing => Ok(Val::Missing),
            other => Err(IngestError::Type(format!(
                "field access on non-record {}",
                other.type_name()
            ))),
        }
    }

    /// [`AdmValue::total_cmp`] of the value against `literal`.
    #[inline]
    fn cmp(&self, literal: &AdmValue) -> IngestResult<Ordering> {
        if let Some(ord) = self.cmp_in_place(literal) {
            return Ok(ord);
        }
        match self {
            Val::Nested(bytes) => Ok(decode_value(bytes)?.total_cmp(literal)),
            Val::Rec(values, names) => match rec_value(values, names) {
                Some(record) => Ok(record.total_cmp(literal)),
                None => Err(IngestError::Parse(
                    "compacted block: bad record cell".into(),
                )),
            },
            _ => unreachable!("a scalar compares in place"),
        }
    }

    /// [`Val::cmp`] where it needs no decode: `None` only for a list or a
    /// record compared with a literal of its own rank.
    #[inline]
    fn cmp_in_place(&self, literal: &AdmValue) -> Option<Ordering> {
        Some(match (self, literal) {
            (Val::Str(a), AdmValue::String(b)) => (*a).cmp(b.as_bytes()),
            (Val::Int(a), AdmValue::Int(b)) => a.cmp(b),
            (Val::Int(a), AdmValue::Double(b)) => cmp_int_double(*a, *b),
            (Val::Double(a), AdmValue::Int(b)) => cmp_int_double(*b, *a).reverse(),
            (Val::Double(a), AdmValue::Double(b)) => a.total_cmp(b),
            (Val::Bool(a), AdmValue::Boolean(b)) => a.cmp(b),
            (Val::Point(ax, ay), AdmValue::Point(bx, by)) => {
                ax.total_cmp(bx).then_with(|| ay.total_cmp(by))
            }
            (Val::DateTime(a), AdmValue::DateTime(b)) => a.cmp(b),
            (Val::Nested(_) | Val::Rec(..), _) if self.rank() == literal.rank() => return None,
            // types of different rank; or missing and null, one value each
            _ => self.rank().cmp(&literal.rank()),
        })
    }
}

/// Not a list or a record: a value [`Val::cmp`] compares without decoding.
fn is_scalar(value: &AdmValue) -> bool {
    !matches!(
        value,
        AdmValue::OrderedList(_) | AdmValue::UnorderedList(_) | AdmValue::Record(_)
    )
}

/// The `at`-th of the values encoded back to back in `values`.
fn nth_value(values: &[u8], at: usize) -> IngestResult<&[u8]> {
    let mut rest = values;
    for _ in 0..at {
        rest = split_value(rest)?.1;
    }
    Ok(split_value(rest)?.0)
}

/// Read `path` down from `value`.
fn walk<'a>(value: Val<'a>, path: &[String]) -> IngestResult<Val<'a>> {
    path.iter().try_fold(value, |v, name| v.field(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::encode_value;
    use crate::compact::{BlockBuilder, OpenBlock};

    fn tweet(i: i64) -> AdmValue {
        AdmValue::record(vec![
            ("id", AdmValue::Int(i)),
            ("country", if i % 2 == 0 { "US" } else { "CA" }.into()),
            (
                "user",
                AdmValue::record(vec![
                    ("name", "ann".into()),
                    ("followers_count", AdmValue::Int(i * 100)),
                ]),
            ),
        ])
    }

    #[test]
    fn bytes_and_columns_agree_on_a_tweet_filter() {
        let rows: Vec<AdmValue> = (0..10).map(tweet).collect();
        let encoded: Vec<Vec<u8>> = rows.iter().map(encode_value).collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let builder = BlockBuilder::infer(&refs);
        let block = builder.encode(&builder.schema().slot_fields(0.5));
        let open = OpenBlock::encode(&refs);
        let pred = Pred::All(vec![
            Pred::eq("country", "US"),
            Pred::lt("user.followers_count", 300i64).negate(),
            Pred::compare("absent", CmpOp::Ne, "x"),
        ]);
        let bound = pred.bind(&block);
        let want = [
            false, false, false, false, true, false, true, false, true, false,
        ];
        for (row, want) in want.into_iter().enumerate() {
            assert_eq!(
                pred.test_bytes(&encoded[row], None).unwrap(),
                want,
                "row {row}"
            );
            assert_eq!(bound.test(row).unwrap(), want, "row {row}");
            let open_row = open.record_slice(row).unwrap();
            assert_eq!(pred.test_bytes(open_row, None).unwrap(), want, "row {row}");
        }
    }

    #[test]
    fn a_hoisted_record_is_walked_by_its_header_names() {
        let names = ["a".to_string(), "b".to_string()];
        let values = [encode_value(&AdmValue::Int(1)), encode_value(&"x".into())].concat();
        let b = Val::Rec(&values, &names).field("b").unwrap();
        assert_eq!(b.cmp(&"x".into()).unwrap(), Ordering::Equal);
        assert!(matches!(
            Val::Rec(&values, &names).field("c"),
            Ok(Val::Missing)
        ));
    }

    #[test]
    fn a_path_through_a_scalar_is_the_evaluators_error() {
        let row = encode_value(&tweet(1));
        let err = Pred::eq("country.code", "x")
            .test_bytes(&row, None)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            IngestError::Type("field access on non-record string".into()).to_string()
        );
        // a missing or null field reads as missing all the way down
        assert!(Pred::eq("absent.deeper", AdmValue::Missing)
            .test_bytes(&row, None)
            .unwrap());
        assert!(!Pred::exists("absent.deeper")
            .test_bytes(&row, None)
            .unwrap());
        assert!(Pred::exists("user.name").test_bytes(&row, None).unwrap());
    }

    #[test]
    fn a_window_follows_the_stamp_and_is_false_in_a_scan() {
        let row = encode_value(&tweet(1));
        let p = Pred::window(1000, 250);
        assert!(p.test_bytes(&row, Some(0)).unwrap());
        assert!(p.test_bytes(&row, Some(1249)).unwrap());
        assert!(!p.test_bytes(&row, Some(250)).unwrap());
        assert!(!p.test_bytes(&row, None).unwrap(), "no stamp, no match");
        assert!(!Pred::window(0, 5).test_bytes(&row, Some(3)).unwrap());
        let refs = [row.as_slice()];
        let builder = BlockBuilder::infer(&refs);
        let block = builder.encode(&builder.schema().slot_fields(0.5));
        assert!(!p.bind(&block).test(0).unwrap());
        assert!(p.negate().bind(&block).test(0).unwrap());
    }

    #[test]
    fn cmp_encoded_is_total_cmp() {
        let values = [
            AdmValue::Missing,
            AdmValue::Null,
            AdmValue::Boolean(true),
            AdmValue::Int(1 << 53),
            AdmValue::Int((1 << 53) + 1),
            AdmValue::Double(9_007_199_254_740_992.0),
            AdmValue::Double(-0.0),
            AdmValue::Double(f64::NAN),
            "abc".into(),
            "abd".into(),
            AdmValue::Point(1.0, 2.0),
            AdmValue::DateTime(5),
            AdmValue::OrderedList(vec![AdmValue::Int(1)]),
            tweet(3),
        ];
        for a in &values {
            for b in &values {
                assert_eq!(
                    cmp_encoded(&encode_value(a), b).unwrap(),
                    a.total_cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }
}
