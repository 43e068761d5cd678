//! Byte predicates against the tree: over random records — missing and null
//! fields, nested records, int64 extremes, doubles with signed zeros and
//! NaN, strings with a shared prefix, the odd duplicate field or non-record
//! row — a random [`Pred`] over their paths, with literals of every type,
//! decides each row exactly as AQL's comparison does on the decoded record
//! (the oracle: `$v.<path>` read field by field, then
//! [`AdmValue::total_cmp`] under the operator, `and`/`or` short-circuiting
//! left to right, a path through a non-record value an error, a window
//! false for want of a stamp). The byte evaluator runs over the record's
//! encoding, over a [`CompactedBlock`] holding it among the other rows, and
//! over an [`OpenBlock`] of them.
//!
//! The column-at-a-time selection agrees with that test row by row:
//! `BlockPred::select` gives each row the test's verdict or leaves it
//! undecided — always for a row whose test errs — and decides exactly the
//! rows a one-field path into a slot reads a scalar of, against a scalar
//! literal. A pin: the reader query's predicate leaves no row of a sealed
//! tweet component undecided.
//!
//! The order itself is pinned first: `total_cmp` is antisymmetric and
//! transitive over int64 extremes, ±0.0, NaN and cross-width pairs, two
//! ints compare as `i64`, and values it calls equal hash alike.

use asterix_adm::compact::{BlockBuilder, OpenBlock};
use asterix_adm::hash::hash_value;
use asterix_adm::pred::{cmp_encoded, Verdict};
use asterix_adm::{encode_value, payload_from_text, AdmValue, CmpOp, Pred};
use proptest::prelude::*;
use std::cmp::Ordering;

#[path = "common/gen.rs"]
mod gen;

const TWO_53: i64 = 1 << 53;

/// One of `items`.
fn pick<T: Clone + 'static>(items: Vec<T>) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i].clone())
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        3 => pick(vec![
            i64::MIN,
            i64::MIN + 1,
            i64::MAX,
            i64::MAX - 1,
            -TWO_53 - 1,
            -TWO_53,
            TWO_53,
            TWO_53 + 1,
            -1,
            0,
            1,
            3,
        ]),
        1 => any::<i64>(),
        2 => -5i64..5,
    ]
}

/// Doubles that land on, between and beside the ints above: the pairs a
/// comparison through `f64` gets wrong.
fn double() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => pick(vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.5,
            -0.5,
            3.0,
            9_007_199_254_740_992.0,
            9_007_199_254_740_994.0,
            -9.223_372_036_854_776e18,
            9.223_372_036_854_776e18,
            f64::MIN_POSITIVE,
        ]),
        3 => int().prop_map(|i| i as f64),
        1 => any::<u64>().prop_map(f64::from_bits),
        1 => (-5i64..5).prop_map(|i| i as f64 / 2.0),
    ]
}

fn string() -> impl Strategy<Value = String> {
    (any::<bool>(), "[ab]{0,2}").prop_map(|(prefixed, s)| match prefixed {
        true => format!("user_{s}"),
        false => s,
    })
}

/// Every scalar type, plus a list and a record (compared by decoding).
fn scalar() -> impl Strategy<Value = AdmValue> {
    prop_oneof![
        Just(AdmValue::Null),
        Just(AdmValue::Missing),
        any::<bool>().prop_map(AdmValue::Boolean),
        int().prop_map(AdmValue::Int),
        double().prop_map(AdmValue::Double),
        string().prop_map(AdmValue::String),
        (double(), double()).prop_map(|(x, y)| AdmValue::Point(x, y)),
        int().prop_map(AdmValue::DateTime),
    ]
}

fn literal() -> impl Strategy<Value = AdmValue> {
    prop_oneof![
        8 => scalar(),
        1 => prop::collection::vec(scalar(), 0..3).prop_map(AdmValue::OrderedList),
        1 => (string(), int()).prop_map(|(name, n)| AdmValue::record(vec![
            ("name", name.into()),
            ("followers_count", AdmValue::Int(n)),
        ])),
    ]
}

/// One field of a row: kept as drawn, `null`, or left out.
fn field(
    name: &'static str,
    value: impl Strategy<Value = AdmValue>,
    dense: bool,
) -> impl Strategy<Value = Option<(String, AdmValue)>> {
    (value, 0u8..8).prop_map(move |(v, pick)| match pick {
        _ if dense => Some((name.to_string(), v)),
        0 => None,
        1 => Some((name.to_string(), AdmValue::Null)),
        _ => Some((name.to_string(), v)),
    })
}

/// A tweet-like record. `dense` rows carry every typed field, so a block of
/// them gets fixed, string and hoisted-record columns; sparse rows leave
/// fields out or null, add open fields and repeat a name now and then.
fn row(dense: bool) -> impl Strategy<Value = AdmValue> {
    let followers = prop_oneof![Just(None), int().prop_map(Some)];
    let user = (string(), followers).prop_map(move |(name, followers)| {
        let mut fields = vec![("name".to_string(), AdmValue::String(name))];
        match followers {
            Some(n) => fields.push(("followers_count".to_string(), AdmValue::Int(n))),
            None if dense => fields.push(("followers_count".to_string(), AdmValue::Int(0))),
            None => {}
        }
        AdmValue::Record(fields)
    });
    let typed = (
        field("id", int().prop_map(AdmValue::Int), dense),
        field("score", double().prop_map(AdmValue::Double), dense),
        field("name", string().prop_map(AdmValue::String), dense),
        field("user", user, dense),
    );
    let more = (
        field("flag", any::<bool>().prop_map(AdmValue::Boolean), dense),
        field("at", int().prop_map(AdmValue::DateTime), dense),
        field(
            "pos",
            (double(), double()).prop_map(|(x, y)| AdmValue::Point(x, y)),
            dense,
        ),
    );
    let open = (
        field("misc", scalar(), false),
        field(
            "tags",
            prop::collection::vec(scalar(), 0..3).prop_map(AdmValue::OrderedList),
            false,
        ),
        0u8..16,
    );
    (typed, more, open).prop_map(
        move |((id, score, name, user), (flag, at, pos), (misc, tags, odd))| {
            let mut fields: Vec<(String, AdmValue)> = [id, score, name, user, flag, at, pos]
                .into_iter()
                .flatten()
                .collect();
            if !dense {
                fields.extend([misc, tags].into_iter().flatten());
                match odd {
                    // a repeated name: only its first occurrence is read
                    0 => fields.push(("name".to_string(), AdmValue::Int(7))),
                    1 => fields.reverse(),
                    // not a record at all
                    2 => return AdmValue::String("opaque".into()),
                    _ => {}
                }
            }
            AdmValue::Record(fields)
        },
    )
}

fn path() -> impl Strategy<Value = Vec<String>> {
    pick(vec![
        "id",
        "score",
        "name",
        "user",
        "user.name",
        "user.followers_count",
        "user.absent",
        "flag",
        "at",
        "pos",
        "misc",
        "tags",
        "absent",
        "absent.deeper",
        "name.deeper",
        "id.deeper",
        "user.name.deeper",
        "misc.deeper",
        // the row itself
        "",
    ])
    .prop_map(|p| {
        p.split('.')
            .filter(|f| !f.is_empty())
            .map(str::to_string)
            .collect()
    })
}

fn op() -> impl Strategy<Value = CmpOp> {
    pick(vec![
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ])
}

fn pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        8 => (path(), op(), literal()).prop_map(|(path, op, literal)| Pred::Compare {
            path,
            op,
            literal,
        }),
        // a stored row has no stamp: a window never holds in a scan
        1 => (0u64..4, 0u64..4).prop_map(|(period, open)| Pred::window(period, open)),
    ];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Pred::All),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Pred::Any),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

/// `and`/`or`/`not` over predicates, two or three children each: the
/// orders a column-at-a-time selection must keep.
fn combined() -> impl Strategy<Value = Pred> {
    prop_oneof![
        prop::collection::vec(pred(), 2..4).prop_map(Pred::All),
        prop::collection::vec(pred(), 2..4).prop_map(Pred::Any),
        combined_leaf().prop_map(|p| Pred::Not(Box::new(p))),
    ]
}

fn combined_leaf() -> impl Strategy<Value = Pred> {
    prop_oneof![
        prop::collection::vec(pred(), 2..4).prop_map(Pred::All),
        prop::collection::vec(pred(), 2..4).prop_map(Pred::Any),
    ]
}

/// `$v.<path>` on the tree, as the evaluator reads it: `missing` past an
/// absent field or a `null`/`missing`, an error on any other non-record.
fn read(row: &AdmValue, path: &[String]) -> Result<AdmValue, ()> {
    path.iter().try_fold(row.clone(), |v, name| match v {
        AdmValue::Record(_) => Ok(v.field(name).cloned().unwrap_or(AdmValue::Missing)),
        AdmValue::Null | AdmValue::Missing => Ok(AdmValue::Missing),
        _ => Err(()),
    })
}

/// The tree's verdict: comparisons under `total_cmp`, combinators left to
/// right with short-circuit.
fn oracle(pred: &Pred, row: &AdmValue) -> Result<bool, ()> {
    match pred {
        Pred::Compare { path, op, literal } => Ok(op.holds(read(row, path)?.total_cmp(literal))),
        Pred::All(ps) => {
            for p in ps {
                if !oracle(p, row)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Pred::Any(ps) => {
            for p in ps {
                if oracle(p, row)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Pred::Not(p) => Ok(!oracle(p, row)?),
        Pred::Window { .. } => Ok(false),
    }
}

/// Neither a list nor a record.
fn is_scalar(value: &AdmValue) -> bool {
    !matches!(
        value,
        AdmValue::OrderedList(_) | AdmValue::UnorderedList(_) | AdmValue::Record(_)
    )
}

fn rows() -> impl Strategy<Value = Vec<AdmValue>> {
    prop_oneof![
        prop::collection::vec(row(true), 1..12),
        prop::collection::vec(row(false), 1..12),
    ]
}

fn ordered() -> impl Strategy<Value = AdmValue> {
    prop_oneof![
        4 => int().prop_map(AdmValue::Int),
        4 => double().prop_map(AdmValue::Double),
        1 => gen::adm_value(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_predicates_decide_every_row_as_the_tree_does(
        rows in rows(),
        preds in prop::collection::vec(pred(), 1..4),
        presence in pick(vec![0.0, 0.5, 0.9]),
    ) {
        let encoded: Vec<Vec<u8>> = rows.iter().map(encode_value).collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let builder = BlockBuilder::infer(&refs);
        let block = builder.encode(&builder.schema().slot_fields(presence));
        let open = OpenBlock::encode(&refs);
        for pred in &preds {
            let bound = pred.bind(&block);
            for (i, row) in rows.iter().enumerate() {
                let want = oracle(pred, row);
                let bytes = pred.test_bytes(&encoded[i], None).map_err(drop);
                prop_assert_eq!(bytes, want, "bytes, row {}: {:?} on {:?}", i, pred, row);
                let cells = bound.test(i).map_err(drop);
                prop_assert_eq!(cells, want, "compacted, row {}: {:?} on {:?}", i, pred, row);
                let open_row = open.record_slice(i).expect("row in range");
                let open_bytes = pred.test_bytes(open_row, None).map_err(drop);
                prop_assert_eq!(open_bytes, want, "open, row {}: {:?} on {:?}", i, pred, row);
            }
        }
    }

    #[test]
    fn select_decides_a_row_only_as_its_test_does(
        rows in rows(),
        preds in prop::collection::vec(prop_oneof![pred(), combined()], 1..4),
        presence in pick(vec![0.0, 0.5, 0.9]),
    ) {
        let encoded: Vec<Vec<u8>> = rows.iter().map(encode_value).collect();
        let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
        let builder = BlockBuilder::infer(&refs);
        let block = builder.encode(&builder.schema().slot_fields(presence));
        let slots = block.slot_names();
        let mut verdicts = Vec::new();
        for pred in &preds {
            let bound = pred.bind(&block);
            bound.select(&mut verdicts);
            prop_assert_eq!(verdicts.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                let test = bound.test(i).map_err(drop);
                match verdicts[i] {
                    Verdict::Pass => prop_assert_eq!(test, Ok(true), "row {}: {:?} on {:?}", i, pred, row),
                    Verdict::Fail => prop_assert_eq!(test, Ok(false), "row {}: {:?} on {:?}", i, pred, row),
                    Verdict::Undecided => {}
                }
                // a leaf is decided exactly where its test reads a slot's
                // scalar cell of a sound record against a scalar literal
                if let Pred::Compare { path, literal, .. } = pred {
                    let decides = path.len() == 1
                        && slots.contains(&path[0])
                        && is_scalar(literal)
                        && row.as_record().is_some()
                        && row.field(&path[0]).is_none_or(is_scalar);
                    prop_assert_eq!(
                        verdicts[i] != Verdict::Undecided,
                        decides,
                        "row {}: {:?} on {:?} (slots {:?})", i, pred, row, slots
                    );
                }
            }
        }
    }

    #[test]
    fn cmp_encoded_is_total_cmp(value in ordered(), literal in prop_oneof![ordered(), literal()]) {
        let got = cmp_encoded(&encode_value(&value), &literal).expect("well-formed bytes");
        prop_assert_eq!(got, value.total_cmp(&literal));
        prop_assert_eq!(
            cmp_encoded(&encode_value(&literal), &value).expect("well-formed bytes"),
            literal.total_cmp(&value)
        );
    }

    #[test]
    fn total_cmp_is_a_total_order(a in ordered(), b in ordered(), c in ordered()) {
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse(), "antisymmetry");
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal, "reflexivity");
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert!(a.total_cmp(&c) != Ordering::Greater, "transitivity");
        }
        if a.total_cmp(&b) == Ordering::Equal {
            prop_assert_eq!(hash_value(&a), hash_value(&b), "equal keys hash alike");
        }
        if let (AdmValue::Int(x), AdmValue::Int(y)) = (&a, &b) {
            prop_assert_eq!(a.total_cmp(&b), x.cmp(y), "two ints compare as i64");
        }
    }
}

/// The reader query's `where $t.country = "US"`, bound to a component of
/// generated tweets sealed as storage seals one, decides every row a column
/// at a time and agrees with the row's test.
#[test]
fn the_reader_query_leaves_no_tweet_undecided() {
    let mut factory = tweetgen::TweetFactory::new(0, 7);
    let payloads: Vec<_> = (0..2_000)
        .map(|_| payload_from_text(&factory.next_json()).expect("a generated tweet"))
        .collect();
    let refs: Vec<&[u8]> = payloads.iter().map(|p| &p[..]).collect();
    let builder = BlockBuilder::infer(&refs);
    let block = builder.encode(&builder.schema().slot_fields(0.5));
    let pred = Pred::eq("country", "US");
    let bound = pred.bind(&block);
    let mut verdicts = Vec::new();
    bound.select(&mut verdicts);
    let count = |v: Verdict| verdicts.iter().filter(|&&x| x == v).count();
    assert_eq!(count(Verdict::Undecided), 0);
    assert!(count(Verdict::Pass) > 0 && count(Verdict::Fail) > 0);
    for (row, verdict) in verdicts.iter().enumerate() {
        let holds = bound.test(row).expect("a tweet's country reads");
        assert_eq!(*verdict == Verdict::Pass, holds, "row {row}");
    }
}
