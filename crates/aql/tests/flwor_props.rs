//! FLWOR oracle property test: over random datasets, each query shape of a
//! fixed corpus returns exactly what plain Rust computes over
//! `Dataset::scan_all()`, row for row and in the same order.
//!
//! The records upsert the same small key space again and again (and delete
//! some keys), leave optional fields missing or null, and nest
//! `user.followers_count`. Dataset `A` spans two partitions, `B` one; a tiny
//! memtable budget spreads both over sealed components, merges and the
//! memtable. The corpus covers the streamed scan (projected and whole
//! record), `let` before `for`, a list `for` after a dataset `for`, joins
//! whose inner dataset is scanned once per evaluation, a correlated nested
//! FLWOR that scans the dataset its outer query is streaming (it would
//! deadlock if a scan held its partition's lock), group-by, shadowing, and
//! an error. And every shape of `where` the evaluator pushes into a scan:
//! comparisons on a string, an int and a nested int, `and`/`or`/`not`
//! mixes, a conjunct over a `let` variable beside a pushed one, `!=` on a
//! field some rows lack, paths through a string field (the query must fail
//! exactly when the tree's would), a non-boolean conjunct beside pushed
//! ones (the error must be the tree's, word for word), shapes that push
//! nothing (a clause after the scan, a join, a rebinding `let`), shadowing,
//! and group-by under a pushed `where`.
//!
//! A B-tree secondary answers the scan of `for $t in dataset A where $t.f =
//! <literal> return $t.id` (and of any other return that reads no field but
//! the key) instead of the scan: over datasets whose records lack the
//! indexed field, hold `null` in it, or change it by upsert, and with
//! deletes, the indexed dataset answers every such query — string, `null`,
//! `missing`, NaN, and an int and a double of equal value — row for row and
//! error for error as an unindexed copy of it does, and the partitions'
//! `index_reads` counter says which path answered.
//!
//! A feed's routing arm is the same predicate: for a corpus of `where`
//! texts, the arm the DDL compiles takes a record exactly when `eval` of
//! the text, with `$t` bound to the record, is `true`, and its test fails
//! with `eval`'s error word for word (an arm that errs takes nothing).

use asterix_adm::{encode_value, AdmValue};
use asterix_aql::ast::{BinOp, Expr};
use asterix_aql::compile_route_predicate;
use asterix_aql::eval::{eval, eval_flwor, Env, EvalContext};
use asterix_aql::parser::parse_expr;
use asterix_common::{IngestError, IngestResult, NodeId};
use asterix_feeds::plan::{IngestPlanBuilder, SinkSpec};
use asterix_storage::partition::PartitionConfig;
use asterix_storage::{Dataset, DatasetConfig, IndexKind};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::sync::Arc;

const COUNTRIES: [&str; 4] = ["US", "CA", "UK", "IN"];
const NAMES: [&str; 3] = ["ann", "bo", "cy"];

/// One write: `(key, shape bits, follower count, op)`; op 0 deletes.
type Op = (u8, u32, u32, u8);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..24, any::<u32>(), any::<u32>(), 0u8..8), 0..48)
}

fn key(k: u8) -> AdmValue {
    AdmValue::string(format!("t{k:02}"))
}

/// A tweet whose optional fields are missing, null or present by `bits`.
fn tweet(k: u8, bits: u32, followers: u32) -> AdmValue {
    let mut fields = vec![
        ("id".to_string(), key(k)),
        (
            "country".to_string(),
            AdmValue::string(COUNTRIES[bits as usize % 4]),
        ),
    ];
    let mut optional = |name: &str, shift: u32, present: AdmValue| match bits >> shift & 3 {
        0 => {}
        1 => fields.push((name.to_string(), AdmValue::Null)),
        _ => fields.push((name.to_string(), present)),
    };
    let mut user = vec![(
        "name".to_string(),
        AdmValue::string(NAMES[(bits >> 4) as usize % 3]),
    )];
    if bits >> 6 & 1 == 1 {
        user.push((
            "followers_count".to_string(),
            AdmValue::Int(i64::from(followers % 1000)),
        ));
    }
    optional("user", 2, AdmValue::Record(user));
    optional("lang", 7, AdmValue::string("en"));
    optional("n", 16, AdmValue::Int(i64::from(followers % 10)));
    let tags = (0..bits >> 11 & 3)
        .map(|i| AdmValue::string(format!("#{}", (bits >> (13 + i)) & 3)))
        .collect();
    optional("tags", 9, AdmValue::OrderedList(tags));
    AdmValue::Record(fields)
}

fn dataset(name: &str, partitions: u64, ops: &[Op]) -> Arc<Dataset> {
    dataset_of(name, partitions, ops, &[], tweet)
}

/// Dataset `name` over `partitions` partitions holding what `ops` leave of
/// the records `make` builds, with a B-tree on each field of `indexed`,
/// created before the writes.
fn dataset_of(
    name: &str,
    partitions: u64,
    ops: &[Op],
    indexed: &[&str],
    make: fn(u8, u32, u32) -> AdmValue,
) -> Arc<Dataset> {
    let mut config = PartitionConfig::keyed_on("id");
    config.lsm.memtable_budget = 4;
    config.lsm.max_components = 2;
    let d = Dataset::create_configured(
        DatasetConfig {
            name: name.into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: (0..partitions).map(NodeId).collect(),
        },
        config,
    )
    .expect("dataset");
    for field in indexed {
        let index = format!("{field}Idx");
        d.create_index(index, *field, IndexKind::BTree)
            .expect("index");
    }
    for &(k, bits, followers, op) in ops {
        match op {
            0 => d.delete(&key(k)).expect("delete"),
            _ => d.upsert(&make(k, bits, followers)).expect("upsert"),
        }
    }
    Arc::new(d)
}

/// A [`tweet`] with a field `x` that is absent, `null`, `3`, `3.0`, NaN,
/// `"3"`, `0` or `-0.0` by `bits`.
fn x_tweet(k: u8, bits: u32, followers: u32) -> AdmValue {
    let mut t = tweet(k, bits, followers);
    let x = match bits >> 20 & 7 {
        0 => return t,
        1 => AdmValue::Null,
        2 => AdmValue::Int(3),
        3 => AdmValue::Double(3.0),
        4 => AdmValue::Double(f64::NAN),
        5 => s("3"),
        6 => AdmValue::Int(0),
        _ => AdmValue::Double(-0.0),
    };
    if let AdmValue::Record(fields) = &mut t {
        fields.push(("x".to_string(), x));
    }
    t
}

/// Scans the partitions of `d` answered from a secondary.
fn index_reads(d: &Dataset) -> u64 {
    let parts = 0..d.partition_count();
    parts.map(|i| d.partition(i).index_reads()).sum()
}

/// `for $t in dataset A where $t.<field> = <literal> return <ret>`, the
/// literal put in after parsing: AQL writes no NaN.
fn eq_query(field: &str, literal: &AdmValue, ret: &str) -> Expr {
    let text = format!("for $t in dataset A where $t.{field} = 0 return {ret}");
    let mut query = parse_expr(&text).expect("query parses");
    let Expr::Flwor {
        where_clause: Some(w),
        ..
    } = &mut query
    else {
        panic!("not a FLWOR with a where: {text}");
    };
    let Expr::Bin(BinOp::Eq, _, rhs) = w.as_mut() else {
        panic!("not an `=`: {text}");
    };
    **rhs = Expr::Literal(literal.clone());
    query
}

struct Datasets(Vec<Arc<Dataset>>);

impl EvalContext for Datasets {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        self.0
            .iter()
            .find(|d| d.config.name == name)
            .cloned()
            .ok_or_else(|| IngestError::Metadata(format!("unknown dataset {name}")))
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!("no function {name}")))
    }
}

/// `$v.p.q...` in plain Rust: `missing` past an absent field or a
/// `null` / `missing` value (the generated records nest nothing else).
fn path(v: &AdmValue, fields: &[&str]) -> AdmValue {
    fields.iter().fold(v.clone(), |v, f| {
        v.field(f).cloned().unwrap_or(AdmValue::Missing)
    })
}

/// `$v.p.q...` where a step may meet a non-record: the query's error.
fn try_path(v: &AdmValue, fields: &[&str]) -> Result<AdmValue, ()> {
    fields.iter().try_fold(v.clone(), |v, f| match v {
        AdmValue::Record(_) => Ok(v.field(f).cloned().unwrap_or(AdmValue::Missing)),
        AdmValue::Null | AdmValue::Missing => Ok(AdmValue::Missing),
        _ => Err(()),
    })
}

/// `path <op> literal` as AQL compares.
fn cmp(v: &AdmValue, fields: &[&str], literal: impl Into<AdmValue>) -> Ordering {
    path(v, fields).total_cmp(&literal.into())
}

/// The ids of the rows of `rows` that `keep` keeps.
fn ids(rows: &[AdmValue], keep: impl Fn(&AdmValue) -> bool) -> Option<Vec<AdmValue>> {
    Some(
        rows.iter()
            .filter(|t| keep(t))
            .map(|t| path(t, &["id"]))
            .collect(),
    )
}

fn s(text: &str) -> AdmValue {
    AdmValue::string(text)
}

fn rec(fields: Vec<(&str, AdmValue)>) -> AdmValue {
    AdmValue::record(fields)
}

fn list(items: Vec<AdmValue>) -> AdmValue {
    AdmValue::OrderedList(items)
}

fn eq(a: &AdmValue, b: &AdmValue) -> bool {
    a.total_cmp(b) == Ordering::Equal
}

/// Group `rows` by `key`, groups in first-appearance order.
fn groups(rows: &[AdmValue], key: impl Fn(&AdmValue) -> AdmValue) -> Vec<(AdmValue, usize)> {
    let mut out: Vec<(AdmValue, usize)> = Vec::new();
    for row in rows {
        let k = key(row);
        match out.iter_mut().find(|(g, _)| eq(g, &k)) {
            Some((_, n)) => *n += 1,
            None => out.push((k, 1)),
        }
    }
    out
}

/// The corpus: each query with the rows plain Rust computes for it over
/// the scans of `A` and `B` (`None`: the query must fail).
fn corpus(a: &[AdmValue], b: &[AdmValue]) -> Vec<(&'static str, Option<Vec<AdmValue>>)> {
    let us = |t: &&AdmValue| path(t, &["country"]) == s("US");
    vec![
        (
            r#"for $t in dataset A where $t.country = "US" return $t.id"#,
            Some(a.iter().filter(us).map(|t| path(t, &["id"])).collect()),
        ),
        (
            "for $t in dataset A where $t.user.followers_count < 500 return $t",
            Some(
                a.iter()
                    .filter(|t| {
                        path(t, &["user", "followers_count"]).total_cmp(&AdmValue::Int(500))
                            == Ordering::Less
                    })
                    .cloned()
                    .collect(),
            ),
        ),
        (
            r#"let $c := "UK"
               for $t in dataset A
               where $t.country = $c
               return { "id": $t.id, "f": $t.user.followers_count, "l": $t.lang }"#,
            Some(
                a.iter()
                    .filter(|t| path(t, &["country"]) == s("UK"))
                    .map(|t| {
                        rec(vec![
                            ("id", path(t, &["id"])),
                            ("f", path(t, &["user", "followers_count"])),
                            ("l", path(t, &["lang"])),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "for $t in dataset A for $h in $t.tags return [$t.id, $h]",
            Some(
                a.iter()
                    .flat_map(|t| {
                        let tags = path(t, &["tags"]).as_list().unwrap_or(&[]).to_vec();
                        tags.into_iter().map(|h| list(vec![path(t, &["id"]), h]))
                    })
                    .collect(),
            ),
        ),
        (
            r#"for $t in dataset B for $x in [1, 2] where $x = 2 or $t.country = "US"
               return [$t.id, $x]"#,
            Some(
                b.iter()
                    .flat_map(|t| [1, 2].map(|x| (t, x)))
                    .filter(|&(t, x)| x == 2 || us(&t))
                    .map(|(t, x)| list(vec![path(t, &["id"]), AdmValue::Int(x)]))
                    .collect(),
            ),
        ),
        (
            "for $x in dataset A for $y in dataset A
             where $x.user.name = $y.user.name and $x.id < $y.id
             return [$x.id, $y.id]",
            Some(
                a.iter()
                    .flat_map(|x| a.iter().map(move |y| (x, y)))
                    .filter(|(x, y)| {
                        eq(&path(x, &["user", "name"]), &path(y, &["user", "name"]))
                            && path(x, &["id"]).total_cmp(&path(y, &["id"])) == Ordering::Less
                    })
                    .map(|(x, y)| list(vec![path(x, &["id"]), path(y, &["id"])]))
                    .collect(),
            ),
        ),
        (
            "for $b in dataset B for $a in dataset A where $a.country = $b.country
             return [$b.id, $a]",
            Some(
                b.iter()
                    .flat_map(|x| a.iter().map(move |y| (x, y)))
                    .filter(|(x, y)| eq(&path(x, &["country"]), &path(y, &["country"])))
                    .map(|(x, y)| list(vec![path(x, &["id"]), y.clone()]))
                    .collect(),
            ),
        ),
        (
            r#"for $t in dataset A where $t.country != "CA"
               return { "id": $t.id,
                        "peers": count(for $u in dataset A
                                       where $u.user.name = $t.user.name
                                       return $u) }"#,
            Some(
                a.iter()
                    .filter(|t| path(t, &["country"]) != s("CA"))
                    .map(|t| {
                        let name = path(t, &["user", "name"]);
                        let peers = a
                            .iter()
                            .filter(|u| eq(&path(u, &["user", "name"]), &name))
                            .count();
                        rec(vec![
                            ("id", path(t, &["id"])),
                            ("peers", AdmValue::Int(peers as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            r#"for $t in dataset A group by $c := $t.country with $t
               return { "c": $c, "n": count($t) }"#,
            Some(
                groups(a, |t| path(t, &["country"]))
                    .into_iter()
                    .map(|(c, n)| rec(vec![("c", c), ("n", AdmValue::Int(n as i64))]))
                    .collect(),
            ),
        ),
        (
            "for $t in dataset B group by $l := $t.lang with $t return [$l, count($t)]",
            Some(
                groups(b, |t| path(t, &["lang"]))
                    .into_iter()
                    .map(|(l, n)| list(vec![l, AdmValue::Int(n as i64)]))
                    .collect(),
            ),
        ),
        (
            "for $t in dataset A
             let $n := (for $t in [1, 2, 3] return $t)
             let $t := $t.user
             return [$t.name, count($n)]",
            Some(
                a.iter()
                    .map(|t| list(vec![path(t, &["user", "name"]), AdmValue::Int(3)]))
                    .collect(),
            ),
        ),
        (
            "for $t in dataset B return $t.id.nested",
            if b.is_empty() { Some(Vec::new()) } else { None },
        ),
        // pushed-down shapes: `=` `!=` `<` `>=` on a string, an int and a
        // nested int
        (
            r#"for $t in dataset A where $t.country != "US" return $t.id"#,
            ids(a, |t| cmp(t, &["country"], "US") != Ordering::Equal),
        ),
        (
            r#"for $t in dataset A where "IN" > $t.country return $t.id"#,
            ids(a, |t| cmp(t, &["country"], "IN") == Ordering::Less),
        ),
        (
            "for $t in dataset A where $t.n = 3 return $t.id",
            ids(a, |t| cmp(t, &["n"], 3i64) == Ordering::Equal),
        ),
        (
            "for $t in dataset A where $t.n < 5 return [$t.id, $t.n]",
            Some(
                a.iter()
                    .filter(|t| cmp(t, &["n"], 5i64) == Ordering::Less)
                    .map(|t| list(vec![path(t, &["id"]), path(t, &["n"])]))
                    .collect(),
            ),
        ),
        (
            "for $t in dataset A where $t.user.followers_count >= 500 return $t.id",
            ids(a, |t| {
                cmp(t, &["user", "followers_count"], 500i64) != Ordering::Less
            }),
        ),
        // `and` / `or` / `not` mixes
        (
            r#"for $t in dataset A
               where ($t.country = "US" or $t.lang = "en") and not ($t.n >= 5)
               return $t.id"#,
            ids(a, |t| {
                (path(t, &["country"]) == s("US") || eq(&path(t, &["lang"]), &s("en")))
                    && cmp(t, &["n"], 5i64) == Ordering::Less
            }),
        ),
        (
            r#"for $t in dataset A
               where not ($t.country = "CA" and $t.user.followers_count < 300) or $t.n = 0
               return $t.id"#,
            ids(a, |t| {
                !(path(t, &["country"]) == s("CA")
                    && cmp(t, &["user", "followers_count"], 300i64) == Ordering::Less)
                    || cmp(t, &["n"], 0i64) == Ordering::Equal
            }),
        ),
        // a conjunct over a `let` variable beside a pushed one
        (
            r#"let $c := "UK"
               for $t in dataset A
               where $t.country = $c and $t.n != 7
               return $t.id"#,
            ids(a, |t| {
                path(t, &["country"]) == s("UK") && cmp(t, &["n"], 7i64) != Ordering::Equal
            }),
        ),
        (
            r#"let $c := "UK"
               for $t in dataset A
               where $t.n != 7 and $t.country = $c
               return $t.id"#,
            ids(a, |t| {
                cmp(t, &["n"], 7i64) != Ordering::Equal && path(t, &["country"]) == s("UK")
            }),
        ),
        // `!=` on a field some rows lack (missing and null are not "en")
        (
            r#"for $t in dataset A where $t.lang != "en" return [$t.id, $t.lang]"#,
            Some(
                a.iter()
                    .filter(|t| !eq(&path(t, &["lang"]), &s("en")))
                    .map(|t| list(vec![path(t, &["id"]), path(t, &["lang"])]))
                    .collect(),
            ),
        ),
        // a path through a string field fails the query where the tree does
        (
            r#"for $t in dataset A where $t.country.code = "x" return $t.id"#,
            if a.is_empty() { Some(Vec::new()) } else { None },
        ),
        (
            r#"for $t in dataset A where $t.country = "US" and $t.lang.code = "x" return $t.id"#,
            a.iter()
                .filter(|t| path(t, &["country"]) == s("US"))
                .map(|t| try_path(t, &["lang", "code"]).map(|_| ()))
                .collect::<Result<Vec<()>, ()>>()
                .ok()
                .map(|_| Vec::new()),
        ),
        (
            r#"for $t in dataset A where $t.user.name.first = "a" and $t.country = "nowhere"
               return $t.id"#,
            a.iter()
                .map(|t| try_path(t, &["user", "name", "first"]).map(|_| ()))
                .collect::<Result<Vec<()>, ()>>()
                .ok()
                .map(|_| Vec::new()),
        ),
        // a clause after the scan keeps the `where` in the tree: `for $h in
        // $t.lang` fails on a string, whatever `country` holds
        (
            r#"for $t in dataset A for $h in $t.lang where $t.country = "nowhere" return $h"#,
            if a.iter().any(|t| eq(&path(t, &["lang"]), &s("en"))) {
                None
            } else {
                Some(Vec::new())
            },
        ),
        (
            r#"for $t in dataset A for $h in $t.tags where $t.country.code = "x" return $h"#,
            if a.iter()
                .any(|t| !path(t, &["tags"]).as_list().unwrap_or(&[]).is_empty())
            {
                None
            } else {
                Some(Vec::new())
            },
        ),
        // a non-boolean conjunct fails an `and`, pushed neighbour or not
        (
            r#"for $t in dataset A where $t.lang and $t.country = "US" return $t.id"#,
            if a.is_empty() { Some(Vec::new()) } else { None },
        ),
        // a shadowing `for`: `$t` of the `where` is the last binding
        (
            r#"let $t := "shadowed"
               for $t in dataset A
               where $t.country = "CA"
               return $t.id"#,
            ids(a, |t| path(t, &["country"]) == s("CA")),
        ),
        (
            r#"for $t in dataset A let $t := $t.user where $t.name = "bo" return $t.name"#,
            Some(
                a.iter()
                    .filter(|t| eq(&path(t, &["user", "name"]), &s("bo")))
                    .map(|t| path(t, &["user", "name"]))
                    .collect(),
            ),
        ),
        // a join keeps its `where` in the tree
        (
            r#"for $b in dataset B for $a in dataset A
               where $a.country = "US" and $b.n >= 5
               return [$b.id, $a.id]"#,
            Some(
                b.iter()
                    .flat_map(|x| a.iter().map(move |y| (x, y)))
                    .filter(|(x, y)| {
                        path(y, &["country"]) == s("US") && cmp(x, &["n"], 5i64) != Ordering::Less
                    })
                    .map(|(x, y)| list(vec![path(x, &["id"]), path(y, &["id"])]))
                    .collect(),
            ),
        ),
        // `group by ... with $t` under a pushed `where`
        (
            r#"for $t in dataset A where $t.country != "IN"
               group by $l := $t.lang with $t
               return { "l": $l, "n": count($t), "ids": (for $x in $t return $x.id) }"#,
            Some({
                let kept: Vec<AdmValue> = a
                    .iter()
                    .filter(|t| path(t, &["country"]) != s("IN"))
                    .cloned()
                    .collect();
                groups(&kept, |t| path(t, &["lang"]))
                    .into_iter()
                    .map(|(l, n)| {
                        let members = kept
                            .iter()
                            .filter(|t| eq(&path(t, &["lang"]), &l))
                            .map(|t| path(t, &["id"]))
                            .collect();
                        rec(vec![
                            ("l", l),
                            ("n", AdmValue::Int(n as i64)),
                            ("ids", list(members)),
                        ])
                    })
                    .collect()
            }),
        ),
    ]
}

/// Queries whose error must be the tree's, word for word (`Ok`: no error).
/// `a and b` with `a` not a boolean evaluates `b`, then fails on the pair
/// unless `b` failed first; a pushed conjunct before it reads `true`.
fn error_corpus(a: &[AdmValue]) -> Vec<(&'static str, Result<Vec<AdmValue>, String>)> {
    let type_error = |msg: String| Err(IngestError::Type(msg).to_string());
    let lang = |t: &AdmValue| path(t, &["lang"]).type_name();
    let first_us = a.iter().find(|t| path(t, &["country"]) == s("US"));
    vec![
        (
            "for $t in dataset A where $t.lang and $t.id = $t.id return $t.id",
            match a.first() {
                Some(t) => type_error(format!("boolean operator on {} / boolean", lang(t))),
                None => Ok(Vec::new()),
            },
        ),
        (
            r#"for $t in dataset A where $t.lang and $t.country.code = "x" return $t.id"#,
            match a.first() {
                Some(_) => type_error("field access on non-record string".into()),
                None => Ok(Vec::new()),
            },
        ),
        (
            r#"for $t in dataset A where $t.country = "US" and $t.lang and $t.id = $t.id
               return $t.id"#,
            match first_us {
                Some(t) => type_error(format!("boolean operator on boolean / {}", lang(t))),
                None => Ok(Vec::new()),
            },
        ),
        (
            r#"for $t in dataset A where $t.country = "US" and ($t.lang and $t.n = 1)
               return $t.id"#,
            match first_us {
                Some(t) => type_error(format!("boolean operator on {} / boolean", lang(t))),
                None => Ok(Vec::new()),
            },
        ),
    ]
}

/// `where` texts a routing arm and a query share.
const ROUTE_TEXTS: [&str; 5] = [
    r#"$t.lang != "en""#,
    "$t.user.followers_count < 10",
    r#"not($t.country = "US")"#,
    "$t.a.b = 1",
    r#"$t.country = "US" and $t.lang != "en" or not($t.n <= 3) and $t.a.b > 0"#,
];

/// `row` with a field `a` that is absent, a string (so `$t.a.b` errs),
/// `null`, or a record.
fn with_a(row: &AdmValue) -> Vec<AdmValue> {
    let a_values = [
        s("str"),
        AdmValue::Null,
        rec(vec![("b", AdmValue::Int(1))]),
        rec(vec![("b", AdmValue::Int(2))]),
    ];
    let mut rows = vec![row.clone()];
    for a in a_values {
        let mut fields = match row {
            AdmValue::Record(fields) => fields.clone(),
            _ => Vec::new(),
        };
        fields.push(("a".to_string(), a));
        rows.push(AdmValue::Record(fields));
    }
    rows
}

#[test]
fn a_partition_counter_says_which_path_answers() {
    let ops: Vec<Op> = (0..24).map(|k| (k, u32::from(k) * 7919, 0, 1)).collect();
    let d = dataset_of("A", 2, &ops, &["country"], tweet);
    let ctx = Datasets(vec![Arc::clone(&d)]);
    let reads = |query: &str| {
        let before = index_reads(&d);
        let expr = parse_expr(query).expect("query parses");
        let rows = eval_flwor(&expr, &mut Env::new(), &ctx).expect("query evaluates");
        assert!(!rows.is_empty(), "{query} returned nothing");
        index_reads(&d) - before
    };
    // the benchmark's reader query: every partition answers from countryIdx
    let reader = r#"for $t in dataset A where $t.country = "US" return $t.id"#;
    assert_eq!(reads(reader), 2, "{reader}");
    // a whole record, a field other than the key, a `null` literal (no
    // secondary holds `null`) or an unindexed field: the scan answers
    for query in [
        r#"for $t in dataset A where $t.country = "US" return $t"#,
        r#"for $t in dataset A where $t.country = "US" return $t.message_text"#,
        r#"for $t in dataset A where $t.country = "US" return $t.user"#,
        r#"for $t in dataset A where $t.country != null return $t.id"#,
        r#"for $t in dataset A where $t.country = null or $t.id != "" return $t.id"#,
        r#"for $t in dataset A where $t.user.name = "bo" return $t.id"#,
    ] {
        assert_eq!(reads(query), 0, "{query}");
    }
    let null = r#"for $t in dataset A where $t.country = null return $t.id"#;
    let before = index_reads(&d);
    let rows = eval_flwor(&parse_expr(null).unwrap(), &mut Env::new(), &ctx).unwrap();
    assert!(rows.is_empty(), "no generated country is null");
    assert_eq!(index_reads(&d), before, "{null}");
}

proptest! {
    #[test]
    fn the_index_path_answers_as_the_scan_does(ops in ops()) {
        let fields = ["country", "lang", "x"];
        let indexed = dataset_of("A", 2, &ops, &fields, x_tweet);
        let with_index = Datasets(vec![Arc::clone(&indexed)]);
        let without = Datasets(vec![dataset_of("A", 2, &ops, &[], x_tweet)]);
        let literals = [
            s("US"),
            s("en"),
            s("3"),
            AdmValue::Null,
            AdmValue::Missing,
            AdmValue::Double(f64::NAN),
            AdmValue::Int(3),
            AdmValue::Double(3.0),
            AdmValue::Int(0),
            AdmValue::Double(-0.0),
        ];
        // (return, whether it reads no field but the key)
        let returns = [
            ("$t.id", true),
            ("1", true),
            ("[$t.id, $t.id]", true),
            ("$t.id.nested", true),
            ("$t", false),
            ("$t.x", false),
        ];
        for field in fields {
            for literal in &literals {
                for (ret, key_only) in returns {
                    let query = eq_query(field, literal, ret);
                    let before = index_reads(&indexed);
                    let got = eval_flwor(&query, &mut Env::new(), &with_index).map_err(|e| e.to_string());
                    let answered = index_reads(&indexed) - before;
                    let want = eval_flwor(&query, &mut Env::new(), &without).map_err(|e| e.to_string());
                    let what = format!("$t.{field} = {literal:?} return {ret}");
                    // compared by encoding: NaN rows equal themselves
                    let bits = |r: &Result<Vec<AdmValue>, String>| {
                        r.clone().map(|rows| rows.iter().map(encode_value).collect::<Vec<_>>())
                    };
                    prop_assert_eq!(bits(&got), bits(&want), "{}", what);
                    // every partition the query reached answered by its
                    // index: both, unless the first one's rows failed it
                    let by_index = key_only && !matches!(literal, AdmValue::Null | AdmValue::Missing);
                    let reached = if got.is_ok() { 2 } else { answered.max(1) };
                    prop_assert_eq!(answered, if by_index { reached } else { 0 }, "{}", what);
                }
            }
        }
    }

    #[test]
    fn route_arms_decide_as_the_query_does(ops_a in ops()) {
        let ctx = Datasets(Vec::new());
        for text in ROUTE_TEXTS {
            let expr = parse_expr(text).expect("route text parses");
            let arm = compile_route_predicate(&expr).expect("route text compiles");
            let plan = IngestPlanBuilder::new("P")
                .adaptor("socket_adaptor")
                .sink(SinkSpec::to("D").route(arm.clone()))
                .build()
                .unwrap();
            for row in dataset("A", 2, &ops_a).scan_all().iter().flat_map(with_a) {
                let mut env = Env::new();
                env.insert("t".into(), row.clone());
                let want = eval(&expr, &mut env, &ctx).map_err(|e| e.to_string()).map(|v| {
                    v.as_bool().unwrap_or_else(|| panic!("{text} is not boolean: {v:?}"))
                });
                let bytes = encode_value(&row);
                let got = arm.test_bytes(&bytes, None).map_err(|e| e.to_string());
                prop_assert_eq!(&got, &want, "{} on {:?}", text, row);
                let taken = plan.route_payload(&bytes, None) == vec![0];
                prop_assert_eq!(taken, want == Ok(true), "{} on {:?}", text, row);
            }
        }
    }

    #[test]
    fn every_query_shape_matches_plain_rust(ops_a in ops(), ops_b in ops()) {
        let ctx = Datasets(vec![dataset("A", 2, &ops_a), dataset("B", 1, &ops_b)]);
        let a = ctx.0[0].scan_all();
        let b = ctx.0[1].scan_all();
        for (query, want) in corpus(&a, &b) {
            let expr = parse_expr(query).expect("corpus query parses");
            let mut env = Env::new();
            let got = eval_flwor(&expr, &mut env, &ctx);
            prop_assert!(env.is_empty(), "{query}: bindings leaked: {env:?}");
            match want {
                Some(want) => prop_assert_eq!(got.expect(query), want),
                None => prop_assert!(got.is_err(), "{query} returned {got:?}"),
            }
        }
        for (query, want) in error_corpus(&a) {
            let expr = parse_expr(query).expect("error corpus query parses");
            let got = eval_flwor(&expr, &mut Env::new(), &ctx).map_err(|e| e.to_string());
            prop_assert_eq!(got, want, "{}", query);
        }
    }
}
