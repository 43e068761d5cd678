//! Compiling AQL routing predicates into the plan IR.
//!
//! The `route to <dataset> where <expr>` arms of an extended `create feed`
//! statement carry ordinary AQL boolean expressions over the feed record
//! (bound to any `$var`). This module lowers them to [`Pred`], the byte
//! predicate a query pushes into a scan: the router tests it on each
//! record's payload, and every comparison goes through `compare_leaf`, the
//! one lowering the query pushdown uses too. So an arm means what the same
//! text means in a query:
//!
//! 1. an absent field, or a path through `null`, reads `missing`, which ranks
//!    lowest: `$t.f != "x"`, `$t.n < 10` and `$t.n <= 10` hold for a record
//!    without the field;
//! 2. a path through a non-record (`$t.a.b` with `a` a string) is AQL's
//!    error, and an arm whose test errs does not take the record; an
//!    `otherwise` arm still does, so first-match arms still partition;
//! 3. bytes that do not walk therefore reach an `otherwise` sink, where the
//!    store's checked walk soft-fails them, or, without one, are counted in
//!    `plan.route.no_match_total`.
//!
//! Forms only a route has, and everything else rejected with a language
//! error at DDL time rather than silently misrouting records:
//!
//! * attribute routing: `exists($t.location)`, which is `$t.location !=
//!   missing`;
//! * windowed routing: `window(1000, 250)` — the arm is open for the first
//!   250 sim-milliseconds of every 1000-millisecond cycle of the record's
//!   generation timestamp;
//! * the literals `true` / `false`.

use crate::ast::{BinOp, Expr};
use asterix_adm::pred::{CmpOp, Pred};
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};

/// Lower a parsed routing predicate into the plan IR.
pub fn compile_route_predicate(expr: &Expr) -> IngestResult<Pred> {
    Ok(match expr {
        Expr::Bin(BinOp::And, l, r) => Pred::All(vec![
            compile_route_predicate(l)?,
            compile_route_predicate(r)?,
        ]),
        Expr::Bin(BinOp::Or, l, r) => Pred::Any(vec![
            compile_route_predicate(l)?,
            compile_route_predicate(r)?,
        ]),
        Expr::Not(inner) => compile_route_predicate(inner)?.negate(),
        Expr::Bin(..) => compare_leaf(expr)?.1,
        Expr::Call(name, args) if name.eq_ignore_ascii_case("exists") => match args.as_slice() {
            [field] => Pred::Compare {
                path: field_path(field)?.1,
                op: CmpOp::Ne,
                literal: AdmValue::Missing,
            },
            _ => return Err(unsupported(expr, "exists(<field>) takes one argument")),
        },
        Expr::Call(name, args) if name.eq_ignore_ascii_case("window") => match args.as_slice() {
            [Expr::Literal(AdmValue::Int(period)), Expr::Literal(AdmValue::Int(open))]
                if *period > 0 && *open >= 0 =>
            {
                Pred::window(*period as u64, *open as u64)
            }
            _ => {
                return Err(unsupported(
                    expr,
                    "window(<period_millis>, <open_millis>) takes two positive integers",
                ))
            }
        },
        // `true` routes everything, `false` nothing — the identity elements
        // of the two combinators
        Expr::Literal(AdmValue::Boolean(true)) => Pred::All(Vec::new()),
        Expr::Literal(AdmValue::Boolean(false)) => Pred::Any(Vec::new()),
        other => return Err(unsupported(other, "not a routing predicate")),
    })
}

/// A comparison of `$var.<path>` with a literal, on either side, as a
/// [`Pred`] leaf, with the variable its path starts from: the one lowering
/// of an AQL comparison, for routing arms and the query pushdown alike.
pub(crate) fn compare_leaf(expr: &Expr) -> IngestResult<(&str, Pred)> {
    let Expr::Bin(op, l, r) = expr else {
        return Err(unsupported(expr, "not a comparison"));
    };
    let op =
        cmp_op(*op).ok_or_else(|| unsupported(expr, "arithmetic inside routing predicates"))?;
    let (op, path, literal) = match (&**l, &**r) {
        (path, Expr::Literal(literal)) => (op, path, literal),
        (Expr::Literal(literal), path) => (op.flipped(), path, literal),
        _ => return Err(unsupported(expr, "comparisons need a literal on one side")),
    };
    let (var, path) = field_path(path)?;
    let literal = literal.clone();
    Ok((var, Pred::Compare { path, op, literal }))
}

/// The comparison a binary operator is, if it is one.
pub(crate) fn cmp_op(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// A field reference is a `FieldAccess` chain rooted at a record variable
/// (`$t.user.followers_count` → `("t", ["user", "followers_count"])`). A
/// routing arm ignores the variable's name — every arm sees the one feed
/// record; the query evaluator pushes a comparison into the scan of the
/// dataset the variable ranges over.
fn field_path(expr: &Expr) -> IngestResult<(&str, Vec<String>)> {
    let mut segs = Vec::new();
    let mut cur = expr;
    loop {
        match cur {
            Expr::FieldAccess(base, field) => {
                segs.push(field.clone());
                cur = base;
            }
            Expr::Var(var) => {
                segs.reverse();
                if segs.is_empty() {
                    return Err(unsupported(expr, "bare record variable is not a field"));
                }
                return Ok((var, segs));
            }
            other => return Err(unsupported(other, "expected $record.field[.field...]")),
        }
    }
}

fn unsupported(expr: &Expr, why: &str) -> IngestError {
    IngestError::Language(format!("unsupported routing predicate ({why}): {expr:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn compile(src: &str) -> Pred {
        compile_route_predicate(&parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_comparisons_both_ways() {
        assert_eq!(compile(r#"$t.country = "US""#), Pred::eq("country", "US"));
        // literal on the left flips the operator
        assert_eq!(
            compile("50000 < $t.user.followers_count"),
            Pred::gt("user.followers_count", 50000i64)
        );
        assert_eq!(
            compile("$t.user.followers_count >= 10"),
            Pred::compare("user.followers_count", CmpOp::Ge, 10i64)
        );
    }

    #[test]
    fn compiles_combinators_exists_window() {
        let p = compile(r#"$t.country = "US" and not ($t.retweet = true) or exists($t.location)"#);
        assert!(matches!(p, Pred::Any(_)));
        assert_eq!(compile("window(1000, 250)"), Pred::window(1000, 250));
        assert_eq!(compile("exists($t.location)"), Pred::exists("location"));
        assert_eq!(compile("true"), Pred::All(vec![]));
        assert_eq!(compile("false"), Pred::Any(vec![]));
    }

    #[test]
    fn compiled_predicates_agree_with_the_ir_evaluator() {
        let p = compile(r#"$t.country = "US" and $t.user.followers_count > 100"#);
        let hit = AdmValue::record(vec![
            ("country", "US".into()),
            (
                "user",
                AdmValue::record(vec![("followers_count", AdmValue::Int(500))]),
            ),
        ]);
        let miss = AdmValue::record(vec![("country", "DE".into())]);
        let takes = |v: &AdmValue| p.test_bytes(&asterix_adm::encode_value(v), None);
        assert!(takes(&hit).unwrap());
        assert!(!takes(&miss).unwrap());
    }

    #[test]
    fn rejects_unsupported_shapes() {
        for bad in [
            "$t.a + 1",                  // arithmetic result is not boolean
            "$t.a = $t.b",               // no literal side
            "$t",                        // bare variable
            "window(1000)",              // arity
            r#"window("a", "b")"#,       // types
            "exists($t.a, $t.b)",        // arity
            r#"starts-with($t.a, "x")"#, // arbitrary function
        ] {
            let e = parse_expr(bad).unwrap();
            assert!(compile_route_predicate(&e).is_err(), "{bad} should fail");
        }
    }
}
