//! Compiling AQL routing predicates into the plan IR.
//!
//! The `route to <dataset> where <expr>` arms of an extended `create feed`
//! statement carry ordinary AQL boolean expressions over the feed record
//! (bound to any `$var`). This module lowers the supported subset into
//! [`RoutePredicate`] — the pure evaluator shared by the routing operator
//! and every test oracle — and rejects everything else with a language
//! error, so unsupported predicates fail at DDL time rather than silently
//! misrouting records.
//!
//! Supported forms:
//!
//! * field comparisons with a literal on either side:
//!   `$t.country = "US"`, `50000 < $t.user.followers_count`;
//! * boolean combinators `and`, `or`, `not`;
//! * attribute routing: `exists($t.location)`;
//! * windowed routing: `window(1000, 250)` — the arm is open for the first
//!   250 sim-milliseconds of every 1000-millisecond cycle of the record's
//!   generation timestamp;
//! * the literals `true` / `false`.

use crate::ast::{BinOp, Expr};
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};
use asterix_feeds::plan::{CmpOp, RoutePredicate};

/// Lower a parsed routing predicate into the plan IR.
pub fn compile_route_predicate(expr: &Expr) -> IngestResult<RoutePredicate> {
    match expr {
        Expr::Bin(BinOp::And, l, r) => Ok(RoutePredicate::All(vec![
            compile_route_predicate(l)?,
            compile_route_predicate(r)?,
        ])),
        Expr::Bin(BinOp::Or, l, r) => Ok(RoutePredicate::Any(vec![
            compile_route_predicate(l)?,
            compile_route_predicate(r)?,
        ])),
        Expr::Not(inner) => Ok(compile_route_predicate(inner)?.negate()),
        Expr::Bin(op, l, r) => {
            let op = cmp_op(*op)
                .ok_or_else(|| unsupported(expr, "arithmetic inside routing predicates"))?;
            match (&**l, &**r) {
                (lhs, Expr::Literal(v)) => Ok(RoutePredicate::Compare {
                    field: field_path(lhs)?.1,
                    op,
                    value: v.clone(),
                }),
                (Expr::Literal(v), rhs) => Ok(RoutePredicate::Compare {
                    field: field_path(rhs)?.1,
                    op: op.flipped(),
                    value: v.clone(),
                }),
                _ => Err(unsupported(expr, "comparisons need a literal on one side")),
            }
        }
        Expr::Call(name, args) if name.eq_ignore_ascii_case("exists") => match args.as_slice() {
            [field] => Ok(RoutePredicate::Exists {
                field: field_path(field)?.1,
            }),
            _ => Err(unsupported(expr, "exists(<field>) takes one argument")),
        },
        Expr::Call(name, args) if name.eq_ignore_ascii_case("window") => match args.as_slice() {
            [Expr::Literal(AdmValue::Int(period)), Expr::Literal(AdmValue::Int(open))]
                if *period > 0 && *open >= 0 =>
            {
                Ok(RoutePredicate::window(*period as u64, *open as u64))
            }
            _ => Err(unsupported(
                expr,
                "window(<period_millis>, <open_millis>) takes two positive integers",
            )),
        },
        // `true` routes everything, `false` nothing — the identity elements
        // of the two combinators
        Expr::Literal(AdmValue::Boolean(true)) => Ok(RoutePredicate::All(Vec::new())),
        Expr::Literal(AdmValue::Boolean(false)) => Ok(RoutePredicate::Any(Vec::new())),
        other => Err(unsupported(other, "not a routing predicate")),
    }
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
pub(crate) fn field_path(expr: &Expr) -> IngestResult<(&str, Vec<String>)> {
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

    fn compile(src: &str) -> RoutePredicate {
        compile_route_predicate(&parse_expr(src).unwrap()).unwrap()
    }

    #[test]
    fn compiles_comparisons_both_ways() {
        assert_eq!(
            compile(r#"$t.country = "US""#),
            RoutePredicate::eq("country", "US")
        );
        // literal on the left flips the operator
        assert_eq!(
            compile("50000 < $t.user.followers_count"),
            RoutePredicate::gt("user.followers_count", 50000i64)
        );
        assert_eq!(
            compile("$t.user.followers_count >= 10"),
            RoutePredicate::compare("user.followers_count", CmpOp::Ge, 10i64)
        );
    }

    #[test]
    fn compiles_combinators_exists_window() {
        let p = compile(r#"$t.country = "US" and not ($t.retweet = true) or exists($t.location)"#);
        assert!(matches!(p, RoutePredicate::Any(_)));
        assert_eq!(
            compile("window(1000, 250)"),
            RoutePredicate::window(1000, 250)
        );
        assert_eq!(
            compile("exists($t.location)"),
            RoutePredicate::exists("location")
        );
        assert_eq!(compile("true"), RoutePredicate::All(vec![]));
        assert_eq!(compile("false"), RoutePredicate::Any(vec![]));
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
        assert!(p.matches(&hit, None));
        assert!(!p.matches(&miss, None));
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
