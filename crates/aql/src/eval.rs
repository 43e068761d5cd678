//! The AQL expression evaluator.
//!
//! Evaluates the expression subset the paper's listings use: FLWOR
//! iteration over datasets and lists, let-bindings, where-filters,
//! group-by with aggregation, quantified expressions, the builtin function
//! library, and record/list construction. The compiler treats AQL UDFs as
//! transparent expressions evaluated through this module (unlike external
//! UDFs, which stay black boxes).
//!
//! A FLWOR is a pipeline evaluated one binding at a time over a single
//! scoped [`Env`]: each `for` and `let` pushes its variable, recurses into
//! the clauses after it and pops it on exit; `where` filters each complete
//! binding, and `return` (or the group-by accumulator) consumes it. No
//! environment is copied and no list of bindings is built. A dataset `for` with no `for` before it streams its
//! rows straight from the storage scan ([`Dataset::try_for_each_row`]),
//! which reads each partition from a snapshot with no lock held — so a
//! nested query may scan the same dataset — and lends each row to the
//! binding in one reused buffer. Any other dataset `for` is scanned once per
//! evaluation, and its rows are lent to the binding for every outer binding
//! in turn. Variables, `$v.f.g` paths and comparison operands that are
//! literals or such paths are read by reference; only a value an expression
//! returns is cloned.
//!
//! Before it binds anything, a FLWOR of the shape `let* for $v in dataset D
//! where ...` splits its `where` into its `and`-ed conjuncts and pushes the
//! leading ones that compare `$v.<path>` with literals (under
//! `and`/`or`/`not`) into the scan, as one [`Pred`] the scan tests on the
//! stored bytes — column cells of a compacted component, payload bytes
//! elsewhere — before it projects or decodes the row. The scan's rows are
//! then the complete bindings, in order, so the pushed conjuncts run at the
//! same rows, in the same order and with the same short-circuit as the tree
//! would, and fail where it would fail (`push_down`). Only the conjuncts
//! left are evaluated as trees, and a scan is projected to the fields those
//! and the rest of the query read: `for $t in dataset D where $t.country =
//! "US" return $t.id` compares `country` in place and decodes `id` of the
//! matching rows only — or, where a B-tree indexes `country`, the partition
//! reads the matching keys from it and scans no row.

use crate::ast::{BinOp, Expr, FlworClause, GroupBy};
use crate::route::{cmp_op, compare_leaf};
use asterix_adm::functions as builtins;
use asterix_adm::pred::Pred;
use asterix_adm::AdmValue;
use asterix_common::{IngestError, IngestResult};
use asterix_storage::{AsKey, Dataset, KeyOrd};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Resolves names the evaluator cannot know by itself.
pub trait EvalContext {
    /// A dataset for `dataset <name>` scans.
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>>;
    /// A user-defined function for calls that are not builtins.
    fn call_udf(&self, name: &str, arg: &AdmValue) -> IngestResult<AdmValue>;
}

/// A context with no datasets and no UDFs (pure expressions).
pub struct EmptyContext;

impl EvalContext for EmptyContext {
    fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
        Err(IngestError::Metadata(format!(
            "no dataset '{name}' in this context"
        )))
    }

    fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
        Err(IngestError::Metadata(format!(
            "no function '{name}' in this context"
        )))
    }
}

/// Variable bindings: a stack searched from the innermost binding, so a
/// name costs one string comparison per binding in scope — a query binds a
/// handful — and no hash. Evaluation pushes the variables it introduces and
/// pops them on exit: after a call the env holds what it held before,
/// whether the call succeeded or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    bindings: Vec<(String, AdmValue)>,
}

impl Env {
    /// No bindings.
    pub fn new() -> Self {
        Env::default()
    }

    /// The innermost binding of `name`.
    pub fn get(&self, name: &str) -> Option<&AdmValue> {
        let mut bindings = self.bindings.iter().rev();
        bindings.find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The innermost binding of `name`, to rebind in place.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut AdmValue> {
        let mut bindings = self.bindings.iter_mut().rev();
        bindings.find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Bind `name` to `value`, replacing its innermost binding if it has
    /// one; returns the value replaced.
    pub fn insert(&mut self, name: String, value: AdmValue) -> Option<AdmValue> {
        match self.get_mut(&name) {
            Some(bound) => Some(std::mem::replace(bound, value)),
            None => {
                self.bindings.push((name, value));
                None
            }
        }
    }

    /// Drop the innermost binding of `name`; returns its value.
    pub fn remove(&mut self, name: &str) -> Option<AdmValue> {
        let at = self.bindings.iter().rposition(|(n, _)| n == name)?;
        Some(self.bindings.remove(at).1)
    }

    /// No bindings?
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

/// What a field access on a record without the field, or on `null` /
/// `missing`, reads.
static MISSING: AdmValue = AdmValue::Missing;

/// Evaluate `expr` under `env`.
pub fn eval(expr: &Expr, env: &mut Env, ctx: &dyn EvalContext) -> IngestResult<AdmValue> {
    if let Some(v) = read_ref(expr, env) {
        return v.cloned();
    }
    match expr {
        Expr::Literal(_) | Expr::Var(_) => unreachable!("read by reference"),
        Expr::DatasetScan(name) => {
            let ds = ctx.dataset(name)?;
            Ok(AdmValue::OrderedList(ds.scan_all()))
        }
        Expr::FeedIntake(feed) => Err(IngestError::Plan(format!(
            "feed_intake(\"{feed}\") is a pipeline source, not an evaluable expression"
        ))),
        Expr::FieldAccess(inner, field) => field_of(&eval(inner, env, ctx)?, field).cloned(),
        Expr::RecordCtor(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (k, e) in fields {
                out.push((k.clone(), eval(e, env, ctx)?));
            }
            Ok(AdmValue::Record(out))
        }
        Expr::ListCtor(items) => {
            let mut out = Vec::with_capacity(items.len());
            for e in items {
                out.push(eval(e, env, ctx)?);
            }
            Ok(AdmValue::OrderedList(out))
        }
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env, ctx)?);
            }
            call_function(name, &vals, ctx)
        }
        Expr::Bin(op, lhs, rhs) => {
            use BinOp::*;
            if let (Eq | Ne | Lt | Le | Gt | Ge, Some(l), Some(r)) =
                (op, read_ref(lhs, env), read_ref(rhs, env))
            {
                return apply_binop(*op, l?, r?);
            }
            let l = eval(lhs, env, ctx)?;
            // short-circuit booleans
            match op {
                And => {
                    if l.as_bool() == Some(false) {
                        return Ok(AdmValue::Boolean(false));
                    }
                    let r = eval(rhs, env, ctx)?;
                    return bool_op(&l, &r, |a, b| a && b);
                }
                Or => {
                    if l.as_bool() == Some(true) {
                        return Ok(AdmValue::Boolean(true));
                    }
                    let r = eval(rhs, env, ctx)?;
                    return bool_op(&l, &r, |a, b| a || b);
                }
                _ => {}
            }
            let r = eval(rhs, env, ctx)?;
            apply_binop(*op, &l, &r)
        }
        Expr::Not(inner) => {
            let v = eval(inner, env, ctx)?;
            v.as_bool()
                .map(|b| AdmValue::Boolean(!b))
                .ok_or_else(|| IngestError::Type("not on non-boolean".into()))
        }
        Expr::Some {
            var,
            source,
            predicate,
        } => {
            // `some $x in missing` is false, not an error (optional fields)
            let items = items_of(eval(source, env, ctx)?, "some..in")?;
            scoped(env, var, |env| {
                for item in items {
                    *slot(env, var) = item;
                    if eval(predicate, env, ctx)?.as_bool() == Some(true) {
                        return Ok(AdmValue::Boolean(true));
                    }
                }
                Ok(AdmValue::Boolean(false))
            })
        }
        Expr::Flwor { .. } => {
            let rows = eval_flwor(expr, env, ctx)?;
            Ok(AdmValue::OrderedList(rows))
        }
    }
}

/// A literal, a variable or a `$v.f.g` path, read by reference; `None` for
/// any other expression.
fn read_ref<'a>(expr: &'a Expr, env: &'a Env) -> Option<IngestResult<&'a AdmValue>> {
    Some(match expr {
        Expr::Literal(v) => Ok(v),
        Expr::Var(name) => env
            .get(name)
            .ok_or_else(|| IngestError::Language(format!("unbound variable ${name}"))),
        Expr::FieldAccess(inner, field) => read_ref(inner, env)?.and_then(|v| field_of(v, field)),
        _ => return None,
    })
}

/// `v.<field>`: `missing` when a record lacks the field or `v` is `null` /
/// `missing`, an error on any other value.
fn field_of<'a>(v: &'a AdmValue, field: &str) -> IngestResult<&'a AdmValue> {
    match v {
        AdmValue::Record(_) => Ok(v.field(field).unwrap_or(&MISSING)),
        AdmValue::Null | AdmValue::Missing => Ok(&MISSING),
        other => Err(IngestError::Type(format!(
            "field access on non-record {}",
            other.type_name()
        ))),
    }
}

/// The items a `for` or `some` ranges over: a list's items, none for
/// `null` / `missing` (an absent optional field), an error otherwise.
fn items_of(coll: AdmValue, clause: &str) -> IngestResult<Vec<AdmValue>> {
    match coll {
        AdmValue::OrderedList(items) | AdmValue::UnorderedList(items) => Ok(items),
        AdmValue::Null | AdmValue::Missing => Ok(Vec::new()),
        other => Err(IngestError::Type(format!(
            "{clause} over non-collection {}",
            other.type_name()
        ))),
    }
}

/// Run `body` with `var` bound innermost — to `missing` until the body sets
/// it through [`slot`] — then pop the binding, on error too.
fn scoped<T>(
    env: &mut Env,
    var: &str,
    body: impl FnOnce(&mut Env) -> IngestResult<T>,
) -> IngestResult<T> {
    let depth = env.bindings.len();
    env.bindings.push((var.to_owned(), AdmValue::Missing));
    let out = body(env);
    env.bindings.truncate(depth);
    out
}

/// The binding of `var` inside its [`scoped`] body.
fn slot<'e>(env: &'e mut Env, var: &str) -> &'e mut AdmValue {
    env.get_mut(var).expect("bound by `scoped`")
}

/// Evaluate a FLWOR expression to its row sequence.
pub fn eval_flwor(
    expr: &Expr,
    env: &mut Env,
    ctx: &dyn EvalContext,
) -> IngestResult<Vec<AdmValue>> {
    let Expr::Flwor {
        clauses,
        where_clause,
        group_by,
        ret,
    } = expr
    else {
        return Err(IngestError::Language("not a FLWOR expression".into()));
    };
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        split_and(w, &mut conjuncts);
    }
    // predicate pushdown: the leading conjuncts the last clause's scan can
    // test on the stored bytes leave the tree `where`
    let (mut filter, pushed) = push_down(clauses, &conjuncts);
    let rest = &conjuncts[pushed..];
    let flwor = Flwor {
        where_clause: Where {
            expr: where_clause.as_deref().filter(|_| !rest.is_empty()),
            pushed,
        },
        group_by: group_by.as_ref(),
        ret,
        ctx,
    };
    let mut scans = Vec::with_capacity(clauses.len());
    for (ci, clause) in clauses.iter().enumerate() {
        let FlworClause::For {
            var,
            source: Expr::DatasetScan(name),
        } = clause
        else {
            scans.push(None);
            continue;
        };
        // projection pushdown: a dataset scan whose bound variable is only
        // ever used through direct field accesses downstream scans just
        // those fields — on compacted components only the requested
        // columns are decoded
        let fields = projection_for(var, &clauses[ci + 1..], rest, flwor.group_by, ret);
        let streamed = !clauses[..ci]
            .iter()
            .any(|c| matches!(c, FlworClause::For { .. }));
        // a nested projected scan is taken up front (an unknown dataset
        // fails the query even when no outer binding reaches the clause),
        // a whole-record one when an outer binding first reaches it
        let rows = match (&fields, streamed) {
            (Some(fields), false) => Some(scan_rows(&*ctx.dataset(name)?, Some(fields))?),
            _ => None,
        };
        scans.push(Some(DatasetFor {
            name,
            fields,
            // only the last clause has a filter, and then it is the one
            // dataset `for`
            filter: filter.take(),
            streamed,
            rows,
        }));
    }
    let mut out = Output::default();
    flwor.bind(clauses, &mut scans, env, &mut out)?;
    match flwor.group_by {
        None => Ok(out.rows),
        Some(g) => flwor.return_groups(g, out.groups, env),
    }
}

/// The parts of a FLWOR that act on a complete binding.
struct Flwor<'q> {
    where_clause: Where<'q>,
    group_by: Option<&'q GroupBy>,
    ret: &'q Expr,
    ctx: &'q dyn EvalContext,
}

/// A `for $v in dataset <name>` clause.
struct DatasetFor<'q> {
    name: &'q str,
    /// What the scan is projected to ([`projection_for`]); `None` scans
    /// whole records.
    fields: Option<Vec<String>>,
    /// The leading conjuncts of `where` the scan tests ([`push_down`]).
    filter: Option<Pred>,
    /// No `for` comes before it: its rows stream from the scan.
    streamed: bool,
    /// A nested scan's rows, taken once per evaluation.
    rows: Option<Vec<AdmValue>>,
}

/// What the complete bindings produced so far.
#[derive(Default)]
struct Output {
    /// Returned rows (no group-by).
    rows: Vec<AdmValue>,
    groups: Groups,
}

/// The group-by accumulator: groups in first-appearance order, each found
/// by its key in O(log groups).
#[derive(Default)]
struct Groups {
    index: BTreeMap<KeyOrd, usize>,
    /// Key and `with` values of each group.
    groups: Vec<(AdmValue, Vec<AdmValue>)>,
}

impl Groups {
    fn add(&mut self, key: AdmValue, item: AdmValue) {
        match self.index.get(&key as &dyn AsKey) {
            Some(&i) => self.groups[i].1.push(item),
            None => {
                self.index.insert(KeyOrd(key.clone()), self.groups.len());
                self.groups.push((key, vec![item]));
            }
        }
    }
}

impl Flwor<'_> {
    /// Bind `clauses` in turn, each paired with its entry of `scans`, and
    /// hand every complete binding to [`Flwor::consume`].
    fn bind(
        &self,
        clauses: &[FlworClause],
        scans: &mut [Option<DatasetFor<'_>>],
        env: &mut Env,
        out: &mut Output,
    ) -> IngestResult<()> {
        let (Some((clause, clauses)), Some((scan, scans))) =
            (clauses.split_first(), scans.split_first_mut())
        else {
            return self.consume(env, out);
        };
        match (clause, scan) {
            (FlworClause::Let { var, value }, _) => {
                let v = eval(value, env, self.ctx)?;
                scoped(env, var, |env| {
                    *slot(env, var) = v;
                    self.bind(clauses, scans, env, out)
                })
            }
            (FlworClause::For { var, .. }, Some(ds)) if ds.streamed => {
                let dataset = self.ctx.dataset(ds.name)?;
                scoped(env, var, |env| {
                    dataset.try_for_each_row(ds.fields.as_deref(), ds.filter.as_ref(), |row| {
                        // the scan's row buffer is lent to the binding
                        std::mem::swap(slot(env, var), row);
                        let bound = self.bind(clauses, scans, env, out);
                        std::mem::swap(slot(env, var), row);
                        bound
                    })
                })
            }
            (FlworClause::For { var, .. }, Some(ds)) => {
                if ds.rows.is_none() {
                    let dataset = self.ctx.dataset(ds.name)?;
                    ds.rows = Some(scan_rows(&dataset, ds.fields.as_deref())?);
                }
                let rows = ds.rows.as_mut().expect("scanned above");
                scoped(env, var, |env| {
                    for row in rows.iter_mut() {
                        // the row is lent to the binding, not copied
                        std::mem::swap(slot(env, var), row);
                        let bound = self.bind(clauses, scans, env, out);
                        std::mem::swap(slot(env, var), row);
                        bound?;
                    }
                    Ok(())
                })
            }
            (FlworClause::For { var, source }, None) => {
                let items = items_of(eval(source, env, self.ctx)?, "for..in")?;
                scoped(env, var, |env| {
                    for item in items {
                        *slot(env, var) = item;
                        self.bind(clauses, scans, env, out)?;
                    }
                    Ok(())
                })
            }
        }
    }

    /// One complete binding: filter it, then return it or add it to its
    /// group.
    fn consume(&self, env: &mut Env, out: &mut Output) -> IngestResult<()> {
        if !self.where_clause.holds(env, self.ctx)? {
            return Ok(());
        }
        match self.group_by {
            None => out.rows.push(eval(self.ret, env, self.ctx)?),
            Some(g) => {
                let key = eval(&g.key_expr, env, self.ctx)?;
                let item = env.get(&g.with_var).cloned().ok_or_else(|| {
                    IngestError::Language(format!(
                        "group-by with-variable ${} is unbound",
                        g.with_var
                    ))
                })?;
                out.groups.add(key, item);
            }
        }
        Ok(())
    }

    /// The return rows of a group-by: `return` once per group, in
    /// first-appearance order, under the FLWOR's outer bindings plus the
    /// group key and the regrouped `with` values.
    fn return_groups(
        &self,
        g: &GroupBy,
        groups: Groups,
        env: &mut Env,
    ) -> IngestResult<Vec<AdmValue>> {
        let mut rows = Vec::with_capacity(groups.groups.len());
        scoped(env, &g.key_var, |env| {
            scoped(env, &g.with_var, |env| {
                for (key, items) in groups.groups {
                    *slot(env, &g.key_var) = key;
                    *slot(env, &g.with_var) = AdmValue::OrderedList(items);
                    rows.push(eval(self.ret, env, self.ctx)?);
                }
                Ok(())
            })
        })?;
        Ok(rows)
    }
}

/// A `where` whose leading conjuncts may have gone into the scan: it is
/// evaluated as [`eval`] evaluates it, with each pushed conjunct — which
/// every binding reaching it has passed — read as `true`.
struct Where<'q> {
    /// `None` when there is no `where`, or all of it was pushed.
    expr: Option<&'q Expr>,
    /// How many leading conjuncts the scan tests.
    pushed: usize,
}

impl Where<'_> {
    /// Does the complete binding in `env` pass?
    fn holds(&self, env: &mut Env, ctx: &dyn EvalContext) -> IngestResult<bool> {
        let Some(w) = self.expr else {
            return Ok(true);
        };
        Ok(self.eval_and(w, &mut 0, env, ctx)?.as_bool() == Some(true))
    }

    /// [`eval`]'s `and` over the chain `expr`, whose first conjunct is the
    /// `where`'s conjunct number `seen`.
    fn eval_and(
        &self,
        expr: &Expr,
        seen: &mut usize,
        env: &mut Env,
        ctx: &dyn EvalContext,
    ) -> IngestResult<AdmValue> {
        let Expr::Bin(BinOp::And, l, r) = expr else {
            *seen += 1;
            return match *seen <= self.pushed {
                true => Ok(AdmValue::Boolean(true)),
                false => eval(expr, env, ctx),
            };
        };
        let l = self.eval_and(l, seen, env, ctx)?;
        if l.as_bool() == Some(false) {
            return Ok(AdmValue::Boolean(false));
        }
        let r = self.eval_and(r, seen, env, ctx)?;
        bool_op(&l, &r, |a, b| a && b)
    }
}

/// The rows of one dataset scan, projected to `fields`.
fn scan_rows(dataset: &Dataset, fields: Option<&[String]>) -> IngestResult<Vec<AdmValue>> {
    let mut rows = Vec::new();
    dataset.try_for_each_row(fields, None, |row| {
        rows.push(std::mem::replace(row, AdmValue::Missing));
        Ok::<_, IngestError>(())
    })?;
    Ok(rows)
}

/// Append the conjuncts of an `and` chain to `out`, left to right.
fn split_and<'q>(expr: &'q Expr, out: &mut Vec<&'q Expr>) {
    match expr {
        Expr::Bin(BinOp::And, l, r) => {
            split_and(l, out);
            split_and(r, out);
        }
        other => out.push(other),
    }
}

/// Predicate pushdown: the filter the scan of a FLWOR's last clause tests
/// on the stored bytes ([`Dataset::try_for_each_row`]), and how many of the
/// `where`'s leading conjuncts it holds.
///
/// The FLWOR must be `let* for $v in dataset D where ...`: the scan's rows
/// are then its complete bindings, one for one and in order, tested as they
/// stream. The conjuncts pushed are the leading ones that compile to a
/// [`Pred`] over `$v`, so the scan tests them at the same rows, in the same
/// order and with the same short-circuit as the tree, and an error one
/// raises (`$t.a.b` with `a` a string) stops the query where the tree's
/// would.
fn push_down(clauses: &[FlworClause], conjuncts: &[&Expr]) -> (Option<Pred>, usize) {
    let Some((
        FlworClause::For {
            var,
            source: Expr::DatasetScan(_),
        },
        before,
    )) = clauses.split_last()
    else {
        return (None, 0);
    };
    if !before.iter().all(|c| matches!(c, FlworClause::Let { .. })) {
        return (None, 0);
    }
    let mut preds: Vec<Pred> = conjuncts
        .iter()
        .map_while(|c| compile_pred(c, var))
        .collect();
    let pushed = preds.len();
    let filter = match pushed {
        0 | 1 => preds.pop(),
        _ => Some(Pred::All(preds)),
    };
    (filter, pushed)
}

/// `expr` as a [`Pred`] on the records `$var` binds: comparisons of
/// `$var.<path>` with a literal under `and`/`or`/`not`. `None` for anything
/// else.
fn compile_pred(expr: &Expr, var: &str) -> Option<Pred> {
    Some(match expr {
        Expr::Bin(BinOp::And, l, r) => {
            Pred::All(vec![compile_pred(l, var)?, compile_pred(r, var)?])
        }
        Expr::Bin(BinOp::Or, l, r) => Pred::Any(vec![compile_pred(l, var)?, compile_pred(r, var)?]),
        Expr::Not(inner) => Pred::Not(Box::new(compile_pred(inner, var)?)),
        Expr::Bin(..) => match compare_leaf(expr) {
            Ok((v, leaf)) if v == var => leaf,
            _ => return None,
        },
        _ => return None,
    })
}

/// The field set a dataset-scan variable can be projected down to, or
/// `None` when the whole record is needed. Projection is sound only when
/// every downstream use of `$var` is a direct field access `$var.<f>`: a
/// bare `$var` (returned, regrouped by `with`, passed to a function, ...)
/// needs the full record. Later clauses rebinding the variable shadow it,
/// ending the analysis early.
fn projection_for(
    var: &str,
    tail: &[FlworClause],
    where_clause: &[&Expr],
    group_by: Option<&GroupBy>,
    ret: &Expr,
) -> Option<Vec<String>> {
    let mut fields = BTreeSet::new();
    if flwor_tail_projects(var, tail, where_clause, group_by, ret, &mut fields) {
        Some(fields.into_iter().collect())
    } else {
        None
    }
}

/// Walk the remainder of a FLWOR (clauses after the binding, then the
/// conjuncts of where / group-by / return) collecting `$var.<f>` accesses
/// into `fields`. Returns false as soon as a whole-record use is found.
fn flwor_tail_projects(
    var: &str,
    tail: &[FlworClause],
    where_clause: &[&Expr],
    group_by: Option<&GroupBy>,
    ret: &Expr,
    fields: &mut BTreeSet<String>,
) -> bool {
    for clause in tail {
        let (bound, expr) = match clause {
            FlworClause::For { var: v, source } => (v, source),
            FlworClause::Let { var: v, value } => (v, value),
        };
        if !collect_projected(expr, var, fields) {
            return false;
        }
        if bound == var {
            return true; // shadowed from here on
        }
    }
    if !where_clause
        .iter()
        .all(|w| collect_projected(w, var, fields))
    {
        return false;
    }
    if let Some(g) = group_by {
        if !collect_projected(&g.key_expr, var, fields) {
            return false;
        }
        if g.with_var == var {
            return false; // the records are regrouped whole
        }
        if g.key_var == var {
            return true; // the return expression sees the group key instead
        }
    }
    collect_projected(ret, var, fields)
}

/// Collect direct `$var.<f>` accesses in `expr` into `fields`; false when
/// the variable is used whole anywhere.
fn collect_projected(expr: &Expr, var: &str, fields: &mut BTreeSet<String>) -> bool {
    match expr {
        Expr::Var(v) => v != var,
        Expr::FieldAccess(inner, f) => {
            if matches!(inner.as_ref(), Expr::Var(v) if v == var) {
                fields.insert(f.clone());
                true
            } else {
                collect_projected(inner, var, fields)
            }
        }
        Expr::Literal(_) | Expr::DatasetScan(_) | Expr::FeedIntake(_) => true,
        Expr::RecordCtor(fs) => fs.iter().all(|(_, e)| collect_projected(e, var, fields)),
        Expr::ListCtor(items) => items.iter().all(|e| collect_projected(e, var, fields)),
        Expr::Call(_, args) => args.iter().all(|e| collect_projected(e, var, fields)),
        Expr::Bin(_, l, r) => {
            collect_projected(l, var, fields) && collect_projected(r, var, fields)
        }
        Expr::Not(inner) => collect_projected(inner, var, fields),
        Expr::Some {
            var: sv,
            source,
            predicate,
        } => {
            collect_projected(source, var, fields)
                && (sv == var || collect_projected(predicate, var, fields))
        }
        Expr::Flwor {
            clauses,
            where_clause,
            group_by,
            ret,
        } => flwor_tail_projects(
            var,
            clauses,
            where_clause.as_deref().as_slice(),
            group_by.as_ref(),
            ret,
            fields,
        ),
    }
}

fn bool_op(l: &AdmValue, r: &AdmValue, f: impl Fn(bool, bool) -> bool) -> IngestResult<AdmValue> {
    match (l.as_bool(), r.as_bool()) {
        (Some(a), Some(b)) => Ok(AdmValue::Boolean(f(a, b))),
        _ => Err(IngestError::Type(format!(
            "boolean operator on {} / {}",
            l.type_name(),
            r.type_name()
        ))),
    }
}

fn apply_binop(op: BinOp, l: &AdmValue, r: &AdmValue) -> IngestResult<AdmValue> {
    use BinOp::*;
    if let Some(cmp) = cmp_op(op) {
        // the comparison a pushed-down `Pred` makes on the bytes
        return Ok(AdmValue::Boolean(cmp.holds(l.total_cmp(r))));
    }
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => unreachable!("comparisons returned above"),
        Add | Sub | Mul | Div => {
            // string concatenation for Add
            if op == Add {
                if let (Some(a), Some(b)) = (l.as_str(), r.as_str()) {
                    return Ok(AdmValue::String(format!("{a}{b}")));
                }
            }
            let (a, b) = match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    return Err(IngestError::Type(format!(
                        "arithmetic on {} / {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            if op == Div && b == 0.0 {
                return Err(IngestError::soft("division by zero"));
            }
            let result = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                _ => unreachable!(),
            };
            // keep integers integral
            match (l, r, op) {
                (AdmValue::Int(_), AdmValue::Int(_), Add | Sub | Mul) => {
                    Ok(AdmValue::Int(result as i64))
                }
                _ => Ok(AdmValue::Double(result)),
            }
        }
        And | Or => unreachable!("handled by short-circuit path"),
    }
}

/// Dispatch a function call: builtins first, then the context's UDFs.
fn call_function(name: &str, args: &[AdmValue], ctx: &dyn EvalContext) -> IngestResult<AdmValue> {
    let arity = |n: usize| -> IngestResult<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(IngestError::Language(format!(
                "{name} expects {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    match name.to_ascii_lowercase().as_str() {
        "word-tokens" => {
            arity(1)?;
            builtins::word_tokens(&args[0])
        }
        "starts-with" => {
            arity(2)?;
            builtins::starts_with(&args[0], &args[1])
        }
        "create-point" => {
            arity(2)?;
            builtins::create_point(&args[0], &args[1])
        }
        "create-rectangle" => {
            arity(2)?;
            builtins::create_rectangle(&args[0], &args[1])
        }
        "spatial-intersect" => {
            arity(2)?;
            builtins::spatial_intersect(&args[0], &args[1])
        }
        "spatial-cell" => {
            arity(4)?;
            builtins::spatial_cell(&args[0], &args[1], &args[2], &args[3])
        }
        "count" => {
            arity(1)?;
            match args[0].as_list() {
                Some(items) => Ok(AdmValue::Int(items.len() as i64)),
                None => Err(IngestError::Type("count expects a collection".into())),
            }
        }
        "len" | "string-length" => {
            arity(1)?;
            args[0]
                .as_str()
                .map(|s| AdmValue::Int(s.chars().count() as i64))
                .ok_or_else(|| IngestError::Type("string-length expects a string".into()))
        }
        "lowercase" => {
            arity(1)?;
            args[0]
                .as_str()
                .map(|s| AdmValue::String(s.to_lowercase()))
                .ok_or_else(|| IngestError::Type("lowercase expects a string".into()))
        }
        _ => {
            arity(1)?;
            ctx.call_udf(name, &args[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use asterix_adm::CmpOp;

    fn run(src: &str) -> AdmValue {
        let e = parse_expr(src).unwrap();
        eval(&e, &mut Env::new(), &EmptyContext).unwrap()
    }

    fn run_env(src: &str, env: &mut Env) -> AdmValue {
        let e = parse_expr(src).unwrap();
        let before = env.clone();
        let v = eval(&e, env, &EmptyContext).unwrap();
        assert_eq!(*env, before, "evaluation restores the bindings");
        v
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(run("1 + 2 * 3"), AdmValue::Int(7));
        assert_eq!(run("10 / 4"), AdmValue::Double(2.5));
        assert_eq!(run("2.5 + 1"), AdmValue::Double(3.5));
        assert_eq!(run("3 < 4 and 4 <= 4"), AdmValue::Boolean(true));
        assert_eq!(run("3 != 3 or 2 > 1"), AdmValue::Boolean(true));
        assert_eq!(run("\"a\" + \"b\""), AdmValue::string("ab"));
        assert_eq!(run("not false"), AdmValue::Boolean(true));
    }

    #[test]
    fn division_by_zero_is_soft() {
        let e = parse_expr("1 / 0").unwrap();
        let err = eval(&e, &mut Env::new(), &EmptyContext).unwrap_err();
        assert!(err.is_soft());
    }

    #[test]
    fn record_and_list_construction() {
        let v = run("{ \"a\": [1, 2], \"b\": { \"c\": true } }");
        assert_eq!(v.field("a").unwrap().as_list().unwrap().len(), 2);
        assert_eq!(
            v.field("b").unwrap().field("c"),
            Some(&AdmValue::Boolean(true))
        );
    }

    #[test]
    fn field_access_and_missing() {
        let mut env = Env::new();
        env.insert("x".into(), AdmValue::record(vec![("id", "t1".into())]));
        assert_eq!(run_env("$x.id", &mut env), AdmValue::string("t1"));
        assert_eq!(run_env("$x.nope", &mut env), AdmValue::Missing);
        assert_eq!(run_env("$x.nope.deeper", &mut env), AdmValue::Missing);
    }

    #[test]
    fn flwor_for_let_where_return() {
        let v = run("for $x in [1, 2, 3, 4, 5] let $y := $x * 2 where $y > 4 return $y");
        assert_eq!(
            v,
            AdmValue::OrderedList(vec![AdmValue::Int(6), AdmValue::Int(8), AdmValue::Int(10)])
        );
    }

    #[test]
    fn nested_flwor_in_let() {
        let v = run(r##"let $topics := (for $t in ["#a", "b", "#c"]
                              where starts-with($t, "#")
                              return $t)
               return count($topics)"##);
        assert_eq!(v, AdmValue::OrderedList(vec![AdmValue::Int(2)]));
    }

    #[test]
    fn group_by_counts() {
        let v = run(r#"for $x in [1, 2, 3, 4, 5, 6]
               group by $small := $x < 4 with $x
               return { "small": $small, "count": count($x) }"#);
        let groups = v.as_list().unwrap();
        assert_eq!(groups.len(), 2);
        for g in groups {
            assert_eq!(g.field("count").unwrap(), &AdmValue::Int(3));
        }
    }

    #[test]
    fn group_by_keeps_first_appearance_order_over_many_keys() {
        const KEYS: i64 = 5_000;
        // round 0 visits every key once, in a scrambled order (7919 is
        // coprime to 5000); round r revisits the keys with k % 3 >= r, so
        // key k is seen k % 3 + 1 times
        let order: Vec<i64> = (0..KEYS).map(|i| i * 7919 % KEYS).collect();
        let xs = (0..3)
            .flat_map(|r| order.iter().filter(move |&&k| k % 3 >= r))
            .map(|&k| AdmValue::Int(k))
            .collect();
        let mut env = Env::new();
        env.insert("xs".into(), AdmValue::OrderedList(xs));
        let v = run_env(
            r#"for $x in $xs group by $k := $x with $x
               return { "k": $k, "n": count($x) }"#,
            &mut env,
        );
        let groups = v.as_list().unwrap();
        assert_eq!(groups.len(), KEYS as usize);
        for (g, &k) in groups.iter().zip(&order) {
            assert_eq!(g.field("k"), Some(&AdmValue::Int(k)));
            assert_eq!(g.field("n"), Some(&AdmValue::Int(k % 3 + 1)));
        }
    }

    #[test]
    fn some_satisfies() {
        let mut env = Env::new();
        env.insert(
            "t".into(),
            AdmValue::record(vec![(
                "topics",
                AdmValue::OrderedList(vec!["#Obama".into(), "#x".into()]),
            )]),
        );
        assert_eq!(
            run_env(
                r##"some $h in $t.topics satisfies ($h = "#Obama")"##,
                &mut env
            ),
            AdmValue::Boolean(true)
        );
        assert_eq!(
            run_env(
                r##"some $h in $t.topics satisfies ($h = "#nope")"##,
                &mut env
            ),
            AdmValue::Boolean(false)
        );
        // quantifying over a missing field is false
        assert_eq!(
            run_env("some $h in $t.missing_field satisfies ($h = 1)", &mut env),
            AdmValue::Boolean(false)
        );
    }

    #[test]
    fn spatial_builtins_compose() {
        let v = run(r#"let $p := create-point(1.0, 2.0)
               let $r := create-rectangle(create-point(0.0, 0.0), create-point(5.0, 5.0))
               return spatial-intersect($p, $r)"#);
        assert_eq!(v, AdmValue::OrderedList(vec![AdmValue::Boolean(true)]));
    }

    #[test]
    fn unbound_variable_and_unknown_function_error() {
        let e = parse_expr("$nope").unwrap();
        assert!(eval(&e, &mut Env::new(), &EmptyContext).is_err());
        let e = parse_expr("frobnicate(1)").unwrap();
        assert!(eval(&e, &mut Env::new(), &EmptyContext).is_err());
    }

    #[test]
    fn feed_intake_is_not_evaluable() {
        let e = parse_expr("for $x in feed_intake(\"F\") return $x").unwrap();
        assert!(eval(&e, &mut Env::new(), &EmptyContext).is_err());
    }

    fn analyze(src: &str) -> Option<Vec<String>> {
        let Expr::Flwor {
            clauses,
            where_clause,
            group_by,
            ret,
        } = parse_expr(src).unwrap()
        else {
            panic!("not a FLWOR");
        };
        let FlworClause::For { var, .. } = &clauses[0] else {
            panic!("first clause not a for");
        };
        projection_for(
            var,
            &clauses[1..],
            where_clause.as_deref().as_slice(),
            group_by.as_ref(),
            &ret,
        )
    }

    #[test]
    fn projection_analysis_identifies_field_only_uses() {
        // pure field accesses: project down to the used fields
        assert_eq!(
            analyze(r#"for $t in dataset T where $t.country = "US" return $t.message_text"#),
            Some(vec!["country".to_string(), "message_text".to_string()])
        );
        // returning the whole record needs everything
        assert_eq!(analyze("for $t in dataset T return $t"), None);
        // regrouping the records whole (`with $t`) needs everything
        assert_eq!(
            analyze(
                "for $t in dataset T group by $c := $t.country with $t \
                 return { \"c\": $c, \"n\": count($t) }"
            ),
            None
        );
        // a whole use inside a function call needs everything
        assert_eq!(analyze("for $t in dataset T return word-tokens($t)"), None);
        // quantifier over a field is still a field access
        assert_eq!(
            analyze(
                r##"for $t in dataset T
                    where some $h in $t.topics satisfies ($h = "#x")
                    return $t.id"##
            ),
            Some(vec!["id".to_string(), "topics".to_string()])
        );
        // a later `for` rebinding the variable shadows it
        assert_eq!(
            analyze("for $t in dataset T for $t in $t.items return $t"),
            Some(vec!["items".to_string()])
        );
    }

    /// What [`push_down`] pushes for the FLWOR `src`: the predicate the
    /// last clause's scan tests, and how many conjuncts it holds.
    fn pushed(src: &str) -> (Option<Pred>, usize) {
        let Expr::Flwor {
            clauses,
            where_clause,
            ..
        } = parse_expr(src).unwrap()
        else {
            panic!("not a FLWOR");
        };
        let mut conjuncts = Vec::new();
        split_and(where_clause.as_deref().unwrap(), &mut conjuncts);
        push_down(&clauses, &conjuncts)
    }

    fn compare(path: &str, op: CmpOp, literal: impl Into<AdmValue>) -> Pred {
        Pred::Compare {
            path: path.split('.').map(str::to_string).collect(),
            op,
            literal: literal.into(),
        }
    }

    #[test]
    fn pushdown_takes_the_leading_conjuncts_of_a_let_star_for() {
        // the reader query: `country` is tested in the scan, only `id` is
        // projected
        let reader = r#"for $t in dataset T where $t.country = "US" return $t.id"#;
        assert_eq!(
            pushed(reader),
            (Some(compare("country", CmpOp::Eq, "US")), 1)
        );
        assert_eq!(analyze_pushed(reader), Some(vec!["id".to_string()]));
        // a literal on the left flips, a nested path goes in, and the
        // conjuncts from the first one that does not compile stay in the tree
        assert_eq!(
            pushed(
                r#"let $c := "UK" for $t in dataset T
                   where 5 < $t.user.n and not($t.lang = "en" or $t.lang = "fr")
                     and $t.country = $c and $t.id = 1
                   return $t.id"#
            ),
            (
                Some(Pred::All(vec![
                    compare("user.n", CmpOp::Gt, 5i64),
                    Pred::Not(Box::new(Pred::Any(vec![
                        compare("lang", CmpOp::Eq, "en"),
                        compare("lang", CmpOp::Eq, "fr")
                    ])))
                ])),
                2
            )
        );
        // a tree conjunct first keeps everything in the tree
        assert_eq!(
            pushed(r#"for $t in dataset T where $t.a = $t.b and $t.u = 1 return 1"#),
            (None, 0)
        );
        // a clause after the scan, a `for` before it, a join, or a later
        // clause rebinding the variable: nothing is pushed
        for src in [
            r#"for $t in dataset T for $x in [1] where $t.u = 1 return 1"#,
            r#"for $x in [1] for $t in dataset T where $t.u = 1 return 1"#,
            r#"for $b in dataset T for $a in dataset T where $a.c = "x" return 1"#,
            r#"for $t in dataset T let $t := $t.u where $t.n = 1 return 1"#,
        ] {
            assert_eq!(pushed(src), (None, 0), "{src}");
        }
    }

    /// [`projection_for`] of the first clause once the `where` was pushed.
    fn analyze_pushed(src: &str) -> Option<Vec<String>> {
        let Expr::Flwor {
            clauses,
            where_clause,
            group_by,
            ret,
        } = parse_expr(src).unwrap()
        else {
            panic!("not a FLWOR");
        };
        let FlworClause::For { var, .. } = &clauses[0] else {
            panic!("first clause not a for");
        };
        let mut conjuncts = Vec::new();
        split_and(where_clause.as_deref().unwrap(), &mut conjuncts);
        let (_, pushed) = push_down(&clauses, &conjuncts);
        projection_for(
            var,
            &clauses[1..],
            &conjuncts[pushed..],
            group_by.as_ref(),
            &ret,
        )
    }

    fn tweet_dataset() -> Arc<Dataset> {
        use asterix_common::NodeId;
        use asterix_storage::DatasetConfig;
        let d = Dataset::create(DatasetConfig {
            name: "T".into(),
            datatype: "Tweet".into(),
            primary_key: "id".into(),
            nodegroup: vec![NodeId(0)],
        })
        .unwrap();
        for i in 0..40 {
            d.upsert(&AdmValue::record(vec![
                ("id", format!("t{i:02}").as_str().into()),
                (
                    "country",
                    if i % 3 == 0 { "US".into() } else { "CA".into() },
                ),
                ("message_text", format!("msg {i}").as_str().into()),
            ]))
            .unwrap();
        }
        d.force_merge_all(); // sealed into a compacted component
        Arc::new(d)
    }

    struct OneDataset(Arc<Dataset>);

    impl EvalContext for OneDataset {
        fn dataset(&self, name: &str) -> IngestResult<Arc<Dataset>> {
            if name == self.0.config.name {
                Ok(Arc::clone(&self.0))
            } else {
                Err(IngestError::Metadata(format!("unknown dataset {name}")))
            }
        }

        fn call_udf(&self, name: &str, _arg: &AdmValue) -> IngestResult<AdmValue> {
            Err(IngestError::Metadata(format!("no function {name}")))
        }
    }

    #[test]
    fn projected_dataset_scan_matches_unprojected_results() {
        let ctx = OneDataset(tweet_dataset());
        // this query takes the projected path (checked by the analysis test)
        let projected = run_ctx(
            r#"for $t in dataset T where $t.country = "US" return $t.message_text"#,
            &ctx,
        );
        // forcing the whole-record path (`$t` escapes into the result) must
        // select the same rows
        let whole = run_ctx(
            r#"for $t in dataset T where $t.country = "US" return { "m": $t.message_text, "r": $t }"#,
            &ctx,
        );
        let projected_rows = projected.as_list().unwrap();
        let whole_rows = whole.as_list().unwrap();
        assert_eq!(projected_rows.len(), whole_rows.len());
        assert!(!projected_rows.is_empty());
        for (p, w) in projected_rows.iter().zip(whole_rows) {
            assert_eq!(Some(p), w.field("m"));
            assert_eq!(
                w.field("r").unwrap().field("country"),
                Some(&AdmValue::string("US"))
            );
        }
    }

    fn run_ctx(src: &str, ctx: &dyn EvalContext) -> AdmValue {
        let e = parse_expr(src).unwrap();
        eval(&e, &mut Env::new(), ctx).unwrap()
    }

    #[test]
    fn listing_3_3_spatial_aggregation_end_to_end() {
        // tweets scattered over two grid cells, one tagged #Obama each
        let tweets = AdmValue::OrderedList(vec![
            AdmValue::record(vec![
                ("location", AdmValue::Point(34.0, -120.0)),
                ("topics", AdmValue::OrderedList(vec!["#Obama".into()])),
            ]),
            AdmValue::record(vec![
                ("location", AdmValue::Point(34.2, -120.1)),
                (
                    "topics",
                    AdmValue::OrderedList(vec!["#Obama".into(), "#x".into()]),
                ),
            ]),
            AdmValue::record(vec![
                ("location", AdmValue::Point(40.0, -90.0)),
                ("topics", AdmValue::OrderedList(vec!["#Obama".into()])),
            ]),
            AdmValue::record(vec![
                // tagged differently: filtered out
                ("location", AdmValue::Point(34.0, -120.0)),
                ("topics", AdmValue::OrderedList(vec!["#other".into()])),
            ]),
        ]);
        let mut env = Env::new();
        env.insert("tweets".into(), tweets);
        let v = run_env(
            r##"for $tweet in $tweets
               let $searchHashTag := "Obama"
               let $leftBottom := create-point(33.13, -124.27)
               let $latResolution := 3.0
               let $longResolution := 3.0
               where some $hashTag in $tweet.topics satisfies ($hashTag = "#Obama")
               group by $c := spatial-cell($tweet.location, $leftBottom, $latResolution, $longResolution) with $tweet
               return { "cell": $c, "count": count($tweet) }"##,
            &mut env,
        );
        let cells = v.as_list().unwrap();
        assert_eq!(cells.len(), 2);
        let counts: Vec<i64> = cells
            .iter()
            .map(|c| c.field("count").unwrap().as_int().unwrap())
            .collect();
        assert!(counts.contains(&2) && counts.contains(&1));
    }
}
