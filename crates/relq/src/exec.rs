//! Plan execution: evaluates a [`Plan`] against a [`Catalog`] and produces a
//! materialized table behind a shared handle.
//!
//! ## Zero-clone scans and two execution modes
//!
//! Tables live in the catalog as `Arc<Table>`; `Plan::Scan` (and
//! `Plan::Param`) produce that shared handle directly, so a query plan never
//! copies base-relation rows. `Plan::IndexJoin` probes the persistent index
//! built at registration time ([`Catalog::register_indexed`]), touching only
//! the rows whose key appears on the (small) probe side.
//!
//! [`execute_naive`] preserves the pre-refactor cost model — every scan
//! deep-clones its table and every `IndexJoin` degenerates to a hash join
//! that re-builds a hash table over the *full* base relation — and is kept as
//! the equivalence baseline: both modes emit rows in identical order, so
//! results (including floating-point aggregate sums) are byte-identical.
//! Equivalence tests and the engine benchmarks rely on exactly that.

use crate::agg::{Accumulator, AggFunc, Aggregate};
use crate::bindings::Bindings;
use crate::catalog::Catalog;
use crate::error::{RelqError, Result};
use crate::group::Groups;
use crate::limits::ExecLimits;
use crate::plan::{Plan, ProjectItem, SortOrder};
use crate::posting::{PostingIndex, PostingList};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use finish::Finish;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

mod finish;

/// Execute a plan against the catalog (no parameters), returning a shared
/// handle to the result. When the plan root is itself a scan, the handle
/// aliases the catalog's storage — no rows are copied anywhere.
pub fn execute(plan: &Plan, catalog: &Catalog) -> Result<Arc<Table>> {
    execute_with(plan, catalog, &Bindings::new())
}

/// Execute a plan with per-query [`Bindings`] for its `Param` leaves.
pub fn execute_with(plan: &Plan, catalog: &Catalog, bindings: &Bindings) -> Result<Arc<Table>> {
    execute_with_limits(plan, catalog, bindings, &ExecLimits::unlimited())
}

/// [`execute_with`], under a cooperative budget. Candidate-scoring operators
/// (the bounded operators and the aggregate-row assembly every scan-mode
/// scoring pipeline funnels through) charge the limits for each batch of
/// candidates and stop cleanly on exhaustion, returning the anytime answer
/// built so far — every emitted row fully scored, only coverage truncated.
/// An aggregation over an index probe also polls the deadline once per
/// probe row and emits no groups once it has passed. Callers detect
/// degradation via [`ExecLimits::exhausted`].
pub fn execute_with_limits(
    plan: &Plan,
    catalog: &Catalog,
    bindings: &Bindings,
    limits: &ExecLimits,
) -> Result<Arc<Table>> {
    let ctx = ExecCtx { catalog, bindings, naive: false, limits };
    Ok(eval(plan, &ctx)?.into_shared())
}

/// Execute a plan under the pre-refactor cost model: scans deep-clone their
/// tables and `IndexJoin` nodes run as per-query hash joins that build over
/// the full base relation. Row emission order matches [`execute_with`]
/// exactly, so the two modes produce byte-identical results — this is the
/// baseline the equivalence tests and the engine benchmark compare against.
/// Never budgeted: it is the exhaustive reference the anytime answers are
/// differentially checked against.
pub fn execute_naive(plan: &Plan, catalog: &Catalog, bindings: &Bindings) -> Result<Arc<Table>> {
    let ctx = ExecCtx { catalog, bindings, naive: true, limits: &ExecLimits::unlimited() };
    Ok(eval(plan, &ctx)?.into_shared())
}

struct ExecCtx<'a> {
    catalog: &'a Catalog,
    bindings: &'a Bindings,
    naive: bool,
    /// Cooperative budget the candidate-scoring operators charge.
    limits: &'a ExecLimits,
}

/// An intermediate relation: either a shared base table or an operator's own
/// materialized output. Operators borrow rows; only the ones that truly need
/// owned cells (sort, limit, union) pay a copy, and only when their input is
/// shared.
enum Rel {
    Shared(Arc<Table>),
    Owned(Table),
}

impl Rel {
    fn as_table(&self) -> &Table {
        match self {
            Rel::Shared(t) => t,
            Rel::Owned(t) => t,
        }
    }

    fn into_shared(self) -> Arc<Table> {
        match self {
            Rel::Shared(t) => t,
            Rel::Owned(t) => Arc::new(t),
        }
    }

    /// The relation as an owned table: an operator's output moves, a shared
    /// table is copied.
    fn into_table(self) -> Table {
        match self {
            Rel::Shared(t) => Arc::unwrap_or_clone(t),
            Rel::Owned(t) => t,
        }
    }
}

/// Resolve an expression's scalar parameters against the context bindings
/// (borrowing when the expression has none, the common case).
fn resolve<'e>(expr: &'e crate::expr::Expr, ctx: &ExecCtx) -> Result<Cow<'e, crate::expr::Expr>> {
    if expr.has_params() {
        Ok(Cow::Owned(expr.bind(ctx.bindings)?))
    } else {
        Ok(Cow::Borrowed(expr))
    }
}

fn eval(plan: &Plan, ctx: &ExecCtx) -> Result<Rel> {
    match plan {
        Plan::Scan { table } => {
            if ctx.naive {
                // Pre-refactor semantics: every scan deep-clones the table.
                Ok(Rel::Owned(ctx.catalog.get(table)?.clone()))
            } else {
                Ok(Rel::Shared(ctx.catalog.get_shared(table)?))
            }
        }
        Plan::Values { table } => Ok(Rel::Owned(table.clone())),
        Plan::Param { name } => {
            let table = ctx.bindings.table(name)?.clone();
            if ctx.naive {
                Ok(Rel::Owned((*table).clone()))
            } else {
                Ok(Rel::Shared(table))
            }
        }
        Plan::Filter { input, predicate } => {
            if !ctx.naive {
                if let Some(table) = finish::typed_finish(ctx, input, Finish::Filter(predicate))? {
                    return Ok(Rel::Owned(table));
                }
            }
            let input = eval(input, ctx)?;
            let table = input.as_table();
            let schema = table.schema();
            let (mut cells, mut n) = (Vec::new(), 0);
            if !table.is_empty() {
                let predicate = resolve(predicate, ctx)?.compile(schema)?;
                for row in table.rows() {
                    if predicate.evaluate(row)?.as_bool()? {
                        cells.extend_from_slice(row);
                        n += 1;
                    }
                }
            }
            Ok(Rel::Owned(Table::from_cells_unchecked(schema.clone(), cells, n)))
        }
        Plan::Project { input, items } => {
            let input = eval(input, ctx)?;
            Ok(Rel::Owned(project(input.as_table(), items, ctx)?))
        }
        Plan::HashJoin { left, right, left_keys, right_keys, suffix } => {
            let left = eval(left, ctx)?;
            let right = eval(right, ctx)?;
            Ok(Rel::Owned(hash_join(
                left.as_table(),
                right.as_table(),
                left_keys,
                right_keys,
                suffix,
                BuildSide::Smaller,
            )?))
        }
        Plan::IndexJoin { base, base_keys, probe, probe_keys, suffix } => {
            let probe_rel = eval(probe, ctx)?;
            let probe_table = probe_rel.as_table();
            if ctx.naive {
                // Pre-refactor path: re-build a hash table over the FULL base
                // relation for every execution. Building on the base (left)
                // side makes the emission order match the index probe below,
                // keeping the two modes byte-identical.
                let base_table = ctx.catalog.get(base)?;
                Ok(Rel::Owned(hash_join(
                    base_table,
                    probe_table,
                    base_keys,
                    probe_keys,
                    suffix,
                    BuildSide::Left,
                )?))
            } else {
                Ok(Rel::Owned(index_join(
                    ctx.catalog,
                    base,
                    base_keys,
                    probe_table,
                    probe_keys,
                    suffix,
                )?))
            }
        }
        Plan::Aggregate { input, group_by, aggregates } => {
            Ok(Rel::Owned(eval_aggregate(ctx, input, group_by, aggregates)?))
        }
        Plan::Sort { input, keys } => {
            let input = eval(input, ctx)?;
            Ok(Rel::Owned(sort(input, keys)?))
        }
        Plan::Limit { input, count } => {
            // Clone only the cells that survive the limit; a shared input
            // must not pay for the rows being dropped.
            let limited = match eval(input, ctx)? {
                Rel::Shared(t) => {
                    let n = t.num_rows().min(*count);
                    let cells = t.cells()[..n * t.width()].to_vec();
                    Table::from_cells_unchecked(t.schema().clone(), cells, n)
                }
                Rel::Owned(t) => truncated(t, *count),
            };
            Ok(Rel::Owned(limited))
        }
        Plan::TopK { input, k, keys } => {
            let k = eval_top_k_count(k, ctx)?;
            if !ctx.naive {
                if let Some(table) = finish::typed_finish(ctx, input, Finish::TopK { k, keys })? {
                    return Ok(Rel::Owned(table));
                }
            }
            let input = eval(input, ctx)?;
            let key_idx = key_indices(input.as_table().schema(), keys)?;
            if ctx.naive {
                // Pre-refactor cost model: full stable sort, then truncate —
                // the rank-everything-then-cut baseline TopK replaces.
                Ok(Rel::Owned(truncated(sort_table(input.into_table(), &key_idx), k)))
            } else {
                Ok(Rel::Owned(top_k(input.as_table(), k, &key_idx)))
            }
        }
        Plan::TopKBounded { base, probe, token_col, factor_col, k } => {
            let select = Select::TopK(eval_top_k_count(k, ctx)?);
            let probe = eval(probe, ctx)?;
            bounded(ctx, base, probe.as_table(), token_col, factor_col.as_deref(), select)
        }
        Plan::ThresholdBounded { base, probe, token_col, factor_col, tau } => {
            let select = Select::Threshold(eval_scalar_f64(tau, ctx)?);
            let probe = eval(probe, ctx)?;
            bounded(ctx, base, probe.as_table(), token_col, factor_col.as_deref(), select)
        }
        Plan::Distinct { input } => {
            let input = eval(input, ctx)?;
            Ok(Rel::Owned(distinct(input)))
        }
        Plan::UnionAll { left, right } => {
            let left = eval(left, ctx)?;
            let right = eval(right, ctx)?;
            left.as_table().schema().check_union_compatible(right.as_table().schema())?;
            let (schema, mut cells, n) = left.into_table().into_parts();
            let (_, right_cells, m) = right.into_table().into_parts();
            cells.extend(right_cells);
            Ok(Rel::Owned(Table::from_cells_unchecked(schema, cells, n + m)))
        }
    }
}

/// Output schema of a projection. Types are derived from the expressions
/// themselves whenever possible, so empty inputs keep correct column types
/// (they used to be guessed from the first row only). The first-row probe
/// remains a fallback for shapes the static derivation cannot see (e.g. a
/// column holding NULLs typed only by its values); Float is the last resort
/// because weights and scores dominate this workload.
fn projection_schema(
    input: &Table,
    items: &[ProjectItem],
    exprs: &[Cow<crate::expr::Expr>],
) -> Schema {
    let in_schema = input.schema();
    let mut fields = Vec::with_capacity(items.len());
    for (item, expr) in items.iter().zip(exprs) {
        let dtype = expr
            .output_type(in_schema)
            .or_else(|| {
                input
                    .rows()
                    .next()
                    .and_then(|row| expr.evaluate(row, in_schema).ok())
                    .and_then(|v| v.data_type())
            })
            .unwrap_or(DataType::Float);
        fields.push(Field::new(item.alias.clone(), dtype));
    }
    Schema::new(fields)
}

fn project(input: &Table, items: &[ProjectItem], ctx: &ExecCtx) -> Result<Table> {
    let in_schema = input.schema();
    let exprs: Vec<Cow<crate::expr::Expr>> =
        items.iter().map(|item| resolve(&item.expr, ctx)).collect::<Result<_>>()?;
    let out_schema = projection_schema(input, items, &exprs);
    if input.is_empty() {
        return Ok(Table::empty(out_schema));
    }
    // Compile once so per-row evaluation does no column-name lookups; a
    // compile failure (unknown column) is the same error evaluating the
    // first row would have produced.
    let compiled: Vec<crate::expr::CompiledExpr> =
        exprs.iter().map(|e| e.compile(in_schema)).collect::<Result<_>>()?;
    let mut cells = Vec::with_capacity(input.num_rows() * compiled.len());
    for row in input.rows() {
        for expr in &compiled {
            cells.push(expr.evaluate(row)?);
        }
    }
    Ok(Table::from_cells_unchecked(out_schema, cells, input.num_rows()))
}

/// Which side a hash join builds its table on. The build side is a pure
/// implementation choice: it never changes the emitted row **order** (see
/// [`hash_join`]), only which input pays for the hash table.
#[derive(Clone, Copy, PartialEq)]
enum BuildSide {
    /// Build on the smaller input (the planner default). Emission stays
    /// **left-major** regardless of which side is smaller: row order — and
    /// therefore the accumulation order of any float aggregate downstream —
    /// must not depend on input cardinalities, or the same logical query
    /// over differently partitioned data drifts by ULPs.
    Smaller,
    /// Always build on the left input and emit **probe-major**. Used by the
    /// naive lowering of `IndexJoin` so row emission order matches the
    /// index probe.
    Left,
}

fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[String],
    right_keys: &[String],
    suffix: &str,
    build_side: BuildSide,
) -> Result<Table> {
    if left_keys.len() != right_keys.len() || left_keys.is_empty() {
        return Err(RelqError::InvalidPlan(format!(
            "join key lists must be equal length and non-empty: {} vs {}",
            left_keys.len(),
            right_keys.len()
        )));
    }
    let left_idx: Vec<usize> =
        left_keys.iter().map(|k| left.schema().index_of(k)).collect::<Result<_>>()?;
    let right_idx: Vec<usize> =
        right_keys.iter().map(|k| right.schema().index_of(k)).collect::<Result<_>>()?;

    let build_left = match build_side {
        BuildSide::Smaller => left.num_rows() <= right.num_rows(),
        BuildSide::Left => true,
    };
    let (build, build_idx, probe, probe_idx) = if build_left {
        (left, &left_idx, right, &right_idx)
    } else {
        (right, &right_idx, left, &left_idx)
    };

    let mut hash_table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (row_no, row) in build.rows().enumerate() {
        let key: Vec<Value> = build_idx.iter().map(|&i| row[i].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue; // SQL equality never matches NULL keys.
        }
        hash_table.entry(key).or_default().push(row_no);
    }

    let out_schema = left.schema().join(right.schema(), suffix);
    let (mut cells, mut n) = (Vec::new(), 0);
    let mut emit = |lrow: &[Value], rrow: &[Value]| {
        cells.extend_from_slice(lrow);
        cells.extend_from_slice(rrow);
        n += 1;
    };
    if build_side == BuildSide::Smaller && build_left {
        // The probe side is the RIGHT input here, but emission must stay
        // left-major (the order a build-on-right probe would produce):
        // collect the matching (left, right) row-number pairs and sort.
        // Bucket lists hold ascending row numbers, so the sorted pairs are
        // exactly "for each left row in order, its right matches in table
        // order" — byte-identical to the build-on-right emission.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (probe_no, probe_row) in probe.rows().enumerate() {
            let key: Vec<Value> = probe_idx.iter().map(|&i| probe_row[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = hash_table.get(&key) {
                pairs.extend(matches.iter().map(|&build_no| (build_no, probe_no)));
            }
        }
        pairs.sort_unstable();
        for (l, r) in pairs {
            emit(left.row(l), right.row(r));
        }
    } else {
        for probe_row in probe.rows() {
            let key: Vec<Value> = probe_idx.iter().map(|&i| probe_row[i].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(matches) = hash_table.get(&key) {
                for &build_no in matches {
                    let build_row = build.row(build_no);
                    let (lrow, rrow) =
                        if build_left { (build_row, probe_row) } else { (probe_row, build_row) };
                    emit(lrow, rrow);
                }
            }
        }
    }
    Ok(Table::from_cells_unchecked(out_schema, cells, n))
}

/// Probe the persistent index of `base` with the probe table's key values.
/// Per probe row this touches exactly the base rows carrying its key — the
/// base relation itself is never scanned. Emission is probe-major with base
/// matches in table order, identical to a hash join built on the base side.
fn index_join(
    catalog: &Catalog,
    base: &str,
    base_keys: &[String],
    probe: &Table,
    probe_keys: &[String],
    suffix: &str,
) -> Result<Table> {
    if base_keys.len() != probe_keys.len() || base_keys.is_empty() {
        return Err(RelqError::InvalidPlan(format!(
            "join key lists must be equal length and non-empty: {} vs {}",
            base_keys.len(),
            probe_keys.len()
        )));
    }
    let base_table = catalog.get(base)?;
    let index = catalog.index_for(base, base_keys).ok_or_else(|| RelqError::MissingIndex {
        table: base.to_string(),
        keys: base_keys.to_vec(),
    })?;
    let probe_idx: Vec<usize> =
        probe_keys.iter().map(|k| probe.schema().index_of(k)).collect::<Result<_>>()?;
    let out_schema = base_table.schema().join(probe.schema(), suffix);
    let (mut cells, mut n) = (Vec::new(), 0);
    let mut key = Vec::with_capacity(probe_idx.len());
    for probe_row in probe.rows() {
        key.clear();
        key.extend(probe_idx.iter().map(|&i| probe_row[i].clone()));
        if key.iter().any(Value::is_null) {
            continue;
        }
        if let Some(ids) = index.lookup(&key) {
            for &rid in ids {
                cells.extend_from_slice(base_table.row(rid as usize));
                cells.extend_from_slice(probe_row);
                n += 1;
            }
        }
    }
    Ok(Table::from_cells_unchecked(out_schema, cells, n))
}

/// Evaluate an aggregation node, dispatching to the fused
/// `Aggregate(IndexJoin)` pipeline in indexed mode.
fn eval_aggregate(
    ctx: &ExecCtx,
    input: &Plan,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> Result<Table> {
    // Fused fast path: aggregation directly over an index probe feeds each
    // virtual joined row straight into the group accumulators, never
    // materializing join output. Emission order matches the materialized
    // path, so results stay byte-identical (the naive mode deliberately
    // keeps the unfused pre-refactor pipeline).
    if !ctx.naive {
        if let Plan::IndexJoin { base, base_keys, probe, probe_keys, suffix } = input {
            return index_join_aggregate(
                ctx, base, base_keys, probe, probe_keys, suffix, group_by, aggregates,
            );
        }
    }
    let input = eval(input, ctx)?;
    if ctx.naive {
        aggregate(input.as_table(), group_by, aggregates, ctx)
    } else {
        group_aggregate(input.as_table(), group_by, aggregates, ctx)
    }
}

/// Assemble the `len` output rows of an aggregation into one arena:
/// `write_row` appends the next group's `key ++ finished accumulators`
/// cells.
fn assemble_rows(
    ctx: &ExecCtx,
    out_schema: Schema,
    len: usize,
    mut write_row: impl FnMut(&mut Vec<Value>),
) -> Table {
    // Budget cut point for the exhaustive scoring pipelines: each assembled
    // row is one fully-accumulated candidate (its aggregates finished before
    // assembly began), so assembling only the granted prefix truncates
    // coverage without ever emitting a partially-scored row — a valid
    // anytime answer. Assembly is cheap, so one charge covers every row.
    let granted = ctx.limits.charge_candidates(len as u64) as usize;
    let mut cells = Vec::with_capacity(granted * out_schema.len());
    for _ in 0..granted {
        crate::fault::fault_point("relq.aggregate.row");
        write_row(&mut cells);
    }
    Table::from_cells_unchecked(out_schema, cells, granted)
}

/// A compiled aggregate argument. SUM/MIN/MAX over float-safe expressions
/// update their accumulators through the unboxed f64 evaluator (bit
/// identical to the generic path, see `FloatExpr`); everything else goes
/// through the compiled generic evaluator.
enum FastAgg {
    CountStar,
    SumF(crate::expr::FloatExpr),
    MinF(crate::expr::FloatExpr),
    MaxF(crate::expr::FloatExpr),
    Generic(crate::expr::CompiledExpr),
}

impl FastAgg {
    fn compile(agg: &Aggregate, schema: &Schema, ctx: &ExecCtx) -> Result<FastAgg> {
        use crate::expr::{FloatExpr, FloatExprType};
        Ok(match &agg.func {
            AggFunc::CountStar => FastAgg::CountStar,
            AggFunc::Sum(e) => {
                let e = resolve(e, ctx)?;
                // SUM coerces every input to f64 and always emits Float,
                // so any float-safe expression qualifies.
                match FloatExpr::from_expr(&e, schema) {
                    Some((f, _)) => FastAgg::SumF(f),
                    None => FastAgg::Generic(e.compile(schema)?),
                }
            }
            AggFunc::Min(e) | AggFunc::Max(e) => {
                let is_max = matches!(&agg.func, AggFunc::Max(_));
                let e = resolve(e, ctx)?;
                // MIN/MAX return the input value itself, so the fast path
                // additionally requires the result to be a computed Float:
                // a bare column returns its values as stored, and a Float
                // column may hold Ints.
                match FloatExpr::from_expr(&e, schema) {
                    Some((f, FloatExprType::Float))
                        if !matches!(*e, crate::expr::Expr::Column(_)) =>
                    {
                        if is_max {
                            FastAgg::MaxF(f)
                        } else {
                            FastAgg::MinF(f)
                        }
                    }
                    _ => FastAgg::Generic(e.compile(schema)?),
                }
            }
            AggFunc::Count(e) | AggFunc::CountDistinct(e) | AggFunc::Avg(e) => {
                FastAgg::Generic(resolve(e, ctx)?.compile(schema)?)
            }
        })
    }

    /// Fold the virtual row `left ++ right` (`left` has `split` columns)
    /// into one group's accumulators.
    #[inline]
    fn update_all(
        fast: &[FastAgg],
        accs: &mut [Accumulator],
        left: &[Value],
        right: &[Value],
        split: usize,
    ) -> Result<()> {
        for (acc, fast) in accs.iter_mut().zip(fast) {
            match (fast, acc) {
                (FastAgg::CountStar, Accumulator::Count(n)) => *n += 1,
                (FastAgg::SumF(e), Accumulator::Sum { total, seen }) => {
                    if let Some(x) = e.evaluate_split(left, right, split)? {
                        *total += x;
                        *seen = true;
                    }
                }
                (FastAgg::MinF(e), Accumulator::Min(current)) => {
                    if let Some(x) = e.evaluate_split(left, right, split)? {
                        let replace = match current {
                            None => true,
                            // Mirrors Value::total_cmp on floats: NaN
                            // never displaces an existing minimum.
                            Some(Value::Float(c)) => x < *c,
                            Some(c) => Value::Float(x).total_cmp(c) == std::cmp::Ordering::Less,
                        };
                        if replace {
                            *current = Some(Value::Float(x));
                        }
                    }
                }
                (FastAgg::MaxF(e), Accumulator::Max(current)) => {
                    if let Some(x) = e.evaluate_split(left, right, split)? {
                        let replace = match current {
                            None => true,
                            Some(Value::Float(c)) => x > *c,
                            Some(c) => Value::Float(x).total_cmp(c) == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            *current = Some(Value::Float(x));
                        }
                    }
                }
                (FastAgg::Generic(e), acc) => {
                    acc.update(Some(e.evaluate_split(left, right, split)?))?;
                }
                // FastAgg variants are constructed from the same AggFunc
                // the accumulator was, so the pairs always line up.
                _ => unreachable!("fast aggregate paired with mismatched accumulator"),
            }
        }
        Ok(())
    }
}

/// Output schema of an aggregation: the group-by columns (with their input
/// types), then one column per aggregate.
fn aggregate_schema(input: &Schema, group_idx: &[usize], aggregates: &[Aggregate]) -> Schema {
    let mut fields = Vec::new();
    for &i in group_idx {
        fields.push(input.field(i).clone());
    }
    for agg in aggregates {
        fields.push(Field::new(agg.alias.clone(), agg.output_type()));
    }
    Schema::new(fields)
}

/// Fused execution of `Aggregate(IndexJoin(base, probe))`: probes the base
/// index and feeds each *virtual* joined row (base slice + probe slice, never
/// concatenated) straight into the group accumulators through compiled,
/// index-resolved expressions. Join output is never materialized and no
/// per-row name lookups happen — this is where the indexed engine's
/// query-time win over the naive full-join path comes from. Rows are visited
/// in exactly the order the materialized pipeline would emit them, so group
/// order and floating-point accumulation are byte-identical to it.
///
/// The deadline is polled once per probe row. Once it has passed, every
/// group's aggregate would be partial, so the result is empty: an exact
/// subset of every answer built on it.
#[allow(clippy::too_many_arguments)]
fn index_join_aggregate(
    ctx: &ExecCtx,
    base: &str,
    base_keys: &[String],
    probe_plan: &Plan,
    probe_keys: &[String],
    suffix: &str,
    group_by: &[String],
    aggregates: &[Aggregate],
) -> Result<Table> {
    let probe_rel = eval(probe_plan, ctx)?;
    let probe = probe_rel.as_table();
    if base_keys.len() != probe_keys.len() || base_keys.is_empty() {
        return Err(RelqError::InvalidPlan(format!(
            "join key lists must be equal length and non-empty: {} vs {}",
            base_keys.len(),
            probe_keys.len()
        )));
    }
    let base_table = ctx.catalog.get(base)?;
    let index = ctx.catalog.index_for(base, base_keys).ok_or_else(|| RelqError::MissingIndex {
        table: base.to_string(),
        keys: base_keys.to_vec(),
    })?;
    let probe_idx: Vec<usize> =
        probe_keys.iter().map(|k| probe.schema().index_of(k)).collect::<Result<_>>()?;
    let joined_schema = base_table.schema().join(probe.schema(), suffix);
    let split = base_table.schema().len();

    let group_idx: Vec<usize> =
        group_by.iter().map(|k| joined_schema.index_of(k)).collect::<Result<_>>()?;
    let out_schema = aggregate_schema(&joined_schema, &group_idx, aggregates);
    let fast_aggs: Vec<FastAgg> = aggregates
        .iter()
        .map(|agg| FastAgg::compile(agg, &joined_schema, ctx))
        .collect::<Result<_>>()?;

    let mut probe_key: Vec<Value> = Vec::with_capacity(probe_idx.len());
    // A dense slot array serves a single base-side Int group key, its range
    // known from the registration-time statistics. It is only worth its
    // allocation + memset when the match volume justifies it — keyed on the
    // *query's* work, not the corpus size, so a tiny query over a huge base
    // never pays an O(corpus) setup cost. One cheap index lookup per probe
    // row counts that volume; no other key shape pays for the count.
    let dense_range = if group_idx.len() == 1 && group_idx[0] < split {
        ctx.catalog.int_column_range(base, group_idx[0]).and_then(|(lo, hi)| {
            let mut estimated_matches: usize = 0;
            for probe_row in probe.rows() {
                probe_key.clear();
                probe_key.extend(probe_idx.iter().map(|&i| probe_row[i].clone()));
                if probe_key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(ids) = index.lookup(&probe_key) {
                    estimated_matches += ids.len();
                }
            }
            let span = (hi as i128 - lo as i128) as u128 + 1;
            let budget = (32 * estimated_matches).max(1024) as u128;
            (span <= budget).then_some((lo, span as usize))
        })
    } else {
        None
    };
    let mut groups = Groups::new(aggregates, group_idx.len(), dense_range);

    for probe_row in probe.rows() {
        if !ctx.limits.poll_deadline() {
            return Ok(Table::empty(out_schema));
        }
        probe_key.clear();
        probe_key.extend(probe_idx.iter().map(|&i| probe_row[i].clone()));
        if probe_key.iter().any(Value::is_null) {
            continue;
        }
        let Some(ids) = index.lookup(&probe_key) else { continue };
        for &rid in ids {
            let base_row = base_table.row(rid as usize);
            let accs = groups.accumulators(|k| {
                let i = group_idx[k];
                if i < split {
                    &base_row[i]
                } else {
                    &probe_row[i - split]
                }
            });
            FastAgg::update_all(&fast_aggs, accs, base_row, probe_row, split)?;
        }
    }
    groups.ensure_global_row();
    Ok(assemble_rows(ctx, out_schema, groups.len(), groups.into_row_writer()))
}

/// Indexed-mode aggregation over a materialized input, with the same group
/// and accumulation order as [`aggregate`] and the lookups, arenas and
/// compiled evaluators of [`index_join_aggregate`].
fn group_aggregate(
    input: &Table,
    group_by: &[String],
    aggregates: &[Aggregate],
    ctx: &ExecCtx,
) -> Result<Table> {
    let in_schema = input.schema();
    let group_idx: Vec<usize> =
        group_by.iter().map(|k| in_schema.index_of(k)).collect::<Result<_>>()?;
    let out_schema = aggregate_schema(in_schema, &group_idx, aggregates);
    let mut groups = Groups::new(aggregates, group_idx.len(), None);
    if input.is_empty() {
        // Bind parameters for their errors, as `aggregate` does; compiling
        // would also reject unknown columns, which an empty input never
        // evaluates.
        for agg in aggregates {
            if let Some(e) = agg.func.arg() {
                resolve(e, ctx)?;
            }
        }
    } else {
        let fast_aggs: Vec<FastAgg> = aggregates
            .iter()
            .map(|agg| FastAgg::compile(agg, in_schema, ctx))
            .collect::<Result<_>>()?;
        for row in input.rows() {
            let accs = groups.accumulators(|k| &row[group_idx[k]]);
            FastAgg::update_all(&fast_aggs, accs, row, &[], row.len())?;
        }
    }
    groups.ensure_global_row();
    Ok(assemble_rows(ctx, out_schema, groups.len(), groups.into_row_writer()))
}

/// Reference aggregation: the naive mode's cost model (a `Vec` key and a
/// `Vec` of accumulators per group, uncompiled expressions), kept as the
/// baseline the indexed aggregation paths are checked against.
fn aggregate(
    input: &Table,
    group_by: &[String],
    aggregates: &[Aggregate],
    ctx: &ExecCtx,
) -> Result<Table> {
    let in_schema = input.schema();
    let group_idx: Vec<usize> =
        group_by.iter().map(|k| in_schema.index_of(k)).collect::<Result<_>>()?;

    // Output schema: group-by columns first (with their input types), then
    // one column per aggregate.
    let mut fields = Vec::new();
    for &i in &group_idx {
        fields.push(in_schema.field(i).clone());
    }
    for agg in aggregates {
        fields.push(Field::new(agg.alias.clone(), agg.output_type()));
    }
    let out_schema = Schema::new(fields);

    // Resolve aggregate argument expressions once (None = COUNT(*)).
    let arg_exprs: Vec<Option<Cow<crate::expr::Expr>>> = aggregates
        .iter()
        .map(|agg| match &agg.func {
            AggFunc::CountStar => Ok(None),
            AggFunc::Count(e)
            | AggFunc::CountDistinct(e)
            | AggFunc::Sum(e)
            | AggFunc::Min(e)
            | AggFunc::Max(e)
            | AggFunc::Avg(e) => resolve(e, ctx).map(Some),
        })
        .collect::<Result<_>>()?;

    // Group rows preserving first-seen order so results are deterministic.
    let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut accumulators: Vec<Vec<Accumulator>> = Vec::new();

    for row in input.rows() {
        let key: Vec<Value> = group_idx.iter().map(|&i| row[i].clone()).collect();
        let slot = match groups.get(&key) {
            Some(&s) => s,
            None => {
                let s = order.len();
                groups.insert(key.clone(), s);
                order.push(key);
                accumulators
                    .push(aggregates.iter().map(|a| Accumulator::for_func(&a.func)).collect());
                s
            }
        };
        for (acc, expr) in accumulators[slot].iter_mut().zip(&arg_exprs) {
            let value = match expr {
                None => None,
                Some(e) => Some(e.evaluate(row, in_schema)?),
            };
            acc.update(value)?;
        }
    }

    // Global aggregation over an empty input still produces a single row of
    // "empty" aggregates, matching SQL semantics.
    if order.is_empty() && group_by.is_empty() {
        order.push(Vec::new());
        accumulators.push(aggregates.iter().map(|a| Accumulator::for_func(&a.func)).collect());
    }

    let len = order.len();
    let mut rows = order.into_iter().zip(accumulators);
    Ok(assemble_rows(ctx, out_schema, len, |cells| {
        let (key, accs) = rows.next().expect("one row per group");
        cells.extend(key);
        cells.extend(accs.into_iter().map(Accumulator::finish));
    }))
}

fn sort(input: Rel, keys: &[(String, SortOrder)]) -> Result<Table> {
    let key_idx = key_indices(input.as_table().schema(), keys)?;
    Ok(sort_table(input.into_table(), &key_idx))
}

/// Stable multi-key sort shared by `Sort` and the naive lowering of `TopK`:
/// orders a row-index permutation, then moves the cells into that order.
fn sort_table(mut table: Table, key_idx: &[(usize, SortOrder)]) -> Table {
    let mut order: Vec<usize> = (0..table.num_rows()).collect();
    order.sort_by(|&a, &b| compare_rows(table.row(a), table.row(b), key_idx));
    table.permute(&order);
    table
}

/// The first `count` rows of an owned table, in place.
fn truncated(table: Table, count: usize) -> Table {
    let (schema, mut cells, n) = table.into_parts();
    let n = n.min(count);
    cells.truncate(n * schema.len());
    Table::from_cells_unchecked(schema, cells, n)
}

fn key_indices(schema: &Schema, keys: &[(String, SortOrder)]) -> Result<Vec<(usize, SortOrder)>> {
    keys.iter().map(|(name, order)| Ok((schema.index_of(name)?, *order))).collect()
}

/// Value comparison for ORDER BY / TopK keys: floats use the IEEE 754 total
/// order (`f64::total_cmp`: NaN greatest, -0.0 < 0.0) so plan-level ordering
/// matches the predicate layer's ranking comparator exactly even on the
/// degenerate values `Value::total_cmp` ties (it treats NaN as equal to
/// everything, which would let a plan-level top-k select a different
/// k-subset than a Rust-side sort). Everything else defers to
/// [`Value::total_cmp`].
fn compare_sort_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.total_cmp(y),
        _ => a.total_cmp(b),
    }
}

fn compare_rows(a: &[Value], b: &[Value], key_idx: &[(usize, SortOrder)]) -> std::cmp::Ordering {
    for &(idx, order) in key_idx {
        let ord = compare_sort_values(&a[idx], &b[idx]);
        let ord = match order {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Resolve the `k` of a `TopK` node: a column-free scalar expression (a
/// literal or a bound parameter), evaluated once per execution.
fn eval_top_k_count(k: &crate::expr::Expr, ctx: &ExecCtx) -> Result<usize> {
    let k = resolve(k, ctx)?.evaluate(&[], &Schema::new(Vec::new()))?.as_i64()?;
    usize::try_from(k)
        .map_err(|_| RelqError::InvalidPlan(format!("TopK with negative row count {k}")))
}

/// Resolve the `τ` of a `ThresholdBounded` node: a column-free scalar
/// expression (a literal or a bound parameter, possibly transformed — e.g.
/// `param(τ).ln()` for log-space selections), evaluated once per execution.
fn eval_scalar_f64(expr: &crate::expr::Expr, ctx: &ExecCtx) -> Result<f64> {
    resolve(expr, ctx)?.evaluate(&[], &Schema::new(Vec::new()))?.as_f64()
}

/// Bounded-heap top-k: keeps row *ids* only, so no row is cloned until it is
/// known to be among the k best. Ties beyond the key list are broken by input
/// row order, making the output element-for-element identical to the stable
/// `sort_rows` + `truncate` pipeline the naive mode runs.
fn top_k(input: &Table, k: usize, key_idx: &[(usize, SortOrder)]) -> Table {
    let kept_ids = smallest_ids(input.num_rows(), k, |a, b| {
        compare_rows(input.row(*a as usize), input.row(*b as usize), key_idx).then_with(|| a.cmp(b))
    });
    let mut cells = Vec::with_capacity(kept_ids.len() * input.width());
    for &i in &kept_ids {
        cells.extend_from_slice(input.row(i as usize));
    }
    Table::from_cells_unchecked(input.schema().clone(), cells, kept_ids.len())
}

/// The `k` smallest of the row ids `0..n` under the total order `cmp`, in
/// that order: a bounded heap, or one sort when `k` keeps every id (the
/// same answer, since `cmp` is total).
fn smallest_ids(n: usize, k: usize, cmp: impl Fn(&u32, &u32) -> std::cmp::Ordering) -> Vec<u32> {
    if k >= n {
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_unstable_by(cmp);
        return ids;
    }
    let mut heap = crate::topk::BoundedHeap::new(k, cmp);
    for row_no in 0..n as u32 {
        heap.offer(row_no);
    }
    heap.into_sorted()
}

/// Execute [`Plan::TopKBounded`] / [`Plan::ThresholdBounded`]: resolve the
/// probe's `(token, factor)` rows against the posting index of `base` and
/// select by the tids' summed scaled contributions.
///
/// The indexed mode runs the windowed dense accumulator
/// ([`score_windowed`]; [`sum_windowed`] for a multi-lane index); the naive
/// mode keeps the pre-refactor cost model — exhaustively score every
/// posting in probe-major order, filter by the exact `score >= τ` or sort
/// and truncate to `k`. Both modes return the bytes of the equivalent
/// `Aggregate(IndexJoin)` pipeline topped by a heap `TopK` or a
/// `Filter(score >= τ)`. A multi-lane index emits `(tid, lane…)` rows and
/// selects by its first lane.
fn bounded(
    ctx: &ExecCtx,
    base: &str,
    probe: &Table,
    token_col: &str,
    factor_col: Option<&str>,
    select: Select,
) -> Result<Rel> {
    let posting = posting_of(ctx.catalog, base)?;
    let probes = gather_probes(posting, probe, token_col, factor_col)?;
    let lanes = posting.lanes();
    if lanes.len() > 1 {
        let sums = if ctx.naive {
            sum_exhaustive(&probes, lanes.len())
        } else {
            sum_windowed(&probes, lanes.len(), select, ctx.limits)?
        };
        return Ok(Rel::Owned(sums.selected(select).into_table(lanes)));
    }
    let selected = if ctx.naive {
        let mut scores = score_exhaustive(&probes);
        if let Select::Threshold(tau) = select {
            scores.retain(|&(_, score)| admits(score, tau));
        }
        scores.sort_by(ranking);
        if let Select::TopK(k) = select {
            scores.truncate(k);
        }
        scores
    } else {
        score_windowed(&probes, select, ctx.limits)?
    };
    Ok(Rel::Owned(scored_tid_table(selected)))
}

/// Result ordering of the bounded operators: descending score (ties by
/// ascending tid), the one canonical ranking order of the predicate layer.
fn ranking(a: &(i64, f64), b: &(i64, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// The exact `score ≥ τ` admission test of [`Plan::ThresholdBounded`], with
/// the same NaN semantics as the relational filter it replaces: `Filter`
/// comparisons go through [`Value::total_cmp`], under which NaN compares
/// equal to everything — so a NaN τ admits every candidate.
fn admits(score: f64, tau: f64) -> bool {
    !matches!(score.partial_cmp(&tau), Some(std::cmp::Ordering::Less))
}

/// Tids per accumulator window: 4,096 `f64` slots (32 KiB) stay in L1/L2
/// however large the corpus is.
const WINDOW: usize = 4096;

/// What [`score_windowed`] keeps of the tids it scores.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Select {
    /// The `k` best, by [`ranking`].
    TopK(usize),
    /// Every tid whose score [`admits`] τ.
    Threshold(f64),
}

impl Select {
    /// Reject a query factor the kernels cannot sum (negative, NaN or
    /// infinite), naming the operator; otherwise the fault site each emitted
    /// tid passes.
    fn check_factors(self, probes: &[(PostingList<'_>, f64)]) -> Result<&'static str> {
        let (op, site) = match self {
            Select::TopK(_) => ("TopKBounded", "relq.topk.candidate"),
            Select::Threshold(_) => ("ThresholdBounded", "relq.threshold.candidate"),
        };
        match probes.iter().find(|&&(_, f)| !(f >= 0.0 && f.is_finite())) {
            Some(&(_, factor)) => Err(RelqError::InvalidPlan(format!(
                "{op} requires finite non-negative query factors, got {factor}"
            ))),
            None => Ok(site),
        }
    }
}

/// Score-at-a-time evaluation of the bounded operators: the physical form
/// of `SUM(factor × weight) … GROUP BY tid` over the probed posting lists.
///
/// The kernel works in windows of [`WINDOW`] consecutive tids. Each window
/// starts at the smallest tid no list has consumed yet, so sparse or
/// negative tids cost no empty windows. Within a window it walks each
/// probed list's cursor in probe order and adds `factor × weight` into a
/// dense slot; the first contribution to a slot is *stored*, not added to
/// `0.0`, so every score has the bits of [`score_exhaustive`]'s (which sums
/// each tid's contributions in the same probe order). The window's touched
/// tids are then emitted in ascending order: `TopK` keeps at most
/// `k + WINDOW` entries, trimmed to the `k` best after each window;
/// `Threshold` admits each tid as it is emitted. Results come back in
/// [`ranking`] order, so `TopK` returns exactly the bytes of the exhaustive
/// top-k and `Threshold` those of the exhaustive filter.
///
/// Each window charges `limits` once for its postings and once for its
/// touched tids, and emits only the granted prefix of those tids. A charge
/// cut short stops the kernel: the answer is then the exact one over an
/// ascending prefix of the touched tids, the same for every run under the
/// same cap. Factors must be finite and non-negative.
pub(crate) fn score_windowed(
    probes: &[(PostingList<'_>, f64)],
    select: Select,
    limits: &ExecLimits,
) -> Result<Vec<(i64, f64)>> {
    let site = select.check_factors(probes)?;
    let mut out: Vec<(i64, f64)> = Vec::new();
    if let Select::TopK(0) = select {
        return Ok(out);
    }
    let mut cursors = vec![0usize; probes.len()];
    let mut slots = vec![0f64; WINDOW];
    let mut touched = [0u64; WINDOW / 64];
    'windows: loop {
        let heads =
            probes.iter().zip(&cursors).filter_map(|((list, _), &pos)| list.tids().get(pos));
        let Some(&start) = heads.min() else { break };
        let mut postings = 0;
        for ((list, factor), pos) in probes.iter().zip(&mut cursors) {
            let (tids, weights) = (list.tids(), list.weights());
            let from = *pos;
            while let Some(&tid) = tids.get(*pos) {
                // `tid ≥ start`, so the wrapping difference is the exact
                // offset even when the two straddle zero.
                let offset = tid.wrapping_sub(start) as u64;
                if offset >= WINDOW as u64 {
                    break;
                }
                let offset = offset as usize;
                let contribution = factor * weights[*pos];
                let (word, bit) = (offset / 64, 1u64 << (offset % 64));
                if touched[word] & bit == 0 {
                    touched[word] |= bit;
                    slots[offset] = contribution;
                } else {
                    slots[offset] += contribution;
                }
                *pos += 1;
            }
            postings += (*pos - from) as u64;
        }
        limits.charge_postings(postings);
        let count: u32 = touched.iter().map(|bits| bits.count_ones()).sum();
        let mut granted = limits.charge_candidates(count.into());
        for (word, bits) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let offset = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if granted == 0 {
                    break 'windows;
                }
                granted -= 1;
                crate::fault::fault_point(site);
                let (tid, score) = (start.wrapping_add(offset as i64), slots[offset]);
                match select {
                    Select::TopK(_) => out.push((tid, score)),
                    Select::Threshold(tau) if admits(score, tau) => out.push((tid, score)),
                    Select::Threshold(_) => {}
                }
            }
        }
        if let Select::TopK(k) = select {
            if out.len() > k {
                out.select_nth_unstable_by(k, ranking);
                out.truncate(k);
            }
        }
    }
    out.sort_unstable_by(ranking);
    if let Select::TopK(k) = select {
        out.truncate(k);
    }
    Ok(out)
}

/// Per-tid sums of every lane of the probed lists, one row per touched tid:
/// ascending by tid from [`sum_windowed`], first-seen from
/// [`sum_exhaustive`].
pub(crate) struct LaneSums {
    lanes: usize,
    tids: Vec<i64>,
    /// `lanes` sums per tid, row after row.
    sums: Vec<f64>,
}

impl LaneSums {
    fn new(lanes: usize) -> Self {
        LaneSums { lanes, tids: Vec::new(), sums: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.tids.len()
    }

    pub(crate) fn tid(&self, row: usize) -> i64 {
        self.tids[row]
    }

    /// Row `row`'s sums, one per lane.
    pub(crate) fn row(&self, row: usize) -> &[f64] {
        &self.sums[row * self.lanes..(row + 1) * self.lanes]
    }

    /// The bounded operators' order of two rows: first lane descending
    /// (`f64::total_cmp`), ties by ascending tid.
    pub(crate) fn ranking(&self, a: usize, b: usize) -> std::cmp::Ordering {
        ranking(
            &(self.tids[a], self.sums[a * self.lanes]),
            &(self.tids[b], self.sums[b * self.lanes]),
        )
    }

    /// The rows `rows` names, in that order.
    fn pick(&self, rows: &[usize]) -> LaneSums {
        LaneSums {
            lanes: self.lanes,
            tids: rows.iter().map(|&row| self.tids[row]).collect(),
            sums: rows.iter().flat_map(|&row| self.row(row).iter().copied()).collect(),
        }
    }

    /// Keep only the `k` best rows by [`ranking`](Self::ranking), in their
    /// current order.
    pub(crate) fn keep_best(&mut self, k: usize) {
        if self.len() > k {
            let mut rows: Vec<usize> = (0..self.len()).collect();
            rows.select_nth_unstable_by(k, |&a, &b| self.ranking(a, b));
            rows.truncate(k);
            rows.sort_unstable();
            *self = self.pick(&rows);
        }
    }

    /// The rows `select` keeps by the first lane, in ranking order.
    fn selected(self, select: Select) -> Self {
        let mut rows: Vec<usize> = match select {
            Select::TopK(_) => (0..self.len()).collect(),
            Select::Threshold(tau) => {
                (0..self.len()).filter(|&row| admits(self.row(row)[0], tau)).collect()
            }
        };
        rows.sort_unstable_by(|&a, &b| self.ranking(a, b));
        if let Select::TopK(k) = select {
            rows.truncate(k);
        }
        self.pick(&rows)
    }

    /// The rows as a `(tid, lane…)` table.
    fn into_table(self, lanes: &[String]) -> Table {
        let mut fields = vec![Field::new("tid", DataType::Int)];
        fields.extend(lanes.iter().map(|lane| Field::new(lane.clone(), DataType::Float)));
        let n = self.len();
        let mut cells = Vec::with_capacity(n * (1 + self.lanes));
        for row in 0..n {
            cells.push(Value::Int(self.tids[row]));
            cells.extend(self.row(row).iter().map(|&sum| Value::Float(sum)));
        }
        Table::from_cells_unchecked(Schema::new(fields), cells, n)
    }
}

/// The kernel of the typed finish and of the multi-lane bounded operators:
/// every lane of the probed lists summed per tid, every touched tid kept,
/// in ascending tid order — no selection, no sort.
///
/// Windows, charges and fault sites are [`score_windowed`]'s: each window
/// of [`WINDOW`] tids charges `limits` once for its postings and once for
/// its touched tids and emits only the granted prefix, so a charge cut
/// short leaves the exact sums of an ascending prefix of the touched tids.
/// Within a window each list's run is marked touched, then summed lane by
/// lane into slots that start at `-0.0`: `-0.0 + x` is `x` for every `x`,
/// so the first contribution is stored exactly as `score_windowed` stores
/// it, and each lane keeps the probe order of [`sum_exhaustive`]. `select`
/// names the operator and fault site; `TopK(0)` keeps nothing and charges
/// nothing, as `score_windowed` does.
pub(crate) fn sum_windowed(
    probes: &[(PostingList<'_>, f64)],
    lanes: usize,
    select: Select,
    limits: &ExecLimits,
) -> Result<LaneSums> {
    let site = select.check_factors(probes)?;
    let mut out = LaneSums::new(lanes);
    if let Select::TopK(0) = select {
        return Ok(out);
    }
    let mut cursors = vec![0usize; probes.len()];
    let mut slots = vec![-0.0f64; lanes * WINDOW];
    let mut touched = [0u64; WINDOW / 64];
    'windows: loop {
        let heads =
            probes.iter().zip(&cursors).filter_map(|((list, _), &pos)| list.tids().get(pos));
        let Some(&start) = heads.min() else { break };
        let mut postings = 0;
        for ((list, factor), pos) in probes.iter().zip(&mut cursors) {
            let from = *pos;
            // `tid ≥ start`, so the wrapping difference is the exact offset
            // even when the two straddle zero.
            let in_window = |tid: &i64| (tid.wrapping_sub(start) as u64) < WINDOW as u64;
            let to = from + list.tids()[from..].partition_point(in_window);
            let tids = &list.tids()[from..to];
            for &tid in tids {
                let offset = tid.wrapping_sub(start) as usize;
                touched[offset / 64] |= 1 << (offset % 64);
            }
            for (lane, acc) in slots.chunks_exact_mut(WINDOW).enumerate() {
                for (&tid, &weight) in tids.iter().zip(&list.lane(lane)[from..to]) {
                    acc[tid.wrapping_sub(start) as usize] += factor * weight;
                }
            }
            postings += (to - from) as u64;
            *pos = to;
        }
        limits.charge_postings(postings);
        let count: u32 = touched.iter().map(|bits| bits.count_ones()).sum();
        let mut granted = limits.charge_candidates(count.into());
        for (word, bits) in touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(bits);
            while bits != 0 {
                let offset = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if granted == 0 {
                    break 'windows;
                }
                granted -= 1;
                crate::fault::fault_point(site);
                out.tids.push(start.wrapping_add(offset as i64));
                for lane in 0..lanes {
                    let slot = &mut slots[lane * WINDOW + offset];
                    out.sums.push(std::mem::replace(slot, -0.0));
                }
            }
        }
    }
    Ok(out)
}

/// The posting index attached under `base`.
fn posting_of<'c>(catalog: &'c Catalog, base: &str) -> Result<&'c PostingIndex> {
    catalog
        .posting_for(base)
        .map(|posting| &**posting)
        .ok_or_else(|| RelqError::MissingPosting(base.to_string()))
}

/// Resolve a probe table's `(token, factor)` rows against `posting`, in
/// probe order: NULL tokens/factors never contribute (SQL join / SUM
/// semantics), unknown tokens have no list to probe.
fn gather_probes<'c>(
    posting: &'c PostingIndex,
    probe: &Table,
    token_col: &str,
    factor_col: Option<&str>,
) -> Result<Vec<(PostingList<'c>, f64)>> {
    let token_idx = probe.schema().index_of(token_col)?;
    let factor_idx = factor_col.map(|c| probe.schema().index_of(c)).transpose()?;
    let mut probes: Vec<(PostingList<'c>, f64)> = Vec::new();
    for row in probe.rows() {
        let token = &row[token_idx];
        if token.is_null() {
            continue;
        }
        let factor = match factor_idx {
            None => 1.0,
            Some(i) => match &row[i] {
                Value::Null => continue,
                v => v.as_f64()?,
            },
        };
        if let Some(list) = posting.list(token) {
            probes.push((list, factor));
        }
    }
    Ok(probes)
}

/// Exhaustive scoring of every posting in probe-major order — the
/// accumulation order of the materializing aggregation pipeline, hence
/// byte-identical to it. The naive lowering of both bounded operators and
/// the reference [`score_windowed`] is checked against.
pub(crate) fn score_exhaustive(probes: &[(PostingList<'_>, f64)]) -> Vec<(i64, f64)> {
    let sums = sum_exhaustive(probes, 1);
    sums.tids.into_iter().zip(sums.sums).collect()
}

/// [`score_exhaustive`] for every lane: each tid's lanes summed in probe
/// order, the first contribution stored, tids in first-seen order. The
/// naive lowering of a multi-lane bounded operator and the reference
/// [`sum_windowed`] is checked against.
pub(crate) fn sum_exhaustive(probes: &[(PostingList<'_>, f64)], lanes: usize) -> LaneSums {
    let mut slots: HashMap<i64, usize> = HashMap::new();
    let mut out = LaneSums::new(lanes);
    for &(list, factor) in probes {
        for (i, &tid) in list.tids().iter().enumerate() {
            let contributions = (0..lanes).map(|lane| factor * list.lane(lane)[i]);
            match slots.get(&tid) {
                Some(&row) => {
                    let sums = &mut out.sums[row * lanes..(row + 1) * lanes];
                    for (sum, contribution) in sums.iter_mut().zip(contributions) {
                        *sum += contribution;
                    }
                }
                None => {
                    slots.insert(tid, out.tids.len());
                    out.tids.push(tid);
                    out.sums.extend(contributions);
                }
            }
        }
    }
    out
}

/// Materialize `(tid, score)` pairs as the canonical result table of the
/// bounded operators.
fn scored_tid_table(scored: Vec<(i64, f64)>) -> Table {
    let schema = Schema::from_pairs(&[("tid", DataType::Int), ("score", DataType::Float)]);
    let n = scored.len();
    let mut cells = Vec::with_capacity(2 * n);
    for (tid, score) in scored {
        cells.extend([Value::Int(tid), Value::Float(score)]);
    }
    Table::from_cells_unchecked(schema, cells, n)
}

fn distinct(input: Rel) -> Table {
    // Borrow the input and clone only first-seen rows: duplicates (and a
    // shared input's arena) are never copied.
    let table = input.as_table();
    let mut seen: std::collections::HashSet<&[Value]> = Default::default();
    let (mut cells, mut n) = (Vec::new(), 0);
    for row in table.rows() {
        if seen.insert(row) {
            cells.extend_from_slice(row);
            n += 1;
        }
    }
    Table::from_cells_unchecked(table.schema().clone(), cells, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, param};
    use crate::table::TableBuilder;

    /// Attach to `c` the posting lists of its `(tid, token, weight)` table
    /// `name`.
    fn attach_postings(c: &mut Catalog, name: &str) {
        let table = c.get_shared(name).unwrap();
        let rows =
            table.rows().map(|r| (r[0].as_i64().unwrap(), r[1].clone(), r[2].as_f64().unwrap()));
        c.attach_posting(name, Arc::new(PostingIndex::from_rows(rows).unwrap()));
    }

    fn catalog() -> Catalog {
        let base = TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Str)
            .row(vec![1.into(), "ab".into()])
            .row(vec![1.into(), "bc".into()])
            .row(vec![1.into(), "cd".into()])
            .row(vec![2.into(), "ab".into()])
            .row(vec![2.into(), "xy".into()])
            .row(vec![3.into(), "zz".into()])
            .build()
            .unwrap();
        let query = TableBuilder::new()
            .column("token", DataType::Str)
            .row(vec!["ab".into()])
            .row(vec!["cd".into()])
            .build()
            .unwrap();
        let mut c = Catalog::new();
        c.register_indexed("base_tokens", base, &["token"]).unwrap();
        c.register("query_tokens", query);
        c
    }

    #[test]
    fn intersect_size_plan_matches_hand_count() {
        // This is exactly Figure 4.1 of the paper: join on token, COUNT(*)
        // grouped by tid.
        let plan = Plan::scan("base_tokens")
            .join_on(Plan::scan("query_tokens"), &["token"], &["token"])
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
            .sort_by("score", SortOrder::Descending);
        let result = execute(&plan, &catalog()).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.value(0, "tid").unwrap(), &Value::Int(1));
        assert_eq!(result.value(0, "score").unwrap(), &Value::Int(2));
        assert_eq!(result.value(1, "tid").unwrap(), &Value::Int(2));
        assert_eq!(result.value(1, "score").unwrap(), &Value::Int(1));
    }

    #[test]
    fn index_join_matches_hash_join_and_scan_shares_storage() {
        let catalog = catalog();
        let hash = Plan::scan("base_tokens")
            .join_on(Plan::scan("query_tokens"), &["token"], &["token"])
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
            .sort_by_many(vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)]);
        let indexed =
            Plan::index_join("base_tokens", &["token"], Plan::scan("query_tokens"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
                .sort_by_many(vec![
                    ("score", SortOrder::Descending),
                    ("tid", SortOrder::Ascending),
                ]);
        let a = execute(&hash, &catalog).unwrap();
        let b = execute(&indexed, &catalog).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.schema(), b.schema());
        // A root-level scan returns the catalog's own storage.
        let scanned = execute(&Plan::scan("base_tokens"), &catalog).unwrap();
        let shared = catalog.get_shared("base_tokens").unwrap();
        assert!(Arc::ptr_eq(&scanned, &shared));
    }

    #[test]
    fn index_join_requires_an_index() {
        let plan =
            Plan::index_join("query_tokens", &["token"], Plan::scan("base_tokens"), &["token"]);
        assert!(matches!(execute(&plan, &catalog()), Err(RelqError::MissingIndex { .. })));
    }

    #[test]
    fn params_bind_tables_and_scalars() {
        let query = TableBuilder::new()
            .column("token", DataType::Str)
            .row(vec!["ab".into()])
            .build()
            .unwrap();
        let plan = Plan::index_join("base_tokens", &["token"], Plan::param("q"), &["token"])
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "cnt")])
            .project(vec![(col("tid"), "tid"), (col("cnt").add(param("bias")), "score")]);
        let bindings = Bindings::new().with_table("q", query).with_scalar("bias", 100i64);
        let result = execute_with(&plan, &catalog(), &bindings).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.value(0, "score").unwrap(), &Value::Int(101));
        // Unbound execution fails loudly.
        assert!(matches!(execute(&plan, &catalog()), Err(RelqError::UnboundParam(_))));
    }

    #[test]
    fn naive_mode_is_byte_identical_to_indexed_mode() {
        let weights = TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Str)
            .column("weight", DataType::Float)
            .row(vec![1.into(), "ab".into(), 0.1.into()])
            .row(vec![2.into(), "ab".into(), 0.7.into()])
            .row(vec![1.into(), "cd".into(), 0.3.into()])
            .row(vec![3.into(), "cd".into(), 0.9.into()])
            .build()
            .unwrap();
        let mut c = Catalog::new();
        c.register_indexed("w", weights, &["token"]).unwrap();
        let q = TableBuilder::new()
            .column("token", DataType::Str)
            .row(vec!["cd".into()])
            .row(vec!["ab".into()])
            .build()
            .unwrap();
        let plan = Plan::index_join("w", &["token"], Plan::param("q"), &["token"])
            .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight")), "score")]);
        let bindings = Bindings::new().with_table("q", q);
        let fast = execute_with(&plan, &c, &bindings).unwrap();
        let slow = execute_naive(&plan, &c, &bindings).unwrap();
        assert_eq!(fast.schema(), slow.schema());
        assert_eq!(fast.rows(), slow.rows());
    }

    #[test]
    fn filter_and_project() {
        let plan = Plan::scan("base_tokens")
            .filter(col("tid").eq(lit(1i64)))
            .project(vec![(col("token"), "t"), (col("tid").mul(lit(10i64)), "tid10")]);
        let result = execute(&plan, &catalog()).unwrap();
        assert_eq!(result.num_rows(), 3);
        assert_eq!(result.schema().names(), vec!["t", "tid10"]);
        assert_eq!(result.value(0, "tid10").unwrap(), &Value::Int(10));
    }

    #[test]
    fn empty_projection_keeps_expression_types_and_feeds_joins() {
        // Regression test: output types used to be guessed from the first row
        // only, so an empty input degraded every column to Float and a
        // downstream join/union saw the wrong schema.
        let empty =
            Table::empty(Schema::from_pairs(&[("tid", DataType::Int), ("token", DataType::Str)]));
        let projected = Plan::values(empty)
            .project(vec![(col("token"), "token"), (col("tid").mul(lit(2i64)), "tid2")]);
        let result = execute(&projected, &catalog()).unwrap();
        assert_eq!(result.num_rows(), 0);
        assert_eq!(result.schema().field(0).dtype, DataType::Str);
        assert_eq!(result.schema().field(1).dtype, DataType::Int);
        // The empty projection can feed a join...
        let joined = projected.clone().join_on(Plan::scan("query_tokens"), &["token"], &["token"]);
        let join_result = execute(&joined, &catalog()).unwrap();
        assert_eq!(join_result.num_rows(), 0);
        assert_eq!(join_result.schema().names(), vec!["token", "tid2", "token_r"]);
        assert_eq!(join_result.schema().field(0).dtype, DataType::Str);
        assert_eq!(join_result.schema().field(1).dtype, DataType::Int);
        // ...and stays union-compatible with a non-empty relation of the same
        // logical type (this errored before the fix: Float vs Str mismatch).
        let other = TableBuilder::new()
            .column("token", DataType::Str)
            .column("tid2", DataType::Int)
            .row(vec!["ab".into(), 4.into()])
            .build()
            .unwrap();
        let union = projected.union_all(Plan::values(other));
        assert_eq!(execute(&union, &catalog()).unwrap().num_rows(), 1);
    }

    #[test]
    fn join_renames_colliding_columns() {
        let plan =
            Plan::scan("base_tokens").join_on(Plan::scan("base_tokens"), &["token"], &["token"]);
        let result = execute(&plan, &catalog()).unwrap();
        assert!(result.schema().contains("token"));
        assert!(result.schema().contains("token_r"));
        assert!(result.schema().contains("tid_r"));
        // Self-join on token: 'ab' appears in tids {1,2} -> 4 pairs, others 1 each.
        assert_eq!(result.num_rows(), 4 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn aggregate_with_sum_min_max_avg() {
        let t = TableBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float)
            .row(vec!["a".into(), 1.0.into()])
            .row(vec!["a".into(), 3.0.into()])
            .row(vec!["b".into(), 10.0.into()])
            .build()
            .unwrap();
        let plan = Plan::values(t).aggregate(
            &["g"],
            vec![
                (AggFunc::Sum(col("v")), "s"),
                (AggFunc::Avg(col("v")), "a"),
                (AggFunc::Min(col("v")), "lo"),
                (AggFunc::Max(col("v")), "hi"),
                (AggFunc::CountStar, "n"),
            ],
        );
        let result = execute(&plan, &Catalog::new()).unwrap();
        assert_eq!(result.num_rows(), 2);
        assert_eq!(result.value(0, "s").unwrap(), &Value::Float(4.0));
        assert_eq!(result.value(0, "a").unwrap(), &Value::Float(2.0));
        assert_eq!(result.value(0, "lo").unwrap(), &Value::Float(1.0));
        assert_eq!(result.value(0, "hi").unwrap(), &Value::Float(3.0));
        assert_eq!(result.value(0, "n").unwrap(), &Value::Int(2));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let plan = Plan::scan("base_tokens").aggregate(
            &[],
            vec![(AggFunc::CountStar, "n"), (AggFunc::CountDistinct(col("tid")), "d")],
        );
        let result = execute(&plan, &catalog()).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.value(0, "n").unwrap(), &Value::Int(6));
        assert_eq!(result.value(0, "d").unwrap(), &Value::Int(3));
    }

    #[test]
    fn global_aggregate_on_empty_input_produces_one_row() {
        let empty = Table::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        let plan = Plan::values(empty).aggregate(&[], vec![(AggFunc::CountStar, "n")]);
        let result = execute(&plan, &Catalog::new()).unwrap();
        assert_eq!(result.num_rows(), 1);
        assert_eq!(result.value(0, "n").unwrap(), &Value::Int(0));
    }

    #[test]
    fn top_k_matches_sort_plus_limit_in_both_modes() {
        let catalog = catalog();
        let ordering = vec![("tid", SortOrder::Descending), ("token", SortOrder::Ascending)];
        let reference = Plan::scan("base_tokens").sort_by_many(ordering.clone()).limit(4);
        let top = Plan::scan("base_tokens").top_k(lit(4i64), ordering);
        let expected = execute(&reference, &catalog).unwrap();
        let fast = execute(&top, &catalog).unwrap();
        let slow = execute_naive(&top, &catalog, &Bindings::new()).unwrap();
        assert_eq!(fast.schema(), expected.schema());
        assert_eq!(fast.rows(), expected.rows());
        assert_eq!(slow.rows(), expected.rows());
    }

    #[test]
    fn top_k_takes_k_as_a_bound_parameter() {
        let catalog = catalog();
        let plan = Plan::scan("base_tokens")
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
            .top_k(
                param("k"),
                vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)],
            );
        for k in [0usize, 1, 2, 99] {
            let bindings = Bindings::new().with_scalar("k", k as i64);
            let result = execute_with(&plan, &catalog, &bindings).unwrap();
            assert_eq!(result.num_rows(), k.min(3), "k={k}");
            if k >= 1 {
                // tid 1 has three tokens: the largest group.
                assert_eq!(result.value(0, "tid").unwrap(), &Value::Int(1));
                assert_eq!(result.value(0, "score").unwrap(), &Value::Int(3));
            }
        }
        // Unbound k fails loudly, like any other missing parameter.
        assert!(matches!(execute(&plan, &catalog), Err(RelqError::UnboundParam(_))));
    }

    #[test]
    fn top_k_rejects_negative_and_column_valued_k() {
        let catalog = catalog();
        let plan = Plan::scan("base_tokens").top_k(lit(-1i64), vec![("tid", SortOrder::Ascending)]);
        assert!(matches!(execute(&plan, &catalog), Err(RelqError::InvalidPlan(_))));
        let plan = Plan::scan("base_tokens").top_k(col("tid"), vec![("tid", SortOrder::Ascending)]);
        assert!(execute(&plan, &catalog).is_err());
    }

    #[test]
    fn top_k_over_projection_matches_sort_plus_limit() {
        let catalog = catalog();
        let projected = Plan::scan("base_tokens")
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "cnt")])
            .project(vec![(col("tid"), "tid"), (col("cnt").mul(lit(2i64)), "score")]);
        let ordering = vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)];
        // The last k keeps every row: the full-sort path.
        for k in [0usize, 1, 2, 10, i64::MAX as usize] {
            let top = projected.clone().top_k(lit(k as i64), ordering.clone());
            let reference = projected.clone().sort_by_many(ordering.clone()).limit(k);
            let fast = execute(&top, &catalog).unwrap();
            let expected = execute(&reference, &catalog).unwrap();
            assert_eq!(fast.schema(), expected.schema(), "k={k}");
            assert_eq!(fast.rows(), expected.rows(), "k={k}");
            // The naive lowering (sort + truncate over the materialized
            // projection) agrees too.
            let slow = execute_naive(&top, &catalog, &Bindings::new()).unwrap();
            assert_eq!(slow.rows(), expected.rows(), "k={k} (naive)");
        }
        // Empty input keeps the projection's derived schema.
        let empty = Plan::values(Table::empty(Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("cnt", DataType::Int),
        ])))
        .project(vec![(col("tid"), "tid"), (col("cnt").div(lit(2i64)), "score")])
        .top_k(lit(5i64), ordering);
        let result = execute(&empty, &catalog).unwrap();
        assert_eq!(result.num_rows(), 0);
        assert_eq!(result.schema().field(0).dtype, DataType::Int);
        assert_eq!(result.schema().field(1).dtype, DataType::Float);
    }

    #[test]
    fn top_k_float_keys_match_sort_plus_limit() {
        // Float keys spanning the degenerate orderings (negatives, -0.0 vs
        // 0.0, NaN) and a NULL key order the heap exactly as a stable sort
        // orders them, in both modes.
        let scores = [1.5, -2.25, f64::NAN, 0.0, -0.0, 7.0, -2.25, 3.5];
        let mut builder =
            TableBuilder::new().column("score", DataType::Float).column("tid", DataType::Int);
        for (i, &s) in scores.iter().enumerate() {
            builder = builder.row(vec![s.into(), (i as i64).into()]);
        }
        let t = builder.build().unwrap();
        let ordering = vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)];
        // k = 8 and 20 keep every row: the full-sort path.
        for k in [0usize, 1, 3, 8, 20] {
            let top = Plan::values(t.clone()).top_k(lit(k as i64), ordering.clone());
            let reference = Plan::values(t.clone()).sort_by_many(ordering.clone()).limit(k);
            let fast = execute(&top, &Catalog::new()).unwrap();
            let expected = execute(&reference, &Catalog::new()).unwrap();
            assert_eq!(render(&fast), render(&expected), "k={k}");
            let slow = execute_naive(&top, &Catalog::new(), &Bindings::new()).unwrap();
            assert_eq!(render(&slow), render(&expected), "k={k} (naive)");
        }
        // A NULL key ranks below every float, as in the sort.
        let mut with_null = t.clone();
        with_null.push_row(vec![Value::Null, 99.into()]).unwrap();
        let top = Plan::values(with_null.clone()).top_k(lit(4i64), ordering.clone());
        let reference = Plan::values(with_null).sort_by_many(ordering).limit(4);
        assert_eq!(
            render(&execute(&top, &Catalog::new()).unwrap()),
            render(&execute(&reference, &Catalog::new()).unwrap())
        );
    }

    #[test]
    fn top_k_bounded_matches_aggregate_top_k_pipeline() {
        // Weighted token table with skewed lists: token 0 is frequent/light,
        // token 9 rare/heavy.
        let mut weights = TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Int)
            .column("weight", DataType::Float);
        for tid in 0..50i64 {
            weights = weights.row(vec![tid.into(), 0.into(), 0.01.into()]);
            if tid % 3 == 0 {
                weights = weights.row(vec![tid.into(), 1.into(), (0.1 + tid as f64 * 1e-3).into()]);
            }
            if tid % 17 == 0 {
                weights = weights.row(vec![tid.into(), 9.into(), 2.5.into()]);
            }
        }
        let table = weights.build().unwrap();
        let mut c = Catalog::new();
        c.register_indexed("w", table, &["token"]).unwrap();
        attach_postings(&mut c, "w");
        let probe = TableBuilder::new()
            .column("token", DataType::Int)
            .column("factor", DataType::Float)
            .row(vec![0.into(), 1.0.into()])
            .row(vec![1.into(), 0.5.into()])
            .row(vec![9.into(), 2.0.into()])
            .row(vec![42.into(), 1.0.into()]) // unknown token: no list
            .build()
            .unwrap();
        let reference = Plan::index_join("w", &["token"], Plan::param("q"), &["token"])
            .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight").mul(col("factor"))), "score")])
            .top_k(
                param("k"),
                vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)],
            );
        let bounded =
            Plan::top_k_bounded("w", Plan::param("q"), "token", Some("factor"), param("k"));
        for k in [0usize, 1, 5, 50, 200] {
            let bindings =
                Bindings::new().with_table("q", probe.clone()).with_scalar("k", k as i64);
            let expected = execute_with(&reference, &c, &bindings).unwrap();
            let fast = execute_with(&bounded, &c, &bindings).unwrap();
            let slow = execute_naive(&bounded, &c, &bindings).unwrap();
            assert_eq!(fast.schema().names(), vec!["tid", "score"], "k={k}");
            assert_eq!(fast.num_rows(), expected.num_rows(), "k={k}");
            for row in 0..expected.num_rows() {
                assert_eq!(
                    fast.value(row, "tid").unwrap(),
                    expected.value(row, "tid").unwrap(),
                    "k={k} row={row}"
                );
                let fs = fast.value(row, "score").unwrap().as_f64().unwrap();
                let es = expected.value(row, "score").unwrap().as_f64().unwrap();
                assert_eq!(fs.to_bits(), es.to_bits(), "k={k} row={row}");
            }
            assert_eq!(slow.rows(), fast.rows(), "k={k} (naive)");
        }
        // Factors may not be negative, and the posting index is required.
        let neg_probe = TableBuilder::new()
            .column("token", DataType::Int)
            .column("factor", DataType::Float)
            .row(vec![0.into(), (-1.0).into()])
            .build()
            .unwrap();
        let bindings = Bindings::new().with_table("q", neg_probe).with_scalar("k", 3i64);
        assert!(matches!(execute_with(&bounded, &c, &bindings), Err(RelqError::InvalidPlan(_))));
        let mut no_posting = Catalog::new();
        no_posting.register_indexed("w", c.get("w").unwrap().clone(), &["token"]).unwrap();
        let bindings = Bindings::new().with_table("q", probe).with_scalar("k", 3i64);
        assert!(matches!(
            execute_with(&bounded, &no_posting, &bindings),
            Err(RelqError::MissingPosting(_))
        ));
    }

    #[test]
    fn threshold_bounded_matches_filtered_aggregate_pipeline() {
        // Same skewed-weight corpus as the top-k test: token 0 frequent and
        // light, token 9 rare and heavy.
        let mut weights = TableBuilder::new()
            .column("tid", DataType::Int)
            .column("token", DataType::Int)
            .column("weight", DataType::Float);
        for tid in 0..50i64 {
            weights = weights.row(vec![tid.into(), 0.into(), 0.01.into()]);
            if tid % 3 == 0 {
                weights = weights.row(vec![tid.into(), 1.into(), (0.1 + tid as f64 * 1e-3).into()]);
            }
            if tid % 17 == 0 {
                weights = weights.row(vec![tid.into(), 9.into(), 2.5.into()]);
            }
        }
        let table = weights.build().unwrap();
        let mut c = Catalog::new();
        c.register_indexed("w", table, &["token"]).unwrap();
        attach_postings(&mut c, "w");
        let probe = TableBuilder::new()
            .column("token", DataType::Int)
            .column("factor", DataType::Float)
            .row(vec![0.into(), 1.0.into()])
            .row(vec![1.into(), 0.5.into()])
            .row(vec![9.into(), 2.0.into()])
            .row(vec![42.into(), 1.0.into()]) // unknown token: no list
            .build()
            .unwrap();
        // The exhaustive reference: filter the aggregated scores at τ, then
        // bring them into the bounded operator's canonical ranking order.
        let reference = Plan::index_join("w", &["token"], Plan::param("q"), &["token"])
            .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight").mul(col("factor"))), "score")])
            .filter(col("score").gt_eq(param("tau")))
            .sort_by_many(vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)]);
        let bounded =
            Plan::threshold_bounded("w", Plan::param("q"), "token", Some("factor"), param("tau"));
        for tau in [f64::NEG_INFINITY, -1.0, 0.0, 0.01, 0.05, 0.1, 1.0, 5.0, 5.01, 100.0, f64::NAN]
        {
            let bindings = Bindings::new().with_table("q", probe.clone()).with_scalar("tau", tau);
            let expected = execute_with(&reference, &c, &bindings).unwrap();
            let fast = execute_with(&bounded, &c, &bindings).unwrap();
            let slow = execute_naive(&bounded, &c, &bindings).unwrap();
            assert_eq!(fast.schema().names(), vec!["tid", "score"], "tau={tau}");
            assert_eq!(fast.num_rows(), expected.num_rows(), "tau={tau}");
            for row in 0..expected.num_rows() {
                assert_eq!(
                    fast.value(row, "tid").unwrap(),
                    expected.value(row, "tid").unwrap(),
                    "tau={tau} row={row}"
                );
                let fs = fast.value(row, "score").unwrap().as_f64().unwrap();
                let es = expected.value(row, "score").unwrap().as_f64().unwrap();
                assert_eq!(fs.to_bits(), es.to_bits(), "tau={tau} row={row}");
            }
            assert_eq!(slow.rows(), fast.rows(), "tau={tau} (naive)");
        }
        // Exact-boundary τ: pick one aggregated score and select at it — the
        // `>=` must admit exactly that tid.
        let all = execute_with(
            &bounded,
            &c,
            &Bindings::new().with_table("q", probe.clone()).with_scalar("tau", f64::NEG_INFINITY),
        )
        .unwrap();
        let boundary = all.value(all.num_rows() / 2, "score").unwrap().as_f64().unwrap();
        let bindings = Bindings::new().with_table("q", probe.clone()).with_scalar("tau", boundary);
        let at = execute_with(&bounded, &c, &bindings).unwrap();
        assert!(at.rows().any(|r| r[1].as_f64().unwrap().to_bits() == boundary.to_bits()));
        assert_eq!(at.rows(), execute_naive(&bounded, &c, &bindings).unwrap().rows());
        // Negative factors are rejected by the indexed kernel; the posting index
        // is required.
        let neg_probe = TableBuilder::new()
            .column("token", DataType::Int)
            .column("factor", DataType::Float)
            .row(vec![0.into(), (-1.0).into()])
            .build()
            .unwrap();
        let bindings = Bindings::new().with_table("q", neg_probe).with_scalar("tau", 0.5);
        assert!(matches!(execute_with(&bounded, &c, &bindings), Err(RelqError::InvalidPlan(_))));
        let mut no_posting = Catalog::new();
        no_posting.register_indexed("w", c.get("w").unwrap().clone(), &["token"]).unwrap();
        let bindings = Bindings::new().with_table("q", probe).with_scalar("tau", 0.5);
        assert!(matches!(
            execute_with(&bounded, &no_posting, &bindings),
            Err(RelqError::MissingPosting(_))
        ));
    }

    #[test]
    fn filter_over_projection_matches_the_naive_reference() {
        // A filter above a projection (the threshold-plan shape) keeps the
        // bytes of the naive materialize-then-filter pipeline.
        let catalog = catalog();
        let plan = Plan::scan("base_tokens")
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "cnt")])
            .project(vec![(col("tid"), "tid"), (col("cnt").mul(lit(2i64)), "score")])
            .filter(col("score").gt_eq(param("tau")));
        for tau in [i64::MIN, 0, 2, 4, 5, 100] {
            let bindings = Bindings::new().with_scalar("tau", tau);
            let fast = execute_with(&plan, &catalog, &bindings).unwrap();
            let slow = execute_naive(&plan, &catalog, &bindings).unwrap();
            assert_eq!(render(&fast), render(&slow), "tau={tau}");
        }
        // Empty input keeps the projection's derived schema in both modes.
        let empty = Plan::values(Table::empty(Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("cnt", DataType::Int),
        ])))
        .project(vec![(col("tid"), "tid"), (col("cnt").div(lit(2i64)), "score")])
        .filter(col("score").gt_eq(lit(0.0)));
        let result = execute(&empty, &catalog).unwrap();
        assert_eq!(result.num_rows(), 0);
        assert_eq!(result.schema().field(0).dtype, DataType::Int);
        assert_eq!(result.schema().field(1).dtype, DataType::Float);
    }

    #[test]
    fn filter_over_aggregation_matches_the_naive_reference() {
        // A filter directly above an aggregation (the WM/Cosine
        // threshold-plan shape), over the fused Aggregate(IndexJoin)
        // pipeline and the generic one, keeps the bytes of the naive
        // materialize-then-filter path.
        let catalog = catalog();
        let indexed =
            Plan::index_join("base_tokens", &["token"], Plan::scan("query_tokens"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
                .filter(col("score").gt_eq(param("tau")));
        let generic = Plan::scan("base_tokens")
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
            .filter(col("score").gt_eq(param("tau")));
        for plan in [&indexed, &generic] {
            for tau in [i64::MIN, 1, 2, 3, 9] {
                let bindings = Bindings::new().with_scalar("tau", tau);
                let fast = execute_with(plan, &catalog, &bindings).unwrap();
                let slow = execute_naive(plan, &catalog, &bindings).unwrap();
                assert_eq!(render(&fast), render(&slow), "tau={tau}");
            }
        }
        // A filtered *global* aggregate over an empty stream still assembles
        // (and then filters) its single empty-aggregate row.
        let empty = Table::empty(Schema::from_pairs(&[("x", DataType::Int)]));
        let plan = Plan::values(empty)
            .aggregate(&[], vec![(AggFunc::CountStar, "n")])
            .filter(col("n").gt_eq(lit(1i64)));
        assert_eq!(execute(&plan, &Catalog::new()).unwrap().num_rows(), 0);
        let plan = match plan {
            Plan::Filter { input, .. } => input.filter(col("n").gt_eq(lit(0i64))),
            _ => unreachable!(),
        };
        assert_eq!(execute(&plan, &Catalog::new()).unwrap().num_rows(), 1);
    }

    #[test]
    fn top_k_breaks_full_ties_by_input_order() {
        // Duplicate keys: the kept prefix must equal stable sort + truncate.
        let t = TableBuilder::new()
            .column("g", DataType::Int)
            .column("tag", DataType::Str)
            .row(vec![1.into(), "a".into()])
            .row(vec![2.into(), "b".into()])
            .row(vec![1.into(), "c".into()])
            .row(vec![2.into(), "d".into()])
            .row(vec![1.into(), "e".into()])
            .build()
            .unwrap();
        let top = Plan::values(t.clone()).top_k(lit(2i64), vec![("g", SortOrder::Ascending)]);
        let reference = Plan::values(t).sort_by("g", SortOrder::Ascending).limit(2);
        let a = execute(&top, &Catalog::new()).unwrap();
        let b = execute(&reference, &Catalog::new()).unwrap();
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.value(0, "tag").unwrap(), &Value::Str("a".into()));
        assert_eq!(a.value(1, "tag").unwrap(), &Value::Str("c".into()));
    }

    #[test]
    fn distinct_union_limit() {
        let plan = Plan::scan("query_tokens").union_all(Plan::scan("query_tokens")).distinct();
        let result = execute(&plan, &catalog()).unwrap();
        assert_eq!(result.num_rows(), 2);
        let plan = Plan::scan("base_tokens").limit(4);
        assert_eq!(execute(&plan, &catalog()).unwrap().num_rows(), 4);
    }

    #[test]
    fn union_incompatible_schemas_fail() {
        let plan = Plan::scan("base_tokens").union_all(Plan::scan("query_tokens"));
        assert!(execute(&plan, &catalog()).is_err());
    }

    #[test]
    fn sort_multi_key() {
        let plan = Plan::scan("base_tokens")
            .sort_by_many(vec![("tid", SortOrder::Descending), ("token", SortOrder::Ascending)]);
        let result = execute(&plan, &catalog()).unwrap();
        assert_eq!(result.value(0, "tid").unwrap(), &Value::Int(3));
        assert_eq!(result.value(1, "tid").unwrap(), &Value::Int(2));
        assert_eq!(result.value(1, "token").unwrap(), &Value::Str("ab".into()));
    }

    #[test]
    fn null_join_keys_never_match() {
        let left = TableBuilder::new()
            .column("k", DataType::Str)
            .row(vec![Value::Null])
            .row(vec!["a".into()])
            .build()
            .unwrap();
        let right = TableBuilder::new()
            .column("k", DataType::Str)
            .row(vec![Value::Null])
            .row(vec!["a".into()])
            .build()
            .unwrap();
        let plan = Plan::values(left.clone()).join_on(Plan::values(right), &["k"], &["k"]);
        let result = execute(&plan, &Catalog::new()).unwrap();
        assert_eq!(result.num_rows(), 1);
        // Same through the index path: NULL probe keys and NULL index keys
        // are both skipped.
        let mut c = Catalog::new();
        c.register_indexed("l", left, &["k"]).unwrap();
        let probe = TableBuilder::new()
            .column("k", DataType::Str)
            .row(vec![Value::Null])
            .row(vec!["a".into()])
            .build()
            .unwrap();
        let plan = Plan::index_join("l", &["k"], Plan::values(probe), &["k"]);
        assert_eq!(execute(&plan, &c).unwrap().num_rows(), 1);
    }

    #[test]
    fn hash_join_emission_order_is_independent_of_input_sizes() {
        // The build side is chosen by cardinality, but emission must stay
        // left-major either way: the same logical join over differently
        // sized inputs (e.g. one corpus shard vs the monolith) has to feed
        // downstream float aggregates in the same row order.
        let rows_of = |table: &Table| {
            (0..table.num_rows())
                .map(|i| {
                    (table.value(i, "a").unwrap().clone(), table.value(i, "b").unwrap().clone())
                })
                .collect::<Vec<_>>()
        };
        let small = TableBuilder::new()
            .column("k", DataType::Int)
            .column("a", DataType::Int)
            .row(vec![1.into(), 10.into()])
            .row(vec![2.into(), 20.into()])
            .build()
            .unwrap();
        let big = TableBuilder::new()
            .column("k", DataType::Int)
            .column("b", DataType::Int)
            .row(vec![2.into(), 200.into()])
            .row(vec![1.into(), 100.into()])
            .row(vec![1.into(), 101.into()])
            .row(vec![2.into(), 201.into()])
            .build()
            .unwrap();
        // Left smaller (build left): still left-major with right matches in
        // right table order.
        let plan = Plan::values(small.clone()).join_on_with_suffix(
            Plan::values(big.clone()),
            &["k"],
            &["k"],
            "_r",
        );
        let left_small = execute(&plan, &Catalog::new()).unwrap();
        let expected = vec![
            (Value::Int(10), Value::Int(100)),
            (Value::Int(10), Value::Int(101)),
            (Value::Int(20), Value::Int(200)),
            (Value::Int(20), Value::Int(201)),
        ];
        assert_eq!(rows_of(&left_small), expected);
        // Right smaller (build right): the natural probe-left path — also
        // left-major, with the big table now on the left.
        let plan = Plan::values(big)
            .join_on_with_suffix(Plan::values(small), &["k"], &["k"], "_r")
            .project(vec![(col("a"), "a"), (col("b"), "b")]);
        let right_small = execute(&plan, &Catalog::new()).unwrap();
        let expected = vec![
            (Value::Int(20), Value::Int(200)),
            (Value::Int(10), Value::Int(100)),
            (Value::Int(10), Value::Int(101)),
            (Value::Int(20), Value::Int(201)),
        ];
        assert_eq!(rows_of(&right_small), expected);
    }

    #[test]
    fn missing_table_is_an_error() {
        let plan = Plan::scan("nope");
        assert!(matches!(
            execute(&plan, &Catalog::new()).map(|_| ()),
            Err(RelqError::UnknownTable(_))
        ));
    }

    #[test]
    fn join_key_arity_mismatch_is_an_error() {
        let plan = Plan::scan("base_tokens").join_on(Plan::scan("query_tokens"), &["token"], &[]);
        assert!(execute(&plan, &catalog()).is_err());
        let plan = Plan::index_join("base_tokens", &["token"], Plan::scan("query_tokens"), &[]);
        assert!(execute(&plan, &catalog()).is_err());
    }

    /// Debug rendering of a table: unlike `Value` equality, it tells
    /// `Int(1)` from `Float(1.0)`, so equal renderings are byte-identical.
    fn render(t: &Table) -> String {
        format!("{:?} {:?}", t.schema(), t.rows())
    }

    /// A table whose grouping columns mix Int, integral Float, NULL and Str
    /// values, indexed on `part` for the fused aggregation path.
    fn grouping_catalog() -> Catalog {
        let t = TableBuilder::new()
            .column("part", DataType::Int)
            .column("a", DataType::Float)
            .column("b", DataType::Int)
            .column("c", DataType::Str)
            .column("d", DataType::Int)
            .column("v", DataType::Float)
            .row(vec![1.into(), Value::Int(1), 10.into(), "x".into(), 0.into(), 0.5.into()])
            .row(vec![2.into(), Value::Float(1.0), 10.into(), "x".into(), 0.into(), 0.25.into()])
            .row(vec![1.into(), 2.5.into(), 10.into(), "y".into(), 1.into(), 0.125.into()])
            .row(vec![2.into(), Value::Null, 10.into(), "y".into(), 1.into(), 1.5.into()])
            .row(vec![1.into(), Value::Null, Value::Null, "x".into(), 2.into(), 2.0.into()])
            .row(vec![2.into(), Value::Int(1), 11.into(), Value::Null, 2.into(), 0.75.into()])
            .row(vec![1.into(), 2.5.into(), 10.into(), "y".into(), 1.into(), 0.1.into()])
            .row(vec![3.into(), Value::Int(3), 12.into(), "z".into(), 3.into(), Value::Null])
            .build()
            .unwrap();
        let parts = TableBuilder::new()
            .column("part", DataType::Int)
            .row(vec![2.into()])
            .row(vec![1.into()])
            .row(vec![3.into()])
            .build()
            .unwrap();
        let mut c = Catalog::new();
        c.register_indexed("t", t, &["part"]).unwrap();
        c.register("parts", parts);
        c
    }

    fn grouping_aggregates() -> Vec<(AggFunc, &'static str)> {
        vec![
            (AggFunc::CountStar, "n"),
            (AggFunc::Count(col("a")), "na"),
            (AggFunc::CountDistinct(col("c")), "nc"),
            (AggFunc::Sum(col("v")), "sv"),
            (AggFunc::Avg(col("v")), "av"),
            (AggFunc::Min(col("v").mul(lit(2.0))), "mv"),
            (AggFunc::Max(col("a")), "xa"),
            (AggFunc::Min(col("b")), "mb"),
        ]
    }

    /// Both aggregation inputs the engine distinguishes: a materialized
    /// scan (generic grouping) and an index probe (fused grouping).
    fn grouping_plans(keys: &[&str]) -> Vec<Plan> {
        vec![
            Plan::scan("t").aggregate(keys, grouping_aggregates()),
            Plan::index_join("t", &["part"], Plan::scan("parts"), &["part"])
                .aggregate(keys, grouping_aggregates()),
        ]
    }

    #[test]
    fn grouping_is_byte_identical_to_the_naive_reference() {
        let c = grouping_catalog();
        let key_sets: [&[&str]; 8] = [
            &[],
            &["part"],
            &["a"],
            &["a", "b"],
            &["b", "a"],
            &["b", "d"],
            &["d", "c"],
            &["part", "a", "b", "c", "d"],
        ];
        for keys in key_sets {
            for plan in grouping_plans(keys) {
                let fast = execute(&plan, &c).unwrap();
                let slow = execute_naive(&plan, &c, &Bindings::new()).unwrap();
                assert_eq!(render(&fast), render(&slow), "keys {keys:?}");
            }
        }
    }

    #[test]
    fn int_and_float_keys_form_one_group() {
        let c = grouping_catalog();
        // Int(1) and Float(1.0) are equal values: one group in every mode,
        // also when the Float arrives after the all-Int keys were packed.
        for keys in [&["a"][..], &["a", "b"], &["b", "a"]] {
            for plan in grouping_plans(keys) {
                for t in [
                    execute(&plan, &c).unwrap(),
                    execute_naive(&plan, &c, &Bindings::new()).unwrap(),
                ] {
                    let ai = keys.iter().position(|&k| k == "a").unwrap();
                    let b10 = |r: &&[Value]| keys.len() == 1 || r[1 - ai] == Value::Int(10);
                    let ones: Vec<&[Value]> =
                        t.rows().filter(|r| r[ai] == Value::Int(1)).filter(b10).collect();
                    assert_eq!(ones.len(), 1, "keys {keys:?}: {:?}", t.rows());
                    let count = ones[0][keys.len()].clone();
                    let expected = if keys.len() == 1 { 3 } else { 2 };
                    assert_eq!(count, Value::Int(expected), "keys {keys:?}");
                }
            }
        }
    }

    #[test]
    fn empty_input_aggregates_match_the_naive_reference() {
        let mut c = grouping_catalog();
        let empty_parts = TableBuilder::new().column("part", DataType::Int).build().unwrap();
        c.register("parts", empty_parts);
        let empty_t = Table::empty(c.get("t").unwrap().schema().clone());
        c.register("t_empty", empty_t);
        for keys in [&[][..], &["a", "b"]] {
            let probe_nothing = grouping_plans(keys).pop().unwrap();
            let scan_nothing = Plan::scan("t_empty").aggregate(keys, grouping_aggregates());
            for plan in [probe_nothing, scan_nothing] {
                let fast = execute(&plan, &c).unwrap();
                let slow = execute_naive(&plan, &c, &Bindings::new()).unwrap();
                assert_eq!(render(&fast), render(&slow), "keys {keys:?}");
                // A global aggregate still yields its one row of empty
                // aggregates; a grouped one yields none.
                assert_eq!(fast.num_rows(), usize::from(keys.is_empty()), "keys {keys:?}");
            }
        }
    }

    /// Str, NULL and mixed Int/Float cells, with one duplicated row.
    fn mixed_table() -> Table {
        TableBuilder::new()
            .column("s", DataType::Str)
            .column("x", DataType::Float)
            .column("n", DataType::Int)
            .row(vec!["b".into(), 1.5.into(), 3.into()])
            .row(vec![Value::Null, Value::Int(2), Value::Null])
            .row(vec!["a".into(), Value::Null, 1.into()])
            .row(vec!["b".into(), 1.5.into(), 3.into()])
            .row(vec!["".into(), Value::Float(2.0), 2.into()])
            .row(vec!["c".into(), Value::Float(-0.0), Value::Null])
            .build()
            .unwrap()
    }

    #[test]
    fn reshaping_operators_match_the_naive_reference_on_mixed_cells() {
        let mut c = Catalog::new();
        c.register("mixed", mixed_table());
        // A scan hands the operators a shared input, a values leaf an owned
        // one: both arms of every operator run.
        for input in [Plan::scan("mixed"), Plan::values(mixed_table())] {
            for keys in [
                vec![("x", SortOrder::Descending), ("n", SortOrder::Ascending)],
                vec![("s", SortOrder::Ascending)],
                vec![("n", SortOrder::Descending), ("s", SortOrder::Descending)],
            ] {
                let empty = Plan::values(Table::empty(mixed_table().schema().clone()));
                for plan in [
                    input.clone().sort_by_many(keys.clone()),
                    input.clone().top_k(lit(3i64), keys.clone()),
                    input.clone().top_k(lit(100i64), keys),
                    input.clone().distinct(),
                    input.clone().union_all(input.clone()),
                    input.clone().union_all(empty),
                    input.clone().limit(0),
                    input.clone().limit(2),
                    input.clone().limit(100),
                ] {
                    let fast = execute(&plan, &c).unwrap();
                    let slow = execute_naive(&plan, &c, &Bindings::new()).unwrap();
                    assert_eq!(render(&fast), render(&slow), "{plan:?}");
                    assert_eq!(fast.rows().len(), fast.num_rows());
                }
            }
        }
        let distinct = execute(&Plan::scan("mixed").distinct(), &c).unwrap();
        assert_eq!(distinct.num_rows(), 5);
        let sorted = execute(&Plan::scan("mixed").sort_by("s", SortOrder::Ascending), &c).unwrap();
        assert_eq!(sorted.row(0), &[Value::Null, Value::Int(2), Value::Null][..]);
    }

    #[test]
    fn zero_width_and_empty_tables_keep_their_row_counts() {
        let zero_width = Table::new(Schema::new(Vec::new()), vec![Vec::new(); 3]).unwrap();
        let empty = Table::empty(Schema::from_pairs(&[("a", DataType::Int)]));
        let mut c = Catalog::new();
        c.register("zero_width", zero_width.clone());
        c.register("empty", empty.clone());
        for (name, table, limited, distinct) in
            [("zero_width", zero_width, 2, 1), ("empty", empty, 0, 0)]
        {
            let rows = table.num_rows();
            for input in [Plan::scan(name), Plan::values(table)] {
                for (plan, expected) in [
                    (input.clone().limit(2), limited),
                    (input.clone().limit(0), 0),
                    (input.clone().distinct(), distinct),
                    (input.clone().union_all(input.clone()), 2 * rows),
                    (input.clone().union_all(input.clone()).limit(5), (2 * rows).min(5)),
                ] {
                    let fast = execute(&plan, &c).unwrap();
                    let slow = execute_naive(&plan, &c, &Bindings::new()).unwrap();
                    assert_eq!(fast.num_rows(), expected, "{name}: {plan:?}");
                    assert_eq!(fast.rows().count(), expected, "{name}: {plan:?}");
                    assert_eq!(*fast, *slow, "{name}: {plan:?}");
                }
            }
        }
    }

    #[test]
    fn budget_truncated_grouping_is_a_prefix_of_the_reference() {
        let c = grouping_catalog();
        // A filter above the capped aggregation sees the granted prefix:
        // every group is charged as a candidate, kept or not.
        let keep = col("n").gt_eq(lit(2i64));
        for keys in [&["part"][..], &["a", "b"], &["part", "a", "b", "c", "d"]] {
            for plan in grouping_plans(keys) {
                let full = execute_naive(&plan, &c, &Bindings::new()).unwrap();
                for cap in 0..=full.num_rows() as u64 + 1 {
                    let limits = crate::limits::ExecLimits::new(None, Some(cap));
                    let cut = execute_with_limits(&plan, &c, &Bindings::new(), &limits).unwrap();
                    let kept = full.num_rows().min(cap as usize);
                    let prefix = Table::from_cells_unchecked(
                        full.schema().clone(),
                        full.cells()[..kept * full.width()].to_vec(),
                        kept,
                    );
                    assert_eq!(render(&cut), render(&prefix), "keys {keys:?} cap {cap}");

                    let filtered = plan.clone().filter(keep.clone());
                    let limits = crate::limits::ExecLimits::new(None, Some(cap));
                    let cut =
                        execute_with_limits(&filtered, &c, &Bindings::new(), &limits).unwrap();
                    let expected = Plan::values(prefix).filter(keep.clone());
                    let expected = execute_naive(&expected, &c, &Bindings::new()).unwrap();
                    assert_eq!(render(&cut), render(&expected), "keys {keys:?} cap {cap} filtered");
                    assert_eq!(limits.report().candidates, kept as u64, "keys {keys:?} cap {cap}");
                }
            }
        }
    }
}
