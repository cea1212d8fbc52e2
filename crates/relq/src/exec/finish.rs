//! The typed finish of the kernel chain: `TopK | Filter` over
//! `Project(IndexJoin(per-tid table, TopKBounded))`, run on typed columns.
//!
//! This is the shape of a score normalized per tuple after a grouped sum —
//! Jaccard's and WeightedJaccard's `inter / (len + |Q| − inter)`, the
//! language model's `exp(Σ log pm − Σ log(1 − pm) − Σ log cf/cs + sumcompm)`.
//! Run operator by operator, every touched tid becomes a `Value` row three
//! times (kernel output, joined row, projected row) before the heap or the
//! filter keeps a few. The typed finish keeps them typed instead:
//!
//! * the kernel's per-tid sums stay `(tid, f64…)` rows in ascending tid
//!   order ([`sum_windowed`]), never sorted;
//! * the per-tid table is probed through its index's dense key → row array
//!   ([`TableIndex::dense_row`](crate::TableIndex::dense_row));
//! * the projection runs a column at a time over the joined rows through
//!   [`FloatExpr::evaluate_columns`], the same arithmetic as the `Value`
//!   evaluator, so every score has its bits;
//! * the selection compares `f64` keys encoded as integers and the filter
//!   tests `f64 ≥ τ`; only the kept rows become cells.
//!
//! The result is the unfused pipeline's table, row for row: the join emits
//! in kernel order (the bounded operators' ranking: first lane descending,
//! tid ascending), so key ties and filtered rows are ordered by it here
//! too. A chain outside the typed
//! fragment (a projection item outside the float fragment, a key or filter
//! of another shape, a per-tid table without dense keys, an unbound
//! parameter) returns `None` before running anything, and the caller runs
//! the operators one by one. Budgets and fault sites are the kernel's.

use super::{
    admits, eval, eval_top_k_count, gather_probes, resolve, sum_windowed, ExecCtx, Select,
};
use crate::error::Result;
use crate::expr::{leaf_f64, BinaryOp, Expr, FloatExpr, FloatExprType};
use crate::plan::{Plan, ProjectItem, SortOrder};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};

/// The selection on top of the chain.
pub(super) enum Finish<'p> {
    /// `TopK { k, keys }` with `k` already evaluated.
    TopK { k: usize, keys: &'p [(String, SortOrder)] },
    /// `Filter { predicate }`.
    Filter(&'p Expr),
}

/// Where a projected bare column reads its cell.
enum Source {
    /// A column of the per-tid table.
    Side(usize),
    /// The kernel's tid (or the per-tid table's join key, equal to it).
    Tid,
    /// A kernel lane.
    Lane(usize),
}

/// One projection item: a bare column, or a float-fragment expression
/// whose `f64` lands in slot `.1` of the row's computed values.
enum Item {
    Column(Source),
    Float(FloatExpr, usize),
}

/// A sort key over the joined row: a computed float, the tid, or the
/// kernel's first lane (descending; the kernel order's leading key).
#[derive(Clone, Copy)]
enum Key {
    Float(usize, SortOrder),
    Tid(SortOrder),
    FirstLane,
}

impl Key {
    fn descending(self) -> bool {
        match self {
            Key::Float(_, order) | Key::Tid(order) => order == SortOrder::Descending,
            Key::FirstLane => true,
        }
    }
}

/// What the finish keeps: the `k` best under `keys`, or the rows whose
/// computed float in a slot is not below a bar (`None`: a NULL bar, which
/// admits nothing).
enum Selection {
    TopK(usize, Vec<Key>),
    AtLeast(usize, Option<f64>),
}

/// Run `finish` over `input` on typed columns, or return `None` (having
/// run nothing) when `input` is not a `Project(IndexJoin(per-tid table,
/// TopKBounded))` chain inside the typed fragment.
pub(super) fn typed_finish(ctx: &ExecCtx, input: &Plan, finish: Finish) -> Result<Option<Table>> {
    let Plan::Project { input: join, items } = input else { return Ok(None) };
    let Plan::IndexJoin { base: side, base_keys, probe: kernel, probe_keys, suffix } =
        join.as_ref()
    else {
        return Ok(None);
    };
    let Plan::TopKBounded { base, probe, token_col, factor_col, k: kernel_k } = kernel.as_ref()
    else {
        return Ok(None);
    };
    if base_keys.len() != 1 || probe_keys.len() != 1 || probe_keys[0] != "tid" {
        return Ok(None);
    }
    let (Ok(side_table), Some(index), Some(posting)) = (
        ctx.catalog.get(side),
        ctx.catalog.index_for(side, base_keys),
        ctx.catalog.posting_for(base),
    ) else {
        return Ok(None);
    };
    let Ok(key_col) = side_table.schema().index_of(&base_keys[0]) else { return Ok(None) };
    if !index.has_dense_keys() {
        return Ok(None);
    }
    let lanes = posting.lanes();
    let mut kernel_fields = vec![Field::new("tid", DataType::Int)];
    kernel_fields.extend(lanes.iter().map(|lane| Field::new(lane.clone(), DataType::Float)));
    let joined = side_table.schema().join(&Schema::new(kernel_fields), suffix);
    let split = side_table.schema().len();
    let Some((compiled, out_schema)) = compile_items(ctx, items, &joined, split, key_col) else {
        return Ok(None);
    };
    let Some(selection) = compile_selection(ctx, &finish, &compiled, &out_schema) else {
        return Ok(None);
    };
    #[cfg(test)]
    tests::TYPED_RUNS.with(|runs| runs.set(runs.get() + 1));

    let probe = eval(probe, ctx)?;
    let probes = gather_probes(posting, probe.as_table(), token_col, factor_col.as_deref())?;
    let kernel_k = eval_top_k_count(kernel_k, ctx)?;
    let mut sums = sum_windowed(&probes, lanes.len(), Select::TopK(kernel_k), ctx.limits)?;
    sums.keep_best(kernel_k);

    // Join: each kernel row to its per-tid row through the dense key
    // array; a tid without one drops out, as in the inner join.
    let (mut kernel_rows, mut side_rows) = (Vec::new(), Vec::new());
    for kernel_row in 0..sums.len() {
        if let Some(side_row) = index.dense_row(sums.tid(kernel_row)) {
            kernel_rows.push(kernel_row);
            side_rows.push(side_row);
        }
    }
    // Project: each float item, a column at a time over the joined rows.
    let column = |idx: usize| match idx.checked_sub(split) {
        None => side_rows.iter().map(|&row| leaf_f64(&side_table.row(row)[idx])).collect(),
        Some(0) => Ok(kernel_rows.iter().map(|&row| Some(sums.tid(row) as f64)).collect()),
        Some(lane) => Ok(kernel_rows.iter().map(|&row| Some(sums.row(row)[lane - 1])).collect()),
    };
    let floats: Vec<Vec<Option<f64>>> = (compiled.iter())
        .filter_map(|item| match item {
            Item::Float(float, _) => Some(float.evaluate_columns(kernel_rows.len(), &column)),
            Item::Column(_) => None,
        })
        .collect::<Result<_>>()?;

    // Select: the filter's survivors in the kernel order, or the `k` best
    // under the keys, each key's tie broken by the next and the last ones
    // by the kernel order (first lane descending, tid ascending) — the
    // unfused pipeline's input order — unless a tid key makes the keys
    // total already.
    let mut rows: Vec<u32> = (0..kernel_rows.len() as u32).collect();
    let (k, mut keys) = match selection {
        Selection::TopK(k, keys) => (k, keys),
        Selection::AtLeast(slot, bar) => {
            rows.retain(|&row| match (floats[slot][row as usize], bar) {
                (Some(score), Some(bar)) => admits(score, bar),
                _ => false,
            });
            (usize::MAX, Vec::new())
        }
    };
    if !keys.iter().any(|key| matches!(key, Key::Tid(_))) {
        keys.extend([Key::FirstLane, Key::Tid(SortOrder::Ascending)]);
    }
    let codes: Vec<Vec<Option<u64>>> = (keys.iter())
        .map(|key| match *key {
            Key::Float(slot, _) => floats[slot].iter().map(|v| v.map(total_order)).collect(),
            Key::Tid(_) => {
                kernel_rows.iter().map(|&row| Some(sums.tid(row) as u64 ^ 1 << 63)).collect()
            }
            Key::FirstLane => {
                kernel_rows.iter().map(|&row| Some(total_order(sums.row(row)[0]))).collect()
            }
        })
        .collect();
    let kept = select(rows, k, &keys, &codes);

    let (n, mut cells) = (kept.len(), Vec::with_capacity(kept.len() * compiled.len()));
    for row in kept {
        let (kernel_row, side_row) = (kernel_rows[row as usize], side_rows[row as usize]);
        cells.extend(compiled.iter().map(|item| match item {
            Item::Column(Source::Side(idx)) => side_table.row(side_row)[*idx].clone(),
            Item::Column(Source::Tid) => Value::Int(sums.tid(kernel_row)),
            Item::Column(Source::Lane(lane)) => Value::Float(sums.row(kernel_row)[*lane]),
            Item::Float(_, slot) => floats[*slot][row as usize].map_or(Value::Null, Value::Float),
        }));
    }
    Ok(Some(Table::from_cells_unchecked(out_schema, cells, n)))
}

/// The `k` best of `rows` (all of them when `k` keeps every row) in the
/// order of `keys`, whose codes per joined row are `codes` (`None`: NULL,
/// which sorts first). Up to two leading keys no row holds NULL in pack
/// into one `u128` compared first; the rest compare as a slice of `u128`s
/// (NULL 0, a value `1 + its code`). Descending keys are complemented.
fn select(rows: Vec<u32>, k: usize, keys: &[Key], codes: &[Vec<Option<u64>>]) -> Vec<u32> {
    let packed = (codes.iter().take(2))
        .take_while(|codes| rows.iter().all(|&row| codes[row as usize].is_some()))
        .count();
    let stride = keys.len() - packed;
    let mut rest: Vec<u128> = Vec::with_capacity(rows.len() * stride);
    let mut leads: Vec<(u128, u32)> = Vec::with_capacity(rows.len());
    for (at, &row) in rows.iter().enumerate() {
        let mut lead = 0u128;
        for (key, codes) in keys.iter().zip(codes).take(packed) {
            let code = codes[row as usize].expect("packed keys hold no NULL");
            lead = lead << 64 | u128::from(if key.descending() { !code } else { code });
        }
        leads.push((lead, at as u32));
        for (key, codes) in keys.iter().zip(codes).skip(packed) {
            let code = codes[row as usize].map_or(0, |code| 1 + u128::from(code));
            rest.push(if key.descending() { !code } else { code });
        }
    }
    // With every key packed, `(lead, at)` compares as the key order (the
    // leads of distinct rows differ: the keys end in the tid).
    let rest_of = |at: u32| &rest[at as usize * stride..(at as usize + 1) * stride];
    let order = |a: &(u128, u32), b: &(u128, u32)| match stride {
        0 => a.cmp(b),
        _ => a.0.cmp(&b.0).then_with(|| rest_of(a.1).cmp(rest_of(b.1))),
    };
    if k < leads.len() {
        leads.select_nth_unstable_by(k, order);
        leads.truncate(k);
    }
    leads.sort_unstable_by(order);
    leads.into_iter().map(|(_, at)| rows[at as usize]).collect()
}

/// Compile the projection items against the joined schema, or `None` when
/// one falls outside the typed fragment. Also returns the output schema,
/// typed as the `Project` operator types it.
fn compile_items(
    ctx: &ExecCtx,
    items: &[ProjectItem],
    joined: &Schema,
    split: usize,
    key_col: usize,
) -> Option<(Vec<Item>, Schema)> {
    let (mut compiled, mut fields, mut floats) = (Vec::new(), Vec::new(), 0);
    for item in items {
        let expr = resolve(&item.expr, ctx).ok()?;
        compiled.push(match expr.as_ref() {
            Expr::Column(name) => {
                let idx = joined.index_of(name).ok()?;
                Item::Column(match idx {
                    _ if idx == key_col || idx == split => Source::Tid,
                    _ if idx < split => Source::Side(idx),
                    _ => Source::Lane(idx - split - 1),
                })
            }
            expr => match FloatExpr::from_expr(expr, joined)? {
                (float, FloatExprType::Float) => {
                    floats += 1;
                    Item::Float(float, floats - 1)
                }
                (_, FloatExprType::IntLeaf) => return None,
            },
        });
        // A float-fragment item is Float or NULL; `Project` types a column
        // it cannot derive statically from its first row, NULL as Float.
        let dtype = expr.output_type(joined).unwrap_or(DataType::Float);
        fields.push(Field::new(item.alias.clone(), dtype));
    }
    Some((compiled, Schema::new(fields)))
}

/// Compile the selection against the projected row, or `None` outside the
/// typed fragment: `TopK` keys must be computed floats or the tid, and a
/// filter must be `column ≥ scalar` over a computed float.
fn compile_selection(
    ctx: &ExecCtx,
    finish: &Finish,
    items: &[Item],
    out_schema: &Schema,
) -> Option<Selection> {
    let item = |name: &str| items.get(out_schema.index_of(name).ok()?);
    match finish {
        Finish::TopK { k, keys } => {
            let keys = keys
                .iter()
                .map(|(name, order)| match item(name)? {
                    Item::Float(_, slot) => Some(Key::Float(*slot, *order)),
                    Item::Column(Source::Tid) => Some(Key::Tid(*order)),
                    Item::Column(_) => None,
                })
                .collect::<Option<_>>()?;
            Some(Selection::TopK(*k, keys))
        }
        Finish::Filter(predicate) => {
            let predicate = resolve(predicate, ctx).ok()?;
            let Expr::Binary { op: BinaryOp::GtEq, left, right } = predicate.as_ref() else {
                return None;
            };
            let (Expr::Column(name), Expr::Literal(bar)) = (left.as_ref(), right.as_ref()) else {
                return None;
            };
            let Item::Float(_, slot) = item(name)? else { return None };
            // The filter's `≥` compares numerics as `f64`s and is false
            // against NULL.
            let bar = match bar {
                Value::Null => None,
                Value::Int(_) | Value::Float(_) => Some(bar.as_f64().ok()?),
                Value::Str(_) => return None,
            };
            Some(Selection::AtLeast(*slot, bar))
        }
    }
}

/// A float as an unsigned integer in `f64::total_cmp` order (negatives
/// bit-flipped, positives sign-flipped) — with NULL first, the plan-level
/// order of `Value::Float` sort keys.
fn total_order(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    //! The typed finish against the same chain run operator by operator
    //! (the kernel alone, then the finish over its materialized rows, which
    //! no longer has the typed shape) and against the naive executor.
    use crate::bindings::Bindings;
    use crate::catalog::Catalog;
    use crate::exec::{execute_naive, execute_with_limits};
    use crate::expr::{col, lit, param};
    use crate::limits::ExecLimits;
    use crate::plan::{Plan, SortOrder};
    use crate::posting::PostingIndex;
    use crate::table::{Table, TableBuilder};
    use crate::value::{DataType, Value};
    use std::cell::Cell;

    thread_local! {
        /// Typed finishes run on this thread: the tests' proof that a chain
        /// took the typed path rather than the operators it is checked
        /// against.
        pub(super) static TYPED_RUNS: Cell<usize> = const { Cell::new(0) };
    }

    /// Debug rendering: tells `Int(1)` from `Float(1.0)` and `-0.0` from
    /// `0.0`, so equal renderings are byte-identical tables.
    fn render(t: &Table) -> String {
        format!("{:?} {:?}", t.schema(), t.rows())
    }

    /// A per-tid table `side(tid, len)` over tids 0..40 without 7 and 30,
    /// single-lane postings `w` and three-lane postings `m` (signed lanes)
    /// over tids 0..45 — tids 7, 30 and 40.. have no side row.
    fn catalog() -> Catalog {
        let mut side =
            TableBuilder::new().column("tid", DataType::Int).column("len", DataType::Float);
        for tid in (0..40i64).filter(|&t| t != 7 && t != 30) {
            side = side.row(vec![tid.into(), (1.0 + (tid % 5) as f64).into()]);
        }
        let mut c = Catalog::new();
        c.register_indexed("side", side.build().unwrap(), &["tid"]).unwrap();
        let mut rows = Vec::new();
        for token in 0..4i64 {
            for tid in (token..45).step_by(1 + token as usize) {
                let w = 0.25 + ((tid * 7 + token * 3) % 11) as f64 / 8.0;
                rows.push((tid, token, w));
            }
        }
        // Token 9 holds only `-1.0`: scaled by a zero factor, its first
        // contribution is `-0.0`.
        rows.push((2, 9, -1.0));
        let w = PostingIndex::from_rows(rows.iter().map(|&(t, k, w)| (t, Value::Int(k), w)));
        c.attach_posting("w", std::sync::Arc::new(w.unwrap()));
        let m = PostingIndex::from_lanes(
            ["a", "b", "c"],
            rows.iter().map(|&(t, k, w)| (t, Value::Int(k), [-w, w / 3.0, (t as f64).sin()])),
        );
        c.attach_posting("m", std::sync::Arc::new(m.unwrap()));
        c
    }

    fn probe(rows: &[(i64, f64)]) -> Table {
        let mut t = TableBuilder::new().column("token", DataType::Int).column("f", DataType::Float);
        for &(token, factor) in rows {
            t = t.row(vec![token.into(), factor.into()]);
        }
        t.build().unwrap()
    }

    fn kernel(base: &str) -> Plan {
        Plan::top_k_bounded(base, Plan::param("q"), "token", Some("f"), param("kk"))
    }

    /// `Project(IndexJoin(side, kernel))` scoring a normalized sum (`w`) or
    /// an exponentiated lane mix (`m`).
    fn scored(base: &str, kernel: Plan) -> Plan {
        let score = match base {
            "w" => {
                col("score").div(col("len").add(param("ql")).sub(col("score")).greatest(lit(1e-9)))
            }
            _ => col("a").sub(col("b")).sub(col("c")).add(col("len")).exp(),
        };
        Plan::index_join("side", &["tid"], kernel, &["tid"]).project(vec![
            (col("tid"), "tid"),
            (score, "score"),
            (col("len"), "len"),
        ])
    }

    fn finishes(chain: Plan) -> Vec<Plan> {
        let keys = vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)];
        vec![
            chain.clone().top_k(param("k"), keys),
            // A key list that leaves ties to the kernel order.
            chain.clone().top_k(param("k"), vec![("score", SortOrder::Ascending)]),
            chain.filter(col("score").gt_eq(param("tau"))),
        ]
    }

    /// Every finish of both chains under `bindings` and a fresh cap of
    /// `cap` candidates: typed ≡ operator by operator (with equal budget
    /// reports), and uncapped also ≡ naive.
    fn assert_chains(c: &Catalog, bindings: &Bindings, cap: Option<u64>) {
        for base in ["w", "m"] {
            let typed_plans = finishes(scored(base, kernel(base)));
            let limits = ExecLimits::new(None, cap);
            let sums = execute_with_limits(&kernel(base), c, bindings, &limits).unwrap();
            let split_plans = finishes(scored(base, Plan::values((*sums).clone())));
            for (typed, split) in typed_plans.iter().zip(&split_plans) {
                let typed_limits = ExecLimits::new(None, cap);
                let runs = TYPED_RUNS.with(Cell::get);
                let got = execute_with_limits(typed, c, bindings, &typed_limits).unwrap();
                assert_eq!(TYPED_RUNS.with(Cell::get), runs + 1, "{typed:?} ran untyped");
                let want =
                    execute_with_limits(split, c, bindings, &ExecLimits::unlimited()).unwrap();
                assert_eq!(render(&got), render(&want), "{base} cap={cap:?} {typed:?}");
                assert_eq!(typed_limits.report().candidates, limits.report().candidates);
                assert_eq!(typed_limits.exhausted(), limits.exhausted());
                if cap.is_none() {
                    let naive = execute_naive(typed, c, bindings).unwrap();
                    assert_eq!(render(&got), render(&naive), "{base} naive {typed:?}");
                }
            }
        }
    }

    fn bindings(q: &[(i64, f64)], kk: i64, k: i64, tau: f64) -> Bindings {
        Bindings::new()
            .with_table("q", probe(q))
            .with_scalar("kk", kk)
            .with_scalar("k", k)
            .with_scalar("tau", tau)
            .with_scalar("ql", 2.5)
    }

    const QUERY: [(i64, f64); 5] = [(0, 1.0), (2, 0.5), (5, 1.0), (1, 2.0), (0, 0.25)];

    #[test]
    fn typed_finish_matches_the_unfused_and_naive_chains() {
        let c = catalog();
        for (kk, k) in [(i64::MAX, 0), (i64::MAX, 1), (i64::MAX, 4), (i64::MAX, i64::MAX), (5, 3)] {
            for tau in [f64::NEG_INFINITY, 0.1, 0.5, 1.0, f64::INFINITY, f64::NAN] {
                assert_chains(&c, &bindings(&QUERY, kk, k, tau), None);
            }
        }
        // The chain has the typed shape: tids 7, 30 and 40.. reach the
        // kernel but have no side row, so the inner join drops them.
        let all = execute_with_limits(
            &finishes(scored("w", kernel("w")))[0],
            &c,
            &bindings(&QUERY, i64::MAX, i64::MAX, 0.0),
            &ExecLimits::unlimited(),
        )
        .unwrap();
        let tids: Vec<i64> = all.rows().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(tids.len(), 38);
        assert!(!tids.iter().any(|t| [7, 30].contains(t) || *t >= 40));
    }

    #[test]
    fn every_candidate_cap_keeps_an_exact_tid_prefix() {
        let c = catalog();
        for cap in 0..=46 {
            assert_chains(&c, &bindings(&QUERY, i64::MAX, 3, 0.5), Some(cap));
        }
    }

    #[test]
    fn an_empty_probe_and_unknown_tokens_finish_empty() {
        let c = catalog();
        for q in [&[][..], &[(42, 1.0), (43, 0.5)]] {
            assert_chains(&c, &bindings(q, i64::MAX, 10, f64::NEG_INFINITY), None);
            let plan = &finishes(scored("m", kernel("m")))[2];
            let got = execute_with_limits(
                plan,
                &c,
                &bindings(q, i64::MAX, 10, f64::NEG_INFINITY),
                &ExecLimits::unlimited(),
            );
            assert_eq!(got.unwrap().num_rows(), 0);
        }
    }

    #[test]
    fn a_signed_zero_first_contribution_keeps_its_sign() {
        let c = catalog();
        // Tid 2 sums `0 × -1.0 = -0.0` first; nothing else touches it.
        let q = [(9, 0.0)];
        assert_chains(&c, &bindings(&q, i64::MAX, 10, f64::NEG_INFINITY), None);
        let plan = Plan::index_join("side", &["tid"], kernel("w"), &["tid"])
            .project(vec![(col("tid"), "tid"), (col("score").mul(lit(1.0)), "score")])
            .top_k(param("k"), vec![("score", SortOrder::Descending)]);
        let got = execute_with_limits(
            &plan,
            &c,
            &bindings(&q, i64::MAX, 10, 0.0),
            &ExecLimits::unlimited(),
        );
        assert_eq!(
            got.unwrap().rows().next().unwrap()[1].as_f64().unwrap().to_bits(),
            (-0f64).to_bits()
        );
    }
}
