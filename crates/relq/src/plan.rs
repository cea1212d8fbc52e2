//! Logical query plans and a fluent builder.
//!
//! Plans are deliberately logical-only: the executor in [`crate::exec`]
//! evaluates them directly (hash joins, hash aggregation). This mirrors how
//! the paper expresses each similarity predicate as a declarative statement
//! over token/weight tables, leaving execution strategy to the engine.

use crate::agg::{AggFunc, Aggregate};
use crate::expr::Expr;
use crate::table::Table;

/// Direction for a sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    Ascending,
    Descending,
}

/// A projection item: expression plus output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    pub expr: Expr,
    pub alias: String,
}

impl ProjectItem {
    pub fn new(expr: Expr, alias: &str) -> Self {
        ProjectItem { expr, alias: alias.to_string() }
    }
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named table from the catalog (a shared handle — never a copy).
    Scan { table: String },
    /// Use an inline, already-materialized table (e.g. query-time token table).
    Values { table: Table },
    /// A named table parameter of a prepared plan, bound per execution via
    /// [`Bindings::with_table`](crate::Bindings::with_table).
    Param { name: String },
    /// Probe the persistent index of catalog table `base` (built by
    /// [`Catalog::register_indexed`](crate::Catalog::register_indexed)) with
    /// the key values of the `probe` input: for each probe row, only the base
    /// rows whose `base_keys` equal its `probe_keys` are visited. Output rows
    /// are `base ++ probe` columns (probe columns colliding with base names
    /// get `suffix`), exactly like `HashJoin { left: Scan(base), right:
    /// probe }` — but the base relation is never scanned or re-hashed.
    IndexJoin {
        base: String,
        base_keys: Vec<String>,
        probe: Box<Plan>,
        probe_keys: Vec<String>,
        suffix: String,
    },
    /// Keep rows where the predicate evaluates to true.
    Filter { input: Box<Plan>, predicate: Expr },
    /// Compute output columns from expressions.
    Project { input: Box<Plan>, items: Vec<ProjectItem> },
    /// Inner hash equi-join on pairs of key columns. Right-side columns whose
    /// names collide with left-side names are suffixed with `suffix`.
    HashJoin {
        left: Box<Plan>,
        right: Box<Plan>,
        left_keys: Vec<String>,
        right_keys: Vec<String>,
        suffix: String,
    },
    /// Hash aggregation: GROUP BY `group_by` computing `aggregates`.
    Aggregate { input: Box<Plan>, group_by: Vec<String>, aggregates: Vec<Aggregate> },
    /// ORDER BY.
    Sort { input: Box<Plan>, keys: Vec<(String, SortOrder)> },
    /// LIMIT.
    Limit { input: Box<Plan>, count: usize },
    /// The `k` best rows under a multi-key ordering, equivalent to
    /// `Sort { keys } + Limit { k }` (ties beyond the key list keep input
    /// order) but executed with a bounded heap: `O(n log k)` time and `O(k)`
    /// kept rows instead of a full sort. `k` is an expression so prepared
    /// plans can take it as a per-execution scalar parameter; it must not
    /// reference input columns. This is the pushdown target for the
    /// predicate layer's `Exec::TopK`: stacked on the fused
    /// `Aggregate(IndexJoin)` pipeline it selects directly from the
    /// aggregated candidate stream, so top-k cost scales with the number of
    /// candidates kept, never with the base-relation size.
    TopK { input: Box<Plan>, k: Expr, keys: Vec<(String, SortOrder)> },
    /// Top-k over the posting lists of catalog table `base` (added by
    /// [`Catalog::attach_posting`](crate::Catalog::attach_posting)): the
    /// posting-driven alternative to `TopK` over `Aggregate(IndexJoin)` for
    /// scores that are sums of non-negative per-token contributions. The
    /// `probe` input supplies one row per query token — `token_col` joins the
    /// posting lists, `factor_col` scales their contributions (`None` = 1.0)
    /// — and the operator emits the `k` best `(tid, score)` rows,
    /// score-descending with ties by ascending tid, where
    /// `score(tid) = Σ_probe factor · weight(base, tid, token)`.
    ///
    /// Execution sums each tid's contributions in probe order into a dense
    /// accumulator, one window of consecutive tids at a time, and keeps the
    /// `k` best; memory stays O(window + k). Results are byte-identical to
    /// the equivalent `Aggregate + TopK` pipeline, ties included. The naive
    /// executor lowers this node to exhaustive scoring plus sort-and-truncate.
    TopKBounded {
        base: String,
        probe: Box<Plan>,
        token_col: String,
        factor_col: Option<String>,
        k: Expr,
    },
    /// Threshold selection over the posting lists of catalog table `base`:
    /// every `(tid, score)` with `score ≥ τ`, score-descending with ties by
    /// ascending tid, where `score(tid) = Σ_probe factor · weight(base, tid,
    /// token)` exactly as in [`Plan::TopKBounded`]. The posting-driven
    /// alternative to `Filter(score ≥ τ)` over the exhaustive aggregation
    /// pipeline for the same sums.
    ///
    /// Execution is the same windowed dense accumulator, admitting each tid
    /// by the exact `score ≥ τ` test as its window is emitted, so results are
    /// **bit-identical** to the exhaustive score-then-filter pipeline for
    /// every τ, including non-finite ones. The naive executor lowers this
    /// node to exhaustive probe-major scoring plus the same exact filter.
    ///
    /// `tau` is a column-free scalar expression (a literal or a bound
    /// parameter, possibly transformed — e.g. `param(τ).ln()` for scores
    /// selected in log space), evaluated once per execution.
    ThresholdBounded {
        base: String,
        probe: Box<Plan>,
        token_col: String,
        factor_col: Option<String>,
        tau: Expr,
    },
    /// SELECT DISTINCT over all columns.
    Distinct { input: Box<Plan> },
    /// UNION ALL of two union-compatible inputs.
    UnionAll { left: Box<Plan>, right: Box<Plan> },
}

impl Plan {
    /// Scan a catalog table.
    pub fn scan(table: &str) -> Plan {
        Plan::Scan { table: table.to_string() }
    }

    /// Wrap a materialized table as a plan leaf.
    pub fn values(table: Table) -> Plan {
        Plan::Values { table }
    }

    /// A named table parameter (see [`crate::PreparedPlan`]).
    pub fn param(name: &str) -> Plan {
        Plan::Param { name: name.to_string() }
    }

    /// Probe the index of catalog table `base` on `base_keys` with the
    /// `probe` plan's `probe_keys` (suffix `_r` for colliding probe columns).
    pub fn index_join(base: &str, base_keys: &[&str], probe: Plan, probe_keys: &[&str]) -> Plan {
        Plan::IndexJoin {
            base: base.to_string(),
            base_keys: base_keys.iter().map(|s| s.to_string()).collect(),
            probe: Box::new(probe),
            probe_keys: probe_keys.iter().map(|s| s.to_string()).collect(),
            suffix: "_r".to_string(),
        }
    }

    /// Filter rows by a boolean expression.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter { input: Box::new(self), predicate }
    }

    /// Project expressions to named output columns.
    pub fn project(self, items: Vec<(Expr, &str)>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            items: items.into_iter().map(|(e, a)| ProjectItem::new(e, a)).collect(),
        }
    }

    /// Inner equi-join with another plan on equally named key lists.
    pub fn join_on(self, right: Plan, left_keys: &[&str], right_keys: &[&str]) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            suffix: "_r".to_string(),
        }
    }

    /// Inner equi-join with an explicit rename suffix for colliding columns.
    pub fn join_on_with_suffix(
        self,
        right: Plan,
        left_keys: &[&str],
        right_keys: &[&str],
        suffix: &str,
    ) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_keys: left_keys.iter().map(|s| s.to_string()).collect(),
            right_keys: right_keys.iter().map(|s| s.to_string()).collect(),
            suffix: suffix.to_string(),
        }
    }

    /// GROUP BY the named columns and compute aggregates.
    pub fn aggregate(self, group_by: &[&str], aggregates: Vec<(AggFunc, &str)>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggregates: aggregates.into_iter().map(|(f, alias)| Aggregate::new(f, alias)).collect(),
        }
    }

    /// ORDER BY one column.
    pub fn sort_by(self, column: &str, order: SortOrder) -> Plan {
        Plan::Sort { input: Box::new(self), keys: vec![(column.to_string(), order)] }
    }

    /// ORDER BY multiple columns.
    pub fn sort_by_many(self, keys: Vec<(&str, SortOrder)>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys: keys.into_iter().map(|(c, o)| (c.to_string(), o)).collect(),
        }
    }

    /// LIMIT the number of output rows.
    pub fn limit(self, count: usize) -> Plan {
        Plan::Limit { input: Box::new(self), count }
    }

    /// The `k` best rows under the given ordering (heap-based; see
    /// [`Plan::TopK`]). `k` may be a literal or a scalar parameter.
    pub fn top_k(self, k: Expr, keys: Vec<(&str, SortOrder)>) -> Plan {
        Plan::TopK {
            input: Box::new(self),
            k,
            keys: keys.into_iter().map(|(c, o)| (c.to_string(), o)).collect(),
        }
    }

    /// Top-k over the posting lists of `base`, probed by the `probe` plan's
    /// `(token_col, factor_col)` rows (see [`Plan::TopKBounded`]). `k` may
    /// be a literal or a scalar parameter.
    pub fn top_k_bounded(
        base: &str,
        probe: Plan,
        token_col: &str,
        factor_col: Option<&str>,
        k: Expr,
    ) -> Plan {
        Plan::TopKBounded {
            base: base.to_string(),
            probe: Box::new(probe),
            token_col: token_col.to_string(),
            factor_col: factor_col.map(str::to_string),
            k,
        }
    }

    /// Threshold selection over the posting lists of `base`, probed by the
    /// `probe` plan's `(token_col, factor_col)` rows (see
    /// [`Plan::ThresholdBounded`]). `tau` may be a literal or a scalar
    /// parameter expression.
    pub fn threshold_bounded(
        base: &str,
        probe: Plan,
        token_col: &str,
        factor_col: Option<&str>,
        tau: Expr,
    ) -> Plan {
        Plan::ThresholdBounded {
            base: base.to_string(),
            probe: Box::new(probe),
            token_col: token_col.to_string(),
            factor_col: factor_col.map(str::to_string),
            tau,
        }
    }

    /// SELECT DISTINCT.
    pub fn distinct(self) -> Plan {
        Plan::Distinct { input: Box::new(self) }
    }

    /// UNION ALL.
    pub fn union_all(self, right: Plan) -> Plan {
        Plan::UnionAll { left: Box::new(self), right: Box::new(right) }
    }

    /// Number of nodes in the plan tree (used in tests and plan statistics).
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } | Plan::Values { .. } | Plan::Param { .. } => 0,
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Distinct { input } => input.node_count(),
            Plan::IndexJoin { probe, .. }
            | Plan::TopKBounded { probe, .. }
            | Plan::ThresholdBounded { probe, .. } => probe.node_count(),
            Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => {
                left.node_count() + right.node_count()
            }
        }
    }

    /// Names of the catalog tables referenced by the plan.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<String>) {
        match self {
            Plan::Scan { table } => out.push(table.clone()),
            Plan::Values { .. } | Plan::Param { .. } => {}
            Plan::IndexJoin { base, probe, .. }
            | Plan::TopKBounded { base, probe, .. }
            | Plan::ThresholdBounded { base, probe, .. } => {
                out.push(base.clone());
                probe.collect_tables(out);
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::TopK { input, .. }
            | Plan::Distinct { input } => input.collect_tables(out),
            Plan::HashJoin { left, right, .. } | Plan::UnionAll { left, right } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn builder_constructs_expected_tree() {
        let plan = Plan::scan("base_tokens")
            .join_on(Plan::scan("query_tokens"), &["token"], &["token"])
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")])
            .sort_by("score", SortOrder::Descending)
            .limit(10);
        // scan + scan + join + aggregate + sort + limit
        assert_eq!(plan.node_count(), 6);
        let tables = plan.referenced_tables();
        assert_eq!(tables, vec!["base_tokens".to_string(), "query_tokens".to_string()]);
    }

    #[test]
    fn index_join_and_param_nodes() {
        let plan = Plan::index_join("base_tokens", &["token"], Plan::param("query"), &["token"])
            .aggregate(&["tid"], vec![(AggFunc::CountStar, "score")]);
        // index_join + param + aggregate
        assert_eq!(plan.node_count(), 3);
        assert_eq!(plan.referenced_tables(), vec!["base_tokens".to_string()]);
        match &plan {
            Plan::Aggregate { input, .. } => match input.as_ref() {
                Plan::IndexJoin { base, base_keys, probe_keys, suffix, .. } => {
                    assert_eq!(base, "base_tokens");
                    assert_eq!(base_keys, &["token".to_string()]);
                    assert_eq!(probe_keys, &["token".to_string()]);
                    assert_eq!(suffix, "_r");
                }
                other => panic!("expected index join, got {other:?}"),
            },
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn top_k_node_carries_keys_and_parameterized_k() {
        use crate::expr::param;
        let plan = Plan::scan("scores").top_k(
            param("k"),
            vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)],
        );
        assert_eq!(plan.node_count(), 2);
        assert_eq!(plan.referenced_tables(), vec!["scores".to_string()]);
        match plan {
            Plan::TopK { k, keys, .. } => {
                assert!(k.has_params());
                assert_eq!(
                    keys,
                    vec![
                        ("score".to_string(), SortOrder::Descending),
                        ("tid".to_string(), SortOrder::Ascending)
                    ]
                );
            }
            other => panic!("expected TopK, got {other:?}"),
        }
    }

    #[test]
    fn bounded_nodes_carry_their_scalar_parameters() {
        use crate::expr::param;
        let top = Plan::top_k_bounded("w", Plan::param("q"), "token", Some("factor"), param("k"));
        let thr = Plan::threshold_bounded("w", Plan::param("q"), "token", None, param("tau"));
        for plan in [&top, &thr] {
            assert_eq!(plan.node_count(), 2);
            assert_eq!(plan.referenced_tables(), vec!["w".to_string()]);
        }
        match thr {
            Plan::ThresholdBounded { token_col, factor_col, tau, .. } => {
                assert_eq!(token_col, "token");
                assert_eq!(factor_col, None);
                assert!(tau.has_params());
            }
            other => panic!("expected ThresholdBounded, got {other:?}"),
        }
    }

    #[test]
    fn filter_and_project_nodes() {
        let plan = Plan::scan("t")
            .filter(col("x").gt(lit(1i64)))
            .project(vec![(col("x").mul(lit(2i64)), "y")]);
        assert_eq!(plan.node_count(), 3);
        match plan {
            Plan::Project { items, .. } => assert_eq!(items[0].alias, "y"),
            _ => panic!("expected project"),
        }
    }
}
