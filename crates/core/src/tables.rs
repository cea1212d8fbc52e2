//! Builders for the relational tables the declarative predicates register in
//! their catalogs — the analogues of the paper's `BASE_TOKENS`,
//! `BASE_WEIGHTS`, `QUERY_TOKENS`, ... relations (Appendix A/B).
//!
//! Tokens are stored as interned integer ids (see [`crate::dict`]), which
//! keeps the tables compact while preserving the relational structure of the
//! paper's SQL (joins remain plain equi-joins).
//!
//! **Indexed-catalog contract:** predicates register their base relations
//! with `Catalog::register_indexed(name, table, &["token"])` (or the
//! appropriate key), so the token index is built exactly once at
//! preprocessing time; every query-time join against a base relation is a
//! `Plan::IndexJoin` probing that index with the (small) query-side table,
//! executed through a `PreparedPlan` prepared once per process. The eight
//! kernel predicates share one core, `KernelPredicate`, and read their
//! summed table through its posting lists instead in the indexed `Rank`,
//! `TopK` and `Threshold` (`RankingPlans`, `PostingCatalog`); their
//! token-table joins remain the plans of the reference modes.

use crate::corpus::{QueryTokens, TokenizedCorpus};
use crate::dict::TokenId;
use crate::engine::{EngineOps, Exec, Query, SharedArtifacts};
use crate::predicate::PredicateKind;
use crate::record::ScoredTid;
use relq::{
    col, lit, param, Bindings, Catalog, DataType, Expr, Plan, PostingIndex, PreparedPlan, Schema,
    SortOrder, Table, Value,
};
use std::sync::{Arc, OnceLock};

/// A kernel predicate's per-query bindings, `None` for a query with
/// nothing to probe (its answer is empty in every mode).
pub(crate) type Bind = fn(&SharedArtifacts, &Query) -> Option<Bindings>;

/// One of the eight kernel predicates — Xect, Jaccard, WM, WJ, Cosine,
/// BM25, LM and HMM. All eight are the paper's `SUM(weight) … GROUP BY
/// tid` over a token join, some normalized per tuple, so they share one
/// core: the kind's catalogs ([`PostingCatalog`]), its plans prepared once
/// per process ([`RankingPlans`]) and its `bind`, the only per-kind code
/// run at query time. Each predicate's module builds its core from its
/// weight function, plans and catalog.
pub(crate) struct KernelPredicate {
    kind: PredicateKind,
    shared: Arc<SharedArtifacts>,
    catalog: PostingCatalog,
    plans: &'static RankingPlans,
    bind: Bind,
}

impl KernelPredicate {
    pub(crate) fn new(
        kind: PredicateKind,
        shared: Arc<SharedArtifacts>,
        catalog: PostingCatalog,
        plans: &'static RankingPlans,
        bind: Bind,
    ) -> Self {
        KernelPredicate { kind, shared, catalog, plans, bind }
    }
}

impl EngineOps for KernelPredicate {
    fn predicate_kind(&self) -> PredicateKind {
        self.kind
    }

    fn shared_artifacts(&self) -> &SharedArtifacts {
        &self.shared
    }

    fn execute_mode(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &crate::engine::RequestLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let Some(bindings) = (self.bind)(&self.shared, query) else {
            return Ok(Vec::new());
        };
        self.plans.execute(self.catalog.for_exec(exec, naive), bindings, exec, naive, limits)
    }

    fn plan_catalog(&self) -> Option<&Catalog> {
        Some(self.catalog.current())
    }

    #[cfg(test)]
    fn posting_catalog(&self) -> Option<&PostingCatalog> {
        Some(&self.catalog)
    }
}

/// The `query_tokens` binding of a query, `None` when no query token is in
/// the corpus dictionary. `distinct` keeps one row per distinct token
/// (every kernel predicate but HMM); otherwise one per occurrence.
pub(crate) fn bind_query_tokens(query: &Query, distinct: bool) -> Option<Bindings> {
    let q = query.tokens();
    (!q.tokens.is_empty())
        .then(|| Bindings::new().with_table("query_tokens", query_tokens(q, distinct)))
}

/// A bounded predicate's per-(record, token) weight: `weight(record index,
/// token, tf)`, `None` for a pair that stores nothing. Each of the five
/// bounded predicates has exactly one; its weight table ([`base_weights`])
/// and its posting lists ([`postings`]) are both built from it, so the two
/// hold the same bits by construction.
pub(crate) type TokenWeight = dyn Fn(usize, TokenId, u32) -> Option<f64> + Send + Sync;

/// A kernel predicate's two execution catalogs, each built on first use:
///
/// * the **base** catalog — its tables with their `TableIndex`es — for the
///   reference modes (`TopKHeap`, `ThresholdScan`, naive `Rank`) and
///   introspection;
/// * the **posting** catalog, holding the posting lists under the summed
///   table's name plus any per-tuple table the plans join on top (Jaccard's
///   `base_len`, WeightedJaccard's `overlap_len`, the language model's
///   `base_sumcompm`), for indexed `Rank`, `TopK` and `Threshold`: the
///   kernel plans read nothing else.
///
/// A workload of indexed reads never builds a weight table or its token
/// index, and a reference-only one never builds a posting — the per-handle
/// analogue of the engine's lazy shared artifacts.
pub(crate) struct PostingCatalog {
    build_base: Box<dyn Fn() -> Catalog + Send + Sync>,
    build_posting: Box<dyn Fn() -> Catalog + Send + Sync>,
    base: OnceLock<Catalog>,
    posting: OnceLock<Catalog>,
    /// The base catalog with the posting catalog merged in, for
    /// introspection once both exist.
    both: OnceLock<Catalog>,
}

impl PostingCatalog {
    /// The two catalogs of a kernel predicate: `base` builds the base
    /// catalog (or aliases engine-shared tables), `posting` the catalog the
    /// kernel plans run against.
    pub(crate) fn new(
        base: impl Fn() -> Catalog + Send + Sync + 'static,
        posting: impl Fn() -> Catalog + Send + Sync + 'static,
    ) -> Self {
        PostingCatalog {
            build_base: Box::new(base),
            build_posting: Box::new(posting),
            base: OnceLock::new(),
            posting: OnceLock::new(),
            both: OnceLock::new(),
        }
    }

    /// A predicate-private weight table `name(tid, token, weight)`, indexed
    /// on token, and its posting lists, both from the one `weight` function.
    pub(crate) fn private(
        name: &'static str,
        corpus: Arc<TokenizedCorpus>,
        weight: Arc<TokenWeight>,
    ) -> Self {
        let (table_corpus, table_weight) = (corpus.clone(), weight.clone());
        let base = move || {
            let mut catalog = Catalog::new();
            catalog
                .register_indexed(name, base_weights(&table_corpus, &*table_weight), &["token"])
                .expect("weights have a token column");
            catalog
        };
        let posting = move || {
            let mut catalog = Catalog::new();
            catalog.attach_posting(name, Arc::new(postings(&corpus, &*weight)));
            catalog
        };
        Self::new(base, posting)
    }

    /// The catalog to execute `exec` against: the posting catalog for the
    /// modes that run the kernel plans ([`runs_kernel`]), the base catalog
    /// for the reference modes (`TopKHeap`, `ThresholdScan`, naive `Rank`),
    /// which never consult posting lists.
    pub(crate) fn for_exec(&self, exec: Exec, naive: bool) -> &Catalog {
        if runs_kernel(exec, naive) {
            self.posting.get_or_init(&self.build_posting)
        } else {
            self.base()
        }
    }

    /// The base catalog with the posting catalog merged in once some
    /// kernel execution built it — the introspection surface. Builds the
    /// base tables.
    pub(crate) fn current(&self) -> &Catalog {
        match self.posting.get() {
            Some(posting) => self.both.get_or_init(|| {
                let mut catalog = self.base().clone();
                catalog.merge_from(posting);
                catalog
            }),
            None => self.base(),
        }
    }

    /// The base catalog, posting-free by construction.
    pub(crate) fn base(&self) -> &Catalog {
        self.base.get_or_init(&self.build_base)
    }

    /// Whether some kernel execution already built the posting catalog.
    #[cfg(test)]
    pub(crate) fn posting_built(&self) -> bool {
        self.posting.get().is_some()
    }

    /// Whether something already built the base tables.
    #[cfg(test)]
    pub(crate) fn base_built(&self) -> bool {
        self.base.get().is_some()
    }
}

/// Whether a kernel predicate runs `exec` on its kernel plans — the
/// posting-driven [`RankingPlans`] `bounded`/`threshold_bounded` — rather
/// than on the join plans over its base tables: `TopK` and `Threshold`
/// always (the naive executor lowers the kernel nodes to exhaustive
/// scoring), and an indexed `Rank`, which is `TopK(∞)`. Naive `Rank`,
/// `TopKHeap` and `ThresholdScan` stay the independent join-plan
/// references.
fn runs_kernel(exec: Exec, naive: bool) -> bool {
    match exec {
        Exec::TopK(_) | Exec::Threshold(_) => true,
        Exec::Rank => !naive,
        Exec::TopKHeap(_) | Exec::ThresholdScan(_) => false,
    }
}

/// Number of `(tuple, distinct token)` pairs: the row count of every
/// per-token base table, so each one sizes its arena once.
pub(crate) fn token_rows(tc: &TokenizedCorpus) -> usize {
    (0..tc.num_records()).map(|idx| tc.record_tokens(idx).len()).sum()
}

/// `BASE_TOKENS(tid, token)` with *distinct* tokens per tuple, as the paper
/// stores for the unweighted overlap predicates.
pub fn base_tokens_distinct(tc: &TokenizedCorpus) -> Table {
    let schema = Schema::from_pairs(&[("tid", DataType::Int), ("token", DataType::Int)]);
    let mut table = Table::with_capacity(schema, token_rows(tc));
    for idx in 0..tc.num_records() {
        for &(token, _tf) in tc.record_tokens(idx) {
            table.push([Value::Int(idx as i64), Value::Int(token as i64)]).expect("schema matches");
        }
    }
    table
}

/// `BASE_TF(tid, token, tf)` — term frequencies per tuple.
pub fn base_tf(tc: &TokenizedCorpus) -> Table {
    let schema = Schema::from_pairs(&[
        ("tid", DataType::Int),
        ("token", DataType::Int),
        ("tf", DataType::Int),
    ]);
    let mut table = Table::with_capacity(schema, token_rows(tc));
    for idx in 0..tc.num_records() {
        for &(token, tf) in tc.record_tokens(idx) {
            table
                .push([Value::Int(idx as i64), Value::Int(token as i64), Value::Int(tf as i64)])
                .expect("schema matches");
        }
    }
    table
}

/// `BASE_DL(tid, dl)` — number of token occurrences per tuple.
pub fn base_dl(tc: &TokenizedCorpus) -> Table {
    let schema = Schema::from_pairs(&[("tid", DataType::Int), ("dl", DataType::Int)]);
    let mut table = Table::with_capacity(schema, tc.num_records());
    for idx in 0..tc.num_records() {
        table
            .push([Value::Int(idx as i64), Value::Int(tc.record_dl(idx) as i64)])
            .expect("schema matches");
    }
    table
}

/// A generic `BASE_WEIGHTS(tid, token, weight)` table where the weight of
/// each `(tuple, token)` pair is produced by `weight_fn(record_index, token,
/// tf)`. Pairs whose weight is `None` are omitted.
pub fn base_weights<F>(tc: &TokenizedCorpus, mut weight_fn: F) -> Table
where
    F: FnMut(usize, TokenId, u32) -> Option<f64>,
{
    let schema = Schema::from_pairs(&[
        ("tid", DataType::Int),
        ("token", DataType::Int),
        ("weight", DataType::Float),
    ]);
    let mut table = Table::with_capacity(schema, token_rows(tc));
    for idx in 0..tc.num_records() {
        for &(token, tf) in tc.record_tokens(idx) {
            if let Some(w) = weight_fn(idx, token, tf) {
                table
                    .push([Value::Int(idx as i64), Value::Int(token as i64), Value::Float(w)])
                    .expect("schema matches");
            }
        }
    }
    table
}

/// A `(tid, token, <columns>…)` table with one float column per weight
/// lane of `weight_fn(record_index, token, tf)`; pairs whose weights are
/// `None` are omitted. The multi-lane form of [`base_weights`], for a
/// reference table whose postings [`lane_postings`] builds.
pub(crate) fn lane_table<const L: usize, F>(
    tc: &TokenizedCorpus,
    columns: [&str; L],
    mut weight_fn: F,
) -> Table
where
    F: FnMut(usize, TokenId, u32) -> Option<[f64; L]>,
{
    let mut fields = vec![("tid", DataType::Int), ("token", DataType::Int)];
    fields.extend(columns.iter().map(|&column| (column, DataType::Float)));
    let mut table = Table::with_capacity(Schema::from_pairs(&fields), token_rows(tc));
    for idx in 0..tc.num_records() {
        for &(token, tf) in tc.record_tokens(idx) {
            if let Some(weights) = weight_fn(idx, token, tf) {
                let keys = [Value::Int(idx as i64), Value::Int(token as i64)];
                let row: Vec<Value> = keys.into_iter().chain(weights.map(Value::Float)).collect();
                table.push_row(row).expect("schema matches");
            }
        }
    }
    table
}

/// The posting lists of the rows [`base_weights`] stores for the same
/// `weight_fn`, built straight from the tokenized rows: one `(tid, token,
/// weight)` posting per pair the function keeps, with no table in between.
pub(crate) fn postings<F>(tc: &TokenizedCorpus, weight_fn: F) -> PostingIndex
where
    F: Fn(usize, TokenId, u32) -> Option<f64>,
{
    lane_postings(tc, ["score"], |idx, token, tf| weight_fn(idx, token, tf).map(|w| [w]))
}

/// The posting lists of the rows [`lane_table`] stores for the same
/// `weight_fn`, one weight lane per name in `lanes` — the relq kernel sums
/// each lane per tid and names its output columns after them.
pub(crate) fn lane_postings<const L: usize, F>(
    tc: &TokenizedCorpus,
    lanes: [&str; L],
    weight_fn: F,
) -> PostingIndex
where
    F: Fn(usize, TokenId, u32) -> Option<[f64; L]>,
{
    let weight_fn = &weight_fn;
    let rows = (0..tc.num_records()).flat_map(|idx| {
        tc.record_tokens(idx).iter().filter_map(move |&(token, tf)| {
            let weights = weight_fn(idx, token, tf)?;
            Some((idx as i64, Value::Int(token as i64), weights))
        })
    });
    PostingIndex::from_lanes(lanes, rows)
        .expect("token rows are distinct per (token, tid) and finite")
}

/// A generic per-tuple scalar table `(tid, <alias>)`.
pub fn per_tuple_scalar<F>(tc: &TokenizedCorpus, alias: &str, mut value_fn: F) -> Table
where
    F: FnMut(usize) -> f64,
{
    let schema = Schema::from_pairs(&[("tid", DataType::Int), (alias, DataType::Float)]);
    let mut table = Table::with_capacity(schema, tc.num_records());
    for idx in 0..tc.num_records() {
        table.push([Value::Int(idx as i64), Value::Float(value_fn(idx))]).expect("schema matches");
    }
    table
}

/// The distinct words of tuple `idx`, in first-seen order, into `seen`.
pub(crate) fn distinct_record_words(tc: &TokenizedCorpus, idx: usize, seen: &mut Vec<TokenId>) {
    seen.clear();
    for &w in tc.record_words(idx) {
        if !seen.contains(&w) {
            seen.push(w);
        }
    }
}

/// `BASE_WORDS(tid, wtoken)` with *distinct* word tokens per tuple — the
/// word-level analogue of [`base_tokens_distinct`], shared by the filtered
/// GES predicates.
pub fn base_words_distinct(tc: &TokenizedCorpus) -> Table {
    let schema = Schema::from_pairs(&[("tid", DataType::Int), ("wtoken", DataType::Int)]);
    let mut seen: Vec<TokenId> = Vec::new();
    let rows = (0..tc.num_records())
        .map(|idx| {
            distinct_record_words(tc, idx, &mut seen);
            seen.len()
        })
        .sum();
    let mut table = Table::with_capacity(schema, rows);
    for idx in 0..tc.num_records() {
        distinct_record_words(tc, idx, &mut seen);
        for &w in &seen {
            table.push([Value::Int(idx as i64), Value::Int(w as i64)]).expect("schema matches");
        }
    }
    table
}

/// `QUERY_TOKENS(token)` built from tokenized query tokens. When `distinct`
/// is false, one row is emitted per occurrence (the multiplicity-preserving
/// variant used by HMM); unknown tokens are omitted because they cannot join.
pub fn query_tokens(tokens: &QueryTokens, distinct: bool) -> Table {
    let schema = Schema::from_pairs(&[("token", DataType::Int)]);
    let repeats = |tf: u32| if distinct { 1 } else { tf as usize };
    let rows = tokens.tokens.iter().map(|&(_, tf)| repeats(tf)).sum();
    let mut table = Table::with_capacity(schema, rows);
    for &(token, tf) in &tokens.tokens {
        for _ in 0..repeats(tf) {
            table.push([Value::Int(token as i64)]).expect("schema matches");
        }
    }
    table
}

/// `QUERY_WEIGHTS(token, weight)` built from `(token, weight)` pairs.
pub fn query_weights(weights: &[(TokenId, f64)]) -> Table {
    let schema = Schema::from_pairs(&[("token", DataType::Int), ("weight", DataType::Float)]);
    let mut table = Table::with_capacity(schema, weights.len());
    for &(token, w) in weights {
        table.push([Value::Int(token as i64), Value::Float(w)]).expect("schema matches");
    }
    table
}

/// Convert a `(tid, score)` result table into scored results sorted by
/// descending score (ties broken by tid). Fails with
/// [`DaspError::MalformedResult`](crate::DaspError::MalformedResult) when the
/// table does not have the expected shape: a `tid` column holding integers
/// and a `score` column holding numerics (NULL scores are skipped, matching
/// SQL's treatment of empty aggregates).
pub fn try_scores_from_table(table: &Table) -> crate::error::Result<Vec<crate::record::ScoredTid>> {
    use crate::error::DaspError;
    let tid_idx = table
        .schema()
        .index_of("tid")
        .map_err(|_| DaspError::MalformedResult(format!("no tid column in {}", table.schema())))?;
    let score_idx = table.schema().index_of("score").map_err(|_| {
        DaspError::MalformedResult(format!("no score column in {}", table.schema()))
    })?;
    let mut out = Vec::with_capacity(table.num_rows());
    for row in table.rows() {
        let tid = row[tid_idx]
            .as_i64()
            .map_err(|_| DaspError::MalformedResult(format!("non-integer tid {}", row[tid_idx])))?
            as crate::record::Tid;
        let score = match &row[score_idx] {
            Value::Null => continue,
            v => v.as_f64().map_err(|_| {
                DaspError::MalformedResult(format!("non-numeric score {v} for tid {tid}"))
            })?,
        };
        out.push(crate::record::ScoredTid::new(tid, score));
    }
    crate::record::sort_ranked(&mut out);
    Ok(out)
}

/// Infallible variant of [`try_scores_from_table`] for call sites whose plans
/// are statically known to project `(tid, score)`; panics (with the
/// underlying error) when that contract is violated.
pub fn scores_from_table(table: &Table) -> Vec<crate::record::ScoredTid> {
    try_scores_from_table(table).expect("result table has the (tid, score) shape")
}

/// Execute a prepared ranking plan — through the indexed engine under
/// `limits` or, when `naive` is set, the pre-refactor clone-and-hash
/// baseline — and convert its `(tid, score)` output into a sorted ranking.
/// The naive baseline is never budgeted (it is the exhaustive reference
/// anytime answers are checked against); the indexed path threads `limits`
/// into the plan's candidate-scoring operators, which stop cleanly on
/// exhaustion and return the partial built so far.
pub fn run_ranking_plan(
    plan: &relq::PreparedPlan,
    catalog: &relq::Catalog,
    bindings: &relq::Bindings,
    naive: bool,
    limits: &relq::ExecLimits,
) -> crate::error::Result<Vec<crate::record::ScoredTid>> {
    let result = if naive {
        plan.execute_unindexed(catalog, bindings)?
    } else {
        plan.execute(catalog, bindings, limits)?
    };
    try_scores_from_table(&result)
}

/// Scalar parameter carrying `k` into the prepared top-k plan.
pub(crate) const TOP_K_PARAM: &str = "__top_k";
/// Scalar parameter carrying `τ` into the prepared threshold plan.
pub(crate) const THRESHOLD_PARAM: &str = "__threshold";

/// `k` as the plan's scalar row count. A `k` beyond `i64::MAX` saturates
/// (no corpus has that many rows) instead of wrapping negative.
fn top_k_param(k: usize) -> i64 {
    i64::try_from(k).unwrap_or(i64::MAX)
}

/// The prepared execution modes of one `(tid, score)`-producing ranking
/// plan, built once at preprocessing time:
///
/// * `rank` — the join plan as given; conversion sorts the full candidate
///   set. Behind every `Rank` of the predicates without kernel plans; for
///   the kernel predicates only the naive `Rank` reference.
/// * `top_k` — the join plan capped by a heap-based [`Plan::TopK`] on
///   `(score DESC, tid ASC)` with `k` as a scalar parameter, so only the `k`
///   best candidate rows are ever materialized or sorted. Always the plan
///   behind [`Exec::TopKHeap`].
/// * `threshold` — the join plan filtered by `score >= τ` (scalar
///   parameter) before result materialization; always the plan behind
///   [`Exec::ThresholdScan`].
/// * `bounded` (kernel predicates only) — the same scores with the sum per
///   tid computed by the posting kernel
///   ([`Plan::TopKBounded`](relq::Plan::TopKBounded)), selecting the `k`
///   best by [`TOP_K_PARAM`]: the plan behind `Exec::TopK` and, at
///   `k = ∞`, behind the indexed `Exec::Rank`.
/// * `threshold_bounded` (kernel predicates only) — the kernel plan
///   selecting `score ≥ τ` by [`THRESHOLD_PARAM`]; the plan behind
///   [`Exec::Threshold`].
///
/// For the five monotone-sum predicates the kernel node is the whole plan
/// (HMM adds an `exp` projection); Jaccard, WeightedJaccard and the
/// language model join a per-tuple table on top of a `k = ∞` kernel,
/// project their score and keep a heap `TopK` or a `score ≥ τ` filter
/// ([`per_tuple_kernel`](Self::per_tuple_kernel)) — the chain relq runs
/// as its typed finish, with no `Value` row before the heap or filter.
///
/// The plans name only tables and parameters, never the corpus: each
/// predicate prepares its set once per process (a `static`) and every
/// engine shares it, so the fresh engine a live tail gets per append
/// neither prepares nor frees any plan.
///
/// Every mode produces the same scores — the kernel sums each tid's
/// contributions in probe order, as the aggregation does — in the same
/// canonical `(score DESC, tid ASC)` order as [`crate::record::sort_ranked`].
/// That is what makes `TopK`/`TopKHeap` byte-identical to
/// rank-then-truncate, `Threshold`/`ThresholdScan` to rank-then-filter, and
/// the indexed `Rank` to the naive one, for every `k` and τ.
pub(crate) struct RankingPlans {
    rank: PreparedPlan,
    top_k: PreparedPlan,
    threshold: PreparedPlan,
    bounded: Option<PreparedPlan>,
    threshold_bounded: Option<PreparedPlan>,
}

impl RankingPlans {
    /// Prepare all modes of a `(tid, score)` ranking plan (no kernel plans:
    /// `TopK`/`TopKHeap` both run the heap, and `Threshold`/`ThresholdScan`
    /// both run the exhaustive score filter).
    pub(crate) fn new(plan: Plan) -> Self {
        Self::build(plan, None)
    }

    /// Prepare all modes plus the two kernel plans: a top-k plan taking
    /// `k` from [`TOP_K_PARAM`] and a threshold plan taking τ from
    /// [`THRESHOLD_PARAM`] (transformed inside the plan when the predicate
    /// selects in a different score space, e.g. HMM's log-sums). The kernel
    /// predicates execute against a [`PostingCatalog`].
    pub(crate) fn with_bounded(plan: Plan, bounded: Plan, threshold_bounded: Plan) -> Self {
        Self::build(plan, Some((bounded, threshold_bounded)))
    }

    /// Prepare all modes of a predicate whose score is `score`, projected
    /// from the per-tid sums of the posting lists of `base` joined on tid
    /// to the per-tuple table `side`: the kernel plans sum at `k = ∞`, join,
    /// project `(tid, score)` and select with a heap `TopK` or a `score ≥ τ`
    /// filter. `reference` is the join plan computing the same scores from
    /// the base tables, behind naive `Rank`, `TopKHeap` and `ThresholdScan`.
    pub(crate) fn per_tuple_kernel(reference: Plan, base: &str, side: &str, score: Expr) -> Self {
        let kernel =
            Plan::top_k_bounded(base, Plan::param("query_tokens"), "token", None, lit(i64::MAX));
        let scored = Plan::index_join(side, &["tid"], kernel, &["tid"])
            .project(vec![(col("tid"), "tid"), (score, "score")]);
        Self::with_bounded(
            reference,
            scored.clone().top_k(param(TOP_K_PARAM), ranking_keys()),
            scored.filter(col("score").gt_eq(param(THRESHOLD_PARAM))),
        )
    }

    fn build(plan: Plan, bounded: Option<(Plan, Plan)>) -> Self {
        let top_k = plan.clone().top_k(param(TOP_K_PARAM), ranking_keys());
        let threshold = plan.clone().filter(col("score").gt_eq(param(THRESHOLD_PARAM)));
        let (bounded, threshold_bounded) = match bounded {
            Some((b, t)) => (Some(b), Some(t)),
            None => (None, None),
        };
        RankingPlans {
            rank: PreparedPlan::new(plan),
            top_k: PreparedPlan::new(top_k),
            threshold: PreparedPlan::new(threshold),
            bounded: bounded.map(PreparedPlan::new),
            threshold_bounded: threshold_bounded.map(PreparedPlan::new),
        }
    }

    /// Execute the plan for `exec`, adding the mode's scalar parameter to the
    /// per-query bindings. `limits` is the cooperative budget the indexed
    /// candidate-scoring operators charge (see [`run_ranking_plan`]). A
    /// kernel predicate's `catalog` is its [`PostingCatalog::for_exec`].
    pub(crate) fn execute(
        &self,
        catalog: &Catalog,
        bindings: Bindings,
        exec: Exec,
        naive: bool,
        limits: &relq::ExecLimits,
    ) -> crate::error::Result<Vec<crate::record::ScoredTid>> {
        let kernel = runs_kernel(exec, naive);
        let (bounded, threshold_bounded) = (
            self.bounded.as_ref().filter(|_| kernel),
            self.threshold_bounded.as_ref().filter(|_| kernel),
        );
        let (plan, bindings) = match exec {
            // A full rank is `TopK(∞)`.
            Exec::Rank => match bounded {
                Some(plan) => (plan, bindings.with_scalar(TOP_K_PARAM, i64::MAX)),
                None => (&self.rank, bindings),
            },
            Exec::TopK(k) | Exec::TopKHeap(k) => {
                (bounded.unwrap_or(&self.top_k), bindings.with_scalar(TOP_K_PARAM, top_k_param(k)))
            }
            Exec::Threshold(tau) | Exec::ThresholdScan(tau) => {
                let plan = threshold_bounded.unwrap_or(&self.threshold);
                (plan, bindings.with_scalar(THRESHOLD_PARAM, tau))
            }
        };
        run_ranking_plan(plan, catalog, &bindings, naive, limits)
    }
}

/// The canonical `(score DESC, tid ASC)` ranking order as heap `TopK` keys.
pub(crate) fn ranking_keys() -> Vec<(&'static str, SortOrder)> {
    vec![("score", SortOrder::Descending), ("tid", SortOrder::Ascending)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use dasp_text::QgramConfig;

    fn tc() -> TokenizedCorpus {
        TokenizedCorpus::build(Corpus::from_strings(vec!["ab ab", "cd"]), QgramConfig::new(2))
    }

    #[test]
    fn base_tables_have_expected_shapes() {
        let tc = tc();
        let tokens = base_tokens_distinct(&tc);
        let tf = base_tf(&tc);
        let dl = base_dl(&tc);
        // Distinct table has one row per distinct (tid, token).
        assert_eq!(tokens.num_rows(), tc.record_tokens(0).len() + tc.record_tokens(1).len());
        assert_eq!(tf.num_rows(), tokens.num_rows());
        assert_eq!(dl.num_rows(), 2);
        // dl matches the recorded lengths.
        assert_eq!(dl.value(0, "dl").unwrap().as_i64().unwrap(), tc.record_dl(0) as i64);
    }

    #[test]
    fn weights_table_skips_none() {
        let tc = tc();
        let table = base_weights(&tc, |_, token, _| if token == 0 { None } else { Some(1.5) });
        assert!(table.num_rows() > 0);
        for row in table.rows() {
            assert_ne!(row[1].as_i64().unwrap(), 0);
            assert_eq!(row[2].as_f64().unwrap(), 1.5);
        }
    }

    #[test]
    fn query_tables_respect_multiplicity() {
        let tc = tc();
        let q = tc.tokenize_query("ab ab");
        let distinct = query_tokens(&q, true);
        let multi = query_tokens(&q, false);
        assert!(multi.num_rows() >= distinct.num_rows());
        let weights = query_weights(&[(0, 0.5), (1, 0.25)]);
        assert_eq!(weights.num_rows(), 2);
    }

    #[test]
    fn scores_from_table_sorts_descending() {
        let schema = Schema::from_pairs(&[("tid", DataType::Int), ("score", DataType::Float)]);
        let mut t = Table::empty(schema);
        t.push_row(vec![Value::Int(1), Value::Float(0.5)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Float(0.9)]).unwrap();
        t.push_row(vec![Value::Int(3), Value::Null]).unwrap();
        let scores = scores_from_table(&t);
        assert_eq!(scores.len(), 2);
        assert_eq!(scores[0].tid, 2);
    }

    #[test]
    fn malformed_result_tables_are_reported_not_panicked() {
        use crate::error::DaspError;
        // Missing score column.
        let schema = Schema::from_pairs(&[("tid", DataType::Int), ("value", DataType::Float)]);
        let t = Table::empty(schema);
        assert!(matches!(
            try_scores_from_table(&t),
            Err(DaspError::MalformedResult(m)) if m.contains("score")
        ));
        // Missing tid column.
        let t = Table::empty(Schema::from_pairs(&[("score", DataType::Float)]));
        assert!(matches!(
            try_scores_from_table(&t),
            Err(DaspError::MalformedResult(m)) if m.contains("tid")
        ));
        // Non-integer tid.
        let schema = Schema::from_pairs(&[("tid", DataType::Str), ("score", DataType::Float)]);
        let mut t = Table::empty(schema);
        t.push_row(vec![Value::Str("x".into()), Value::Float(0.5)]).unwrap();
        assert!(matches!(try_scores_from_table(&t), Err(DaspError::MalformedResult(_))));
        // Non-numeric score.
        let schema = Schema::from_pairs(&[("tid", DataType::Int), ("score", DataType::Str)]);
        let mut t = Table::empty(schema);
        t.push_row(vec![Value::Int(1), Value::Str("oops".into())]).unwrap();
        assert!(matches!(try_scores_from_table(&t), Err(DaspError::MalformedResult(_))));
    }

    #[test]
    fn per_tuple_scalar_emits_one_row_per_record() {
        let tc = tc();
        let t = per_tuple_scalar(&tc, "sumcompm", |idx| -(idx as f64));
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, "sumcompm").unwrap().as_f64().unwrap(), -1.0);
    }
}
