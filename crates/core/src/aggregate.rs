//! Aggregate weighted predicates (§3.2 / §4.2): tf-idf cosine similarity and
//! BM25. Both share the query-time shape of Figure 4.3: a single join of
//! `BASE_WEIGHTS` with `QUERY_WEIGHTS` followed by `SUM(w_d * w_q)` per tid.
//!
//! **Shared-artifact contract:** each predicate has one per-(record, token)
//! weight function (`cosine_weight`, `bm25_weight`) and builds both of
//! its private artifacts from it, each on first use: the weight table
//! `cosine_weights` / `bm25_weights` indexed on token (for the reference
//! modes — naive `Rank`, `TopKHeap`, `ThresholdScan` — and introspection),
//! and the tid-ordered posting lists of the same rows, built straight from
//! the tokenized rows (for the indexed `Rank`, `TopK` and `Threshold`). The
//! two hold the same weight bits by construction, and a workload of indexed
//! reads never builds the table. Nothing from the shared phase-1 tables is
//! referenced, so neither predicate forces any of them to build. The
//! weight-product plans are prepared once per process in every
//! [`Exec`](crate::Exec) mode; execution binds the per-query `QUERY_WEIGHTS` table.
//!
//! **Kernel execution:** both scores are sums of non-negative `w_d · w_q`
//! products per tid, so the indexed `Exec::Rank` (as `TopK(∞)`) and
//! `Exec::TopK` run [`relq::Plan::TopKBounded`] and `Exec::Threshold`
//! runs [`relq::Plan::ThresholdBounded`], which sum the query-weight-scaled
//! posting weights in relq's windowed dense accumulator.

use crate::corpus::{QueryTokens, TokenizedCorpus};
use crate::dict::TokenId;
use crate::engine::SharedArtifacts;
use crate::params::Bm25Params;
use crate::predicate::PredicateKind;
use crate::tables::{self, KernelPredicate, PostingCatalog, RankingPlans, TokenWeight};
use crate::tables::{THRESHOLD_PARAM, TOP_K_PARAM};
use relq::{col, param, AggFunc, Bindings, Plan};
use std::sync::{Arc, OnceLock};

/// A kernel predicate over the private `(tid, token, weight)` table `name`
/// built from `weight` (see [`PostingCatalog::private`]) with the shared
/// aggregate-weighted plan — join with query weights on token and sum the
/// weight products per tuple — plus its posting-driven top-k and threshold
/// variants, prepared once per process in `plans`. `bind` binds the
/// query's `QUERY_WEIGHTS`.
fn weight_product(
    kind: PredicateKind,
    shared: Arc<SharedArtifacts>,
    name: &'static str,
    weight: Arc<TokenWeight>,
    plans: &'static OnceLock<RankingPlans>,
    bind: tables::Bind,
) -> KernelPredicate {
    let catalog = PostingCatalog::private(name, shared.corpus().clone(), weight);
    let plans = plans.get_or_init(|| weight_product_plans(name));
    KernelPredicate::new(kind, shared, catalog, plans, bind)
}

/// The prepared plans of [`weight_product`] over table `name`.
fn weight_product_plans(name: &'static str) -> RankingPlans {
    let plan = Plan::index_join(name, &["token"], Plan::param("query_weights"), &["token"])
        .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight").mul(col("weight_r"))), "score")]);
    let bounded = Plan::top_k_bounded(
        name,
        Plan::param("query_weights"),
        "token",
        Some("weight"),
        param(TOP_K_PARAM),
    );
    let threshold_bounded = Plan::threshold_bounded(
        name,
        Plan::param("query_weights"),
        "token",
        Some("weight"),
        param(THRESHOLD_PARAM),
    );
    RankingPlans::with_bounded(plan, bounded, threshold_bounded)
}

/// The `QUERY_WEIGHTS` binding of one query's weights, `None` when it has
/// none.
fn bind_query_weights(query_weights: Vec<(TokenId, f64)>) -> Option<Bindings> {
    (!query_weights.is_empty())
        .then(|| Bindings::new().with_table("query_weights", tables::query_weights(&query_weights)))
}

/// Cosine's per-(record, token) weight: `tf · idf / ‖D‖`, with the tuple's
/// normalization constant `‖D‖ = sqrt(Σ (tf · idf)²)` computed once per
/// record here. A record whose norm is 0 stores no row.
pub(crate) fn cosine_weight(
    corpus: &Arc<TokenizedCorpus>,
) -> impl Fn(usize, TokenId, u32) -> Option<f64> + Send + Sync + 'static {
    let norms: Vec<f64> = (0..corpus.num_records())
        .map(|idx| {
            corpus
                .record_tokens(idx)
                .iter()
                .map(|&(t, tf)| {
                    let w = tf as f64 * corpus.idf(t);
                    w * w
                })
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    let corpus = corpus.clone();
    move |idx, token, tf| {
        let norm = norms[idx];
        if norm <= 0.0 {
            return None;
        }
        Some(tf as f64 * corpus.idf(token) / norm)
    }
}

/// BM25's per-(record, token) weight:
/// `w_d(t, D) = w1(t) * (k1 + 1) tf / (K(D) + tf)` where `w1` is the
/// Robertson–Sparck Jones weight and `K(D) = k1((1-b) + b |D|/avgdl)`.
pub(crate) fn bm25_weight(
    corpus: &Arc<TokenizedCorpus>,
    params: Bm25Params,
) -> impl Fn(usize, TokenId, u32) -> Option<f64> + Send + Sync + 'static {
    let corpus = corpus.clone();
    let avgdl = corpus.avgdl();
    move |idx, token, tf| {
        let dl = corpus.record_dl(idx) as f64;
        let k_d = params.k1 * ((1.0 - params.b) + params.b * dl / avgdl.max(1e-12));
        let w1 = corpus.rsj_weight(token);
        let tf = tf as f64;
        Some(w1 * (params.k1 + 1.0) * tf / (k_d + tf))
    }
}

/// tf-idf cosine similarity (§3.2.1): normalized `tf * idf` weights on both
/// sides, summed over common tokens. Phase-2 preprocessing: `COSINE_WEIGHTS`
/// with L2-normalized tf-idf weights ([`cosine_weight`]).
pub(crate) fn cosine(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let weight = Arc::new(cosine_weight(shared.corpus()));
    weight_product(PredicateKind::Cosine, shared, "cosine_weights", weight, &PLANS, |shared, q| {
        bind_query_weights(cosine_query_weights(shared.corpus(), q.tokens()))
    })
}

/// Normalized tf-idf weights of the query tokens (computed on the fly at
/// query time, exactly as the paper's `QUERY_WEIGHTS` subquery does).
fn cosine_query_weights(corpus: &TokenizedCorpus, q: &QueryTokens) -> Vec<(TokenId, f64)> {
    let raw: Vec<(TokenId, f64)> = q
        .tokens
        .iter()
        .map(|&(t, tf)| (t, tf as f64 * corpus.idf(t)))
        .filter(|&(_, w)| w > 0.0)
        .collect();
    let norm: f64 = raw.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
    if norm <= 0.0 {
        return Vec::new();
    }
    raw.into_iter().map(|(t, w)| (t, w / norm)).collect()
}

/// Okapi BM25 (§3.2.2), the weighting scheme the paper introduces to data
/// cleaning and finds to be among the most accurate and efficient.
/// Phase-2 preprocessing: `BM25_WEIGHTS` ([`bm25_weight`]).
pub(crate) fn bm25(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let weight = Arc::new(bm25_weight(shared.corpus(), shared.params().bm25));
    weight_product(PredicateKind::Bm25, shared, "bm25_weights", weight, &PLANS, |shared, q| {
        bind_query_weights(bm25_query_weights(shared.params().bm25.k3, q.tokens()))
    })
}

/// BM25's query-side weights: `(k3 + 1) tf / (k3 + tf)` per query token.
fn bm25_query_weights(k3: f64, q: &QueryTokens) -> Vec<(TokenId, f64)> {
    q.tokens
        .iter()
        .map(|&(t, tf)| {
            let tf = tf as f64;
            (t, (k3 + 1.0) * tf / (k3 + tf))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::Predicate;
    use dasp_text::QgramConfig;

    /// The engine handle of `kind` over `corpus` with the default params.
    fn handle(kind: PredicateKind, corpus: Arc<TokenizedCorpus>) -> Box<dyn Predicate> {
        build_predicate(kind, corpus, &Params::default())
    }

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Stalney Morgan Group Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
                "IBM Incorporated",
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn cosine_self_similarity_is_highest_and_near_one() {
        let p = handle(PredicateKind::Cosine, corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
        assert!((ranking[0].score - 1.0).abs() < 1e-6);
        for s in &ranking {
            assert!(s.score <= 1.0 + 1e-9);
            assert!(s.score > 0.0);
        }
    }

    #[test]
    fn cosine_prefers_typo_variant_over_different_company() {
        let p = handle(PredicateKind::Cosine, corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        let pos_typo = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_other = ranking.iter().position(|s| s.tid == 2).unwrap();
        assert!(pos_typo < pos_other);
    }

    #[test]
    fn bm25_scores_and_ranking() {
        let p = handle(PredicateKind::Bm25, corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
        let pos_typo = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_beijing = ranking.iter().position(|s| s.tid == 3);
        // Beijing Hotel shares almost nothing; it is either absent or last.
        if let Some(pos) = pos_beijing {
            assert!(pos > pos_typo);
        }
    }

    #[test]
    fn bm25_query_tf_saturates_with_k3() {
        let (k3, corpus) = (Bm25Params::default().k3, corpus());
        let w1 = bm25_query_weights(k3, &corpus.tokenize_query("Morgan"));
        let w2 = bm25_query_weights(k3, &corpus.tokenize_query("Morgan Morgan Morgan Morgan"));
        // Repeating the query words increases the query weight of each token
        // but by less than the repetition factor (saturation).
        let total1: f64 = w1.iter().map(|(_, w)| w).sum();
        let total2: f64 = w2.iter().map(|(_, w)| w).sum();
        assert!(total2 > total1);
        assert!(total2 < 4.0 * total1);
    }

    #[test]
    fn unknown_queries_return_empty() {
        let c = corpus();
        assert!(handle(PredicateKind::Cosine, c.clone()).rank("zzqqvv").len() <= 5);
        assert!(handle(PredicateKind::Bm25, c).rank("").is_empty());
    }

    #[test]
    fn bm25_length_normalization_penalizes_long_tuples() {
        // Two tuples contain the same rare token; the shorter one should get
        // the larger BM25 weight for it.
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "zyx",
                "zyx with a very long trailing description of the company holdings",
                "unrelated tuple text",
                "another company record",
                "more filler rows here",
                "and one final unrelated row",
            ]),
            QgramConfig::new(2),
        ));
        let p = handle(PredicateKind::Bm25, corpus);
        let ranking = p.rank("zyx");
        assert_eq!(ranking[0].tid, 0);
        assert!(ranking[0].score > ranking[1].score);
    }

    #[test]
    fn naive_path_and_pushdown_are_byte_identical() {
        let c = corpus();
        let q = "Morgan Stanley Group Inc.";
        let cosine = handle(PredicateKind::Cosine, c.clone());
        let bm25 = handle(PredicateKind::Bm25, c);
        assert_eq!(cosine.rank(q), cosine.rank_naive(q));
        assert_eq!(bm25.rank(q), bm25.rank_naive(q));
        let ranked = bm25.rank(q);
        assert_eq!(bm25.top_k(q, 2), ranked[..2.min(ranked.len())].to_vec());
        let tau = ranked[0].score * 0.8;
        let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
        assert_eq!(bm25.select(q, tau), expected);
    }
}
