//! Overlap predicates (§3.1 / §4.1): IntersectSize, Jaccard, WeightedMatch
//! and WeightedJaccard, realized declaratively as relq plans over token and
//! weight tables — the direct analogues of Figures 4.1 and 4.2 of the paper.
//!
//! **Shared-artifact contract:** all four predicates assemble the minimal
//! catalog their plans probe from the engine's lazy shared artifacts —
//! `base_tokens`, `overlap_weights` (indexed on token) and the per-tuple
//! `base_len` / `overlap_len` tables (indexed on tid) — registering nothing
//! of their own. Each prepares one `(tid, score)` plan in every [`Exec`](crate::Exec)
//! mode (`RankingPlans`); execution binds only the query token table (plus
//! per-query scalars like `|Q|`) and probes the token index.
//!
//! **Kernel execution:** IntersectSize and WeightedMatch score monotone
//! sums of non-negative contributions (a unit per common token,
//! `unit_weight`; the RSJ/IDF token weight, `overlap_token_weight`), so
//! both attach the engine-shared posting lists of their base table — built
//! from the tokenized rows with that weight, leaving the table itself
//! unbuilt until a reference mode asks — and run the indexed `Exec::Rank`
//! (as `TopK(∞)`) and `Exec::TopK` through [`relq::Plan::TopKBounded`] and
//! `Exec::Threshold` through [`relq::Plan::ThresholdBounded`], which sum
//! the postings per tid in relq's windowed dense accumulator. Jaccard and
//! WJ normalize by a union weight that *shrinks* the score as documents
//! grow — not a monotone sum — but their intersection count or weight sum
//! is exactly IntersectSize's or WeightedMatch's: a `k = ∞` kernel over the
//! same shared posting lists computes it, and the `base_len`/`overlap_len`
//! index join and the normalizing projection run on top, followed by a heap
//! `TopK` or a `score ≥ τ` filter — relq runs that chain as its typed
//! finish, on `f64` columns until the kept rows. Every predicate's naive
//! `Rank`, `TopKHeap` and `ThresholdScan` stay the join plans over the
//! shared tables — the references the kernel modes are checked against.

use crate::corpus::TokenizedCorpus;
use crate::engine::SharedArtifacts;
use crate::params::OverlapWeighting;
use crate::predicate::PredicateKind;
use crate::tables::{self, KernelPredicate, PostingCatalog, RankingPlans};
use crate::tables::{THRESHOLD_PARAM, TOP_K_PARAM};
use relq::{col, lit, param, AggFunc, Expr, Plan};
use std::sync::{Arc, OnceLock};

/// The token weight the weighted overlap predicates use (§5.3.1).
pub(crate) fn overlap_weight(
    tc: &TokenizedCorpus,
    weighting: OverlapWeighting,
    token: crate::dict::TokenId,
) -> f64 {
    match weighting {
        OverlapWeighting::Idf => tc.idf(token),
        OverlapWeighting::RobertsonSparckJones => tc.rsj_weight(token),
    }
}

/// IntersectSize's per-(record, token) weight: every distinct token of a
/// record contributes exactly 1, so the per-tid sum is the count. The
/// `base_tokens` table stores no weight column; its posting lists carry
/// this unit weight.
pub(crate) fn unit_weight(_: usize, _: crate::dict::TokenId, _: u32) -> Option<f64> {
    Some(1.0)
}

/// WeightedMatch's per-(record, token) weight: the token's
/// [`overlap_weight`], whatever the record — the rows of the shared
/// `overlap_weights` table and of its posting lists.
pub(crate) fn overlap_token_weight(
    corpus: &Arc<TokenizedCorpus>,
    weighting: OverlapWeighting,
) -> impl Fn(usize, crate::dict::TokenId, u32) -> Option<f64> + Send + Sync + 'static {
    let corpus = corpus.clone();
    move |_, token, _| Some(overlap_weight(&corpus, weighting, token))
}

/// The catalogs of a predicate whose plans sum over the one shared table
/// `name` and join the shared per-tuple tables `side` on top: the base
/// catalog aliases `name` and `side`, the posting catalog aliases `side`
/// and attaches the engine-shared posting lists of `name`, each on first
/// use.
fn shared_posting_catalog(
    shared: &Arc<SharedArtifacts>,
    name: &'static str,
    side: &'static [&'static str],
) -> PostingCatalog {
    let (base, posting) = (shared.clone(), shared.clone());
    PostingCatalog::new(
        move || base.catalog_with(&[&[name], side].concat()),
        move || {
            let mut catalog = posting.catalog_with(side);
            catalog.attach_posting(name, posting.posting(name));
            catalog
        },
    )
}

/// A normalized overlap score over the per-tid intersection in column
/// `inter`, joined on tid to a per-tuple table carrying `len`:
/// `inter / max(len + query_len − inter, 1e-9)`, the query side's size
/// bound as the scalar parameter `query_len`. Jaccard's and
/// WeightedJaccard's score, over either the aggregation join or the kernel.
fn normalized_overlap(inter: &str, query_len: &str) -> Expr {
    col(inter).div(col("len").add(param(query_len)).sub(col(inter)).greatest(lit(1e-9)))
}

/// The prepared plans of a normalized overlap predicate whose intersection
/// is summed over the shared table `base` (see [`normalized_overlap`]).
/// `join` is the aggregation join producing `(tid, inter)` for the
/// reference modes; the kernel plans compute the same sums with the posting
/// kernel and join the per-tuple table `len_table` on top
/// ([`RankingPlans::per_tuple_kernel`]).
fn normalized_overlap_plans(
    base: &'static str,
    len_table: &str,
    join: Plan,
    query_len: &str,
) -> RankingPlans {
    let reference = Plan::index_join(len_table, &["tid"], join, &["tid"])
        .project(vec![(col("tid"), "tid"), (normalized_overlap("inter", query_len), "score")]);
    RankingPlans::per_tuple_kernel(
        reference,
        base,
        len_table,
        normalized_overlap("score", query_len),
    )
}

/// IntersectSize: the number of common distinct tokens between query and
/// tuple (Equation 3.1, Figure 4.1).
pub(crate) fn intersect_size(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        // SELECT tid, COUNT(*) FROM base_tokens JOIN query_tokens USING (token) GROUP BY tid
        let plan =
            Plan::index_join("base_tokens", &["token"], Plan::param("query_tokens"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::CountStar, "cnt")])
                .project(vec![(col("tid"), "tid"), (col("cnt"), "score")]);
        // Bounded selection over unit-weight posting lists: every common
        // token contributes exactly 1, so the per-tid sum is the count.
        summed_plans(plan, "base_tokens")
    });
    let catalog = shared_posting_catalog(&shared, "base_tokens", &[]);
    KernelPredicate::new(PredicateKind::IntersectSize, shared, catalog, plans, |_, query| {
        tables::bind_query_tokens(query, true)
    })
}

/// Jaccard coefficient over distinct token sets (Equation 3.2, Figure 4.2).
pub(crate) fn jaccard(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        // Count the intersection per tuple over the shared token table,
        // then probe the tid index of the shared per-tuple length table
        // for |D| — no predicate-private BASE_DDL materialization.
        let join =
            Plan::index_join("base_tokens", &["token"], Plan::param("query_tokens"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::CountStar, "inter")]);
        normalized_overlap_plans("base_tokens", "base_len", join, "query_len")
    });
    let catalog = shared_posting_catalog(&shared, "base_tokens", &["base_len"]);
    KernelPredicate::new(PredicateKind::Jaccard, shared, catalog, plans, |_, query| {
        // |Q| counts distinct query tokens including those absent from the
        // base relation (the SQL's COUNT(*) over QUERY_TOKENS does the same).
        let query_len = query.tokens().distinct_count() as f64;
        Some(tables::bind_query_tokens(query, true)?.with_scalar("query_len", query_len))
    })
}

/// WeightedMatch: total weight of common tokens (§3.1), using the
/// Robertson–Sparck Jones weights the paper found superior to IDF (§5.3.1).
pub(crate) fn weighted_match(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        let plan = Plan::index_join(
            "overlap_weights",
            &["token"],
            Plan::param("query_tokens"),
            &["token"],
        )
        .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight")), "score")]);
        // Bounded selection over the shared weight posting lists: RSJ/IDF
        // weights are non-negative per-token constants, so the per-tid sum
        // of the postings is the WM score.
        summed_plans(plan, "overlap_weights")
    });
    let catalog = shared_posting_catalog(&shared, "overlap_weights", &[]);
    KernelPredicate::new(PredicateKind::WeightedMatch, shared, catalog, plans, |_, query| {
        tables::bind_query_tokens(query, true)
    })
}

/// WeightedJaccard: weight of common tokens over weight of the union (§3.1).
pub(crate) fn weighted_jaccard(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        // Sum the intersection weight per tuple over the shared weight
        // table, then probe the tid index of the shared per-tuple
        // weight-sum table for wt(D) — as with Jaccard, no private
        // joined table is built.
        let join = Plan::index_join(
            "overlap_weights",
            &["token"],
            Plan::param("query_tokens"),
            &["token"],
        )
        .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight")), "inter")]);
        normalized_overlap_plans("overlap_weights", "overlap_len", join, "query_weight_sum")
    });
    let catalog = shared_posting_catalog(&shared, "overlap_weights", &["overlap_len"]);
    KernelPredicate::new(PredicateKind::WeightedJaccard, shared, catalog, plans, |shared, query| {
        // Sum of weights of (known) distinct query tokens — the SQL computes
        // this from the base weight table, so unknown tokens contribute 0.
        let (corpus, weighting) = (shared.corpus(), shared.params().overlap_weighting);
        let query_weight_sum: f64 =
            query.tokens().tokens.iter().map(|&(t, _)| overlap_weight(corpus, weighting, t)).sum();
        Some(
            tables::bind_query_tokens(query, true)?
                .with_scalar("query_weight_sum", query_weight_sum),
        )
    })
}

/// The plans of a predicate whose score is the per-tid sum of the posting
/// weights of table `name` over the distinct query tokens: `plan` is the
/// join-plan reference, and the kernel plans sum the postings directly.
fn summed_plans(plan: Plan, name: &str) -> RankingPlans {
    let bounded =
        Plan::top_k_bounded(name, Plan::param("query_tokens"), "token", None, param(TOP_K_PARAM));
    let threshold_bounded = Plan::threshold_bounded(
        name,
        Plan::param("query_tokens"),
        "token",
        None,
        param(THRESHOLD_PARAM),
    );
    RankingPlans::with_bounded(plan, bounded, threshold_bounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::{ranked_tids, Predicate};
    use dasp_text::QgramConfig;

    /// The engine handle of `kind` over `corpus`, weighted by `weighting`.
    fn weighted(
        kind: PredicateKind,
        corpus: Arc<TokenizedCorpus>,
        weighting: OverlapWeighting,
    ) -> Box<dyn Predicate> {
        build_predicate(kind, corpus, &Params { overlap_weighting: weighting, ..Params::default() })
    }

    /// The engine handle of `kind` over `corpus` with the default
    /// (Robertson–Sparck Jones) weighting.
    fn handle(kind: PredicateKind, corpus: Arc<TokenizedCorpus>) -> Box<dyn Predicate> {
        build_predicate(kind, corpus, &Params::default())
    }

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",         // 0
                "Morgan Stanley Group Incorporated", // 1
                "Beijing Hotel",                     // 2
                "Beijing Labs",                      // 3
                "IBM Incorporated",                  // 4
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn intersect_ranks_exact_duplicate_first() {
        let p = handle(PredicateKind::IntersectSize, corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
        assert!(ranking[0].score >= ranking[1].score);
        // Beijing Hotel shares essentially nothing with the query.
        assert!(ranking.iter().all(|s| s.score > 0.0));
    }

    #[test]
    fn jaccard_is_normalized_to_unit_interval() {
        let p = handle(PredicateKind::Jaccard, corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
        assert!((ranking[0].score - 1.0).abs() < 1e-9, "self similarity should be 1");
        for s in &ranking {
            assert!(s.score > 0.0 && s.score <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn weighted_predicates_downweight_frequent_suffixes() {
        // Paper §5.4: for query "AT&T Incorporated"-style inputs, unweighted
        // overlap confuses tuples sharing the frequent word, while weighted
        // overlap keys on the rare tokens.
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "AT&T Incorporated",
                "AT&T Inc.",
                "IBM Incorporated",
                "Cisco Incorporated",
                "Oracle Incorporated",
                "Sun Incorporated",
            ]),
            QgramConfig::new(2),
        ));
        let wm = handle(PredicateKind::WeightedMatch, corpus);
        let ranking = wm.rank("AT&T Incorporated");
        assert_eq!(ranking[0].tid, 0);
        // The AT&T abbreviation variant must outrank the IBM full-word tuple.
        let pos_att_inc = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_ibm = ranking.iter().position(|s| s.tid == 2).unwrap();
        assert!(
            pos_att_inc < pos_ibm,
            "weighted overlap should prefer AT&T Inc. over IBM Incorporated"
        );
    }

    #[test]
    fn weighted_jaccard_self_similarity_is_one() {
        let p = handle(PredicateKind::WeightedJaccard, corpus());
        let ranking = p.rank("Beijing Hotel");
        assert_eq!(ranking[0].tid, 2);
        assert!((ranking[0].score - 1.0).abs() < 1e-6);
        for s in &ranking {
            assert!(s.score <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn idf_weighting_variant_also_works() {
        let p = weighted(PredicateKind::WeightedMatch, corpus(), OverlapWeighting::Idf);
        let ranking = p.rank("Morgan Stanley");
        assert!(ranked_tids(&ranking).contains(&0));
        assert!(ranked_tids(&ranking).contains(&1));
    }

    #[test]
    fn empty_query_returns_nothing() {
        let c = corpus();
        assert!(handle(PredicateKind::IntersectSize, c.clone()).rank("").is_empty());
        assert!(handle(PredicateKind::Jaccard, c.clone()).rank("   ").is_empty());
        let unknown = "\u{4e16}\u{754c}"; // tokens absent from the corpus
        assert!(handle(PredicateKind::WeightedMatch, c.clone()).rank(unknown).is_empty());
        assert!(handle(PredicateKind::WeightedJaccard, c).rank(unknown).is_empty());
    }

    #[test]
    fn select_filters_by_threshold() {
        let p = handle(PredicateKind::Jaccard, corpus());
        let all = p.rank("Morgan Stanley Group Inc.");
        let selected = p.select("Morgan Stanley Group Inc.", 0.5);
        assert!(selected.len() <= all.len());
        assert!(selected.iter().all(|s| s.score >= 0.5));
    }

    #[test]
    fn top_k_pushdown_matches_rank_truncation() {
        let c = corpus();
        let q = "Morgan Stanley Group Inc.";
        let preds: Vec<Box<dyn Predicate>> = vec![
            handle(PredicateKind::IntersectSize, c.clone()),
            handle(PredicateKind::Jaccard, c.clone()),
            handle(PredicateKind::WeightedMatch, c.clone()),
            handle(PredicateKind::WeightedJaccard, c),
        ];
        for p in &preds {
            let ranked = p.rank(q);
            for k in [0, 1, 3, ranked.len() + 2] {
                assert_eq!(
                    p.top_k(q, k),
                    ranked[..ranked.len().min(k)].to_vec(),
                    "{} top_k({k}) diverged",
                    p.kind()
                );
            }
        }
    }

    #[test]
    fn naive_path_is_byte_identical() {
        let c = corpus();
        let q = "Morgan Stanley Group Inc.";
        let preds: Vec<Box<dyn Predicate>> = vec![
            handle(PredicateKind::IntersectSize, c.clone()),
            handle(PredicateKind::Jaccard, c.clone()),
            handle(PredicateKind::WeightedMatch, c.clone()),
            handle(PredicateKind::WeightedJaccard, c),
        ];
        for p in &preds {
            assert_eq!(p.rank(q), p.rank_naive(q), "{} diverged", p.kind());
        }
    }
}
