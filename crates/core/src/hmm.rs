//! The two-state hidden Markov model predicate (§3.3.2 / §4.3.2).
//!
//! The score is the rewritten Equation 4.6: the product over query tokens of
//! `1 + a1·P(q|D) / (a0·P(q|GE))`, restricted to `Q ∩ D`. Preprocessing
//! stores `log` of that factor per `(tid, token)` in `BASE_WEIGHTS`; the
//! query plan is a single join plus `EXP(SUM(weight))` — which is why HMM is
//! as fast as the unweighted overlap predicates in the paper's Figure 5.3.

use crate::corpus::TokenizedCorpus;
use crate::engine::SharedArtifacts;
use crate::params::HmmParams;
use crate::predicate::PredicateKind;
use crate::tables::{self, KernelPredicate, PostingCatalog, RankingPlans};
use crate::tables::{THRESHOLD_PARAM, TOP_K_PARAM};
use relq::{col, lit, param, AggFunc, Plan};
use std::sync::{Arc, OnceLock};

/// HMM's per-(record, token) weight:
/// `weight(tid, t) = log(1 + a1·pml(t, D) / (a0·P(t|GE)))`
/// where `P(t|GE) = cf_t / cs` is the General-English probability.
pub(crate) fn hmm_weight(
    corpus: &Arc<TokenizedCorpus>,
    params: HmmParams,
) -> impl Fn(usize, crate::dict::TokenId, u32) -> Option<f64> + Send + Sync + 'static {
    let corpus = corpus.clone();
    let cs = corpus.cs() as f64;
    let a0 = params.a0;
    let a1 = params.a1();
    move |idx, token, tf| {
        let dl = corpus.record_dl(idx) as f64;
        let pml = tf as f64 / dl.max(1.0);
        let ptge = corpus.cf(token) as f64 / cs.max(1.0);
        if ptge <= 0.0 {
            return None;
        }
        Some((1.0 + a1 * pml / (a0 * ptge)).ln())
    }
}

/// The hidden Markov model predicate. Phase-2 preprocessing: `HMM_WEIGHTS`
/// ([`hmm_weight`]); the table and the posting lists behind the bounded
/// plans are each built on first use.
///
/// **Shared-artifact contract:** `HMM_WEIGHTS` and its
/// posting lists are private artifacts built from the one weight function,
/// each on first use — the table, indexed on token, for the reference
/// modes (naive `Rank`, `TopKHeap`, `ThresholdScan`); the posting lists,
/// straight from the tokenized rows, for the indexed `Rank`, `TopK` and
/// `Threshold`. The predicate references no shared phase-1 table;
/// execution binds the multiplicity-preserving query token table into plans
/// prepared once per process in every [`Exec`](crate::Exec) mode.
///
/// **Kernel execution:** the stored weight `log(1 + a1·pml/(a0·P(t|GE)))`
/// is strictly positive, and `exp` is monotone, so ranking by the log-space
/// sum is ranking by the final score: `Exec::TopK` runs the bounded top-k
/// operator over the log-weight posting lists and a projection applies
/// `exp` to the k surviving sums; the indexed `Exec::Rank` is the same plan
/// at `k = ∞`. `Exec::Threshold(τ)` runs the bounded
/// threshold operator the same way, thresholding on log-sums: its bar is
/// `ln(max(τ, ε)) − 1e-9` (clamped so a non-positive τ stays defined, and
/// relaxed by an absolute log-space slack that dwarfs the `ln`/`exp`
/// round-trip error), and an exact plan-level `score ≥ τ` filter over the
/// exponentiated sums decides final membership — which is what keeps the
/// bounded result bit-identical to the exhaustive scan at every τ.
pub(crate) fn hmm(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    let weight = Arc::new(hmm_weight(shared.corpus(), shared.params().hmm));
    let catalog = PostingCatalog::private("hmm_weights", shared.corpus().clone(), weight);
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        let plan =
            Plan::index_join("hmm_weights", &["token"], Plan::param("query_tokens"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::Sum(col("weight")), "logscore")])
                .project(vec![(col("tid"), "tid"), (col("logscore").exp(), "score")]);
        // The bounded operators select by the log-space sum (same order as
        // the exp'd score); the projection then exponentiates the surviving
        // sums. The probe keeps one row per query-token occurrence, so
        // repeated tokens probe their list once per occurrence, exactly like
        // the join.
        let bounded = Plan::top_k_bounded(
            "hmm_weights",
            Plan::param("query_tokens"),
            "token",
            None,
            param(TOP_K_PARAM),
        )
        .project(vec![(col("tid"), "tid"), (col("score").exp(), "score")]);
        // Threshold in log space: the inner bar clamps τ away from
        // zero (`ln` is undefined at τ ≤ 0, and `GREATEST` maps a NaN τ to
        // the clamp) and subtracts an absolute log-space slack of 1e-9 —
        // seven orders of magnitude above the `ln`/`exp` round-trip error —
        // so no tid whose exponentiated sum reaches τ is ever cut by the
        // bounded operator. The outer filter then applies the exact `score >= τ`
        // test on the exponentiated sums, trimming the slack margin back to
        // precisely the exhaustive plan's selection.
        let threshold_bounded = Plan::threshold_bounded(
            "hmm_weights",
            Plan::param("query_tokens"),
            "token",
            None,
            param(THRESHOLD_PARAM).greatest(lit(f64::MIN_POSITIVE)).ln().sub(lit(1e-9)),
        )
        .project(vec![(col("tid"), "tid"), (col("score").exp(), "score")])
        .filter(col("score").gt_eq(param(THRESHOLD_PARAM)));
        RankingPlans::with_bounded(plan, bounded, threshold_bounded)
    });
    // Query tokens keep their multiplicity: a token occurring twice in the
    // query contributes its factor twice (the SQL joins the raw
    // QUERY_TOKENS table, which has one row per occurrence).
    KernelPredicate::new(PredicateKind::Hmm, shared, catalog, plans, |_, query| {
        tables::bind_query_tokens(query, false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::engine::{EngineOps, Exec, Query};
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::Predicate;
    use dasp_text::QgramConfig;

    /// HMM's engine handle over `corpus` with `hmm` as its parameters.
    fn handle(corpus: Arc<TokenizedCorpus>, hmm: HmmParams) -> Box<dyn Predicate> {
        build_predicate(PredicateKind::Hmm, corpus, &Params { hmm, ..Params::default() })
    }

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Stalney Morgan Group Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
                "Beijing Labs Limited",
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn exact_duplicate_ranks_first() {
        let p = handle(corpus(), HmmParams::default());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
    }

    #[test]
    fn scores_are_at_least_one_and_finite() {
        // Every matched token multiplies the score by a factor > 1, so any
        // tuple sharing at least one token scores above 1.
        let p = handle(corpus(), HmmParams::default());
        for s in p.rank("Morgan Stanley") {
            assert!(s.score > 1.0);
            assert!(s.score.is_finite());
        }
    }

    #[test]
    fn rare_token_match_beats_common_token_match() {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "zzzq specialised widget",
                "generic common widget",
                "another common widget",
                "more common widget",
            ]),
            QgramConfig::new(2),
        ));
        let p = handle(corpus, HmmParams::default());
        let ranking = p.rank("zzzq widget");
        assert_eq!(ranking[0].tid, 0, "the tuple containing the rare token must rank first");
    }

    #[test]
    fn a0_extremes_do_not_break_ranking() {
        for a0 in [0.05, 0.2, 0.5, 0.9] {
            let p = handle(corpus(), HmmParams { a0 });
            let ranking = p.rank("Beijing Hotel");
            assert_eq!(ranking[0].tid, 3, "a0={a0}");
        }
    }

    #[test]
    fn repeated_query_tokens_increase_score() {
        let p = handle(corpus(), HmmParams::default());
        let once = p.rank("Beijing");
        let twice = p.rank("Beijing Beijing");
        let s1 = once.iter().find(|s| s.tid == 3).unwrap().score;
        let s2 = twice.iter().find(|s| s.tid == 3).unwrap().score;
        assert!(s2 > s1);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let p = handle(corpus(), HmmParams::default());
        assert!(p.rank("").is_empty());
    }

    #[test]
    fn scan_route_keeps_the_private_posting_catalog_unbuilt() {
        let p = hmm(SharedArtifacts::build(corpus(), &Params::default()));
        let query = Query::build(p.shared_artifacts().corpus(), "Morgan Stanley");
        let unlimited = crate::engine::RequestLimits::unlimited();
        let posting_built = || p.posting_catalog().unwrap().posting_built();
        // The exhaustive modes answer from the posting-free base catalog.
        let reference =
            p.execute_mode(&query, Exec::ThresholdScan(1.5), false, &unlimited).unwrap();
        assert!(!reference.is_empty());
        let heap = p.execute_mode(&query, Exec::TopKHeap(2), false, &unlimited).unwrap();
        assert_eq!(heap.len(), 2);
        assert!(!posting_built(), "scan modes must not build HMM posting lists");
        // The bounded threshold then forces the build, same results.
        let bounded = p.execute_mode(&query, Exec::Threshold(1.5), false, &unlimited).unwrap();
        assert_eq!(bounded, reference);
        assert!(posting_built(), "bounded threshold builds the private posting lists");
    }
}
