//! The Ponte–Croft language modeling predicate (§3.3.1 / §4.3.1).
//!
//! Preprocessing derives, per `(tuple, token)`, the smoothed probability
//! `p̂(t|M_D)` of the token in the tuple and the collection probability
//! `cf_t / cs` — the paper's `BASE_PM(tid, token, pm, cfcs)` — and per
//! tuple `BASE_SUMCOMPM(tid, sumcompm)` holding `Σ_{t ∈ D} log(1 −
//! p̂(t|M_D))`. The query-time plan is the rewritten Equation 4.4 (Figure
//! 4.4): one join with the query tokens, a grouped sum of `log pm`,
//! `log(1 − pm)` and `log(cf/cs)`, a join with the per-tuple sums and an
//! `exp` projection.
//!
//! **Shared-artifact contract:** the predicate references no shared
//! phase-1 table, so a standalone LM engine builds none of them. Its
//! private artifacts all come from the one per-(record, token) weight
//! function `lm_weight`, each on first use (`PostingCatalog`):
//! `BASE_PM` as a table indexed on token for the reference modes (naive
//! `Rank`, `TopKHeap`, `ThresholdScan`), and as posting lists with three
//! weight lanes for the indexed `Rank`, `TopK` and `Threshold`;
//! `BASE_SUMCOMPM`, indexed on tid, serves both.
//!
//! **Kernel execution:** the LM score mixes positive and negative log terms
//! plus a per-tuple constant, so it is not a monotone sum and no bound
//! prunes it; but its inner grouped sum is exactly what the posting kernel
//! computes, one lane per log term, summed per tid in probe order. The
//! kernel runs at `k = ∞`, the `BASE_SUMCOMPM` join and the `exp`
//! projection run on top, and a heap `TopK` or a `score ≥ τ` filter
//! selects (`RankingPlans::per_tuple_kernel`) — relq's typed finish,
//! with no `Value` row before the selection.

use crate::corpus::TokenizedCorpus;
use crate::dict::TokenId;
use crate::engine::SharedArtifacts;
use crate::predicate::PredicateKind;
use crate::tables::{self, KernelPredicate, PostingCatalog, RankingPlans};
use relq::{col, AggFunc, Catalog, Plan};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// Numerical floor/ceiling keeping `log(pm)` and `log(1 - pm)` finite.
const PM_EPS: f64 = 1e-9;

/// The three log terms of Equation 4.4 per `(tuple, token)`: the
/// `BASE_PM` table's columns, and the lanes of its posting lists, named
/// after the grouped sums the plans project from.
const BASE_PM_COLUMNS: [&str; 3] = ["log_pm", "log_compm", "log_cfcs"];
const BASE_PM_LANES: [&str; 3] = ["sum_log_pm", "sum_log_compm", "sum_log_cfcs"];

/// LM's per-(record, token) weights `[log pm, log(1 − pm), log(cf/cs)]`.
/// The paper stores `pm` and `cf/cs`; the rewritten Equation 4.4 only ever
/// consumes their logarithms, so those are what preprocessing derives.
///
/// Intermediate quantities (pml, pavg, f̄, risk) follow Equations 3.7–3.9:
/// * `pml(t, D) = tf / dl`
/// * `pavg(t) = mean of pml over tuples containing t` — a corpus-wide
///   aggregate, so it comes from the frozen statistics (a projected segment
///   must not derive its own from its record slice)
/// * `f̄(t, D) = pavg(t) * dl`
/// * `R(t, D) = 1/(1+f̄) * (f̄/(1+f̄))^tf`
/// * `pm = pml^(1-R) * pavg^R` for tokens present in D.
pub(crate) fn lm_weight(
    corpus: &Arc<TokenizedCorpus>,
) -> impl Fn(usize, TokenId, u32) -> Option<[f64; 3]> + Send + Sync + 'static {
    let corpus = corpus.clone();
    let cs = corpus.cs() as f64;
    move |idx, token, tf| {
        let dl = corpus.record_dl(idx) as f64;
        let pml = tf as f64 / dl.max(1.0);
        let pa = corpus.pavg(token);
        let fbar = pa * dl;
        let risk = (1.0 / (1.0 + fbar)) * (fbar / (1.0 + fbar)).powf(tf as f64);
        let pm = pml.powf(1.0 - risk) * pa.powf(risk);
        let pm = pm.clamp(PM_EPS, 1.0 - PM_EPS);
        let cfcs = (corpus.cf(token) as f64 / cs).clamp(PM_EPS, 1.0 - PM_EPS);
        Some([pm.ln(), (1.0 - pm).ln(), cfcs.ln()])
    }
}

type LmWeight = dyn Fn(usize, TokenId, u32) -> Option<[f64; 3]> + Send + Sync;

/// Run `build` over LM's weights, summing each record's `log(1 − pm)`
/// lane from `0.0` in token order as `build` visits the rows (record by
/// record, as the table and posting builders do), and return its result
/// with `BASE_SUMCOMPM(tid, sumcompm)`, indexed on tid: the catalog the
/// first of the two builds made from its sums, so the weights are derived
/// once per build.
fn with_sumcompm<T>(
    corpus: &TokenizedCorpus,
    weight: &LmWeight,
    sumcompm: &OnceLock<Catalog>,
    build: impl FnOnce(&dyn Fn(usize, TokenId, u32) -> Option<[f64; 3]>) -> T,
) -> (T, Catalog) {
    let sums = RefCell::new(vec![0.0f64; corpus.num_records()]);
    let built = build(&|idx, token, tf| {
        let w = weight(idx, token, tf)?;
        sums.borrow_mut()[idx] += w[1];
        Some(w)
    });
    let side = sumcompm.get_or_init(|| {
        let sums = sums.into_inner();
        let mut catalog = Catalog::new();
        let table = tables::per_tuple_scalar(corpus, "sumcompm", |idx| sums[idx]);
        catalog
            .register_indexed("base_sumcompm", table, &["tid"])
            .expect("base_sumcompm has a tid column");
        catalog
    });
    (built, side.clone())
}

/// The language modeling predicate. Phase-2 preprocessing: the catalogs of
/// `BASE_PM` ([`lm_weight`]) and `BASE_SUMCOMPM`, each built on first use.
pub(crate) fn language_model(shared: Arc<SharedArtifacts>) -> KernelPredicate {
    let corpus = shared.corpus().clone();
    let weight: Arc<LmWeight> = Arc::new(lm_weight(&corpus));
    let sumcompm = Arc::new(OnceLock::new());
    let (base_corpus, base_weight, base_sumcompm) =
        (corpus.clone(), weight.clone(), sumcompm.clone());
    let catalog = PostingCatalog::new(
        move || {
            let (base_pm, mut catalog) =
                with_sumcompm(&base_corpus, &*base_weight, &base_sumcompm, |weight| {
                    tables::lane_table(&base_corpus, BASE_PM_COLUMNS, weight)
                });
            catalog
                .register_indexed("base_pm", base_pm, &["token"])
                .expect("base_pm has a token column");
            catalog
        },
        move || {
            let (lanes, mut catalog) = with_sumcompm(&corpus, &*weight, &sumcompm, |weight| {
                tables::lane_postings(&corpus, BASE_PM_LANES, weight)
            });
            catalog.attach_posting("base_pm", Arc::new(lanes));
            catalog
        },
    );
    static PLANS: OnceLock<RankingPlans> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        let [pm, compm, cfcs] = BASE_PM_LANES;
        let score = col(pm).sub(col(compm)).sub(col(cfcs)).add(col("sumcompm")).exp();
        // Inner aggregation over Q ∩ D (Figure 4.4), probing the token
        // index; then the per-tuple Σ log(1 - pm) term, probing the tid
        // index of BASE_SUMCOMPM with the aggregated tids.
        let sums = BASE_PM_COLUMNS
            .iter()
            .zip(BASE_PM_LANES)
            .map(|(&column, lane)| (AggFunc::Sum(col(column)), lane))
            .collect();
        let inner =
            Plan::index_join("base_pm", &["token"], Plan::param("query_tokens"), &["token"])
                .aggregate(&["tid"], sums);
        let reference = Plan::index_join("base_sumcompm", &["tid"], inner, &["tid"])
            .project(vec![(col("tid"), "tid"), (score.clone(), "score")]);
        RankingPlans::per_tuple_kernel(reference, "base_pm", "base_sumcompm", score)
    });
    KernelPredicate::new(PredicateKind::LanguageModel, shared, catalog, plans, |_, query| {
        tables::bind_query_tokens(query, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::Predicate;
    use dasp_text::QgramConfig;

    /// The language model's engine handle over `corpus`.
    fn handle(corpus: Arc<TokenizedCorpus>) -> Box<dyn Predicate> {
        build_predicate(PredicateKind::LanguageModel, corpus, &Params::default())
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
        let p = handle(corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert!(!ranking.is_empty());
        assert_eq!(ranking[0].tid, 0);
    }

    #[test]
    fn scores_are_positive_and_finite() {
        let p = handle(corpus());
        for q in ["Morgan Stanley", "Beijing Hotel", "Group Inc."] {
            for s in p.rank(q) {
                assert!(s.score.is_finite());
                assert!(s.score > 0.0);
            }
        }
    }

    #[test]
    fn typo_variant_outranks_unrelated_tuple() {
        let p = handle(corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        let pos_typo = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_beijing = ranking.iter().position(|s| s.tid == 3);
        if let Some(pos) = pos_beijing {
            assert!(pos_typo < pos);
        }
    }

    #[test]
    fn single_token_tuples_do_not_break_the_model() {
        // A tuple whose only token would give pm = 1 exercises the clamping.
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec!["a", "a", "abc def"]),
            QgramConfig::new(2),
        ));
        let p = handle(corpus);
        let ranking = p.rank("a");
        assert!(!ranking.is_empty());
        for s in &ranking {
            assert!(s.score.is_finite());
        }
    }

    #[test]
    fn empty_query_returns_nothing() {
        let p = handle(corpus());
        assert!(p.rank("").is_empty());
    }
}
