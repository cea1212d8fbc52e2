//! The Ponte–Croft language modeling predicate (§3.3.1 / §4.3.1).
//!
//! Preprocessing materializes `BASE_PM(tid, token, pm, cfcs)` — the smoothed
//! probability `p̂(t|M_D)` of each token of each tuple together with the
//! collection probability `cf_t / cs` — and `BASE_SUMCOMPM(tid, sumcompm)`
//! holding `Σ_{t ∈ D} log(1 - p̂(t|M_D))`. The query-time plan is the
//! rewritten Equation 4.4 (Figure 4.4): one join with the query tokens, a
//! grouped sum of `log pm − log(1 − pm) − log(cf/cs)` and a final join with
//! the per-tuple sums.
//!
//! **Shared-artifact contract:** the predicate registers `BASE_PM` indexed
//! on token and `BASE_SUMCOMPM` indexed on tid in a private catalog — it
//! references no shared phase-1 table, so a standalone LM engine builds
//! none of them — and both query-time joins are index probes (the second
//! one probes the per-tuple sums with the handful of tids the inner
//! aggregation produced). The whole pipeline is prepared once in every
//! [`Exec`] mode (`RankingPlans`). The LM score mixes positive and
//! negative log terms plus a per-tuple constant, so it is not a monotone
//! sum of non-negative contributions and keeps the heap top-k path.

use crate::corpus::TokenizedCorpus;
use crate::engine::{Exec, Query, SharedArtifacts};
use crate::record::ScoredTid;
use crate::tables::{self, RankingPlans};
use relq::{col, AggFunc, Bindings, Catalog, DataType, Plan, Schema, Table, Value};
use std::sync::Arc;

/// Numerical floor/ceiling keeping `log(pm)` and `log(1 - pm)` finite.
const PM_EPS: f64 = 1e-9;

/// Language modeling predicate.
pub struct LanguageModelPredicate {
    shared: Arc<SharedArtifacts>,
    catalog: Catalog,
    plans: RankingPlans,
}

impl LanguageModelPredicate {
    /// Standalone construction over a corpus (prefer the engine).
    pub fn build(corpus: Arc<TokenizedCorpus>) -> Self {
        Self::from_shared(SharedArtifacts::build(corpus, &crate::params::Params::default()))
    }

    /// Phase-2 preprocessing: materialize `BASE_PM` and `BASE_SUMCOMPM`.
    ///
    /// Intermediate quantities (pml, pavg, f̄, risk) follow Equations 3.7–3.9:
    /// * `pml(t, D) = tf / dl`
    /// * `pavg(t) = mean of pml over tuples containing t`
    /// * `f̄(t, D) = pavg(t) * dl`
    /// * `R(t, D) = 1/(1+f̄) * (f̄/(1+f̄))^tf`
    /// * `pm = pml^(1-R) * pavg^R` for tokens present in D.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        let corpus = shared.corpus().clone();
        let n_tokens = corpus.num_tokens();
        // pavg per token: average maximum-likelihood estimate over the tuples
        // containing the token — a corpus-wide aggregate, so it comes from
        // the frozen statistics (a projected segment must not derive its own
        // from its record slice).
        let pavg: Vec<f64> = (0..n_tokens).map(|t| corpus.pavg(t as crate::TokenId)).collect();

        let cs = corpus.cs() as f64;
        // BASE_PM rows: (tid, token, log_pm, log_compm, log_cfcs). The paper
        // stores pm and cf/cs; the rewritten Equation 4.4 only ever consumes
        // their logarithms, so those are materialized at preprocessing time —
        // the query plan then sums plain float columns instead of computing
        // three `ln` calls per joined row.
        let schema = Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("token", DataType::Int),
            ("log_pm", DataType::Float),
            ("log_compm", DataType::Float),
            ("log_cfcs", DataType::Float),
        ]);
        let mut base_pm = Table::with_capacity(schema, tables::token_rows(&corpus));
        let mut sumcompm = vec![0.0f64; corpus.num_records()];
        for (idx, sumcompm) in sumcompm.iter_mut().enumerate() {
            let dl = corpus.record_dl(idx) as f64;
            for &(token, tf) in corpus.record_tokens(idx) {
                let pml = tf as f64 / dl.max(1.0);
                let pa = pavg[token as usize];
                let fbar = pa * dl;
                let risk = (1.0 / (1.0 + fbar)) * (fbar / (1.0 + fbar)).powf(tf as f64);
                let pm = pml.powf(1.0 - risk) * pa.powf(risk);
                let pm = pm.clamp(PM_EPS, 1.0 - PM_EPS);
                let cfcs = (corpus.cf(token) as f64 / cs).clamp(PM_EPS, 1.0 - PM_EPS);
                *sumcompm += (1.0 - pm).ln();
                base_pm
                    .push([
                        Value::Int(idx as i64),
                        Value::Int(token as i64),
                        Value::Float(pm.ln()),
                        Value::Float((1.0 - pm).ln()),
                        Value::Float(cfcs.ln()),
                    ])
                    .expect("schema matches");
            }
        }
        let base_sum = tables::per_tuple_scalar(&corpus, "sumcompm", |idx| sumcompm[idx]);

        let mut catalog = Catalog::new();
        catalog
            .register_indexed("base_pm", base_pm, &["token"])
            .expect("base_pm has a token column");
        catalog
            .register_indexed("base_sumcompm", base_sum, &["tid"])
            .expect("base_sumcompm has a tid column");

        // Inner aggregation over Q ∩ D (Figure 4.4), probing the token index.
        let inner =
            Plan::index_join("base_pm", &["token"], Plan::param("query_tokens"), &["token"])
                .aggregate(
                    &["tid"],
                    vec![
                        (AggFunc::Sum(col("log_pm")), "sum_log_pm"),
                        (AggFunc::Sum(col("log_compm")), "sum_log_compm"),
                        (AggFunc::Sum(col("log_cfcs")), "sum_log_cfcs"),
                    ],
                );
        // Combine with the per-tuple Σ log(1 - pm) term by probing the tid
        // index of BASE_SUMCOMPM with the aggregated tids.
        let plan = Plan::index_join("base_sumcompm", &["tid"], inner, &["tid"]).project(vec![
            (col("tid"), "tid"),
            (
                col("sum_log_pm")
                    .sub(col("sum_log_compm"))
                    .sub(col("sum_log_cfcs"))
                    .add(col("sumcompm"))
                    .exp(),
                "score",
            ),
        ]);
        LanguageModelPredicate { shared, catalog, plans: RankingPlans::new(plan) }
    }

    fn engine_shared(&self) -> &SharedArtifacts {
        &self.shared
    }

    fn engine_catalog(&self) -> Option<&Catalog> {
        Some(&self.catalog)
    }

    fn execute(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &relq::ExecLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let q = query.tokens();
        if q.tokens.is_empty() {
            return Ok(Vec::new());
        }
        let bindings = Bindings::new().with_table("query_tokens", tables::query_tokens(q, true));
        self.plans.execute(&self.catalog, bindings, exec, naive, limits)
    }
}

crate::engine::engine_predicate!(
    LanguageModelPredicate,
    crate::predicate::PredicateKind::LanguageModel
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::predicate::Predicate;
    use dasp_text::QgramConfig;

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
        let p = LanguageModelPredicate::build(corpus());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert!(!ranking.is_empty());
        assert_eq!(ranking[0].tid, 0);
    }

    #[test]
    fn scores_are_positive_and_finite() {
        let p = LanguageModelPredicate::build(corpus());
        for q in ["Morgan Stanley", "Beijing Hotel", "Group Inc."] {
            for s in p.rank(q) {
                assert!(s.score.is_finite());
                assert!(s.score > 0.0);
            }
        }
    }

    #[test]
    fn typo_variant_outranks_unrelated_tuple() {
        let p = LanguageModelPredicate::build(corpus());
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
        let p = LanguageModelPredicate::build(corpus);
        let ranking = p.rank("a");
        assert!(!ranking.is_empty());
        for s in &ranking {
            assert!(s.score.is_finite());
        }
    }

    #[test]
    fn empty_query_returns_nothing() {
        let p = LanguageModelPredicate::build(corpus());
        assert!(p.rank("").is_empty());
    }
}
