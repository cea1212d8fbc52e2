//! Edit-based predicate (§3.4 / §4.4): edit similarity with the declarative
//! q-gram filtering of Gravano et al.
//!
//! The candidate set is produced relationally — a join of the base and query
//! term-frequency tables with a grouped `SUM(LEAST(tf, tf_q))` (the multiset
//! intersection size of their q-grams) — and then verified with an exact
//! (banded) edit-distance computation, playing the role of the paper's UDF.
//!
//! **Shared-artifact contract:** the candidate join probes the engine's
//! shared `BASE_TF` table (indexed on token); nothing predicate-specific is
//! registered. The normalized record strings the verification UDF compares
//! are the shared phase-1 copies.
//!
//! **Threshold pushdown:** under `Exec::Threshold(τ)` with `τ` above the
//! build-time filter threshold θ, the q-gram count filter and the banded
//! verification both tighten to `τ` — strictly fewer candidates survive to
//! the expensive UDF stage, and the returned set is provably identical to
//! rank-then-filter because `sim ≥ τ` implies an edit distance within the
//! tightened band.

use crate::engine::{finalize_ranking, EngineOps, Exec, Query, SharedArtifacts};
use crate::params::EditParams;
use crate::predicate::PredicateKind;
use crate::record::ScoredTid;
use dasp_text::edit_distance_within;
use relq::{col, AggFunc, Bindings, Catalog, DataType, Plan, PreparedPlan, Schema, Table, Value};
use std::sync::Arc;

/// Edit-similarity predicate with q-gram count filtering.
pub(crate) struct EditPredicate {
    shared: Arc<SharedArtifacts>,
    catalog: Catalog,
    /// Candidate generation (multiset q-gram intersection per tuple); the
    /// output is `(tid, common)`, not a ranking, so verification decides the
    /// final scores and the [`Exec`] mode is applied natively afterwards.
    plan: PreparedPlan,
    params: EditParams,
}

impl EditPredicate {
    /// Phase-2 preprocessing: prepare the count-filter plan over the shared
    /// `BASE_TF` table.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        let params = shared.params().edit;
        let plan = PreparedPlan::new(
            Plan::index_join("base_tf", &["token"], Plan::param("query_tf"), &["token"])
                .aggregate(&["tid"], vec![(AggFunc::Sum(col("tf").least(col("tf_r"))), "common")]),
        );
        let catalog = shared.catalog_with(&["base_tf"]);
        EditPredicate { shared, catalog, plan, params }
    }

    /// The maximum edit distance admitted for a pair of lengths under a
    /// similarity threshold: `k = ⌊(1 - θ)·max(|Q|, |D|)⌋`.
    fn max_edits(threshold: f64, query_len: usize, record_len: usize) -> usize {
        ((1.0 - threshold) * query_len.max(record_len) as f64).floor() as usize
    }

    /// Build the query tf table.
    fn query_tf_table(q: &crate::corpus::QueryTokens) -> Table {
        let schema = Schema::from_pairs(&[("token", DataType::Int), ("tf", DataType::Int)]);
        let mut t = Table::with_capacity(schema, q.tokens.len());
        for &(token, tf) in &q.tokens {
            t.push([Value::Int(token as i64), Value::Int(tf as i64)]).expect("schema matches");
        }
        t
    }
}

impl EngineOps for EditPredicate {
    fn predicate_kind(&self) -> PredicateKind {
        PredicateKind::EditSimilarity
    }

    fn shared_artifacts(&self) -> &SharedArtifacts {
        &self.shared
    }

    fn plan_catalog(&self) -> Option<&Catalog> {
        Some(&self.catalog)
    }

    fn execute_mode(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &crate::engine::RequestLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let q = query.tokens();
        if q.tokens.is_empty() {
            return Ok(Vec::new());
        }
        let query_norm = query.norm();
        let query_len = query.norm_chars();
        let query_grams = q.total_occurrences() as i64;
        // Threshold pushdown: a selection at τ > θ admits strictly fewer
        // edits, so both the count filter and the banded verification can
        // run against τ without losing any tuple with `sim >= τ`.
        let pushdown_tau = match exec {
            Exec::Threshold(tau) if tau > self.params.filter_threshold => Some(tau),
            _ => None,
        };

        let bindings = Bindings::new().with_table("query_tf", Self::query_tf_table(q));
        // The count filter runs under the request's deadline but charges no
        // candidate: its survivors are charged one by one below, where each
        // costs a banded verification, so the deadline overshoots by at most
        // one of them. A filter stopped by the deadline returns no rows,
        // and the request's own poll then flags the answer degraded.
        let candidates = if naive {
            self.plan.execute_unindexed(&self.catalog, &bindings)?
        } else {
            let filter_limits = limits.deadline_only();
            let candidates = self.plan.execute(&self.catalog, &bindings, &filter_limits)?;
            if filter_limits.exhausted() {
                limits.poll_deadline();
            }
            candidates
        };

        let corpus = self.shared.corpus();
        let mut out = Vec::new();
        for row in candidates.rows() {
            // Budget boundary: each filter survivor is one candidate. Entries
            // already pushed carry exact similarities, so breaking here
            // leaves a valid anytime answer.
            if !limits.charge_candidate() {
                break;
            }
            let tid = row[0].as_i64().map_err(|_| {
                crate::error::DaspError::MalformedResult(format!("non-integer tid {}", row[0]))
            })? as u32;
            let common = row[1].as_f64().map_err(|_| {
                crate::error::DaspError::MalformedResult(format!("non-numeric count {}", row[1]))
            })? as i64;
            let idx = self.shared.record_index(tid);
            let text = self.shared.normalized(idx);
            let record_len = text.chars().count();
            let max_len = record_len.max(query_len);
            if max_len == 0 {
                continue;
            }
            let k_theta = Self::max_edits(self.params.filter_threshold, query_len, record_len);
            let k = match pushdown_tau {
                // The tightened band must admit every distance whose
                // similarity passes the final floating-point `sim >= τ`
                // test (⌊(1-τ)·max_len⌋ alone can undershoot it by one when
                // sim == τ exactly), and must never admit a distance the
                // rank-time θ band rejects — both directions are required
                // for byte-identity with rank-then-filter.
                Some(tau) => {
                    let mut k_tau =
                        (((1.0 - tau) * max_len as f64).floor().max(0.0) as usize).min(k_theta);
                    while k_tau < k_theta && 1.0 - (k_tau + 1) as f64 / max_len as f64 >= tau {
                        k_tau += 1;
                    }
                    k_tau
                }
                None => k_theta,
            };
            // Count filter: strings within k edits share at least
            // max(|G(Q)|, |G(D)|) - k*q q-grams (each edit destroys <= q grams).
            let record_grams = corpus.record_dl(idx) as i64;
            let needed = query_grams.max(record_grams) - (k * corpus.config().q) as i64;
            if common < needed {
                continue;
            }
            if let Some(d) = edit_distance_within(query_norm, text, k) {
                let sim = 1.0 - d as f64 / max_len as f64;
                out.push(ScoredTid::new(tid, sim));
            }
        }
        // finalize re-applies `sim >= τ` for Threshold: the banded search
        // admits distances up to ⌊(1-τ)·max_len⌋, which can undershoot τ by
        // a rounding margin.
        Ok(finalize_ranking(out, exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, TokenizedCorpus};
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::Predicate;
    use dasp_text::{edit_distance, normalize, QgramConfig};

    /// The edit predicate's engine handle over `corpus` with `edit` as its
    /// parameters.
    fn handle(corpus: Arc<TokenizedCorpus>, edit: EditParams) -> Box<dyn Predicate> {
        build_predicate(
            PredicateKind::EditSimilarity,
            corpus,
            &Params { edit, ..Params::default() },
        )
    }

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Morgan Stanley Grup Inc.",
                "Morgan Stnaley Group Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn exact_match_scores_one() {
        let p = handle(corpus(), EditParams::default());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        assert_eq!(ranking[0].tid, 0);
        assert!((ranking[0].score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn close_typos_pass_the_filter_and_are_scored_correctly() {
        let p = handle(corpus(), EditParams::default());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        let tids: Vec<u32> = ranking.iter().map(|s| s.tid).collect();
        assert!(tids.contains(&1));
        assert!(tids.contains(&2));
        // Verify the reported similarity equals 1 - ed/max_len.
        for s in &ranking {
            let idx = s.tid as usize;
            let text = normalize(corpus().record_text(idx));
            let qn = normalize("Morgan Stanley Group Inc.");
            let expected = 1.0
                - edit_distance(&qn, &text) as f64
                    / qn.chars().count().max(text.chars().count()) as f64;
            assert!((s.score - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_excludes_dissimilar_strings() {
        let p = handle(corpus(), EditParams::default());
        let ranking = p.rank("Morgan Stanley Group Inc.");
        // Beijing Hotel is far beyond the 0.7 threshold and must be filtered.
        assert!(ranking.iter().all(|s| s.tid != 4));
        assert!(ranking.iter().all(|s| s.score >= 0.69));
    }

    #[test]
    fn lower_threshold_admits_more_candidates() {
        let strict = handle(corpus(), EditParams { filter_threshold: 0.9 });
        let loose = handle(corpus(), EditParams { filter_threshold: 0.5 });
        let q = "Morgan Stanley Group Inc.";
        assert!(loose.rank(q).len() >= strict.rank(q).len());
    }

    #[test]
    fn no_false_negatives_within_threshold() {
        // Every tuple whose true edit similarity is >= θ must be returned.
        let theta = 0.7;
        let p = handle(corpus(), EditParams { filter_threshold: theta });
        let q = "Morgan Stanley Group Inc.";
        let qn = normalize(q);
        let returned: Vec<u32> = p.rank(q).iter().map(|s| s.tid).collect();
        let corpus = corpus();
        for idx in 0..corpus.num_records() {
            let text = normalize(corpus.record_text(idx));
            let sim = 1.0
                - edit_distance(&qn, &text) as f64
                    / qn.chars().count().max(text.chars().count()) as f64;
            if sim >= theta {
                assert!(returned.contains(&(idx as u32)), "tid {idx} with sim {sim} missing");
            }
        }
    }

    #[test]
    fn threshold_pushdown_matches_rank_then_filter() {
        let p = handle(corpus(), EditParams::default());
        let q = "Morgan Stanley Group Inc.";
        let ranked = p.rank(q);
        // Taus both below and above the build-time θ (the latter exercises
        // the tightened filter path).
        for tau in [0.3, 0.7, 0.9, 0.97, 1.1] {
            let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
            assert_eq!(p.select(q, tau), expected, "tau={tau}");
        }
    }

    #[test]
    fn top_k_pushdown_matches_rank_truncation() {
        let p = handle(corpus(), EditParams::default());
        let q = "Morgan Stanley Group Inc.";
        let ranked = p.rank(q);
        for k in [0, 1, 2, ranked.len() + 1] {
            assert_eq!(p.top_k(q, k), ranked[..ranked.len().min(k)].to_vec(), "k={k}");
        }
    }

    #[test]
    fn empty_query_returns_nothing() {
        let p = handle(corpus(), EditParams::default());
        assert!(p.rank("").is_empty());
    }
}
