//! SoftTFIDF (§3.5 / §4.5, Cohen et al.): tf-idf cosine over word tokens where
//! "matching" words only need to be close under a secondary similarity
//! function — Jaro-Winkler with θ = 0.8 in the paper's best configuration.
//!
//! The CLOSE(θ, Q, D) similarity scores are computed by a UDF (here: a plain
//! Rust function) exactly as in the paper; the MAXTOKEN construction and the
//! final weighted sum are executed declaratively (Figure 4.7).

use crate::engine::{EngineOps, Exec, Query, SharedArtifacts};
use crate::predicate::PredicateKind;
use crate::record::ScoredTid;
use crate::tables::RankingPlans;
use dasp_text::jaro_winkler;
use relq::{col, AggFunc, Bindings, Catalog, DataType, Plan, Schema, Table, Value};
use std::sync::Arc;

/// Jaro-Winkler evaluations between two deadline polls of the `CLOSE`
/// product: a poll every 64 vocabulary words for a query of up to 16
/// words, more often for a longer one, so the work a deadline can overrun
/// by stays bounded however long the query is.
const DEADLINE_POLL_PAIRS: usize = 1024;

/// SoftTFIDF predicate with Jaro-Winkler word similarity.
///
/// **Shared-artifact contract:** the engine's shared catalog is cloned and
/// `BASE_WORD_WEIGHTS` registered indexed on wtoken; the MAXTOKEN pipeline
/// of Figure 4.7 is prepared once in all three [`Exec`] modes, and the
/// `CLOSE` (UDF-produced) and `QUERY_WEIGHTS` tables bind per query.
pub(crate) struct SoftTfIdfPredicate {
    shared: Arc<SharedArtifacts>,
    catalog: Catalog,
    plans: RankingPlans,
}

impl SoftTfIdfPredicate {
    /// Phase-2 preprocessing: register `BASE_WORD_WEIGHTS(tid, wtoken,
    /// weight)` with L2-normalized word-level tf-idf weights.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        let corpus = shared.corpus().clone();
        let schema = Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("wtoken", DataType::Int),
            ("weight", DataType::Float),
        ]);
        // One row per distinct word of a tuple at most: the word
        // occurrences bound the arena.
        let word_occurrences = (0..corpus.num_records()).map(|i| corpus.record_words(i).len());
        let mut table = Table::with_capacity(schema, word_occurrences.sum());
        for idx in 0..corpus.num_records() {
            // Word term frequencies of this tuple.
            let mut counts: Vec<(u32, u32)> = Vec::new();
            for &w in corpus.record_words(idx) {
                match counts.binary_search_by_key(&w, |(t, _)| *t) {
                    Ok(pos) => counts[pos].1 += 1,
                    Err(pos) => counts.insert(pos, (w, 1)),
                }
            }
            let norm: f64 = counts
                .iter()
                .map(|&(w, tf)| {
                    let x = tf as f64 * corpus.word_idf(w);
                    x * x
                })
                .sum::<f64>()
                .sqrt();
            if norm <= 0.0 {
                continue;
            }
            for &(w, tf) in &counts {
                let weight = tf as f64 * corpus.word_idf(w) / norm;
                if weight > 0.0 {
                    table
                        .push([Value::Int(idx as i64), Value::Int(w as i64), Value::Float(weight)])
                        .expect("schema matches");
                }
            }
        }
        // Private catalog: the plan only ever probes the predicate's own
        // word-weight table, so no shared phase-1 table is forced to build.
        let mut catalog = Catalog::new();
        catalog
            .register_indexed("base_word_weights", table, &["wtoken"])
            .expect("word weights have a wtoken column");

        // Detailed table: (tid, wtoken, weight, qword, sim), probing the
        // wtoken index with the query-time CLOSE table.
        let detail =
            Plan::index_join("base_word_weights", &["wtoken"], Plan::param("close"), &["wtoken"])
                .project(vec![
                    (col("tid"), "tid"),
                    (col("wtoken"), "wtoken"),
                    (col("weight"), "weight"),
                    (col("qword"), "qword"),
                    (col("sim"), "sim"),
                ]);
        // MAXSIM(tid, qword, maxsim)
        let maxsim =
            detail.clone().aggregate(&["tid", "qword"], vec![(AggFunc::Max(col("sim")), "maxsim")]);
        // MAXTOKEN: rows of the detail table attaining the per-(tid, qword)
        // maximum, then the final weighted sum of Figure 4.7.
        let plan = detail
            .join_on_with_suffix(maxsim, &["tid", "qword"], &["tid", "qword"], "_m")
            .filter(col("sim").eq(col("maxsim")))
            .project(vec![
                (col("tid"), "tid"),
                (col("qword"), "qword"),
                (col("weight"), "weight"),
                (col("maxsim"), "maxsim"),
            ])
            .distinct()
            .join_on(Plan::param("query_weights"), &["qword"], &["qword"])
            .project(vec![
                (col("tid"), "tid"),
                (col("qweight").mul(col("weight")).mul(col("maxsim")), "contrib"),
            ])
            .aggregate(&["tid"], vec![(AggFunc::Sum(col("contrib")), "score")]);
        SoftTfIdfPredicate { shared, catalog, plans: RankingPlans::new(plan) }
    }

    /// Normalized tf-idf weights of the query's word tokens (known words only,
    /// as in the paper's SQL which joins `BASE_IDF`).
    fn query_word_weights(&self, query: &Query) -> Vec<(usize, String, f64)> {
        let corpus = self.shared.corpus();
        let mut counts: Vec<(String, u32)> = Vec::new();
        for w in query.word_tokens() {
            match counts.iter_mut().find(|(x, _)| x == w) {
                Some((_, c)) => *c += 1,
                None => counts.push((w.clone(), 1)),
            }
        }
        let raw: Vec<(String, f64)> = counts
            .into_iter()
            .filter_map(|(w, tf)| {
                let idf = corpus.word_dict().get(&w).map(|id| corpus.word_idf(id))?;
                (idf > 0.0).then_some((w, tf as f64 * idf))
            })
            .collect();
        let norm: f64 = raw.iter().map(|(_, x)| x * x).sum::<f64>().sqrt();
        if norm <= 0.0 {
            return Vec::new();
        }
        raw.into_iter().enumerate().map(|(i, (w, x))| (i, w, x / norm)).collect()
    }
}

impl EngineOps for SoftTfIdfPredicate {
    fn predicate_kind(&self) -> PredicateKind {
        PredicateKind::SoftTfIdf
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
        let query_weights = self.query_word_weights(query);
        if query_weights.is_empty() {
            return Ok(Vec::new());
        }

        // CLOSE_SIM_SCORES(wtoken, qword, sim): Jaro-Winkler similarity of
        // every distinct base word against every query word, thresholded.
        // This stays a query-time UDF product, exactly as in the paper. It
        // charges no candidate, so it polls the deadline itself (see
        // `DEADLINE_POLL_PAIRS`): an expired deadline ends the request with
        // the empty anytime answer, flagged degraded.
        let mut close = Table::empty(Schema::from_pairs(&[
            ("wtoken", DataType::Int),
            ("qword", DataType::Int),
            ("sim", DataType::Float),
        ]));
        let poll_every = (DEADLINE_POLL_PAIRS / query_weights.len()).clamp(1, 64);
        for (n, (wid, base_word)) in self.shared.corpus().word_dict().iter().enumerate() {
            if n % poll_every == 0 && !limits.poll_deadline() {
                return Ok(Vec::new());
            }
            for (qidx, qword, _) in &query_weights {
                let sim = jaro_winkler(base_word, qword);
                if sim >= self.shared.params().soft_tfidf.theta {
                    close
                        .push([Value::Int(wid as i64), Value::Int(*qidx as i64), Value::Float(sim)])
                        .expect("schema matches");
                }
            }
        }
        if close.is_empty() {
            return Ok(Vec::new());
        }

        // QUERY_WEIGHTS(qword, qweight)
        let mut qw = Table::with_capacity(
            Schema::from_pairs(&[("qword", DataType::Int), ("qweight", DataType::Float)]),
            query_weights.len(),
        );
        for (qidx, _, weight) in &query_weights {
            qw.push([Value::Int(*qidx as i64), Value::Float(*weight)]).expect("schema matches");
        }

        let bindings = Bindings::new().with_table("close", close).with_table("query_weights", qw);
        self.plans.execute(&self.catalog, bindings, exec, naive, limits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, TokenizedCorpus};
    use crate::factory::build_predicate;
    use crate::params::{Params, SoftTfIdfParams};
    use crate::predicate::Predicate;
    use dasp_text::QgramConfig;

    /// SoftTFIDF's engine handle over `corpus` with `soft_tfidf` as its
    /// parameters.
    fn handle(corpus: Arc<TokenizedCorpus>, soft_tfidf: SoftTfIdfParams) -> Box<dyn Predicate> {
        build_predicate(
            PredicateKind::SoftTfIdf,
            corpus,
            &Params { soft_tfidf, ..Params::default() },
        )
    }

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Incorporated",
                "Stalney Morgan Group Inc",
                "Silicon Valley Group Incorporated",
                "Beijing Hotel",
                "Beijing Labs",
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn exact_duplicate_ranks_first_with_score_near_one() {
        let p = handle(corpus(), SoftTfIdfParams::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert_eq!(ranking[0].tid, 0);
        assert!(ranking[0].score > 0.99);
    }

    #[test]
    fn token_swap_with_typos_is_still_matched() {
        // SoftTFIDF's strength in the paper: Jaro-Winkler matches the
        // misspelled swapped words, so "Stalney Morgan Group Inc" still
        // scores close to the query.
        let p = handle(corpus(), SoftTfIdfParams::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        let swapped = ranking.iter().find(|s| s.tid == 1).expect("swapped variant matched");
        let unrelated = ranking.iter().find(|s| s.tid == 3);
        assert!(swapped.score > 0.4);
        if let Some(u) = unrelated {
            assert!(swapped.score > u.score);
        }
    }

    #[test]
    fn lower_theta_matches_more_word_pairs() {
        let strict = handle(corpus(), SoftTfIdfParams { theta: 0.95 });
        let loose = handle(corpus(), SoftTfIdfParams { theta: 0.6 });
        let q = "Morgn Stanly Group Incorporatd";
        let s = strict.rank(q);
        let l = loose.rank(q);
        let s0 = s.iter().find(|x| x.tid == 0).map(|x| x.score).unwrap_or(0.0);
        let l0 = l.iter().find(|x| x.tid == 0).map(|x| x.score).unwrap_or(0.0);
        assert!(l0 >= s0);
    }

    #[test]
    fn scores_are_positive_finite_and_roughly_normalized() {
        // Both weight vectors are L2-normalized, so scores sit near [0, 1];
        // a small overshoot is possible when several query words map onto the
        // same base word, which the paper's SQL allows as well.
        let p = handle(corpus(), SoftTfIdfParams::default());
        for q in ["Morgan Stanley", "Beijing Hotel", "Group Incorporated"] {
            for s in p.rank(q) {
                assert!(s.score > 0.0 && s.score.is_finite(), "q={q} score={}", s.score);
                assert!(s.score <= 1.5, "q={q} score={}", s.score);
            }
        }
    }

    #[test]
    fn unknown_only_query_returns_nothing() {
        let p = handle(corpus(), SoftTfIdfParams::default());
        assert!(p.rank("zzzz qqqq").is_empty());
        assert!(p.rank("").is_empty());
    }
}
