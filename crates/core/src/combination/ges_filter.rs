//! Filtered GES predicates (§4.5): `GES_Jaccard` and `GES_apx`.
//!
//! Both first compute the order-insensitive over-estimate of Equation 4.7 /
//! 4.8 declaratively — a relq plan over word-level q-gram (or min-hash
//! signature) tables — keep the tuples whose estimate reaches the threshold
//! θ, and then re-score the candidates with the exact GES of Equation 3.14.
//!
//! **Shared-artifact contract:** the word table `BASE_WORDS` (indexed on
//! wtoken), the per-word GES weights used for exact re-scoring and the
//! tid→index map all come from the engine's shared phase-1 artifacts; only
//! the second-level token table — `BASE_QGRAMS` (indexed on qgram) or
//! `BASE_MHSIG` (indexed on the composite `(fid, value)`) — is built here,
//! registered over a clone of the shared catalog. The whole filter pipeline
//! is one prepared plan whose query-side tables and the `Σ idf` normalizer
//! bind per query.
//!
//! The candidate filter always runs at the build-time θ — the estimate
//! over-approximates GES only heuristically, so [`Exec`] modes apply to the
//! exactly re-scored results (heap-based top-k, post-rescoring threshold),
//! never to the estimates.

use crate::combination::ges::GesScorer;
use crate::corpus::TokenizedCorpus;
use crate::dict::{TokenDict, TokenId};
use crate::engine::{finalize_ranking, Exec, Query, SharedArtifacts};
use crate::params::GesParams;
use crate::record::ScoredTid;
use dasp_text::{word_qgrams, MinHasher, QgramConfig};
use relq::{
    col, lit, param, AggFunc, Bindings, Catalog, DataType, Plan, PreparedPlan, Schema, Table, Value,
};
use std::sync::Arc;

/// Which filtering strategy a [`FilteredGes`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GesFilterKind {
    /// Exact word-level Jaccard over q-grams of the word tokens.
    Jaccard,
    /// Min-hash approximation of the word-level Jaccard.
    MinHash,
}

/// Shared state of the filtered GES predicates.
pub struct FilteredGes {
    shared: Arc<SharedArtifacts>,
    filter: GesFilterKind,
    catalog: Catalog,
    /// The whole filter pipeline (Equation 4.7 / 4.8), prepared once.
    plan: PreparedPlan,
    /// Dictionary of word-level q-grams (separate from the corpus q-grams).
    qgram_dict: TokenDict,
    /// Per word id: number of distinct q-grams (denominator of the Jaccard).
    word_qgram_sizes: Vec<usize>,
    /// Min-hasher (only used by the MinHash variant).
    hasher: MinHasher,
}

impl FilteredGes {
    /// Phase-2 preprocessing for the chosen filter over shared artifacts.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>, filter: GesFilterKind) -> Self {
        let corpus = shared.corpus();
        let params = shared.params().ges;
        let qcfg = QgramConfig::new(params.q);
        let mut qgram_dict = TokenDict::new();
        let hasher = MinHasher::new(params.num_hashes.max(1), params.minhash_seed);

        // Word-level q-gram sets (interned) and their sizes. The word table
        // itself (`base_words`) is a shared phase-1 artifact.
        let mut word_qgram_sizes = vec![0usize; corpus.num_word_tokens()];
        let min_hash_rows = match filter {
            GesFilterKind::Jaccard => 0,
            GesFilterKind::MinHash => corpus.word_dict().len() * hasher.num_hashes(),
        };
        let mut base_mhsig = Table::with_capacity(
            Schema::from_pairs(&[
                ("wtoken", DataType::Int),
                ("fid", DataType::Int),
                ("value", DataType::Int),
            ]),
            min_hash_rows,
        );
        // The interned ids of every word's distinct q-grams, back to back in
        // word order, so the Jaccard table is sized once they are all known.
        let mut word_gids: Vec<TokenId> = Vec::new();
        for (wid, word) in corpus.word_dict().iter() {
            let mut grams = word_qgrams(word, qcfg);
            grams.sort();
            grams.dedup();
            word_qgram_sizes[wid as usize] = grams.len();
            match filter {
                GesFilterKind::Jaccard => {
                    word_gids.extend(grams.iter().map(|g| qgram_dict.intern(g)));
                }
                GesFilterKind::MinHash => {
                    let sig = hasher.signature(grams.iter());
                    for (fid, &v) in sig.iter().enumerate() {
                        base_mhsig
                            .push([
                                Value::Int(wid as i64),
                                Value::Int(fid as i64),
                                Value::Int((v % (i64::MAX as u64)) as i64),
                            ])
                            .expect("schema matches");
                    }
                    // Intern the grams anyway so query-side sizes are known.
                    for g in &grams {
                        qgram_dict.intern(g);
                    }
                }
            }
        }
        let mut base_qgrams = Table::with_capacity(
            Schema::from_pairs(&[
                ("wtoken", DataType::Int),
                ("qgram", DataType::Int),
                ("wsize", DataType::Int),
            ]),
            word_gids.len(),
        );
        let mut gids = word_gids.into_iter();
        for (wid, _) in corpus.word_dict().iter() {
            let size = word_qgram_sizes[wid as usize];
            for gid in gids.by_ref().take(size) {
                base_qgrams
                    .push([Value::Int(wid as i64), Value::Int(gid as i64), Value::Int(size as i64)])
                    .expect("schema matches");
            }
        }

        // Minimal catalog: the shared word table plus the filter's own
        // second-level index, nothing else forced to build.
        let mut catalog = shared.catalog_with(&["base_words"]);
        // Per-query-word similarity sub-plan (probing the second-level index).
        let maxsim_plan = match filter {
            GesFilterKind::Jaccard => {
                catalog
                    .register_indexed("base_qgrams", base_qgrams, &["qgram"])
                    .expect("base_qgrams has a qgram column");
                // Jaccard between each base word and each query word.
                Plan::index_join("base_qgrams", &["qgram"], Plan::param("query_qgrams"), &["qgram"])
                    .aggregate(
                        &["wtoken", "qword", "wsize", "qsize"],
                        vec![(AggFunc::CountStar, "cnt")],
                    )
                    .project(vec![
                        (col("wtoken"), "wtoken"),
                        (col("qword"), "qword"),
                        (
                            col("cnt").div(
                                col("wsize").add(col("qsize")).sub(col("cnt")).greatest(lit(1e-9)),
                            ),
                            "sim",
                        ),
                    ])
            }
            GesFilterKind::MinHash => {
                catalog
                    .register_indexed("base_mhsig", base_mhsig, &["fid", "value"])
                    .expect("base_mhsig has fid/value columns");
                let h = hasher.num_hashes() as f64;
                Plan::index_join(
                    "base_mhsig",
                    &["fid", "value"],
                    Plan::param("query_sig"),
                    &["fid", "value"],
                )
                .aggregate(&["wtoken", "qword"], vec![(AggFunc::CountStar, "cnt")])
                .project(vec![
                    (col("wtoken"), "wtoken"),
                    (col("qword"), "qword"),
                    (col("cnt").div(lit(h)), "sim"),
                ])
            }
        };
        // max over base words of each tuple, per query word, then the
        // weighted sum of Equation 4.7 normalized by the query's Σ idf.
        let dq = 1.0 - 1.0 / params.q as f64;
        let two_over_q = 2.0 / params.q as f64;
        let plan = PreparedPlan::new(
            Plan::index_join("base_words", &["wtoken"], maxsim_plan, &["wtoken"])
                .aggregate(&["tid", "qword"], vec![(AggFunc::Max(col("sim")), "maxsim")])
                .join_on(Plan::param("query_idf"), &["qword"], &["qword"])
                .project(vec![
                    (col("tid"), "tid"),
                    (col("idf").mul(col("maxsim").mul(lit(two_over_q)).add(lit(dq))), "contrib"),
                ])
                .aggregate(&["tid"], vec![(AggFunc::Sum(col("contrib")), "total")])
                .project(vec![(col("tid"), "tid"), (col("total").div(param("sum_idf")), "score")]),
        );

        FilteredGes { shared, filter, catalog, plan, qgram_dict, word_qgram_sizes, hasher }
    }

    pub(crate) fn shared(&self) -> &SharedArtifacts {
        &self.shared
    }

    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of distinct q-grams of a base word token (the denominator of
    /// the word-level Jaccard in Equation 4.7).
    pub fn word_qgram_size(&self, word: TokenId) -> usize {
        self.word_qgram_sizes[word as usize]
    }

    /// The over-estimating filter scores per tuple (Equation 4.7 / 4.8),
    /// computed declaratively. Returns `(tid, estimate)` pairs.
    pub fn filter_scores(&self, query: &str) -> Vec<ScoredTid> {
        let query = Query::build(self.shared.corpus(), query);
        self.filter_scores_mode(&query, false)
            .expect("prepared ges filter plans over registered catalogs are infallible")
    }

    fn filter_scores_mode(
        &self,
        query: &Query,
        naive: bool,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let qcfg = QgramConfig::new(self.shared.params().ges.q);
        let query_words = query.weighted_words();
        if query_words.is_empty() {
            return Ok(Vec::new());
        }
        let sum_idf: f64 = query_words.iter().map(|w| w.weight).sum();
        if sum_idf <= 0.0 {
            return Ok(Vec::new());
        }

        // QUERY_IDF(qword, idf)
        let mut query_idf = Table::with_capacity(
            Schema::from_pairs(&[("qword", DataType::Int), ("idf", DataType::Float)]),
            query_words.len(),
        );
        for (i, w) in query_words.iter().enumerate() {
            query_idf.push([Value::Int(i as i64), Value::Float(w.weight)]).expect("schema matches");
        }
        let mut bindings =
            Bindings::new().with_table("query_idf", query_idf).with_scalar("sum_idf", sum_idf);

        // The per-query probe table of the second-level index.
        match self.filter {
            GesFilterKind::Jaccard => {
                // QUERY_QGRAMS(qword, qgram, qsize)
                let mut query_qgrams = Table::empty(Schema::from_pairs(&[
                    ("qword", DataType::Int),
                    ("qgram", DataType::Int),
                    ("qsize", DataType::Int),
                ]));
                for (i, w) in query_words.iter().enumerate() {
                    let mut grams = word_qgrams(&w.word, qcfg);
                    grams.sort();
                    grams.dedup();
                    let size = grams.len() as i64;
                    for g in &grams {
                        if let Some(gid) = self.qgram_dict.get(g) {
                            query_qgrams
                                .push([
                                    Value::Int(i as i64),
                                    Value::Int(gid as i64),
                                    Value::Int(size),
                                ])
                                .expect("schema matches");
                        }
                    }
                }
                bindings = bindings.with_table("query_qgrams", query_qgrams);
            }
            GesFilterKind::MinHash => {
                // QUERY_MHSIG(qword, fid, value)
                let mut query_sig = Table::with_capacity(
                    Schema::from_pairs(&[
                        ("qword", DataType::Int),
                        ("fid", DataType::Int),
                        ("value", DataType::Int),
                    ]),
                    query_words.len() * self.hasher.num_hashes(),
                );
                for (i, w) in query_words.iter().enumerate() {
                    let mut grams = word_qgrams(&w.word, qcfg);
                    grams.sort();
                    grams.dedup();
                    let sig = self.hasher.signature(grams.iter());
                    for (fid, &v) in sig.iter().enumerate() {
                        query_sig
                            .push([
                                Value::Int(i as i64),
                                Value::Int(fid as i64),
                                Value::Int((v % (i64::MAX as u64)) as i64),
                            ])
                            .expect("schema matches");
                    }
                }
                bindings = bindings.with_table("query_sig", query_sig);
            }
        }

        // The filter plan runs unbudgeted: its survivors are charged one by
        // one in `execute`, where each costs an exact GES re-scoring, so the
        // deadline overshoots by at most one of them.
        let unlimited = relq::ExecLimits::unlimited();
        crate::tables::run_ranking_plan(&self.plan, &self.catalog, &bindings, naive, &unlimited)
    }

    /// Execute: filter by the over-estimate at the build-time θ, re-score
    /// candidates exactly, then apply the execution mode to the exact scores.
    fn execute(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &relq::ExecLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let query_words = query.weighted_words();
        if query_words.is_empty() {
            return Ok(Vec::new());
        }
        let mut scorer = GesScorer::new(
            self.shared.corpus(),
            self.shared.ges_word_weights(),
            query_words,
            self.shared.params().ges.cins,
        );
        let mut out = Vec::new();
        for candidate in self.filter_scores_mode(query, naive)? {
            if candidate.score < self.shared.params().ges.filter_threshold {
                continue;
            }
            // Budget boundary: one candidate per filter survivor re-scored.
            // Entries already pushed carry exact GES scores, so breaking
            // leaves a valid anytime answer.
            if !limits.charge_candidate() {
                break;
            }
            let exact = scorer.similarity(self.shared.record_index(candidate.tid));
            out.push(ScoredTid::new(candidate.tid, exact));
        }
        Ok(finalize_ranking(out, exec))
    }
}

/// `GES_Jaccard`: exact word-level Jaccard filtering + exact GES re-scoring.
pub struct GesJaccardPredicate {
    inner: FilteredGes,
}

impl GesJaccardPredicate {
    /// Standalone construction over a corpus (prefer the engine).
    pub fn build(corpus: Arc<TokenizedCorpus>, params: GesParams) -> Self {
        let params = crate::params::Params { ges: params, ..Default::default() };
        Self::from_shared(SharedArtifacts::build(corpus, &params))
    }

    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        GesJaccardPredicate { inner: FilteredGes::from_shared(shared, GesFilterKind::Jaccard) }
    }

    /// Access the filter scores (used by the threshold-sweep experiments).
    pub fn filter_scores(&self, query: &str) -> Vec<ScoredTid> {
        self.inner.filter_scores(query)
    }

    fn engine_shared(&self) -> &SharedArtifacts {
        self.inner.shared()
    }

    fn engine_catalog(&self) -> Option<&Catalog> {
        Some(self.inner.catalog())
    }

    fn execute(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &relq::ExecLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        self.inner.execute(query, exec, naive, limits)
    }
}

crate::engine::engine_predicate!(GesJaccardPredicate, crate::predicate::PredicateKind::GesJaccard);

/// `GES_apx`: min-hash filtering + exact GES re-scoring.
pub struct GesApxPredicate {
    inner: FilteredGes,
}

impl GesApxPredicate {
    /// Standalone construction over a corpus (prefer the engine).
    pub fn build(corpus: Arc<TokenizedCorpus>, params: GesParams) -> Self {
        let params = crate::params::Params { ges: params, ..Default::default() };
        Self::from_shared(SharedArtifacts::build(corpus, &params))
    }

    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        GesApxPredicate { inner: FilteredGes::from_shared(shared, GesFilterKind::MinHash) }
    }

    /// Access the filter scores (used by the threshold-sweep experiments).
    pub fn filter_scores(&self, query: &str) -> Vec<ScoredTid> {
        self.inner.filter_scores(query)
    }

    fn engine_shared(&self) -> &SharedArtifacts {
        self.inner.shared()
    }

    fn engine_catalog(&self) -> Option<&Catalog> {
        Some(self.inner.catalog())
    }

    fn execute(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &relq::ExecLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        self.inner.execute(query, exec, naive, limits)
    }
}

crate::engine::engine_predicate!(GesApxPredicate, crate::predicate::PredicateKind::GesApx);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::ges::{ges_similarity, weighted_query_words, weighted_record_words};
    use crate::corpus::Corpus;
    use crate::predicate::Predicate;

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Incorporated",
                "Morgan Stanle Grop Incorporated",
                "Stalney Morgan Group Inc",
                "Silicon Valley Group Incorporated",
                "Beijing Hotel",
            ]),
            QgramConfig::new(2),
        ))
    }

    #[test]
    fn filter_estimate_is_high_for_exact_duplicates() {
        let p = GesJaccardPredicate::build(corpus(), GesParams::default());
        let scores = p.filter_scores("Morgan Stanley Group Incorporated");
        let own = scores.iter().find(|s| s.tid == 0).expect("tuple 0 present");
        assert!(own.score > 0.95, "estimate for exact duplicate was {}", own.score);
    }

    #[test]
    fn filter_overestimates_exact_ges() {
        // Equation 4.7 ignores word order, so it over-estimates GES.
        let p = GesJaccardPredicate::build(corpus(), GesParams::default());
        let q = "Morgan Stanley Group Incorporated";
        let filter = p.filter_scores(q);
        let shared = p.inner.shared();
        let query_words = weighted_query_words(shared.corpus(), q);
        for s in &filter {
            let idx = shared.record_index(s.tid);
            let record_words = weighted_record_words(shared.corpus(), idx);
            let exact = ges_similarity(&query_words, &record_words, 0.5);
            assert!(
                s.score >= exact - 0.15,
                "filter {} should not be far below exact {} for tid {}",
                s.score,
                exact,
                s.tid
            );
        }
    }

    #[test]
    fn ranking_returns_edit_variant_first_among_candidates() {
        let p = GesJaccardPredicate::build(corpus(), GesParams::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert!(!ranking.is_empty());
        assert_eq!(ranking[0].tid, 0);
        // The unrelated Beijing tuple must be filtered out at θ = 0.8.
        assert!(ranking.iter().all(|s| s.tid != 4));
    }

    #[test]
    fn higher_threshold_returns_fewer_candidates() {
        let loose = GesJaccardPredicate::build(
            corpus(),
            GesParams { filter_threshold: 0.5, ..GesParams::default() },
        );
        let strict = GesJaccardPredicate::build(
            corpus(),
            GesParams { filter_threshold: 0.95, ..GesParams::default() },
        );
        let q = "Morgan Stanle Grop Incorporated";
        assert!(loose.rank(q).len() >= strict.rank(q).len());
    }

    #[test]
    fn minhash_variant_approximates_jaccard_variant() {
        let exact = GesJaccardPredicate::build(corpus(), GesParams::default());
        let apx =
            GesApxPredicate::build(corpus(), GesParams { num_hashes: 64, ..GesParams::default() });
        let q = "Morgan Stanley Group Incorporated";
        let e = exact.filter_scores(q);
        let a = apx.filter_scores(q);
        // The same top tuple must surface in both.
        assert_eq!(e.first().map(|s| s.tid), a.first().map(|s| s.tid));
        for s in &a {
            if let Some(es) = e.iter().find(|x| x.tid == s.tid) {
                assert!(
                    (es.score - s.score).abs() < 0.25,
                    "tid {} apx {} exact {}",
                    s.tid,
                    s.score,
                    es.score
                );
            }
        }
    }

    #[test]
    fn word_qgram_sizes_match_padded_word_lengths() {
        let p = GesJaccardPredicate::build(corpus(), GesParams::default());
        let corpus = corpus();
        for (wid, word) in corpus.word_dict().iter() {
            // A word of n chars padded with q-1 on each side has n + q - 1
            // grams before deduplication, so the distinct count is at most that.
            let upper = word.chars().count() + 1;
            let size = p.inner.word_qgram_size(wid);
            assert!(size >= 1 && size <= upper, "{word}: {size} vs upper {upper}");
        }
    }

    #[test]
    fn pushdown_modes_match_post_hoc_selection() {
        let p = GesJaccardPredicate::build(corpus(), GesParams::default());
        let q = "Morgan Stanley Group Incorporated";
        let ranked = p.rank(q);
        for k in [0, 1, 2, ranked.len() + 1] {
            assert_eq!(p.top_k(q, k), ranked[..ranked.len().min(k)].to_vec(), "k={k}");
        }
        for tau in [0.2, 0.6, 0.95] {
            let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
            assert_eq!(p.select(q, tau), expected, "tau={tau}");
        }
    }

    #[test]
    fn empty_query_yields_nothing() {
        let p = GesApxPredicate::build(corpus(), GesParams::default());
        assert!(p.rank("").is_empty());
        assert!(p.filter_scores("").is_empty());
    }
}
