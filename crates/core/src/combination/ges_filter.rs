//! Filtered GES predicates (§4.5): `GES_Jaccard` and `GES_apx`.
//!
//! Both first compute the order-insensitive over-estimate of Equation 4.7 /
//! 4.8 — word-level q-gram Jaccard, or its min-hash approximation — keep the
//! tuples whose estimate reaches the threshold θ, and then re-score the
//! candidates with the exact GES of Equation 3.14.
//!
//! **Served path: a per-query word memo.** For each query word, in order,
//! the estimate counts the grams it shares with every vocabulary word
//! through a gram → word index over the interned word-level q-grams (for
//! `GES_apx`: per signature component, the vocabulary words with an equal
//! min-hash value), turns each count into a word similarity, maxes it into
//! every record holding that word through the engine-shared word → record
//! index (`SharedArtifacts::ges_word_records`), and adds the query word's
//! idf-weighted term to each record it reached. The work is what the query
//! words reach, never the whole vocabulary or corpus, and the request's
//! deadline is polled once per query word.
//!
//! **Naive reference: the relq plan.** `filter_scores_mode(naive = true)`
//! runs the declarative pipeline: the word-level `BASE_QGRAMS` (or
//! `BASE_MHSIG`) table joined with the query's grams (or signature) and
//! grouped per (word, query word), max-aggregated per (tid, query word) over
//! the shared `BASE_WORDS`, idf-weighted and summed per tid. Its tables and
//! catalog are built on the first naive run, so a serving engine never holds
//! them. The memo returns the plan's estimates bit for bit: the same
//! similarity arithmetic, a term only where a record word matched the query
//! word, and each record's terms summed in ascending query-word order
//! starting from `0.0`, as relq's `Sum` does.
//!
//! The candidate filter always runs at the build-time θ — the estimate
//! over-approximates GES only heuristically, so [`Exec`] modes apply to the
//! exactly re-scored results (heap-based top-k, post-rescoring threshold),
//! never to the estimates.

use crate::combination::ges::{GesScorer, WeightedWord};
use crate::corpus::TokenizedCorpus;
use crate::dict::{TokenDict, TokenId};
use crate::engine::{finalize_ranking, EngineOps, Exec, Query, SharedArtifacts};
use crate::params::GesParams;
use crate::predicate::PredicateKind;
use crate::record::{sort_ranked, ScoredTid, Tid};
use dasp_text::{word_qgrams, MinHasher, QgramConfig};
use relq::{
    col, lit, param, AggFunc, Bindings, Catalog, DataType, Plan, PreparedPlan, Schema, Table, Value,
};
use std::sync::{Arc, OnceLock};

/// Which filtering strategy a [`FilteredGes`] instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GesFilterKind {
    /// Exact word-level Jaccard over q-grams of the word tokens.
    Jaccard,
    /// Min-hash approximation of the word-level Jaccard.
    MinHash,
}

/// Compressed rows of `u32` items: row `r` is `items[offsets[r]..offsets[r + 1]]`.
#[derive(Debug)]
pub(crate) struct Csr {
    offsets: Vec<usize>,
    items: Vec<u32>,
}

impl Csr {
    /// Group `(row, item)` pairs by row, each row keeping its pair order.
    fn from_pairs(num_rows: usize, pairs: &[(u32, u32)]) -> Csr {
        let mut offsets = vec![0usize; num_rows + 1];
        for &(row, _) in pairs {
            offsets[row as usize + 1] += 1;
        }
        for r in 0..num_rows {
            offsets[r + 1] += offsets[r];
        }
        let mut next = offsets[..num_rows].to_vec();
        let mut items = vec![0u32; pairs.len()];
        for &(row, item) in pairs {
            items[next[row as usize]] = item;
            next[row as usize] += 1;
        }
        Csr { offsets, items }
    }

    fn row(&self, r: usize) -> &[u32] {
        &self.items[self.offsets[r]..self.offsets[r + 1]]
    }
}

/// Per vocabulary word, the records holding it, each once and in ascending
/// order: the word → record index both filters share, the transpose of
/// [`crate::tables::base_words_distinct`].
pub(crate) fn word_records(corpus: &TokenizedCorpus) -> Csr {
    let mut pairs = Vec::new();
    let mut seen: Vec<TokenId> = Vec::new();
    for idx in 0..corpus.num_records() {
        crate::tables::distinct_record_words(corpus, idx, &mut seen);
        pairs.extend(seen.iter().map(|&w| (w, idx as u32)));
    }
    Csr::from_pairs(corpus.num_word_tokens(), &pairs)
}

/// A word's distinct q-grams, sorted.
fn distinct_qgrams(word: &str, qcfg: QgramConfig) -> Vec<String> {
    let mut grams = word_qgrams(word, qcfg);
    grams.sort();
    grams.dedup();
    grams
}

/// A min-hash component as `BASE_MHSIG` stores it (an `Int` cell).
fn signature_value(v: u64) -> i64 {
    (v % (i64::MAX as u64)) as i64
}

/// The vocabulary side of the served estimate.
#[derive(Debug)]
enum WordIndex {
    /// Gram id (in `qgram_dict`) → the vocabulary words holding that gram.
    Qgrams(Csr),
    /// Per signature component (fid), every vocabulary word sorted by its
    /// [`signature_value`]: component `f` is entries `f·V .. (f+1)·V` of
    /// both vectors, `V` the vocabulary size.
    MinHash { values: Vec<i64>, words: Vec<TokenId> },
}

/// The vocabulary side of a filtered estimate: the word-level q-gram
/// dictionary, every word's distinct gram count and the served index. It
/// depends only on the frozen word dictionary, the filter kind and the GES
/// gram size and min-hash settings, so it is built once per frozen word
/// dictionary and those settings, and every engine over a projection of
/// that dictionary shares it ([`TokenizedCorpus::ges_vocab`]).
#[derive(Debug)]
pub(crate) struct GesVocab {
    filter: GesFilterKind,
    params: GesParams,
    /// Dictionary of word-level q-grams (separate from the corpus q-grams);
    /// filled for the Jaccard filter only.
    qgram_dict: TokenDict,
    /// Per word id: number of distinct q-grams (denominator of the Jaccard).
    word_qgram_sizes: Vec<usize>,
    /// Min-hasher (only used by the MinHash variant).
    hasher: MinHasher,
    /// The served estimate's vocabulary index.
    index: WordIndex,
}

impl GesVocab {
    /// Whether this index serves `filter` under `params`: the same kind,
    /// gram size and min-hash settings (θ and `c_ins` do not enter it).
    pub(crate) fn serves(&self, filter: GesFilterKind, params: &GesParams) -> bool {
        self.filter == filter
            && self.params.q == params.q
            && self.params.num_hashes == params.num_hashes
            && self.params.minhash_seed == params.minhash_seed
    }

    /// Index the vocabulary of `word_dict` for `filter` under `params`.
    pub(crate) fn build(word_dict: &TokenDict, filter: GesFilterKind, params: GesParams) -> Self {
        let qcfg = QgramConfig::new(params.q);
        let hasher = MinHasher::new(params.num_hashes.max(1), params.minhash_seed);
        let vocab = word_dict.len();
        let mut qgram_dict = TokenDict::new();
        let mut word_qgram_sizes = vec![0usize; vocab];
        // Jaccard: (gram id, word) pairs. MinHash: (fid, value, word).
        let mut gram_words: Vec<(u32, u32)> = Vec::new();
        let mut signatures: Vec<(usize, i64, TokenId)> = Vec::new();
        for (wid, word) in word_dict.iter() {
            let grams = distinct_qgrams(word, qcfg);
            word_qgram_sizes[wid as usize] = grams.len();
            match filter {
                GesFilterKind::Jaccard => {
                    gram_words.extend(grams.iter().map(|g| (qgram_dict.intern(g), wid)));
                }
                GesFilterKind::MinHash => {
                    let sig = hasher.signature(grams.iter());
                    signatures.extend(
                        sig.iter().enumerate().map(|(fid, &v)| (fid, signature_value(v), wid)),
                    );
                }
            }
        }
        let index = match filter {
            GesFilterKind::Jaccard => {
                WordIndex::Qgrams(Csr::from_pairs(qgram_dict.len(), &gram_words))
            }
            GesFilterKind::MinHash => {
                signatures.sort_unstable();
                WordIndex::MinHash {
                    values: signatures.iter().map(|&(_, v, _)| v).collect(),
                    words: signatures.iter().map(|&(_, _, w)| w).collect(),
                }
            }
        };
        GesVocab { filter, params, qgram_dict, word_qgram_sizes, hasher, index }
    }
}

/// The relq reference of the estimate: the declarative Equation 4.7 / 4.8
/// pipeline and the catalog it runs over (the shared `base_words` plus the
/// filter's own second-level table).
struct ReferencePlan {
    catalog: Catalog,
    plan: PreparedPlan,
}

/// The filtered GES predicates: `GES_Jaccard` (exact word-level Jaccard
/// filtering) and `GES_apx` (min-hash filtering), each followed by exact
/// GES re-scoring.
pub(crate) struct FilteredGes {
    shared: Arc<SharedArtifacts>,
    filter: GesFilterKind,
    /// The filter kind's vocabulary index, shared with every engine over the same frozen
    /// word dictionary.
    vocab: Arc<GesVocab>,
    /// The naive reference plan, built on first naive use.
    reference: OnceLock<ReferencePlan>,
}

impl FilteredGes {
    /// Phase-2 preprocessing for the chosen filter over shared artifacts:
    /// the vocabulary index of the served estimate (built on the first
    /// filter over this word dictionary and these settings, shared after),
    /// nothing relational.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>, filter: GesFilterKind) -> Self {
        let vocab = shared.corpus().ges_vocab(filter, shared.params().ges);
        FilteredGes { shared, filter, vocab, reference: OnceLock::new() }
    }

    /// Every estimate, best first: from the memo, or with `naive` from the
    /// relq reference plan. The two are bit-identical.
    pub(crate) fn filter_scores_mode(
        &self,
        query: &Query,
        naive: bool,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        if naive {
            return self.reference_estimates(query.weighted_words());
        }
        let unlimited = relq::ExecLimits::unlimited();
        let mut estimates = self
            .memo_estimates(query.weighted_words(), &unlimited)
            .expect("an unlimited budget never trips");
        sort_ranked(&mut estimates);
        Ok(estimates)
    }

    /// The served estimates, unsorted: one per record some query word
    /// reaches. Polls `limits`' deadline once per query word and returns
    /// `None` once it has tripped.
    fn memo_estimates(
        &self,
        words: &[WeightedWord],
        limits: &relq::ExecLimits,
    ) -> Option<Vec<ScoredTid>> {
        let sum_idf: f64 = words.iter().map(|w| w.weight).sum();
        if words.is_empty() || sum_idf <= 0.0 {
            return Some(Vec::new());
        }
        let params = self.shared.params().ges;
        let qcfg = QgramConfig::new(params.q);
        let dq = 1.0 - 1.0 / params.q as f64;
        let two_over_q = 2.0 / params.q as f64;
        let records = self.shared.ges_word_records();
        let vocab = self.vocab.word_qgram_sizes.len();
        let n = self.shared.corpus().num_records();
        // Per vocabulary word: grams (or components) shared with the
        // current query word; `matched` lists the words with a nonzero count.
        let mut counts = vec![0u32; vocab];
        let mut matched: Vec<TokenId> = Vec::new();
        // Per record: the current query word's max similarity (0 = not
        // reached; a similarity is > 0) and the running total (0 = no term
        // yet; a term is > 0). `reached` and `scored` list the nonzero slots.
        let mut maxsim = vec![0.0f64; n];
        let mut reached: Vec<u32> = Vec::new();
        let mut total = vec![0.0f64; n];
        let mut scored: Vec<u32> = Vec::new();
        for w in words {
            if !limits.poll_deadline() {
                return None;
            }
            let grams = distinct_qgrams(&w.word, qcfg);
            let mut count = |wid: TokenId| {
                if counts[wid as usize] == 0 {
                    matched.push(wid);
                }
                counts[wid as usize] += 1;
            };
            match &self.vocab.index {
                WordIndex::Qgrams(gram_words) => {
                    for gid in grams.iter().filter_map(|g| self.vocab.qgram_dict.get(g)) {
                        gram_words.row(gid as usize).iter().for_each(|&wid| count(wid));
                    }
                }
                WordIndex::MinHash { values, words } => {
                    let sig = self.vocab.hasher.signature(grams.iter());
                    for (fid, &v) in sig.iter().enumerate() {
                        let v = signature_value(v);
                        let component = &values[fid * vocab..(fid + 1) * vocab];
                        let lo = component.partition_point(|&x| x < v);
                        let hi = lo + component[lo..].partition_point(|&x| x == v);
                        words[fid * vocab + lo..fid * vocab + hi]
                            .iter()
                            .for_each(|&wid| count(wid));
                    }
                }
            }
            for wid in matched.drain(..) {
                let cnt = std::mem::take(&mut counts[wid as usize]);
                let sim = match self.vocab.filter {
                    GesFilterKind::Jaccard => {
                        let union =
                            self.vocab.word_qgram_sizes[wid as usize] + grams.len() - cnt as usize;
                        cnt as f64 / (union as f64).max(1e-9)
                    }
                    GesFilterKind::MinHash => cnt as f64 / self.vocab.hasher.num_hashes() as f64,
                };
                for &r in records.row(wid as usize) {
                    let slot = &mut maxsim[r as usize];
                    if *slot == 0.0 {
                        reached.push(r);
                    }
                    *slot = slot.max(sim);
                }
            }
            for r in reached.drain(..) {
                let sim = std::mem::take(&mut maxsim[r as usize]);
                let slot = &mut total[r as usize];
                if *slot == 0.0 {
                    scored.push(r);
                }
                *slot += w.weight * (sim * two_over_q + dq);
            }
        }
        Some(
            scored
                .into_iter()
                .map(|r| ScoredTid::new(r as Tid, total[r as usize] / sum_idf))
                .collect(),
        )
    }

    /// The reference plan, built on first use.
    fn reference(&self) -> &ReferencePlan {
        self.reference.get_or_init(|| self.build_reference())
    }

    fn build_reference(&self) -> ReferencePlan {
        let corpus = self.shared.corpus();
        let params = self.shared.params().ges;
        let qcfg = QgramConfig::new(params.q);
        // Minimal catalog: the shared word table plus the filter's own
        // second-level index, nothing else forced to build.
        let mut catalog = self.shared.catalog_with(&["base_words"]);
        // Per-query-word similarity sub-plan (probing the second-level index).
        let maxsim_plan = match self.vocab.filter {
            GesFilterKind::Jaccard => {
                // BASE_QGRAMS(wtoken, qgram, wsize): every word's distinct
                // interned q-grams.
                let rows = self.vocab.word_qgram_sizes.iter().sum();
                let mut base_qgrams = Table::with_capacity(
                    Schema::from_pairs(&[
                        ("wtoken", DataType::Int),
                        ("qgram", DataType::Int),
                        ("wsize", DataType::Int),
                    ]),
                    rows,
                );
                for (wid, word) in corpus.word_dict().iter() {
                    let size = self.vocab.word_qgram_sizes[wid as usize] as i64;
                    for g in distinct_qgrams(word, qcfg) {
                        let gid =
                            self.vocab.qgram_dict.get(&g).expect("every word gram is interned");
                        base_qgrams
                            .push([
                                Value::Int(wid as i64),
                                Value::Int(gid as i64),
                                Value::Int(size),
                            ])
                            .expect("schema matches");
                    }
                }
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
                // BASE_MHSIG(wtoken, fid, value): every word's signature.
                let mut base_mhsig = Table::with_capacity(
                    Schema::from_pairs(&[
                        ("wtoken", DataType::Int),
                        ("fid", DataType::Int),
                        ("value", DataType::Int),
                    ]),
                    corpus.num_word_tokens() * self.vocab.hasher.num_hashes(),
                );
                for (wid, word) in corpus.word_dict().iter() {
                    let sig = self.vocab.hasher.signature(distinct_qgrams(word, qcfg).iter());
                    for (fid, &v) in sig.iter().enumerate() {
                        base_mhsig
                            .push([
                                Value::Int(wid as i64),
                                Value::Int(fid as i64),
                                Value::Int(signature_value(v)),
                            ])
                            .expect("schema matches");
                    }
                }
                catalog
                    .register_indexed("base_mhsig", base_mhsig, &["fid", "value"])
                    .expect("base_mhsig has fid/value columns");
                let h = self.vocab.hasher.num_hashes() as f64;
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
        ReferencePlan { catalog, plan }
    }

    /// The reference plan's estimates, best first (the naive path).
    fn reference_estimates(
        &self,
        query_words: &[WeightedWord],
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let qcfg = QgramConfig::new(self.shared.params().ges.q);
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
        match self.vocab.filter {
            GesFilterKind::Jaccard => {
                // QUERY_QGRAMS(qword, qgram, qsize)
                let mut query_qgrams = Table::empty(Schema::from_pairs(&[
                    ("qword", DataType::Int),
                    ("qgram", DataType::Int),
                    ("qsize", DataType::Int),
                ]));
                for (i, w) in query_words.iter().enumerate() {
                    let grams = distinct_qgrams(&w.word, qcfg);
                    let size = grams.len() as i64;
                    for g in &grams {
                        if let Some(gid) = self.vocab.qgram_dict.get(g) {
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
                    query_words.len() * self.vocab.hasher.num_hashes(),
                );
                for (i, w) in query_words.iter().enumerate() {
                    let sig = self.vocab.hasher.signature(distinct_qgrams(&w.word, qcfg).iter());
                    for (fid, &v) in sig.iter().enumerate() {
                        query_sig
                            .push([
                                Value::Int(i as i64),
                                Value::Int(fid as i64),
                                Value::Int(signature_value(v)),
                            ])
                            .expect("schema matches");
                    }
                }
                bindings = bindings.with_table("query_sig", query_sig);
            }
        }

        // The reference runs unbudgeted, like every naive plan.
        let reference = self.reference();
        let unlimited = relq::ExecLimits::unlimited();
        crate::tables::run_ranking_plan(
            &reference.plan,
            &reference.catalog,
            &bindings,
            true,
            &unlimited,
        )
    }
}

impl EngineOps for FilteredGes {
    fn predicate_kind(&self) -> PredicateKind {
        match self.filter {
            GesFilterKind::Jaccard => PredicateKind::GesJaccard,
            GesFilterKind::MinHash => PredicateKind::GesApx,
        }
    }

    fn shared_artifacts(&self) -> &SharedArtifacts {
        &self.shared
    }

    /// The reference plan's catalog, once a naive run has built it.
    fn plan_catalog(&self) -> Option<&Catalog> {
        self.reference.get().map(|r| &r.catalog)
    }

    /// Execute: filter by the over-estimate at the build-time θ, re-score
    /// candidates exactly in estimate order, then apply the execution mode
    /// to the exact scores.
    fn execute_mode(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &crate::engine::RequestLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let query_words = query.weighted_words();
        if query_words.is_empty() {
            return Ok(Vec::new());
        }
        let theta = self.shared.params().ges.filter_threshold;
        let mut survivors = if naive {
            self.filter_scores_mode(query, true)?
        } else {
            // A deadline that trips inside the filter leaves no survivor
            // re-scored: the anytime answer is empty (and degraded).
            let Some(estimates) = self.memo_estimates(query_words, limits) else {
                return Ok(Vec::new());
            };
            estimates
        };
        survivors.retain(|s| s.score >= theta);
        if survivors.is_empty() {
            return Ok(Vec::new());
        }
        sort_ranked(&mut survivors);
        let mut scorer = GesScorer::new(
            self.shared.corpus(),
            self.shared.ges_word_weights(),
            query_words,
            self.shared.params().ges.cins,
        );
        let mut out = Vec::new();
        for candidate in survivors {
            // Budget boundary: one candidate per filter survivor re-scored.
            // Entries already pushed carry exact GES scores, so breaking
            // leaves a valid anytime answer.
            if !scorer.charge_record(limits) {
                break;
            }
            let exact = scorer.similarity(self.shared.record_index(candidate.tid));
            out.push(ScoredTid::new(candidate.tid, exact));
        }
        Ok(finalize_ranking(out, exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combination::ges::{ges_similarity, weighted_query_words, weighted_record_words};
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
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

    /// The filtered GES core of `filter` over `corpus()` with `ges` as its
    /// parameters.
    fn filtered(filter: GesFilterKind, ges: GesParams) -> FilteredGes {
        let params = Params { ges, ..Params::default() };
        FilteredGes::from_shared(SharedArtifacts::build(corpus(), &params), filter)
    }

    /// The engine handle of `kind` over `corpus()` with `ges` as its
    /// parameters.
    fn handle(kind: PredicateKind, ges: GesParams) -> Box<dyn Predicate> {
        build_predicate(kind, corpus(), &Params { ges, ..Params::default() })
    }

    /// The memo's filter estimates of `text`, best first.
    fn estimates(filter: &FilteredGes, text: &str) -> Vec<ScoredTid> {
        let query = Query::build(filter.shared.corpus(), text);
        filter.filter_scores_mode(&query, false).unwrap()
    }

    #[test]
    fn filter_estimate_is_high_for_exact_duplicates() {
        let p = filtered(GesFilterKind::Jaccard, GesParams::default());
        let scores = estimates(&p, "Morgan Stanley Group Incorporated");
        let own = scores.iter().find(|s| s.tid == 0).expect("tuple 0 present");
        assert!(own.score > 0.95, "estimate for exact duplicate was {}", own.score);
    }

    #[test]
    fn filter_overestimates_exact_ges() {
        // Equation 4.7 ignores word order, so it over-estimates GES.
        let p = filtered(GesFilterKind::Jaccard, GesParams::default());
        let q = "Morgan Stanley Group Incorporated";
        let filter = estimates(&p, q);
        let shared = &p.shared;
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
        let p = handle(PredicateKind::GesJaccard, GesParams::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert!(!ranking.is_empty());
        assert_eq!(ranking[0].tid, 0);
        // The unrelated Beijing tuple must be filtered out at θ = 0.8.
        assert!(ranking.iter().all(|s| s.tid != 4));
    }

    #[test]
    fn higher_threshold_returns_fewer_candidates() {
        let loose = handle(
            PredicateKind::GesJaccard,
            GesParams { filter_threshold: 0.5, ..GesParams::default() },
        );
        let strict = handle(
            PredicateKind::GesJaccard,
            GesParams { filter_threshold: 0.95, ..GesParams::default() },
        );
        let q = "Morgan Stanle Grop Incorporated";
        assert!(loose.rank(q).len() >= strict.rank(q).len());
    }

    #[test]
    fn minhash_variant_approximates_jaccard_variant() {
        let exact = filtered(GesFilterKind::Jaccard, GesParams::default());
        let apx =
            filtered(GesFilterKind::MinHash, GesParams { num_hashes: 64, ..GesParams::default() });
        let q = "Morgan Stanley Group Incorporated";
        let e = estimates(&exact, q);
        let a = estimates(&apx, q);
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
        let p = filtered(GesFilterKind::Jaccard, GesParams::default());
        let corpus = corpus();
        for (wid, word) in corpus.word_dict().iter() {
            // A word of n chars padded with q-1 on each side has n + q - 1
            // grams before deduplication, so the distinct count is at most that.
            let upper = word.chars().count() + 1;
            let size = p.vocab.word_qgram_sizes[wid as usize];
            assert!(size >= 1 && size <= upper, "{word}: {size} vs upper {upper}");
        }
    }

    #[test]
    fn pushdown_modes_match_post_hoc_selection() {
        let p = handle(PredicateKind::GesJaccard, GesParams::default());
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
        assert!(handle(PredicateKind::GesApx, GesParams::default()).rank("").is_empty());
        assert!(estimates(&filtered(GesFilterKind::MinHash, GesParams::default()), "").is_empty());
    }

    use crate::engine::SelectionEngine;
    use crate::params::{ExecBudget, Params};
    use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset};

    /// The seeded 500-record CU1-like corpus and a DBLP-like one.
    fn test_corpora() -> Vec<(&'static str, Arc<TokenizedCorpus>)> {
        let cu1 = cu_dataset_sized(cu_spec("CU1").expect("CU1 is a preset"), 500, 50);
        [("cu1", cu1.strings()), ("dblp", dblp_dataset(500).strings())]
            .into_iter()
            .map(|(name, strings)| {
                let corpus =
                    TokenizedCorpus::build(Corpus::from_strings(strings), Params::default().qgram);
                (name, Arc::new(corpus))
            })
            .collect()
    }

    /// Each filter kind and hash count over `corpus` at gram size `q`.
    fn filters(corpus: &Arc<TokenizedCorpus>, q: usize) -> Vec<(String, FilteredGes)> {
        [(GesFilterKind::Jaccard, 5), (GesFilterKind::MinHash, 1), (GesFilterKind::MinHash, 5)]
            .into_iter()
            .chain([(GesFilterKind::MinHash, 64)])
            .map(|(kind, num_hashes)| {
                let ges = GesParams { q, num_hashes, ..GesParams::default() };
                let shared =
                    SharedArtifacts::build(corpus.clone(), &Params { ges, ..Params::default() });
                (format!("{kind:?} q={q} h={num_hashes}"), FilteredGes::from_shared(shared, kind))
            })
            .collect()
    }

    /// The memo's estimates equal the reference plan's in tid, order and
    /// bits; returns how many there were.
    fn assert_memo_matches_reference(filter: &FilteredGes, text: &str, label: &str) -> usize {
        let query = Query::build(filter.shared.corpus(), text);
        let memo = filter.filter_scores_mode(&query, false).unwrap();
        let reference = filter.filter_scores_mode(&query, true).unwrap();
        let bits = |s: &[ScoredTid]| -> Vec<(Tid, u64)> {
            s.iter().map(|s| (s.tid, s.score.to_bits())).collect()
        };
        assert_eq!(bits(&memo), bits(&reference), "{label}: {text:?}");
        memo.len()
    }

    #[test]
    fn memo_estimates_are_bit_identical_to_the_reference_plan() {
        for (name, corpus) in test_corpora() {
            let mut texts: Vec<String> = (0..corpus.num_records())
                .step_by(100)
                .map(|idx| corpus.record_text(idx).to_string())
                .collect();
            let first = corpus.record_text(0).to_string();
            let word = first.split_whitespace().next().expect("a record has a word").to_string();
            texts.extend([
                // Duplicate query words count twice.
                format!("{first} {first}"),
                format!("{word} {word} {word}"),
                // Unknown words (average idf), alone and beside known ones.
                format!("{word}x zzqv {first}"),
                "frobnicatorial quuxly".to_string(),
                // Words none of whose grams the vocabulary holds.
                "\u{4e2d}\u{6587} \u{65e5}\u{672c}\u{8a9e}".to_string(),
                format!("\u{4e2d}\u{6587} {word}"),
                // One-character and non-ASCII words.
                format!("a {word} b \u{e9}"),
                "\u{c9}cole M\u{fc}ller \u{df}".to_string(),
                // Empty and blank queries.
                String::new(),
                "   ".to_string(),
            ]);
            for q in [2, 3] {
                for (label, filter) in filters(&corpus, q) {
                    let label = format!("{name} {label}");
                    let reached: usize = texts
                        .iter()
                        .map(|text| assert_memo_matches_reference(&filter, text, &label))
                        .sum();
                    assert!(reached > texts.len(), "{label}: the queries must reach records");
                    assert_eq!(assert_memo_matches_reference(&filter, "", &label), 0);
                }
            }
        }
    }

    #[test]
    fn memo_estimates_match_the_reference_plan_on_random_strings() {
        use proptest::prelude::*;
        let corpus = corpus();
        let filters = filters(&corpus, 2);
        check(32, |g| {
            let text = g.string_of("MORGANSTLEYBIJ \u{e9}", 0..40);
            for (label, filter) in &filters {
                assert_memo_matches_reference(filter, &text, label);
            }
        });
    }

    /// With a candidate cap of `cap`, GES_Jaccard and GES_apx re-score the
    /// first `cap` filter survivors in the reference plan's estimate order —
    /// the bytes a budgeted run returned when the plan was the served path.
    #[test]
    fn every_candidate_cap_rescores_a_prefix_of_the_reference_survivors() {
        let (_, corpus) = test_corpora().swap_remove(0);
        let params = Params::default();
        let engine = SelectionEngine::build(corpus.clone(), &params);
        let theta = params.ges.filter_threshold;
        let weights = crate::combination::ges::word_weights(&corpus);
        for filter in [GesFilterKind::Jaccard, GesFilterKind::MinHash] {
            let filter =
                FilteredGes::from_shared(SharedArtifacts::build(corpus.clone(), &params), filter);
            let kind = filter.predicate_kind();
            let handle = engine.predicate(kind);
            let mut cases = 0;
            for idx in (0..corpus.num_records()).step_by(100) {
                let query = engine.query(corpus.record_text(idx));
                let mut survivors = filter.filter_scores_mode(&query, true).unwrap();
                survivors.retain(|s| s.score >= theta);
                let mut scorer =
                    GesScorer::new(&corpus, &weights, query.weighted_words(), params.ges.cins);
                let exact: Vec<ScoredTid> = survivors
                    .iter()
                    .map(|s| ScoredTid::new(s.tid, scorer.similarity(s.tid as usize)))
                    .collect();
                for cap in 0..=survivors.len() {
                    let budget = ExecBudget { max_candidates: Some(cap), ..ExecBudget::default() };
                    for exec in [Exec::Rank, Exec::TopK(3)] {
                        let run = handle.execute_budgeted(&query, exec, budget).unwrap();
                        let want = finalize_ranking(exact[..cap].to_vec(), exec);
                        assert_eq!(run.results, want, "{kind} {exec:?} cap {cap} record {idx}");
                        assert_eq!(run.degraded, cap < survivors.len(), "{kind} cap {cap}");
                    }
                }
                cases += survivors.len();
            }
            assert!(cases > 0, "{kind}: the queries must have survivors");
        }
    }

    #[test]
    fn a_served_engine_never_builds_the_reference_plan() {
        let p = filtered(GesFilterKind::Jaccard, GesParams::default());
        let query = Query::build(p.shared.corpus(), "Morgan Stanley Group Incorporated");
        let unlimited = crate::engine::RequestLimits::unlimited();
        let served = p.execute_mode(&query, Exec::Rank, false, &unlimited).unwrap();
        assert!(p.plan_catalog().is_none(), "the indexed path built the reference");
        assert!(p.shared.artifact_built("ges_word_records"));
        assert!(!p.shared.artifact_built("base_words"));
        assert_eq!(p.execute_mode(&query, Exec::Rank, true, &unlimited).unwrap(), served);
        let catalog = p.plan_catalog().expect("the naive run builds the reference");
        assert!(catalog.contains("base_words") && catalog.contains("base_qgrams"));
    }
}
