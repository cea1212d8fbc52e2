//! The generalized edit similarity (GES) of §3.5 and the exact GES predicate.
//!
//! GES aligns *word* tokens: transforming the query into the tuple by
//! replacing a word (cost `(1 - simedit) · w(t)`), inserting a word
//! (cost `cins · w(t)`) or deleting a word (cost `w(t)`), and normalizing the
//! minimum transformation cost by the total query weight.

use crate::corpus::TokenizedCorpus;
use crate::dict::TokenId;
use crate::engine::{finalize_ranking, EngineOps, Exec, Query, SharedArtifacts};
use crate::predicate::PredicateKind;
use crate::record::{ScoredTid, Tid};
use dasp_text::{edit_similarity, EditPattern};
use std::collections::HashMap;
use std::sync::Arc;

/// A word token paired with its weight, the unit GES aligns.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedWord {
    /// Upper-cased word token.
    pub word: String,
    /// Token weight (IDF in the paper's evaluation).
    pub weight: f64,
}

impl WeightedWord {
    /// Create a weighted word.
    pub fn new(word: impl Into<String>, weight: f64) -> Self {
        WeightedWord { word: word.into(), weight }
    }
}

/// Minimum transformation cost from `query` to `tuple` (word-level dynamic
/// program over the three GES edit operations).
pub fn ges_transformation_cost(query: &[WeightedWord], tuple: &[WeightedWord], cins: f64) -> f64 {
    let n = query.len();
    let m = tuple.len();
    // dp[i][j]: cost of transforming the first i query words into the first
    // j tuple words.
    let mut dp = vec![vec![0.0f64; m + 1]; n + 1];
    for i in 1..=n {
        dp[i][0] = dp[i - 1][0] + query[i - 1].weight; // delete query word
    }
    for j in 1..=m {
        dp[0][j] = dp[0][j - 1] + cins * tuple[j - 1].weight; // insert tuple word
    }
    for i in 1..=n {
        for j in 1..=m {
            let delete = dp[i - 1][j] + query[i - 1].weight;
            let insert = dp[i][j - 1] + cins * tuple[j - 1].weight;
            let replace = dp[i - 1][j - 1]
                + (1.0 - edit_similarity(&query[i - 1].word, &tuple[j - 1].word))
                    * query[i - 1].weight;
            dp[i][j] = delete.min(insert).min(replace);
        }
    }
    dp[n][m]
}

/// GES similarity (Equation 3.14): `1 - min(tc / wt(Q), 1)`.
pub fn ges_similarity(query: &[WeightedWord], tuple: &[WeightedWord], cins: f64) -> f64 {
    let wt_q: f64 = query.iter().map(|w| w.weight).sum();
    if wt_q <= 0.0 {
        return 0.0;
    }
    let tc = ges_transformation_cost(query, tuple, cins);
    1.0 - (tc / wt_q).min(1.0)
}

/// Build the weighted word-token view of a query string against a corpus:
/// known words get their IDF weight, unknown words the average word IDF
/// (§4.5).
pub fn weighted_query_words(corpus: &TokenizedCorpus, query: &str) -> Vec<WeightedWord> {
    weighted_words(corpus, dasp_text::word_tokens(query).into_iter())
}

/// The one weighting rule behind every query-side word view: known words get
/// their IDF, unknown words the corpus's stored average word IDF (§4.5).
/// [`weighted_query_words`] and the engine's prepared
/// [`Query`](crate::engine::Query) both go through here, so the rule cannot
/// drift between the two paths.
pub(crate) fn weighted_words(
    corpus: &TokenizedCorpus,
    words: impl Iterator<Item = String>,
) -> Vec<WeightedWord> {
    let avg_idf = corpus.avg_word_idf();
    words
        .map(|w| {
            let weight = match corpus.word_dict().get(&w) {
                Some(id) => corpus.word_idf(id),
                None => avg_idf,
            };
            // Never assign a zero weight: a word occurring in every tuple
            // would otherwise be free to delete, which degenerates the score.
            WeightedWord::new(w, weight.max(1e-6))
        })
        .collect()
}

/// Weighted word-token view of a base record. The predicates score records
/// from word ids instead (`GesScorer`); this string-level view, with
/// [`ges_similarity`], is the reference they are tested against.
pub fn weighted_record_words(corpus: &TokenizedCorpus, record_idx: usize) -> Vec<WeightedWord> {
    corpus
        .record_words(record_idx)
        .iter()
        .map(|&id| WeightedWord::new(corpus.word_dict().token(id), corpus.word_idf(id).max(1e-6)))
        .collect()
}

/// The GES weight of every vocabulary word, by word id: its IDF, floored
/// like the query side (see [`weighted_words`]).
pub(crate) fn word_weights(corpus: &TokenizedCorpus) -> Vec<f64> {
    (0..corpus.num_word_tokens()).map(|id| corpus.word_idf(id as TokenId).max(1e-6)).collect()
}

/// Most 8-byte memo slots one [`GesScorer`] holds. A cached query word costs
/// one similarity row over the vocabulary plus its 128-slot match masks;
/// distinct query words past the cap are compared uncached, with the scalar
/// kernel, so a hostile query costs bounded memory.
pub(crate) const WORD_SIM_MEMO_CAP: usize = 1 << 20;

/// Slots the match masks of one [`EditPattern`] take.
const PATTERN_SLOTS: usize = 128;

/// Query positions past which a [`GesScorer`] polls the deadline before
/// every record. A record's dynamic program grows with the query's
/// positions, and the candidate charge reads the clock once per 64
/// records, so against a 100 KB query those 64 records run for seconds;
/// a query of this many positions or fewer keeps the charge's cadence.
const POLL_EACH_RECORD_POSITIONS: usize = 64;

/// One query's exact GES scorer over records held as word ids.
///
/// Computes what [`ges_similarity`] computes over [`weighted_query_words`]
/// and [`weighted_record_words`], bit for bit: the dynamic program visits
/// cells in the same order with the same arithmetic. Only how a cell gets
/// `edit_similarity(query word, record word)` differs: from a per-query memo
/// keyed by (distinct query word, vocabulary word id), filled on first use
/// by the bit-parallel [`EditPattern`] kernel.
pub(crate) struct GesScorer<'a> {
    corpus: &'a TokenizedCorpus,
    /// Per vocabulary word id, its weight ([`word_weights`]).
    word_weights: &'a [f64],
    cins: f64,
    /// `wt(Q)`, summed exactly as [`ges_similarity`] sums it.
    wt_q: f64,
    /// Per query position: its weight and the index of its distinct word.
    positions: Vec<(f64, usize)>,
    /// Distinct query words in first-seen order.
    words: Vec<&'a str>,
    /// Patterns of the first `patterns.len()` distinct words, the cached ones.
    patterns: Vec<EditPattern>,
    /// `patterns.len()` rows of one similarity per vocabulary word; NaN
    /// marks a slot not computed yet (a similarity is never NaN).
    memo: Vec<f64>,
    /// Two rows of the dynamic program, reused across records.
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl<'a> GesScorer<'a> {
    pub(crate) fn new(
        corpus: &'a TokenizedCorpus,
        word_weights: &'a [f64],
        query: &'a [WeightedWord],
        cins: f64,
    ) -> Self {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut words = Vec::new();
        let positions = query
            .iter()
            .map(|w| {
                let slot = *index.entry(w.word.as_str()).or_insert_with(|| {
                    words.push(w.word.as_str());
                    words.len() - 1
                });
                (w.weight, slot)
            })
            .collect();
        let vocab = corpus.num_word_tokens();
        let cached = words.len().min(WORD_SIM_MEMO_CAP / (vocab + PATTERN_SLOTS));
        GesScorer {
            corpus,
            word_weights,
            cins,
            wt_q: query.iter().map(|w| w.weight).sum(),
            positions,
            patterns: words[..cached].iter().map(|w| EditPattern::new(w)).collect(),
            words,
            memo: vec![f64::NAN; cached * vocab],
            prev: Vec::new(),
            curr: Vec::new(),
        }
    }

    /// Ask `limits` for one more record to score: a candidate charge,
    /// after a deadline poll of its own when the query has more than
    /// [`POLL_EACH_RECORD_POSITIONS`] positions.
    pub(crate) fn charge_record(&self, limits: &relq::ExecLimits) -> bool {
        (self.positions.len() <= POLL_EACH_RECORD_POSITIONS || limits.poll_deadline())
            && limits.charge_candidate()
    }

    /// Memo slots held (similarity rows plus match masks).
    #[cfg(test)]
    pub(crate) fn memo_slots(&self) -> usize {
        self.memo.len() + self.patterns.len() * PATTERN_SLOTS
    }

    /// The edit similarity of distinct query word `slot` and vocabulary
    /// word `id`.
    fn word_similarity(&mut self, slot: usize, id: TokenId) -> f64 {
        let vocab = self.corpus.word_dict();
        match self.patterns.get(slot) {
            Some(pattern) => {
                let cell = &mut self.memo[slot * self.word_weights.len() + id as usize];
                if cell.is_nan() {
                    *cell = pattern.similarity(vocab.token(id));
                }
                *cell
            }
            None => edit_similarity(self.words[slot], vocab.token(id)),
        }
    }

    /// GES similarity (Equation 3.14) of the query against record `idx`.
    pub(crate) fn similarity(&mut self, idx: usize) -> f64 {
        if self.wt_q <= 0.0 {
            return 0.0;
        }
        let corpus = self.corpus;
        let record = corpus.record_words(idx);
        let mut prev = std::mem::take(&mut self.prev);
        let mut curr = std::mem::take(&mut self.curr);
        // Row 0: insert every record word.
        prev.clear();
        prev.push(0.0);
        for (j, &t) in record.iter().enumerate() {
            prev.push(prev[j] + self.cins * self.word_weights[t as usize]);
        }
        curr.resize(record.len() + 1, 0.0);
        for i in 0..self.positions.len() {
            let (weight, slot) = self.positions[i];
            curr[0] = prev[0] + weight; // delete query word
            for (j, &t) in record.iter().enumerate() {
                let delete = prev[j + 1] + weight;
                let insert = curr[j] + self.cins * self.word_weights[t as usize];
                let replace = prev[j] + (1.0 - self.word_similarity(slot, t)) * weight;
                curr[j + 1] = delete.min(insert).min(replace);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        let tc = prev[record.len()];
        self.prev = prev;
        self.curr = curr;
        1.0 - (tc / self.wt_q).min(1.0)
    }
}

/// The exact GES predicate: scores every tuple with Equation 3.14 (used by
/// the paper for all GES accuracy numbers).
///
/// GES is the one predicate with no relational realization at all — the
/// paper computes it with a UDF because the word-alignment dynamic program
/// cannot be expressed as joins — so it is also the only predicate that does
/// not execute through a prepared `IndexJoin` plan: it scores every tuple
/// natively from the record word ids and the shared GES word weights,
/// through a per-query word-similarity memo. [`Exec::TopK`] selects with
/// the bounded heap instead of a full sort; [`Exec::Threshold`] filters
/// during scoring. GES_Jaccard and GES_apx ([`super::ges_filter`]) are
/// the index-filtered realizations.
pub(crate) struct GesPredicate {
    shared: Arc<SharedArtifacts>,
}

impl GesPredicate {
    /// Phase-2 preprocessing: nothing beyond the shared word weights.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        GesPredicate { shared }
    }
}

impl EngineOps for GesPredicate {
    fn predicate_kind(&self) -> PredicateKind {
        PredicateKind::Ges
    }

    fn shared_artifacts(&self) -> &SharedArtifacts {
        &self.shared
    }

    fn execute_mode(
        &self,
        query: &Query,
        exec: Exec,
        _naive: bool,
        limits: &crate::engine::RequestLimits,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let query_words = query.weighted_words();
        if query_words.is_empty() {
            return Ok(Vec::new());
        }
        let corpus = self.shared.corpus();
        let mut scorer = GesScorer::new(
            corpus,
            self.shared.ges_word_weights(),
            query_words,
            self.shared.params().ges.cins,
        );
        // The setup charges nothing: an expired deadline ends the request
        // here with the empty anytime answer.
        if !limits.poll_deadline() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(corpus.num_records());
        for idx in 0..corpus.num_records() {
            // Budget boundary: one candidate per corpus record scored.
            // Scores already pushed are exact, so breaking leaves a valid
            // anytime answer.
            if !scorer.charge_record(limits) {
                break;
            }
            let sim = scorer.similarity(idx);
            if sim > 0.0 {
                out.push(ScoredTid::new(idx as Tid, sim));
            }
        }
        Ok(finalize_ranking(out, exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use dasp_text::QgramConfig;

    fn ww(pairs: &[(&str, f64)]) -> Vec<WeightedWord> {
        pairs.iter().map(|(w, x)| WeightedWord::new(*w, *x)).collect()
    }

    #[test]
    fn identical_strings_have_similarity_one() {
        let q = ww(&[("MORGAN", 2.0), ("STANLEY", 3.0)]);
        assert_eq!(ges_transformation_cost(&q, &q, 0.5), 0.0);
        assert_eq!(ges_similarity(&q, &q, 0.5), 1.0);
    }

    #[test]
    fn deleting_all_query_words_costs_their_weight() {
        let q = ww(&[("A", 1.0), ("B", 2.0)]);
        let empty: Vec<WeightedWord> = Vec::new();
        assert_eq!(ges_transformation_cost(&q, &empty, 0.5), 3.0);
        assert_eq!(ges_similarity(&q, &empty, 0.5), 0.0);
    }

    #[test]
    fn insertion_uses_cins_factor() {
        let q = ww(&[("A", 1.0)]);
        let d = ww(&[("A", 1.0), ("B", 2.0)]);
        // Keep A (free) and insert B at cost 0.5 * 2.
        assert!((ges_transformation_cost(&q, &d, 0.5) - 1.0).abs() < 1e-12);
        assert!((ges_similarity(&q, &d, 0.5) - 0.0).abs() < 1e-12);
        // With a cheaper insertion factor the similarity improves.
        assert!(ges_similarity(&q, &d, 0.1) > ges_similarity(&q, &d, 0.9));
    }

    #[test]
    fn replacement_cost_scales_with_edit_similarity() {
        let q = ww(&[("STANLEY", 2.0)]);
        let close = ww(&[("STALNEY", 2.0)]);
        let far = ww(&[("VALLEY", 2.0)]);
        let sim_close = ges_similarity(&q, &close, 0.5);
        let sim_far = ges_similarity(&q, &far, 0.5);
        assert!(sim_close > sim_far);
        assert!(sim_close > 0.5);
    }

    #[test]
    fn token_swap_hurts_ges_as_in_the_paper() {
        // Paper §5.4: GES cannot capture token swaps because it respects word
        // order; "Hotel Beijing" scores lower against "Beijing Hotel" than an
        // exact copy does.
        let q = ww(&[("BEIJING", 2.0), ("HOTEL", 1.0)]);
        let swapped = ww(&[("HOTEL", 1.0), ("BEIJING", 2.0)]);
        let exact = ges_similarity(&q, &q, 0.5);
        let swap = ges_similarity(&q, &swapped, 0.5);
        assert!(swap < exact);
    }

    use crate::factory::build_predicate;

    #[test]
    fn predicate_ranks_edit_variant_above_unrelated() {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Incorporated",
                "Morgan Stanle Grop Incorporated",
                "Silicon Valley Group Incorporated",
                "Beijing Hotel",
            ]),
            QgramConfig::new(2),
        ));
        let p = build_predicate(PredicateKind::Ges, corpus, &Params::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert_eq!(ranking[0].tid, 0);
        let pos_typo = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_valley = ranking.iter().position(|s| s.tid == 2).unwrap();
        assert!(pos_typo < pos_valley);
    }

    #[test]
    fn unknown_query_words_get_average_idf() {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec!["alpha beta", "gamma delta"]),
            QgramConfig::new(2),
        ));
        let words = weighted_query_words(&corpus, "alpha zzzz");
        assert_eq!(words.len(), 2);
        assert!(words[1].weight > 0.0);
    }

    use crate::combination::ges_filter::{FilteredGes, GesFilterKind};
    use crate::engine::SelectionEngine;
    use crate::params::Params;
    use crate::predicate::PredicateKind;

    /// A seeded 500-record CU1-like corpus (company names with CU1's error
    /// mix) and an engine over it.
    fn cu1_engine() -> (Arc<TokenizedCorpus>, SelectionEngine) {
        let spec = dasp_datagen::presets::cu_spec("CU1").expect("CU1 is a preset");
        let dataset = dasp_datagen::presets::cu_dataset_sized(spec, 500, 50);
        let params = Params::default();
        let corpus =
            Arc::new(TokenizedCorpus::build(Corpus::from_strings(dataset.strings()), params.qgram));
        let engine = SelectionEngine::build(corpus.clone(), &params);
        (corpus, engine)
    }

    /// Score `records` with the string-level reference: `ges_similarity`
    /// over `weighted_query_words` / `weighted_record_words`, which runs the
    /// scalar edit similarity in every cell of the dynamic program.
    fn reference_scores(
        corpus: &TokenizedCorpus,
        text: &str,
        records: impl Iterator<Item = usize>,
    ) -> Vec<ScoredTid> {
        let query = weighted_query_words(corpus, text);
        records
            .map(|idx| {
                let tuple = weighted_record_words(corpus, idx);
                ScoredTid::new(idx as Tid, ges_similarity(&query, &tuple, 0.5))
            })
            .collect()
    }

    fn assert_bit_identical(got: &[ScoredTid], want: &[ScoredTid], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: result sizes differ");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.tid, w.tid, "{label}: order differs");
            assert_eq!(g.score.to_bits(), w.score.to_bits(), "{label}: tid {} score", g.tid);
        }
    }

    #[test]
    fn ges_family_rank_is_bit_identical_to_the_string_level_reference() {
        let (corpus, engine) = cu1_engine();
        let params = Params::default();
        let ges = params.ges;
        let filter =
            |kind| FilteredGes::from_shared(SharedArtifacts::build(corpus.clone(), &params), kind);
        let (jaccard, apx) = (filter(GesFilterKind::Jaccard), filter(GesFilterKind::MinHash));
        for idx in (0..corpus.num_records()).step_by(25) {
            let text = corpus.record_text(idx).to_string();
            let query = engine.query(&text);

            // GES scores the full scan and keeps positive scores.
            let mut want = reference_scores(&corpus, &text, 0..corpus.num_records());
            want.retain(|s| s.score > 0.0);
            let got = engine.predicate(PredicateKind::Ges).execute(&query, Exec::Rank).unwrap();
            assert_bit_identical(&got, &finalize_ranking(want, Exec::Rank), &format!("GES {text}"));

            // The filtered variants re-score their filter survivors, taken
            // from the naive reference plan (the served memo is under test).
            for (kind, filter) in [
                (PredicateKind::GesJaccard, jaccard.filter_scores_mode(&query, true).unwrap()),
                (PredicateKind::GesApx, apx.filter_scores_mode(&query, true).unwrap()),
            ] {
                let survivors = filter
                    .iter()
                    .filter(|s| s.score >= ges.filter_threshold)
                    .map(|s| s.tid as usize);
                let want = reference_scores(&corpus, &text, survivors);
                let got = engine.predicate(kind).execute(&query, Exec::Rank).unwrap();
                assert_bit_identical(
                    &got,
                    &finalize_ranking(want, Exec::Rank),
                    &format!("{kind} {text}"),
                );
            }
        }
    }

    #[test]
    fn hostile_100kb_query_is_exact_and_stays_under_the_memo_cap() {
        let (corpus, engine) = cu1_engine();
        // More distinct words than the memo caches, some near vocabulary
        // words, some longer than 64 bytes or non-ASCII (the scalar
        // fallbacks), a repeated tail, and whitespace padding to 100 KB.
        let vocab: Vec<&str> = corpus.word_dict().iter().map(|(_, w)| w).collect();
        let cached = WORD_SIM_MEMO_CAP / (vocab.len() + PATTERN_SLOTS);
        let mut words: Vec<String> = (0..cached + 100)
            .map(|i| match i % 5 {
                0 => format!("{}{}", vocab[i % vocab.len()], i),
                1 => format!("{}{}", "Q".repeat(60), i),
                2 => format!("\u{e9}{}", vocab[i % vocab.len()]),
                _ => format!("W{i}X"),
            })
            .collect();
        words.extend(words[..100].to_vec());
        let mut text = words.join(" ");
        assert!(text.len() < 100_000, "the words alone fill {} bytes", text.len());
        text.push_str(&" ".repeat(100_000 - text.len()));

        let query = engine.query(&text);
        let weights = word_weights(&corpus);
        let mut scorer = GesScorer::new(&corpus, &weights, query.weighted_words(), 0.5);
        assert!(scorer.memo_slots() <= WORD_SIM_MEMO_CAP, "memo holds {}", scorer.memo_slots());
        assert_eq!(scorer.patterns.len(), cached, "the cap must bind for this query");

        let got = engine.predicate(PredicateKind::Ges).execute(&query, Exec::Rank).unwrap();
        // Check a sample of records against the (slow) string reference.
        let sample: Vec<usize> = (0..corpus.num_records()).step_by(50).collect();
        let want = reference_scores(&corpus, &text, sample.iter().copied());
        for (idx, w) in sample.iter().zip(&want) {
            assert_eq!(scorer.similarity(*idx).to_bits(), w.score.to_bits(), "record {idx}");
            let ranked = got.iter().find(|s| s.tid == w.tid).map_or(0.0, |s| s.score);
            assert_eq!(ranked.to_bits(), w.score.max(0.0).to_bits(), "ranked record {idx}");
        }
    }

    #[test]
    fn similarity_is_bounded() {
        let q = ww(&[("A", 1.0), ("BB", 0.5), ("CCC", 2.0)]);
        let d = ww(&[("XX", 1.0), ("A", 1.0)]);
        for cins in [0.0, 0.25, 0.5, 1.0] {
            let s = ges_similarity(&q, &d, cins);
            assert!((0.0..=1.0).contains(&s), "cins={cins} s={s}");
        }
    }
}
