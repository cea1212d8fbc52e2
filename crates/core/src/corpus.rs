//! The base relation and its tokenized form.
//!
//! Preprocessing in the paper happens in two phases (§5.5.1): tokenization
//! (common to all predicates) and weight computation (predicate specific).
//! [`TokenizedCorpus`] is the output of the first phase; the predicate
//! constructors in the sibling modules perform the second phase.

use crate::combination::ges_filter::{GesFilterKind, GesVocab};
use crate::dict::{TokenDict, TokenId};
use crate::params::GesParams;
use crate::record::{Record, Tid};
use dasp_text::{for_each_qgram, word_tokens, QgramConfig};
use std::sync::{Arc, Mutex};

/// The base relation `R`: a collection of string tuples.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    records: Vec<Record>,
}

impl Corpus {
    /// Build a corpus from strings; tuple ids are assigned densely from 0.
    pub fn from_strings<I, S>(strings: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let records =
            strings.into_iter().enumerate().map(|(i, s)| Record::new(i as Tid, s)).collect();
        Corpus { records }
    }

    /// Build a corpus from pre-assigned records. Tuple ids must be dense from
    /// 0 in record order (the invariant [`Corpus::get`] relies on for O(1)
    /// lookup; [`Corpus::from_strings`] guarantees it by construction).
    pub fn from_records(records: Vec<Record>) -> Self {
        debug_assert!(
            records.iter().enumerate().all(|(i, r)| r.tid == i as Tid),
            "corpus tids must be dense from 0 in record order"
        );
        Corpus { records }
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of tuples `N`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the corpus has no tuples.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with the given tuple id, if present. Tids are dense from 0
    /// (asserted at construction in debug builds), so this is a direct O(1)
    /// index; the id recheck keeps the lookup correct — returning `None`
    /// rather than a wrong record — if the density invariant is ever broken.
    pub fn get(&self, tid: Tid) -> Option<&Record> {
        let record = self.records.get(tid as usize)?;
        debug_assert_eq!(record.tid, tid, "corpus tids must be dense from 0");
        (record.tid == tid).then_some(record)
    }

    /// Average string length in characters (reported in Table 5.1).
    pub fn avg_string_len(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: usize = self.records.iter().map(|r| r.text.chars().count()).sum();
        total as f64 / self.records.len() as f64
    }

    /// Average number of whitespace-separated words per tuple (Table 5.1).
    pub fn avg_words_per_tuple(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: usize = self.records.iter().map(|r| word_tokens(&r.text).len()).sum();
        total as f64 / self.records.len() as f64
    }
}

/// A query string tokenized against an existing corpus dictionary.
#[derive(Debug, Clone, Default)]
pub struct QueryTokens {
    /// Known tokens with their query term frequency, sorted by token id.
    pub tokens: Vec<(TokenId, u32)>,
    /// Number of query token occurrences whose token never appears in the
    /// base relation (they can never join, but they count towards |Q|).
    pub unknown_occurrences: u32,
    /// Number of *distinct* unknown tokens.
    pub unknown_distinct: u32,
}

impl QueryTokens {
    /// Total number of token occurrences in the query (|Q| with multiplicity).
    pub fn total_occurrences(&self) -> u32 {
        self.tokens.iter().map(|(_, tf)| tf).sum::<u32>() + self.unknown_occurrences
    }

    /// Number of distinct tokens in the query (known + unknown).
    pub fn distinct_count(&self) -> u32 {
        self.tokens.len() as u32 + self.unknown_distinct
    }
}

/// The frozen corpus-level statistics every predicate's weight formulas
/// consume: `N`, per-token `df`/`cf`, collection size `cs`, `avgdl` and the
/// word-level document frequencies. Bundled behind one `Arc` so a *projected*
/// corpus (see [`TokenizedCorpus::project`]) shares its parent's statistics
/// verbatim instead of deriving divergent ones from its own record slice —
/// the property that makes per-segment scoring in `dasp_core::live`
/// bit-identical to a monolithic engine with the same statistics.
#[derive(Debug)]
struct CorpusStats {
    /// The statistical number of tuples `N` used by IDF/RSJ weights. Equal to
    /// the record count at [`TokenizedCorpus::build`] time; a projection over
    /// a different record subset keeps this value frozen.
    n: usize,
    /// Per token id: number of records containing the token (`df` / `n_t`).
    df: Vec<u32>,
    /// Per token id: total number of occurrences in the collection (`cf`).
    cf: Vec<u64>,
    /// Collection size `cs`: total token occurrences.
    cs: u64,
    /// Average record length in q-gram tokens (`cs / N` at build time).
    avgdl: f64,
    /// Per token id: sum over records of the maximum-likelihood estimate
    /// `tf / dl` — the numerator of the language model's `pavg(t)`
    /// (Equation 3.8), which is a corpus-wide aggregate and therefore
    /// frozen along with `df`/`cf`.
    pml_sum: Vec<f64>,
    /// Per word id: number of records containing it.
    word_df: Vec<u32>,
    /// Per token id: `idf` over `n` and `df`, computed once (see
    /// [`TokenizedCorpus::idf`]).
    idf: Vec<f64>,
    /// Per token id: the clamped Robertson–Sparck Jones weight over `n` and
    /// `df`, computed once (see [`TokenizedCorpus::rsj_weight`]).
    rsj: Vec<f64>,
    /// Mean word IDF over the word vocabulary, computed once (see
    /// [`TokenizedCorpus::avg_word_idf`]).
    avg_word_idf: f64,
}

impl CorpusStats {
    /// Freeze the statistics, computing the two token-only weights — the
    /// `ln` calls every weight-table and posting build would otherwise pay
    /// per (record, token) pair — once per token, and the mean word IDF
    /// every query preparation would otherwise pay over the whole word
    /// vocabulary.
    fn new(
        n: usize,
        df: Vec<u32>,
        cf: Vec<u64>,
        cs: u64,
        avgdl: f64,
        pml_sum: Vec<f64>,
        word_df: Vec<u32>,
    ) -> Self {
        let nf = n as f64;
        let idf =
            df.iter().map(|&df| if df == 0 { 0.0 } else { nf.ln() - (df as f64).ln() }).collect();
        let rsj = df
            .iter()
            .map(|&df| {
                let nt = df as f64;
                ((nf - nt + 0.5) / (nt + 0.5)).ln().max(0.0)
            })
            .collect();
        let word_idf = |df: u32| if df == 0 { 0.0 } else { nf.ln() - (df as f64).ln() };
        let avg_word_idf = if word_df.is_empty() {
            0.0
        } else {
            word_df.iter().map(|&df| word_idf(df)).sum::<f64>() / word_df.len() as f64
        };
        CorpusStats { n, df, cf, cs, avgdl, pml_sum, word_df, idf, rsj, avg_word_idf }
    }
}

/// One record of a tokenized corpus: its text and its rows, in one
/// allocation shared by `Arc` between a projection and every projection
/// that extends it ([`TokenizedCorpus::project_append`]).
#[derive(Debug)]
struct RecordRows {
    text: String,
    /// (token id, term frequency) pairs, sorted by token id.
    tokens: Box<[(TokenId, u32)]>,
    /// Total number of q-gram token occurrences (`dl`).
    dl: u32,
    /// Word tokens in order (with duplicates).
    words: Box<[TokenId]>,
}

/// The tokenized base relation plus all corpus-level statistics every
/// predicate's weight formulas need (tf, df, cf, dl, avgdl, word tokens).
///
/// The dictionaries and statistics live behind `Arc`s: cloning a tokenized
/// corpus, or projecting a record subset through it
/// ([`project`](Self::project)), shares them by reference — O(records), never
/// O(vocabulary). Each record's text and rows sit behind one `Arc` of their
/// own, so [`project_append`](Self::project_append) shares the records it
/// extends instead of copying them.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    config: QgramConfig,
    dict: Arc<TokenDict>,
    /// Per record (index = tid): its text and rows.
    rows: Vec<Arc<RecordRows>>,
    /// Frozen collection statistics (shared with projections).
    stats: Arc<CorpusStats>,
    /// Word-token dictionary (combination predicates).
    word_dict: Arc<TokenDict>,
    /// The filtered-GES vocabulary indexes over `word_dict`, one per filter
    /// kind and GES settings in first-use order, built on first use and
    /// shared with every projection (see [`Self::ges_vocab`]).
    ges_vocab: Arc<Mutex<Vec<Arc<GesVocab>>>>,
}

impl TokenizedCorpus {
    /// Tokenize a corpus: q-gram tokens for every tuple, word tokens for the
    /// combination predicates, plus statistics.
    pub fn build(corpus: Corpus, config: QgramConfig) -> Self {
        let n = corpus.len();
        let mut dict = TokenDict::new();
        let mut word_dict = TokenDict::new();
        let mut rows = Vec::with_capacity(n);
        let mut df: Vec<u32> = Vec::new();
        let mut cf: Vec<u64> = Vec::new();
        let mut pml_sum: Vec<f64> = Vec::new();
        let mut word_df: Vec<u32> = Vec::new();
        let mut cs: u64 = 0;

        for record in corpus.records {
            // Q-gram tokens with multiplicity.
            let mut counts: Vec<(TokenId, u32)> = Vec::new();
            let mut grams = 0u32;
            for_each_qgram(&record.text, config, |gram| {
                let id = dict.intern(gram);
                if id as usize >= cf.len() {
                    cf.push(0);
                    df.push(0);
                    pml_sum.push(0.0);
                }
                cf[id as usize] += 1;
                grams += 1;
                match counts.binary_search_by_key(&id, |(t, _)| *t) {
                    Ok(pos) => counts[pos].1 += 1,
                    Err(pos) => counts.insert(pos, (id, 1)),
                }
            });
            let dl = (grams as f64).max(1.0);
            for (id, tf) in &counts {
                df[*id as usize] += 1;
                pml_sum[*id as usize] += *tf as f64 / dl;
            }
            cs += grams as u64;

            // Word tokens.
            let words = word_tokens(&record.text);
            let mut ids = Vec::with_capacity(words.len());
            let mut seen_in_rec: Vec<TokenId> = Vec::new();
            for w in &words {
                let id = word_dict.intern(w);
                if id as usize >= word_df.len() {
                    word_df.push(0);
                }
                ids.push(id);
                if !seen_in_rec.contains(&id) {
                    seen_in_rec.push(id);
                    word_df[id as usize] += 1;
                }
            }
            rows.push(Arc::new(RecordRows {
                text: record.text,
                tokens: counts.into(),
                dl: grams,
                words: ids.into(),
            }));
        }

        let avgdl = if n == 0 { 0.0 } else { cs as f64 / n as f64 };
        TokenizedCorpus {
            config,
            dict: Arc::new(dict),
            rows,
            stats: Arc::new(CorpusStats::new(n, df, cf, cs, avgdl, pml_sum, word_df)),
            word_dict: Arc::new(word_dict),
            ges_vocab: Arc::default(),
        }
    }

    /// Tokenize a record subset against this corpus's **frozen** dictionary
    /// and statistics: a closed-vocabulary projection. Per-record token
    /// lists, `dl` and word lists are recomputed over `records`, but the
    /// dictionaries, `df`/`cf`/`cs`, `N` and `avgdl` are shared by `Arc` from
    /// `self` — q-grams and words absent from the frozen vocabulary are
    /// dropped (the same closed-world rule as
    /// [`retain_tokens`](Self::retain_tokens) and query tokenization).
    ///
    /// This is the statistics contract of the `dasp_core::live` segment
    /// subsystem: every segment projects its records through one frozen
    /// provider, so a record's score against a query is identical no matter
    /// which segment — or which monolithic rebuild over the same provider —
    /// computes it. Statistics (and new vocabulary) refresh only at a full
    /// compaction, the same refresh discipline LSM-style search engines use.
    ///
    /// `records` must carry dense tids from 0 in order (the
    /// [`Corpus::from_records`] invariant); the cost is O(records' text), never
    /// O(frozen vocabulary).
    pub fn project(&self, records: Vec<Record>) -> TokenizedCorpus {
        debug_assert!(
            records.iter().enumerate().all(|(i, r)| r.tid == i as Tid),
            "projected tids must be dense from 0 in record order"
        );
        let mut out = self.empty_projection(records.len());
        for record in records {
            out.push_projected(record.text);
        }
        out
    }

    /// This corpus plus one record, as a projection onto the same frozen
    /// dictionaries and statistics: the new record (tid
    /// [`num_records`](Self::num_records)) is tokenized exactly as
    /// [`project`](Self::project) would, and the rows of the records already
    /// held are shared, never re-tokenized or copied. The result equals
    /// `self.project(records + [text])` for a projection `self`. This is the
    /// live tail's append: one record's tokenization plus a reference per
    /// record already held.
    pub fn project_append(&self, text: impl Into<String>) -> TokenizedCorpus {
        let mut out = self.empty_projection(self.rows.len() + 1);
        out.rows.extend_from_slice(&self.rows);
        out.push_projected(text.into());
        out
    }

    /// A projection holding no records yet, with room for `capacity`.
    fn empty_projection(&self, capacity: usize) -> TokenizedCorpus {
        TokenizedCorpus {
            config: self.config,
            dict: self.dict.clone(),
            rows: Vec::with_capacity(capacity),
            stats: self.stats.clone(),
            word_dict: self.word_dict.clone(),
            ges_vocab: self.ges_vocab.clone(),
        }
    }

    /// Tokenize one record's text against the frozen dictionaries and push
    /// it with its rows: `(token, tf)` pairs sorted by token, `dl` counting
    /// only known q-grams, and the known word ids in order.
    fn push_projected(&mut self, text: String) {
        let mut counts: Vec<(TokenId, u32)> = Vec::new();
        let mut dl = 0u32;
        for_each_qgram(&text, self.config, |gram| {
            let Some(id) = self.dict.get(gram) else { return };
            dl += 1;
            match counts.binary_search_by_key(&id, |(t, _)| *t) {
                Ok(pos) => counts[pos].1 += 1,
                Err(pos) => counts.insert(pos, (id, 1)),
            }
        });
        let words: Vec<TokenId> =
            word_tokens(&text).iter().filter_map(|w| self.word_dict.get(w)).collect();
        let rows = RecordRows { text, tokens: counts.into(), dl, words: words.into() };
        self.rows.push(Arc::new(rows));
    }

    /// True when `other` shares this corpus's frozen dictionaries and
    /// statistics (i.e. one is a [`project`](Self::project)ion of the other
    /// or of a common provider) — the precondition for scores being
    /// comparable, and bit-identical, across the two.
    pub fn shares_stats(&self, other: &TokenizedCorpus) -> bool {
        Arc::ptr_eq(&self.stats, &other.stats) && Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// The text of record `idx` (whose tid is `idx`).
    pub fn record_text(&self, idx: usize) -> &str {
        &self.rows[idx].text
    }

    /// Q-gram configuration used for tokenization.
    pub fn config(&self) -> QgramConfig {
        self.config
    }

    /// Number of tuples `N`.
    pub fn num_records(&self) -> usize {
        self.rows.len()
    }

    /// Number of distinct q-gram tokens in the collection.
    pub fn num_tokens(&self) -> usize {
        self.dict.len()
    }

    /// Number of distinct word tokens in the collection.
    pub fn num_word_tokens(&self) -> usize {
        self.word_dict.len()
    }

    /// The q-gram token dictionary.
    pub fn dict(&self) -> &TokenDict {
        &self.dict
    }

    /// The word token dictionary.
    pub fn word_dict(&self) -> &TokenDict {
        &self.word_dict
    }

    /// Per-record `(token, tf)` pairs.
    pub fn record_tokens(&self, idx: usize) -> &[(TokenId, u32)] {
        &self.rows[idx].tokens
    }

    /// Record length `dl` in token occurrences.
    pub fn record_dl(&self, idx: usize) -> u32 {
        self.rows[idx].dl
    }

    /// Word tokens of a record, in order, with duplicates.
    pub fn record_words(&self, idx: usize) -> &[TokenId] {
        &self.rows[idx].words
    }

    /// The statistical number of tuples `N` the IDF/RSJ formulas divide by.
    /// Equal to [`num_records`](Self::num_records) for a corpus built with
    /// [`build`](Self::build); a [`project`](Self::project)ion keeps its
    /// provider's frozen value regardless of how many records it holds.
    pub fn stat_n(&self) -> usize {
        self.stats.n
    }

    /// Document frequency of a q-gram token (frozen statistic).
    pub fn df(&self, token: TokenId) -> u32 {
        self.stats.df[token as usize]
    }

    /// Collection frequency of a q-gram token (frozen statistic).
    pub fn cf(&self, token: TokenId) -> u64 {
        self.stats.cf[token as usize]
    }

    /// Collection size `cs` (total q-gram occurrences; frozen statistic).
    pub fn cs(&self) -> u64 {
        self.stats.cs
    }

    /// The language model's `pavg(t)` (Equation 3.8): the mean
    /// maximum-likelihood estimate `tf/dl` over the records containing `t`.
    /// A corpus-wide aggregate, frozen with the other statistics so
    /// projected segments score identically to their provider.
    pub fn pavg(&self, token: TokenId) -> f64 {
        let df = self.stats.df[token as usize] as f64;
        if df > 0.0 {
            self.stats.pml_sum[token as usize] / df
        } else {
            0.0
        }
    }

    /// Average record length in q-gram tokens (`avgdl`; frozen statistic).
    pub fn avgdl(&self) -> f64 {
        self.stats.avgdl
    }

    /// Document frequency of a word token (frozen statistic).
    pub fn word_df(&self, word: TokenId) -> u32 {
        self.stats.word_df[word as usize]
    }

    /// The filtered-GES vocabulary index of `filter` under `params` over
    /// the frozen word dictionary: built by the first caller and shared
    /// afterwards by every caller over this corpus or any projection of it
    /// (every part of a live engine), reused only for equal gram size and
    /// min-hash settings. Concurrent first callers wait for one build.
    pub(crate) fn ges_vocab(&self, filter: GesFilterKind, params: GesParams) -> Arc<GesVocab> {
        let mut built = self.ges_vocab.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(vocab) = built.iter().find(|v| v.serves(filter, &params)) {
            return vocab.clone();
        }
        let vocab = Arc::new(GesVocab::build(&self.word_dict, filter, params));
        built.push(vocab.clone());
        vocab
    }

    /// IDF of a q-gram token: `log(N) - log(df)` (zero for unseen tokens),
    /// over the frozen statistical `N` ([`stat_n`](Self::stat_n)). Stored per
    /// token when the statistics freeze.
    pub fn idf(&self, token: TokenId) -> f64 {
        self.stats.idf[token as usize]
    }

    /// IDF of a word token (frozen statistics).
    pub fn word_idf(&self, word: TokenId) -> f64 {
        let df = self.word_df(word);
        if df == 0 {
            return 0.0;
        }
        (self.stats.n as f64).ln() - (df as f64).ln()
    }

    /// Average IDF over all word tokens: the weight the paper assigns to
    /// query words never seen in the base relation (§4.5). Stored when the
    /// statistics freeze.
    pub fn avg_word_idf(&self) -> f64 {
        self.stats.avg_word_idf
    }

    /// Robertson–Sparck Jones weight of a token (Equation 3.5),
    /// `ln((N − n_t + 0.5) / (n_t + 0.5))` clamped at 0, over the frozen `N`
    /// and `df`. Stored per token when the statistics freeze.
    pub fn rsj_weight(&self, token: TokenId) -> f64 {
        self.stats.rsj[token as usize]
    }

    /// Tokenize a query string against the corpus dictionary.
    pub fn tokenize_query(&self, query: &str) -> QueryTokens {
        let mut tokens: Vec<(TokenId, u32)> = Vec::new();
        let mut unknown_occurrences = 0u32;
        let mut unknown: std::collections::HashSet<String> = Default::default();
        for_each_qgram(query, self.config, |gram| match self.dict.get(gram) {
            Some(id) => match tokens.binary_search_by_key(&id, |(t, _)| *t) {
                Ok(pos) => tokens[pos].1 += 1,
                Err(pos) => tokens.insert(pos, (id, 1)),
            },
            None => {
                unknown_occurrences += 1;
                if !unknown.contains(gram) {
                    unknown.insert(gram.to_string());
                }
            }
        });
        QueryTokens { tokens, unknown_occurrences, unknown_distinct: unknown.len() as u32 }
    }

    /// Word-tokenize a query string. Returns `(known word ids in order,
    /// unknown word strings in order)`.
    pub fn tokenize_query_words(&self, query: &str) -> (Vec<TokenId>, Vec<String>) {
        let mut known = Vec::new();
        let mut unknown = Vec::new();
        for w in word_tokens(query) {
            match self.word_dict.get(&w) {
                Some(id) => known.push(id),
                None => unknown.push(w),
            }
        }
        (known, unknown)
    }

    /// Histogram of q-gram IDF values with `bins` equal-width buckets between
    /// the minimum and maximum IDF (Figure 5.6 of the paper).
    pub fn idf_histogram(&self, bins: usize) -> Vec<(f64, usize)> {
        assert!(bins > 0);
        let idfs: Vec<f64> = (0..self.dict.len()).map(|i| self.idf(i as TokenId)).collect();
        if idfs.is_empty() {
            return Vec::new();
        }
        let min = idfs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = idfs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = if max > min { (max - min) / bins as f64 } else { 1.0 };
        let mut hist = vec![0usize; bins];
        for &v in &idfs {
            let mut bucket = ((v - min) / width) as usize;
            if bucket >= bins {
                bucket = bins - 1;
            }
            hist[bucket] += 1;
        }
        hist.into_iter()
            .enumerate()
            .map(|(i, count)| (min + (i as f64 + 0.5) * width, count))
            .collect()
    }

    /// Histogram of q-gram IDF values weighted by collection frequency: each
    /// bucket counts token *occurrences* rather than distinct tokens. This is
    /// the view in which frequent (low-IDF) grams dominate, matching the
    /// paper's Figure 5.6 observation that pruning a low-IDF band removes a
    /// large fraction of the token table.
    pub fn idf_occurrence_histogram(&self, bins: usize) -> Vec<(f64, u64)> {
        assert!(bins > 0);
        if self.dict.is_empty() {
            return Vec::new();
        }
        let (min, max) = self.idf_range();
        let width = if max > min { (max - min) / bins as f64 } else { 1.0 };
        let mut hist = vec![0u64; bins];
        for t in 0..self.dict.len() {
            let v = self.idf(t as TokenId);
            let mut bucket = ((v - min) / width) as usize;
            if bucket >= bins {
                bucket = bins - 1;
            }
            hist[bucket] += self.cf(t as TokenId);
        }
        hist.into_iter()
            .enumerate()
            .map(|(i, count)| (min + (i as f64 + 0.5) * width, count))
            .collect()
    }

    /// Produce a copy of this tokenized corpus in which only the q-gram
    /// tokens accepted by `keep` remain. Per-record token lists, `dl`, `cs`,
    /// `df` and `cf` are recomputed over the surviving tokens; dropped tokens
    /// keep their dictionary ids (so query tokenization still resolves them)
    /// but have `df = cf = 0` and therefore never join. Word-level state is
    /// untouched. This is the mechanism behind the IDF-based pruning of §5.6.
    pub fn retain_tokens<F: Fn(TokenId) -> bool>(&self, keep: F) -> TokenizedCorpus {
        let mut out = self.clone();
        let mut df = vec![0u32; self.stats.df.len()];
        let mut cf = vec![0u64; self.stats.cf.len()];
        let mut pml_sum = vec![0.0f64; self.stats.pml_sum.len()];
        let mut cs = 0u64;
        for (rows, out_rows) in self.rows.iter().zip(&mut out.rows) {
            let kept: Vec<(TokenId, u32)> =
                rows.tokens.iter().copied().filter(|&(t, _)| keep(t)).collect();
            let dl: u32 = kept.iter().map(|&(_, tf)| tf).sum();
            for &(t, tf) in &kept {
                df[t as usize] += 1;
                cf[t as usize] += tf as u64;
                pml_sum[t as usize] += tf as f64 / (dl as f64).max(1.0);
            }
            cs += dl as u64;
            *out_rows = Arc::new(RecordRows {
                text: rows.text.clone(),
                tokens: kept.into(),
                dl,
                words: rows.words.clone(),
            });
        }
        let n = self.stats.n;
        let avgdl = if n == 0 { 0.0 } else { cs as f64 / n as f64 };
        out.stats =
            Arc::new(CorpusStats::new(n, df, cf, cs, avgdl, pml_sum, self.stats.word_df.clone()));
        out
    }

    /// Minimum and maximum token IDF (used by the pruning threshold of §5.6).
    pub fn idf_range(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for i in 0..self.dict.len() {
            let v = self.idf(i as TokenId);
            min = min.min(v);
            max = max.max(v);
        }
        if self.dict.is_empty() {
            (0.0, 0.0)
        } else {
            (min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> TokenizedCorpus {
        let corpus = Corpus::from_strings(vec![
            "Morgan Stanley Group Inc.",
            "Morgan Stanley Group Incorporated",
            "Beijing Hotel",
            "Beijing Labs",
            "AT&T Inc.",
        ]);
        TokenizedCorpus::build(corpus, QgramConfig::new(2))
    }

    #[test]
    fn corpus_statistics() {
        let c = Corpus::from_strings(vec!["ab cd", "xyz"]);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.get(0).unwrap().text, "ab cd");
        assert_eq!(c.get(5), None);
        assert!((c.avg_string_len() - 4.0).abs() < 1e-12);
        assert!((c.avg_words_per_tuple() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn tokenization_counts_are_consistent() {
        let tc = small_corpus();
        assert_eq!(tc.num_records(), 5);
        // cs equals the sum of record lengths.
        let total: u64 = (0..tc.num_records()).map(|i| tc.record_dl(i) as u64).sum();
        assert_eq!(tc.cs(), total);
        assert!((tc.avgdl() - total as f64 / 5.0).abs() < 1e-12);
        // cf of each token sums to cs.
        let cf_total: u64 = (0..tc.num_tokens()).map(|i| tc.cf(i as TokenId)).sum();
        assert_eq!(cf_total, tc.cs());
        // df never exceeds N and is at least 1 for every interned token.
        for t in 0..tc.num_tokens() {
            let df = tc.df(t as TokenId);
            assert!(df >= 1 && df as usize <= tc.num_records());
        }
    }

    #[test]
    fn record_tf_sums_to_dl() {
        let tc = small_corpus();
        for i in 0..tc.num_records() {
            let sum: u32 = tc.record_tokens(i).iter().map(|(_, tf)| tf).sum();
            assert_eq!(sum, tc.record_dl(i));
        }
    }

    #[test]
    fn idf_orders_rare_above_frequent() {
        let tc = small_corpus();
        // "MORGAN" bigrams appear in 2 records, "BEIJING" bigrams in 2,
        // the "$I"-ish grams of Inc appear in several; a gram unique to AT&T
        // should have the maximal idf.
        let unique = tc.dict().get("T&").expect("gram from AT&T");
        let common = tc.dict().get("$I").expect("word-initial I gram");
        assert!(tc.idf(unique) > tc.idf(common));
        assert!(tc.rsj_weight(unique) >= tc.rsj_weight(common));
    }

    #[test]
    fn query_tokenization_matches_dictionary() {
        let tc = small_corpus();
        let q = tc.tokenize_query("Morgan Stanley Group Inc.");
        assert!(q.unknown_occurrences == 0);
        assert!(q.tokens.len() > 5);
        let q2 = tc.tokenize_query("zzzzqqqq");
        assert!(q2.unknown_occurrences > 0);
        assert!(q2.distinct_count() >= q2.unknown_distinct);
        // Total occurrences equals the number of generated grams.
        let grams = dasp_text::qgrams("zzzzqqqq", tc.config());
        assert_eq!(q2.total_occurrences() as usize, grams.len());
    }

    #[test]
    fn word_tokenization_and_idf() {
        let tc = small_corpus();
        let (known, unknown) = tc.tokenize_query_words("Morgan Stanley Widgets");
        assert_eq!(known.len(), 2);
        assert_eq!(unknown, vec!["WIDGETS".to_string()]);
        let morgan = tc.word_dict().get("MORGAN").unwrap();
        let beijing = tc.word_dict().get("BEIJING").unwrap();
        assert_eq!(tc.word_df(morgan), 2);
        assert_eq!(tc.word_df(beijing), 2);
        assert!(tc.avg_word_idf() > 0.0);
    }

    #[test]
    fn idf_histogram_covers_all_tokens() {
        let tc = small_corpus();
        let hist = tc.idf_histogram(10);
        assert_eq!(hist.len(), 10);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, tc.num_tokens());
        let (lo, hi) = tc.idf_range();
        assert!(lo <= hi);
    }

    #[test]
    fn idf_occurrence_histogram_covers_all_occurrences() {
        let tc = small_corpus();
        let hist = tc.idf_occurrence_histogram(8);
        assert_eq!(hist.len(), 8);
        let total: u64 = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, tc.cs());
        // Bucket centers are increasing.
        for w in hist.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
        assert!(TokenizedCorpus::build(Corpus::default(), QgramConfig::default())
            .idf_occurrence_histogram(4)
            .is_empty());
    }

    #[test]
    fn stored_token_weights_have_the_bits_of_their_formulas() {
        let tc = small_corpus();
        let records = vec![Record::new(0, "Beijing Morgan"), Record::new(1, "zzz qqq")];
        let projected = tc.project(records);
        let retained = tc.retain_tokens(|t| t % 3 != 0);
        for corpus in [&tc, &projected, &retained] {
            let n = corpus.stat_n() as f64;
            for t in 0..corpus.num_tokens() as TokenId {
                let df = corpus.df(t);
                let idf = if df == 0 { 0.0 } else { n.ln() - (df as f64).ln() };
                let nt = df as f64;
                let rsj = ((n - nt + 0.5) / (nt + 0.5)).ln().max(0.0);
                assert_eq!(corpus.idf(t).to_bits(), idf.to_bits(), "idf of token {t}");
                assert_eq!(corpus.rsj_weight(t).to_bits(), rsj.to_bits(), "rsj of token {t}");
            }
            let words = corpus.num_word_tokens();
            let total: f64 = (0..words).map(|w| corpus.word_idf(w as TokenId)).sum();
            let avg = total / words as f64;
            assert_eq!(corpus.avg_word_idf().to_bits(), avg.to_bits());
        }
        assert!(projected.shares_stats(&tc));
        assert!((0..tc.num_tokens() as TokenId).any(|t| retained.df(t) == 0));
    }

    #[test]
    fn empty_corpus_is_handled() {
        let tc = TokenizedCorpus::build(Corpus::default(), QgramConfig::default());
        assert_eq!(tc.num_records(), 0);
        assert_eq!(tc.num_tokens(), 0);
        assert_eq!(tc.avgdl(), 0.0);
        assert_eq!(tc.idf_range(), (0.0, 0.0));
        let q = tc.tokenize_query("anything");
        assert!(q.tokens.is_empty());
        assert!(q.unknown_occurrences > 0);
    }
}
