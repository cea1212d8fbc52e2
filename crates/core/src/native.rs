//! Native (inverted-index) realizations of a subset of the predicates.
//!
//! The paper's contribution is the *declarative* realization; these direct
//! implementations exist as (a) independent oracles the declarative plans are
//! property-tested against, and (b) the fast path for the ablation benchmark
//! `decl_vs_native` called out in DESIGN.md.

use crate::corpus::TokenizedCorpus;
use crate::dict::TokenId;
use crate::params::{Bm25Params, HmmParams, OverlapWeighting};
use crate::predicate::{Predicate, PredicateKind};
use crate::record::{sort_ranked, ScoredTid, Tid};
use std::sync::Arc;

/// An inverted index from token id to postings of `(record index, tf)`.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    postings: Vec<Vec<(u32, u32)>>,
}

impl InvertedIndex {
    /// Build the index over the q-gram tokens of the corpus.
    pub fn build(corpus: &TokenizedCorpus) -> Self {
        let mut postings = vec![Vec::new(); corpus.num_tokens()];
        for idx in 0..corpus.num_records() {
            for &(token, tf) in corpus.record_tokens(idx) {
                postings[token as usize].push((idx as u32, tf));
            }
        }
        InvertedIndex { postings }
    }

    /// Postings list of a token.
    pub fn postings(&self, token: TokenId) -> &[(u32, u32)] {
        &self.postings[token as usize]
    }

    /// Number of indexed tokens.
    pub fn num_tokens(&self) -> usize {
        self.postings.len()
    }
}

/// Which scoring function a [`NativePredicate`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeKind {
    /// Count of shared distinct tokens.
    IntersectSize,
    /// Jaccard coefficient of distinct token sets.
    Jaccard,
    /// Normalized tf-idf cosine.
    Cosine,
    /// Okapi BM25.
    Bm25,
    /// Two-state HMM.
    Hmm,
}

/// Inverted-index based predicate.
pub struct NativePredicate {
    corpus: Arc<TokenizedCorpus>,
    index: InvertedIndex,
    kind: NativeKind,
    bm25: Bm25Params,
    hmm: HmmParams,
    weighting: OverlapWeighting,
    /// Per-record normalization constants (cosine) computed at build time.
    cosine_norm: Vec<f64>,
}

impl NativePredicate {
    /// Build a native predicate of the given kind with default parameters.
    pub fn build(corpus: Arc<TokenizedCorpus>, kind: NativeKind) -> Self {
        Self::with_params(corpus, kind, Bm25Params::default(), HmmParams::default())
    }

    /// Build with explicit BM25/HMM parameters.
    pub fn with_params(
        corpus: Arc<TokenizedCorpus>,
        kind: NativeKind,
        bm25: Bm25Params,
        hmm: HmmParams,
    ) -> Self {
        let index = InvertedIndex::build(&corpus);
        let cosine_norm = (0..corpus.num_records())
            .map(|idx| {
                corpus
                    .record_tokens(idx)
                    .iter()
                    .map(|&(t, tf)| {
                        let w = tf as f64 * corpus.idf(t);
                        w * w
                    })
                    .sum::<f64>()
                    .sqrt()
            })
            .collect();
        NativePredicate {
            corpus,
            index,
            kind,
            bm25,
            hmm,
            weighting: OverlapWeighting::RobertsonSparckJones,
            cosine_norm,
        }
    }

    fn accumulate(&self, query: &str) -> Vec<ScoredTid> {
        let q = self.corpus.tokenize_query(query);
        if q.tokens.is_empty() {
            return Vec::new();
        }
        let n = self.corpus.num_records();
        let mut scores = vec![0.0f64; n];
        let mut touched = vec![false; n];

        match self.kind {
            NativeKind::IntersectSize | NativeKind::Jaccard => {
                for &(token, _) in &q.tokens {
                    for &(rec, _) in self.index.postings(token) {
                        scores[rec as usize] += 1.0;
                        touched[rec as usize] = true;
                    }
                }
                if self.kind == NativeKind::Jaccard {
                    let qlen = q.distinct_count() as f64;
                    for idx in 0..n {
                        if touched[idx] {
                            let dlen = self.corpus.record_tokens(idx).len() as f64;
                            let inter = scores[idx];
                            scores[idx] = inter / (dlen + qlen - inter).max(1e-9);
                        }
                    }
                }
            }
            NativeKind::Cosine => {
                let raw: Vec<(TokenId, f64)> = q
                    .tokens
                    .iter()
                    .map(|&(t, tf)| (t, tf as f64 * self.corpus.idf(t)))
                    .filter(|&(_, w)| w > 0.0)
                    .collect();
                let qnorm = raw.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
                if qnorm <= 0.0 {
                    return Vec::new();
                }
                for &(token, qw) in &raw {
                    for &(rec, tf) in self.index.postings(token) {
                        let dnorm = self.cosine_norm[rec as usize];
                        if dnorm <= 0.0 {
                            continue;
                        }
                        let dw = tf as f64 * self.corpus.idf(token) / dnorm;
                        scores[rec as usize] += (qw / qnorm) * dw;
                        touched[rec as usize] = true;
                    }
                }
            }
            NativeKind::Bm25 => {
                let avgdl = self.corpus.avgdl();
                for &(token, qtf) in &q.tokens {
                    let qtf = qtf as f64;
                    let wq = (self.bm25.k3 + 1.0) * qtf / (self.bm25.k3 + qtf);
                    let w1 = self.corpus.rsj_weight(token);
                    for &(rec, tf) in self.index.postings(token) {
                        let dl = self.corpus.record_dl(rec as usize) as f64;
                        let kd = self.bm25.k1
                            * ((1.0 - self.bm25.b) + self.bm25.b * dl / avgdl.max(1e-12));
                        let tf = tf as f64;
                        let wd = w1 * (self.bm25.k1 + 1.0) * tf / (kd + tf);
                        scores[rec as usize] += wq * wd;
                        touched[rec as usize] = true;
                    }
                }
            }
            NativeKind::Hmm => {
                let cs = self.corpus.cs() as f64;
                let a0 = self.hmm.a0;
                let a1 = self.hmm.a1();
                for &(token, qtf) in &q.tokens {
                    let ptge = self.corpus.cf(token) as f64 / cs.max(1.0);
                    if ptge <= 0.0 {
                        continue;
                    }
                    for &(rec, tf) in self.index.postings(token) {
                        let dl = self.corpus.record_dl(rec as usize) as f64;
                        let pml = tf as f64 / dl.max(1.0);
                        scores[rec as usize] += qtf as f64 * (1.0 + a1 * pml / (a0 * ptge)).ln();
                        touched[rec as usize] = true;
                    }
                }
                for idx in 0..n {
                    if touched[idx] {
                        scores[idx] = scores[idx].exp();
                    }
                }
            }
        }

        let mut out = Vec::new();
        for (idx, &hit) in touched.iter().enumerate() {
            if hit {
                out.push(ScoredTid::new(idx as Tid, scores[idx]));
            }
        }
        sort_ranked(&mut out);
        out
    }

    /// Overlap weighting used by future weighted variants (kept for parity).
    pub fn weighting(&self) -> OverlapWeighting {
        self.weighting
    }
}

impl Predicate for NativePredicate {
    fn kind(&self) -> PredicateKind {
        match self.kind {
            NativeKind::IntersectSize => PredicateKind::IntersectSize,
            NativeKind::Jaccard => PredicateKind::Jaccard,
            NativeKind::Cosine => PredicateKind::Cosine,
            NativeKind::Bm25 => PredicateKind::Bm25,
            NativeKind::Hmm => PredicateKind::Hmm,
        }
    }

    fn try_rank(&self, query: &str) -> crate::error::Result<Vec<ScoredTid>> {
        Ok(self.accumulate(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
    use crate::params::Params;
    use dasp_text::QgramConfig;

    fn corpus() -> Arc<TokenizedCorpus> {
        Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Stalney Morgan Group Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
                "Beijing Labs Limited",
                "AT&T Incorporated",
            ]),
            QgramConfig::new(2),
        ))
    }

    fn assert_same_ranking(a: &[ScoredTid], b: &[ScoredTid]) {
        assert_eq!(a.len(), b.len(), "result sizes differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.tid, y.tid, "tid order differs");
            assert!((x.score - y.score).abs() < 1e-6, "scores differ: {} vs {}", x.score, y.score);
        }
    }

    #[test]
    fn native_matches_declarative_for_every_shared_kind() {
        let c = corpus();
        let queries =
            ["Morgan Stanley Group Inc.", "Beijing Hotel", "AT&T Inc.", "Group", "Stanley Morgan"];

        let pairs: Vec<(Box<dyn Predicate>, NativePredicate)> = [
            (PredicateKind::IntersectSize, NativeKind::IntersectSize),
            (PredicateKind::Jaccard, NativeKind::Jaccard),
            (PredicateKind::Cosine, NativeKind::Cosine),
            (PredicateKind::Bm25, NativeKind::Bm25),
            (PredicateKind::Hmm, NativeKind::Hmm),
        ]
        .into_iter()
        .map(|(kind, native)| {
            let declarative = build_predicate(kind, c.clone(), &Params::default());
            (declarative, NativePredicate::build(c.clone(), native))
        })
        .collect();
        for (declarative, native) in &pairs {
            for q in &queries {
                assert_same_ranking(&declarative.rank(q), &native.rank(q));
            }
        }
    }

    #[test]
    fn inverted_index_postings_are_complete() {
        let c = corpus();
        let index = InvertedIndex::build(&c);
        assert_eq!(index.num_tokens(), c.num_tokens());
        let total: usize = (0..c.num_tokens()).map(|t| index.postings(t as u32).len()).sum();
        let expected: usize = (0..c.num_records()).map(|i| c.record_tokens(i).len()).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn empty_query_returns_nothing() {
        let p = NativePredicate::build(corpus(), NativeKind::Bm25);
        assert!(p.rank("").is_empty());
    }
}
