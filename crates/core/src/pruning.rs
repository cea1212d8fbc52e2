//! IDF-based token pruning (§5.6 of the paper).
//!
//! The paper's most effective performance enhancement: drop the base
//! relation's q-gram tokens whose IDF falls below
//! `MIN(idf) + rate · (MAX(idf) − MIN(idf))` *before* computing any weights,
//! analogous to stop-word removal. Because all weights are recomputed from
//! the pruned token table, the probability distributions of LM/HMM remain
//! consistent.

use crate::corpus::TokenizedCorpus;
use crate::dict::TokenId;

/// Statistics describing the effect of one pruning pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// The pruning rate in `[0, 1]` that was applied.
    pub rate: f64,
    /// The absolute IDF threshold derived from the rate.
    pub threshold: f64,
    /// Number of distinct tokens whose occurrences were dropped.
    pub tokens_dropped: usize,
    /// Number of distinct tokens kept.
    pub tokens_kept: usize,
    /// Total token occurrences before pruning.
    pub occurrences_before: u64,
    /// Total token occurrences after pruning.
    pub occurrences_after: u64,
}

impl PruneStats {
    /// Fraction of token occurrences removed.
    pub fn occurrence_reduction(&self) -> f64 {
        if self.occurrences_before == 0 {
            return 0.0;
        }
        1.0 - self.occurrences_after as f64 / self.occurrences_before as f64
    }
}

/// The IDF threshold for a pruning rate: `min + rate * (max - min)`.
pub fn idf_threshold(corpus: &TokenizedCorpus, rate: f64) -> f64 {
    let (min, max) = corpus.idf_range();
    min + rate * (max - min)
}

/// Prune the corpus tokens whose IDF is strictly below the threshold implied
/// by `rate`. `rate = 0` keeps everything.
pub fn prune_by_idf(corpus: &TokenizedCorpus, rate: f64) -> (TokenizedCorpus, PruneStats) {
    assert!((0.0..=1.0).contains(&rate), "pruning rate must be within [0, 1]");
    let threshold = idf_threshold(corpus, rate);
    let keep = |t: TokenId| rate <= 0.0 || corpus.idf(t) >= threshold;

    let before = corpus.cs();
    let pruned = corpus.retain_tokens(keep);
    let after = pruned.cs();

    let mut dropped = 0usize;
    let mut kept = 0usize;
    for t in 0..corpus.num_tokens() {
        if keep(t as TokenId) {
            kept += 1;
        } else {
            dropped += 1;
        }
    }
    (
        pruned,
        PruneStats {
            rate,
            threshold,
            tokens_dropped: dropped,
            tokens_kept: kept,
            occurrences_before: before,
            occurrences_after: after,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::factory::build_predicate;
    use crate::params::Params;
    use crate::predicate::PredicateKind;
    use dasp_text::QgramConfig;
    use std::sync::Arc;

    fn corpus() -> TokenizedCorpus {
        TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Incorporated",
                "Goldman Sachs Group Incorporated",
                "Lehman Brothers Holdings Incorporated",
                "Beijing Hotel Corporation",
                "Beijing Labs Incorporated",
                "Silicon Valley Group Incorporated",
            ]),
            QgramConfig::new(2),
        )
    }

    #[test]
    fn rate_zero_is_identity() {
        let tc = corpus();
        let (pruned, stats) = prune_by_idf(&tc, 0.0);
        assert_eq!(stats.tokens_dropped, 0);
        assert_eq!(pruned.cs(), tc.cs());
        assert_eq!(stats.occurrence_reduction(), 0.0);
    }

    #[test]
    fn higher_rates_drop_more_tokens() {
        let tc = corpus();
        let (_, s1) = prune_by_idf(&tc, 0.2);
        let (_, s2) = prune_by_idf(&tc, 0.5);
        assert!(s2.tokens_dropped >= s1.tokens_dropped);
        assert!(s2.occurrences_after <= s1.occurrences_after);
        assert_eq!(s1.tokens_dropped + s1.tokens_kept, tc.num_tokens());
    }

    #[test]
    fn pruning_drops_low_idf_tokens_first() {
        let tc = corpus();
        let (pruned, stats) = prune_by_idf(&tc, 0.3);
        assert!(stats.tokens_dropped > 0, "a dirty-ish corpus must have frequent grams to drop");
        // Every surviving token has idf >= threshold; every dropped token had
        // a lower idf than every kept one in the original corpus.
        for t in 0..tc.num_tokens() {
            let t = t as TokenId;
            if pruned.df(t) > 0 {
                assert!(tc.idf(t) >= stats.threshold);
            } else {
                assert!(tc.idf(t) < stats.threshold);
            }
        }
    }

    #[test]
    fn statistics_are_recomputed_consistently() {
        let tc = corpus();
        let (pruned, _) = prune_by_idf(&tc, 0.3);
        // cs equals the sum of per-record dl values after pruning.
        let total: u64 = (0..pruned.num_records()).map(|i| pruned.record_dl(i) as u64).sum();
        assert_eq!(total, pruned.cs());
        // cf per kept token equals the sum of tfs in the pruned records.
        for t in 0..pruned.num_tokens() {
            let from_records: u64 = (0..pruned.num_records())
                .map(|i| {
                    pruned
                        .record_tokens(i)
                        .iter()
                        .filter(|&&(tok, _)| tok == t as TokenId)
                        .map(|&(_, tf)| tf as u64)
                        .sum::<u64>()
                })
                .sum();
            assert_eq!(from_records, pruned.cf(t as TokenId));
        }
    }

    #[test]
    fn predicates_still_work_on_a_pruned_corpus() {
        let tc = corpus();
        let (pruned, _) = prune_by_idf(&tc, 0.25);
        let p = build_predicate(PredicateKind::Jaccard, Arc::new(pruned), &Params::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert!(!ranking.is_empty());
        assert_eq!(ranking[0].tid, 0);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_rate_panics() {
        let tc = corpus();
        let _ = prune_by_idf(&tc, 1.5);
    }
}
