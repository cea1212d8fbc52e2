//! Tunable parameters of every predicate, with the defaults used in the
//! paper's evaluation (§5.3.2 and §5.5.2).

use dasp_text::QgramConfig;

/// BM25 parameters (Robertson et al., TREC-4). Paper setting: `k1 = 1.5`,
/// `k3 = 8`, `b = 0.675`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation for document (tuple) tokens.
    pub k1: f64,
    /// Term-frequency saturation for query tokens.
    pub k3: f64,
    /// Document-length normalization strength.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.5, k3: 8.0, b: 0.675 }
    }
}

/// Two-state HMM parameters. `a0` is the "General English" transition
/// probability; `a1 = 1 - a0`. Paper setting: `a0 = 0.2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HmmParams {
    /// Transition probability into the General-English state.
    pub a0: f64,
}

impl HmmParams {
    /// The complementary "String" state transition probability.
    pub fn a1(&self) -> f64 {
        1.0 - self.a0
    }
}

impl Default for HmmParams {
    fn default() -> Self {
        HmmParams { a0: 0.2 }
    }
}

/// Parameters of the edit-distance predicate (declarative realization of
/// Gravano et al.): the similarity threshold used by the q-gram filtering
/// step. Paper setting: `θ = 0.7` (§5.5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EditParams {
    /// Edit-similarity threshold used to derive the q-gram count filter.
    pub filter_threshold: f64,
}

impl Default for EditParams {
    fn default() -> Self {
        EditParams { filter_threshold: 0.7 }
    }
}

/// Parameters of the GES family of combination predicates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GesParams {
    /// Token-insertion cost factor `c_ins` (paper: 0.5, following Chaudhuri et al.).
    pub cins: f64,
    /// Filtering threshold θ for `GES_Jaccard` / `GES_apx` (paper: 0.8).
    pub filter_threshold: f64,
    /// Q-gram size used for word-level Jaccard in the filter (same q as the
    /// corpus configuration; the paper uses q = 2).
    pub q: usize,
    /// Number of min-hash signatures for `GES_apx` (paper: 5).
    pub num_hashes: usize,
    /// Seed of the min-wise independent permutations.
    pub minhash_seed: u64,
}

impl Default for GesParams {
    fn default() -> Self {
        GesParams { cins: 0.5, filter_threshold: 0.8, q: 2, num_hashes: 5, minhash_seed: 0xDA5F }
    }
}

/// Parameters of SoftTFIDF. Paper setting: Jaro-Winkler word similarity with
/// `θ = 0.8`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftTfIdfParams {
    /// Word-similarity threshold defining the CLOSE(θ, Q, D) set.
    pub theta: f64,
}

impl Default for SoftTfIdfParams {
    fn default() -> Self {
        SoftTfIdfParams { theta: 0.8 }
    }
}

/// Choice of weighting scheme for the weighted overlap predicates
/// (WeightedMatch / WeightedJaccard). The paper compares IDF against
/// Robertson–Sparck Jones weights and settles on RS (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverlapWeighting {
    /// Plain inverse document frequency `log(N / df)`.
    Idf,
    /// Robertson–Sparck Jones weight `log((N - n + 0.5) / (n + 0.5))`,
    /// clamped at zero (the paper's choice).
    #[default]
    RobertsonSparckJones,
}

/// A cooperative execution budget: caps on how much work one query may do
/// before the engine stops and returns the **anytime answer** built so far
/// (flagged `degraded`, never corrupt — every returned score is exact, the
/// budget only truncates coverage; see `docs/ARCHITECTURE.md`).
///
/// The default is unlimited. Set on [`Params::budget`] as the engine-wide
/// default, or per request via `ServeRequest::with_budget` /
/// `PredicateHandle::execute_budgeted`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecBudget {
    /// Wall-clock bound for one execution. In the serving layer it also
    /// bounds queue wait: a request whose wait already exceeds its deadline
    /// is shed with a `Timeout` error instead of executed.
    pub deadline: Option<std::time::Duration>,
    /// Hard cap on candidates scored (deterministic: the same
    /// corpus/query/cap always yields byte-identical partial results).
    pub max_candidates: Option<usize>,
}

impl ExecBudget {
    /// No caps — the engine runs to completion (the `Default`).
    pub fn unlimited() -> Self {
        ExecBudget::default()
    }

    /// Whether no cap is set (such a budget executes on the normal,
    /// cache-enabled path and can never degrade a result).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_candidates.is_none()
    }
}

/// The complete parameter set handed to the predicate factory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Q-gram configuration used for corpus and query tokenization.
    pub qgram: QgramConfig,
    /// BM25 parameters.
    pub bm25: Bm25Params,
    /// HMM parameters.
    pub hmm: HmmParams,
    /// Edit-distance predicate parameters.
    pub edit: EditParams,
    /// GES-family parameters.
    pub ges: GesParams,
    /// SoftTFIDF parameters.
    pub soft_tfidf: SoftTfIdfParams,
    /// Weighting scheme for the weighted overlap predicates.
    pub overlap_weighting: OverlapWeighting,
    /// Seal threshold of the live-corpus tail segment (records appended to
    /// the mutable tail before it is frozen into an immutable sealed
    /// segment; see [`crate::live::LiveEngine`]). Correctness holds at every
    /// value — this only moves the append-amortization / segment-count
    /// trade-off. A `DASP_SEGMENT_SEAL` environment variable overrides it at
    /// live-engine construction (CI forces many tiny segments that way).
    pub segment_seal: usize,
    /// Number of contiguous tid-range shards a [`crate::live::LiveEngine`]
    /// splits its records into, one sealed segment each, at construction
    /// and at every compaction (default 1 — one sealed segment over the
    /// frozen statistics; clamped to the record count). Correctness holds
    /// at every value: every shard scores against the same frozen corpus
    /// statistics, so every mode, bounded top-k included, merges
    /// bit-identically to the monolith. More shards fan one request across
    /// more cores, which cuts its latency on an idle host but costs
    /// throughput on a saturated one. A `DASP_SHARDS` environment variable
    /// overrides it at live-engine construction (CI exercises non-default
    /// shard counts that way).
    ///
    /// # Examples
    ///
    /// ```
    /// use dasp_core::{Corpus, Exec, LiveEngine, Params, PredicateKind};
    ///
    /// let records = vec!["Morgan Stanley Group Inc.", "Beijing Hotel", "AT&T Inc."];
    /// let sharded = LiveEngine::from_corpus(
    ///     Corpus::from_strings(records.clone()),
    ///     &Params { shards: 2, ..Params::default() },
    /// );
    /// let monolith = LiveEngine::from_corpus(Corpus::from_strings(records), &Params::default());
    /// let top = sharded.execute(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
    /// assert_eq!(top[0].tid, 0);
    /// assert_eq!(
    ///     top,
    ///     monolith.execute(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap()
    /// );
    /// ```
    pub shards: usize,
    /// Engine-wide default execution budget (default: unlimited). Requests
    /// can override it per call; see [`ExecBudget`].
    pub budget: ExecBudget,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            qgram: QgramConfig::default(),
            bm25: Bm25Params::default(),
            hmm: HmmParams::default(),
            edit: EditParams::default(),
            ges: GesParams::default(),
            soft_tfidf: SoftTfIdfParams::default(),
            overlap_weighting: OverlapWeighting::default(),
            segment_seal: crate::live::DEFAULT_SEGMENT_SEAL,
            shards: 1,
            budget: ExecBudget::unlimited(),
        }
    }
}

impl Params {
    /// Paper defaults but with a different q-gram size (used by the q-gram
    /// size study of §5.3.3).
    pub fn with_q(q: usize) -> Self {
        Params {
            qgram: QgramConfig::new(q),
            ges: GesParams { q, ..GesParams::default() },
            ..Params::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = Params::default();
        assert_eq!(p.qgram.q, 2);
        assert_eq!(p.bm25.k1, 1.5);
        assert_eq!(p.bm25.k3, 8.0);
        assert_eq!(p.bm25.b, 0.675);
        assert_eq!(p.hmm.a0, 0.2);
        assert!((p.hmm.a1() - 0.8).abs() < 1e-12);
        assert_eq!(p.edit.filter_threshold, 0.7);
        assert_eq!(p.ges.cins, 0.5);
        assert_eq!(p.ges.filter_threshold, 0.8);
        assert_eq!(p.ges.num_hashes, 5);
        assert_eq!(p.soft_tfidf.theta, 0.8);
        assert_eq!(p.overlap_weighting, OverlapWeighting::RobertsonSparckJones);
        assert_eq!(p.segment_seal, crate::live::DEFAULT_SEGMENT_SEAL);
        assert_eq!(p.shards, 1);
        assert!(p.budget.is_unlimited());
        assert_eq!(p.budget, ExecBudget::default());
    }

    #[test]
    fn budget_unlimited_detection() {
        assert!(ExecBudget::unlimited().is_unlimited());
        let capped = ExecBudget { max_candidates: Some(10), ..ExecBudget::default() };
        assert!(!capped.is_unlimited());
        let timed = ExecBudget {
            deadline: Some(std::time::Duration::from_millis(5)),
            ..ExecBudget::default()
        };
        assert!(!timed.is_unlimited());
    }

    #[test]
    fn with_q_changes_both_tokenizer_and_ges() {
        let p = Params::with_q(3);
        assert_eq!(p.qgram.q, 3);
        assert_eq!(p.ges.q, 3);
        assert_eq!(p.bm25.k1, 1.5);
    }
}
