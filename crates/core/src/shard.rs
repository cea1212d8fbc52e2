//! Tid-range sharded execution.
//!
//! A [`ShardedEngine`] splits one corpus into [`Params::shards`] contiguous
//! tid ranges (`DASP_SHARDS` env override, like the other knobs) and builds
//! a full [`SelectionEngine`] per range — its own flat posting arenas and
//! lazily built shared artifacts — while every shard scores against **one**
//! frozen statistics provider via [`TokenizedCorpus::project`] (the same
//! trick the live engine's segments use). A request fans across the shards
//! and merges through the same code as the live engine's segments: the
//! shards are a frozen part set with nothing tombstoned, so they inherit the
//! live engine's contracts unchanged (see [`LiveEngine`](crate::LiveEngine)):
//!
//! * Every mode is **bit-identical** to the monolith at every shard count;
//!   [`Exec::TopK`]`(k)` runs an independent bounded top-k per shard and
//!   re-ranks the union, byte-deterministic under any thread schedule.
//! * A budgeted request shares **one** [`relq::ExecLimits`] across the
//!   shards, which run sequentially, so a capped run cuts byte-reproducibly
//!   and every returned score is exact.
//!
//! Unbudgeted shard runs fan across a bounded scoped-thread pool whose
//! results return indexed by shard, so merge order never depends on
//! scheduling, and a panicking shard becomes a typed
//! [`DaspError::Panicked`](crate::error::DaspError::Panicked) instead of
//! poisoning the process.

use crate::corpus::{Corpus, TokenizedCorpus};
use crate::engine::{CacheStats, Exec, Query, ResultCache, SelectionEngine, STATIC_EPOCH};
use crate::params::{ExecBudget, Params};
use crate::parts::{Part, PartSet};
use crate::predicate::PredicateKind;
use crate::record::{Record, ScoredTid, Tid};
use std::sync::Arc;

/// Parse a `DASP_SHARDS` environment override: a positive integer selects
/// that shard count; anything else leaves [`Params::shards`] in charge —
/// loudly for malformed input (see [`crate::envknob`]). Separated from
/// `std::env` for tests.
fn shards_env(var: Option<&str>) -> Option<usize> {
    crate::envknob::positive_usize("DASP_SHARDS", var)
}

/// A selection engine split into tid-range shards that execute in parallel
/// and merge deterministically — see the [module docs](self) for the
/// partitioning and the per-mode equivalence contract. Every mode is
/// bit-identical to the monolith at every shard count.
///
/// # Examples
///
/// ```
/// use dasp_core::{Corpus, Exec, Params, PredicateKind, ShardedEngine};
///
/// let params = Params { shards: 2, ..Params::default() };
/// let sharded = ShardedEngine::from_corpus(
///     Corpus::from_strings(vec!["Morgan Stanley Group Inc.", "Beijing Hotel", "AT&T Inc."]),
///     &params,
/// );
/// assert_eq!(sharded.shards(), 2);
/// let top = sharded.execute(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
/// assert_eq!(top[0].tid, 0);
/// ```
pub struct ShardedEngine {
    params: Params,
    /// The frozen statistics provider every shard projects against (and the
    /// monolithic reference engine is built over).
    stats: Arc<TokenizedCorpus>,
    shards: PartSet,
    /// Merged-result cache over the whole corpus. Shard engines keep none:
    /// every request probes this cache first, so a per-shard entry could
    /// only ever answer a key this one has evicted. The corpus is
    /// immutable, so entries never go stale.
    cache: ResultCache,
}

/// Default capacity of the sharded engine's merged-result cache (same
/// sizing rationale as the per-engine cache).
const SHARDED_RESULT_CACHE_CAPACITY: usize = 256;

impl ShardedEngine {
    /// Shard an already tokenized corpus: resolve the shard count
    /// ([`Params::shards`], `DASP_SHARDS` override, clamped to `1..=N`),
    /// split the records into contiguous equal tid ranges, and build one
    /// engine per range over its [`TokenizedCorpus::project`]ion — every
    /// shard shares `stats`' frozen dictionaries and statistics.
    pub fn build(stats: Arc<TokenizedCorpus>, params: &Params) -> Self {
        let n = stats.num_records();
        let count = shards_env(std::env::var("DASP_SHARDS").ok().as_deref())
            .unwrap_or(params.shards)
            .max(1)
            .min(n.max(1));
        let chunk = n.div_ceil(count).max(1);
        let shards = (0..n)
            .step_by(chunk)
            .map(|start| {
                let records = (start..n.min(start + chunk))
                    .map(|idx| Record::new(idx as Tid, stats.record_text(idx)))
                    .collect();
                Arc::new(Part::project(&stats, records, params))
            })
            .collect();
        ShardedEngine {
            params: *params,
            stats,
            shards: PartSet::frozen(shards),
            cache: ResultCache::new(SHARDED_RESULT_CACHE_CAPACITY),
        }
    }

    /// Tokenize a raw corpus and shard it in one step.
    pub fn from_corpus(corpus: Corpus, params: &Params) -> Self {
        let stats = Arc::new(TokenizedCorpus::build(corpus, params.qgram));
        Self::build(stats, params)
    }

    /// Execute `kind` over the query `text` in mode `exec` across all
    /// shards, returning globally ranked results with global tids. The text
    /// is prepared once per executed request, against the frozen statistics
    /// every shard shares, and that one [`crate::Query`] runs on every
    /// shard.
    pub fn execute(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        self.execute_budgeted(kind, text, exec, ExecBudget::unlimited()).map(|run| run.results)
    }

    /// [`execute`](Self::execute) under an execution budget. An unlimited
    /// budget probes the merged-result cache first (`cache_hit` reports
    /// whether it answered). A capped one shares a single
    /// [`relq::ExecLimits`] across the shards — the budget bounds the
    /// request, not each shard — runs them sequentially, and bypasses the
    /// cache in both directions (same rationale as
    /// [`LiveEngine::execute_budgeted`](crate::live::LiveEngine::execute_budgeted)).
    /// A degraded answer is byte-reproducible and every score in it exact.
    pub fn execute_budgeted(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        budget: ExecBudget,
    ) -> crate::error::Result<crate::engine::BudgetedRun> {
        let run = |limits: &relq::ExecLimits| {
            self.shards.execute(kind, &Query::build(&self.stats, text), exec, limits)
        };
        self.cache.run(STATIC_EPOCH, kind, text, exec, budget, run).map(|(run, _)| run)
    }

    /// Build the monolithic differential reference: one [`SelectionEngine`]
    /// over the **same** frozen statistics provider every shard projects
    /// against. Every mode on the sharded engine is bit-identical to it.
    pub fn rebuild_monolith(&self) -> SelectionEngine {
        SelectionEngine::build(self.stats.clone(), &self.params)
    }

    /// The parameter set every shard engine is built with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The resolved shard count (env override and `1..=N` clamp applied).
    pub fn shards(&self) -> usize {
        self.shards.parts.len()
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.shards.total_records()
    }

    /// Whether the corpus is empty (no shards are built then).
    pub fn is_empty(&self) -> bool {
        self.shards.parts.is_empty()
    }

    /// Counters and occupancy of the merged-result cache.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resize the merged-result cache (0 disables caching — the bench needs
    /// repeat executions to really execute on every shard).
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Tid;

    fn seed_texts() -> Vec<&'static str> {
        vec![
            "Morgan Stanley Group Inc.",
            "Morgan Stanle Grop Inc.",
            "Silicon Valley Group, Inc.",
            "Beijing Hotel",
            "Beijing Labs Limited",
            "AT&T Incorporated",
            "Morgan Stanley Dean Witter",
        ]
    }

    fn sharded(shards: usize) -> ShardedEngine {
        let params = Params { shards, ..Params::default() };
        ShardedEngine::from_corpus(Corpus::from_strings(seed_texts()), &params)
    }

    #[test]
    fn shard_count_resolves_and_clamps() {
        assert_eq!(shards_env(Some("3")), Some(3));
        assert_eq!(shards_env(Some("0")), None);
        assert_eq!(shards_env(Some("nope")), None);
        assert_eq!(shards_env(None), None);
        assert_eq!(sharded(1).shards(), 1);
        assert_eq!(sharded(3).shards(), 3);
        // More shards than records clamps to one record per shard.
        let wide = sharded(1000);
        assert_eq!(wide.shards(), seed_texts().len());
        assert_eq!(wide.len(), seed_texts().len());
        assert!(!wide.is_empty());
    }

    #[test]
    fn exact_modes_are_bit_identical_to_the_monolith() {
        for shards in [1, 2, 3, 7, 100] {
            let engine = sharded(shards);
            let monolith = engine.rebuild_monolith();
            for exec in [Exec::Rank, Exec::Threshold(0.1), Exec::ThresholdScan(0.1)] {
                for kind in [PredicateKind::Bm25, PredicateKind::Jaccard] {
                    let got = engine.execute(kind, "Morgan Stanley Group", exec).unwrap();
                    let expected = monolith
                        .predicate(kind)
                        .execute(&monolith.query("Morgan Stanley Group"), exec)
                        .unwrap();
                    let bits = |v: &[ScoredTid]| {
                        v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&got), bits(&expected), "{kind:?} {exec:?} x{shards}");
                }
            }
        }
    }

    #[test]
    fn topk_heap_is_bit_identical_and_bounded_topk_is_tie_class() {
        for shards in [2, 3, 7] {
            let engine = sharded(shards);
            let monolith = engine.rebuild_monolith();
            let kind = PredicateKind::Cosine;
            let query = monolith.query("Morgan Stanley");
            let exact = monolith.predicate(kind).execute(&query, Exec::TopKHeap(3)).unwrap();
            let got_heap = engine.execute(kind, "Morgan Stanley", Exec::TopKHeap(3)).unwrap();
            let bits =
                |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got_heap), bits(&exact), "x{shards}");
            // Bounded top-k: the same bytes, so its tie class at the k
            // boundary is the heap's one answer.
            let got = engine.execute(kind, "Morgan Stanley", Exec::TopK(3)).unwrap();
            assert_eq!(bits(&got), bits(&exact), "x{shards}");
        }
    }

    #[test]
    fn merged_cache_makes_repeats_byte_stable() {
        let engine = sharded(3);
        let run = || {
            engine
                .execute_budgeted(
                    PredicateKind::Bm25,
                    "Beijing",
                    Exec::TopK(2),
                    ExecBudget::unlimited(),
                )
                .unwrap()
        };
        let (first, second) = (run(), run());
        assert!(!first.cache_hit && second.cache_hit);
        let bits =
            |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&first.results), bits(&second.results));
        assert_eq!(engine.result_cache_stats().hits, 1);
        engine.set_result_cache_capacity(0);
        assert!(!run().cache_hit);
    }

    #[test]
    fn budget_bounds_the_request_not_each_shard() {
        let engine = sharded(3);
        let budget = ExecBudget { max_candidates: Some(2), ..ExecBudget::default() };
        let run = engine
            .execute_budgeted(PredicateKind::Bm25, "Morgan Stanley Group", Exec::Rank, budget)
            .unwrap();
        assert!(run.degraded, "a two-candidate cap must trip across {} records", engine.len());
        let report = run.report.expect("capped run carries a report");
        assert_eq!(report.candidates_scored, 2, "the shared cap grants exactly max across shards");
        // Every score in the anytime answer is exact.
        let monolith = engine.rebuild_monolith();
        let truth: std::collections::HashMap<Tid, u64> = monolith
            .predicate(PredicateKind::Bm25)
            .execute(&monolith.query("Morgan Stanley Group"), Exec::Rank)
            .unwrap()
            .into_iter()
            .map(|s| (s.tid, s.score.to_bits()))
            .collect();
        for s in &run.results {
            assert_eq!(truth.get(&s.tid), Some(&s.score.to_bits()));
        }
        // Unlimited budgets take the cached path.
        let run = engine
            .execute_budgeted(
                PredicateKind::Bm25,
                "Morgan Stanley Group",
                Exec::Rank,
                ExecBudget::unlimited(),
            )
            .unwrap();
        assert!(!run.degraded && run.report.is_none());
    }

    #[test]
    fn empty_corpus_yields_empty_results() {
        let engine = ShardedEngine::from_corpus(Corpus::default(), &Params::default());
        assert!(engine.is_empty());
        assert_eq!(engine.shards(), 0);
        for exec in [Exec::Rank, Exec::TopK(3), Exec::Threshold(0.0)] {
            assert!(engine.execute(PredicateKind::Bm25, "Morgan", exec).unwrap().is_empty());
        }
    }
}
