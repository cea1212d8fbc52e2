//! Tid-range sharded execution under a shared θ/τ bar.
//!
//! A [`ShardedEngine`] splits one corpus into [`Params::shards`] contiguous
//! tid ranges (`DASP_SHARDS` env override, like the other knobs) and builds
//! a full [`SelectionEngine`] per range — its own flat posting arenas and
//! lazily built shared artifacts — while every shard scores against **one**
//! frozen statistics provider via [`TokenizedCorpus::project`] (the same
//! trick the live engine's segments use). Per-candidate scores are therefore
//! bit-identical to the monolithic engine over the same corpus, and the
//! merges preserve the execution-mode contracts:
//!
//! * [`Exec::Rank`] / [`Exec::Threshold`] / [`Exec::ThresholdScan`] are
//!   embarrassingly parallel: the mode runs per shard unchanged (a fixed τ
//!   bar passes through), the mapped results are concatenated and re-sorted
//!   into the canonical ranking order — **bit-identical** to the monolith at
//!   every shard count.
//! * [`Exec::TopKHeap`]`(k)` takes each shard's exact local top `k` and
//!   re-ranks the union — the global top `k` members are each in their
//!   shard's top `k`, so this too is **bit-identical**.
//! * [`Exec::TopK`]`(k)` (the bounded operator) runs per shard under a
//!   shared [`relq::SharedBar`]: every worker prunes against
//!   `max(local θ, bar)` and publishes its own heap-full θ (a lower bound on
//!   the global k-th best score, so pruning against it never skips a global
//!   top-k member). Which ties at the k boundary survive depends on thread
//!   interleaving *inside each shard's own result only via its local
//!   deterministic traversal* — the merge itself is a deterministic re-rank
//!   of per-shard results — so the output is **tie-class-equal** to the
//!   monolith: same score multiset, identical membership strictly above the
//!   boundary, every returned score exact.
//!
//! Shard workers fan across scoped threads through `fan_units`, the same
//! bounded worker pool the live engine's per-segment merge uses: unit
//! closures are claimed from an atomic cursor by at most
//! `available_parallelism` threads, results return indexed by unit so merge
//! order never depends on scheduling, and a panicking unit becomes a typed
//! [`DaspError::Panicked`](crate::error::DaspError::Panicked) instead of
//! poisoning the process.
//!
//! Budgeted execution shares **one** [`relq::ExecLimits`] across all shard
//! workers, so a request's budget bounds the request, not each shard: the
//! candidate cap's compare-exchange grants exactly `max` charges across
//! threads. The anytime answer keeps its score-exactness guarantee (every
//! returned `(tid, score)` is bit-identical to the exhaustive run's entry),
//! but *which* candidates fit under a shared cap is scheduling-dependent —
//! unlike the serial monolith, a degraded sharded run's coverage is not
//! byte-reproducible.

use crate::corpus::{Corpus, TokenizedCorpus};
use crate::engine::{CacheStats, Exec, ResultCache, SelectionEngine};
use crate::params::Params;
use crate::predicate::PredicateKind;
use crate::record::{sort_ranked, top_k_ranked, Record, ScoredTid, Tid};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Best-effort stringification of a caught panic payload (shared with the
/// serving layer's per-request boundary).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run every unit closure and return their results **indexed by unit**, so
/// the caller's merge order never depends on thread scheduling.
///
/// A single unit runs inline on the caller (no thread, panics propagate —
/// the serving layer's per-request `catch_unwind` still isolates them).
/// More than one unit fans across at most
/// [`std::thread::available_parallelism`] scoped threads claiming unit
/// indexes from a shared cursor; each unit runs under `catch_unwind`, and
/// the first failing unit (in unit order, not completion order) decides the
/// returned error — a panic surfaces as the typed
/// [`DaspError::Panicked`](crate::error::DaspError::Panicked). On a 1-core
/// host the pool degenerates to the caller running every unit sequentially,
/// with identical results by construction.
pub(crate) fn fan_units<T, F>(units: Vec<F>) -> crate::error::Result<Vec<T>>
where
    T: Send,
    F: FnOnce() -> crate::error::Result<T> + Send,
{
    let n = units.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        let unit = units.into_iter().next().expect("one unit");
        return unit().map(|value| vec![value]);
    }
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(n);
    let units: Vec<Mutex<Option<F>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    type Outcome<T> = std::thread::Result<crate::error::Result<T>>;
    let outcomes: Vec<Mutex<Option<Outcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let drain = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let unit = units[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
            .expect("each unit is claimed exactly once");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(unit));
        *outcomes[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(outcome);
    };
    if workers <= 1 {
        drain();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(drain);
            }
            drain();
        });
    }
    let mut out = Vec::with_capacity(n);
    for slot in outcomes {
        let outcome = slot
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .expect("every unit index below the cursor has run");
        match outcome {
            Ok(Ok(value)) => out.push(value),
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                return Err(crate::error::DaspError::Panicked(panic_message(payload.as_ref())))
            }
        }
    }
    Ok(out)
}

/// One contiguous tid range of the corpus: its records (carrying **global**
/// tids — the local→global map is the record list itself, exactly like a
/// live segment) and a full engine over their projection.
struct Shard {
    records: Vec<Record>,
    engine: SelectionEngine,
}

/// Parse a `DASP_SHARDS` environment override: a positive integer selects
/// that shard count; anything else leaves [`Params::shards`] in charge —
/// loudly for malformed input (see [`crate::envknob`]). Separated from
/// `std::env` for tests.
fn shards_env(var: Option<&str>) -> Option<usize> {
    crate::envknob::positive_usize("DASP_SHARDS", var)
}

/// A selection engine split into tid-range shards that execute in parallel
/// and merge deterministically — see the [module docs](self) for the
/// partitioning, the shared-bar protocol, and the per-mode equivalence
/// contract. Exact modes are bit-identical to the monolith at every shard
/// count; bounded top-k is tie-class-equal at the k boundary.
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
    shards: Vec<Shard>,
    /// Merged-result cache over the whole corpus (per-shard engines also
    /// keep their own). The corpus is immutable, so entries never go stale.
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
        let shards = stats
            .corpus()
            .records()
            .chunks(chunk)
            .map(|slice| {
                let dense: Vec<Record> = slice
                    .iter()
                    .enumerate()
                    .map(|(i, r)| Record::new(i as Tid, r.text.clone()))
                    .collect();
                let corpus = Arc::new(stats.project(dense));
                Shard { records: slice.to_vec(), engine: SelectionEngine::build(corpus, params) }
            })
            .collect();
        ShardedEngine {
            params: *params,
            stats,
            shards,
            cache: ResultCache::new(SHARDED_RESULT_CACHE_CAPACITY),
        }
    }

    /// Tokenize a raw corpus and shard it in one step.
    pub fn from_corpus(corpus: Corpus, params: &Params) -> Self {
        let stats = Arc::new(TokenizedCorpus::build(corpus, params.qgram));
        Self::build(stats, params)
    }

    /// Execute `kind` over the query `text` in mode `exec` across all
    /// shards, returning globally ranked results with global tids. Takes the
    /// query as text (like [`crate::live::LiveEngine::execute`]) because
    /// each shard tokenizes it against its own corpus view — token ids agree
    /// across shards through the shared frozen dictionaries.
    pub fn execute(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        self.execute_tracked(kind, text, exec).map(|(results, _)| results)
    }

    /// [`execute`](Self::execute), also reporting whether the merged-result
    /// cache answered the request. Repeats of a bounded top-k request are
    /// byte-stable through the cache even though a cold run is only
    /// tie-class-determined.
    pub fn execute_tracked(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> crate::error::Result<(Vec<ScoredTid>, bool)> {
        let cached = self.cache.enabled();
        if cached {
            if let Some(hit) = self.cache.get(0, kind, text, exec) {
                return Ok((hit.as_ref().clone(), true));
            }
        }
        let results = self.execute_on_shards(kind, text, exec, None)?;
        if cached {
            self.cache.insert(0, kind, text, exec, Arc::new(results.clone()));
        }
        Ok((results, false))
    }

    /// [`execute`](Self::execute) under an execution budget. An unlimited
    /// budget takes the normal cache-enabled path. A capped one shares a
    /// single [`relq::ExecLimits`] across every shard worker — the budget
    /// bounds the request, not each shard — and bypasses the result caches
    /// in both directions (same rationale as
    /// [`LiveEngine::execute_budgeted`](crate::live::LiveEngine::execute_budgeted)).
    /// Every returned score in a degraded answer is exact; under a shared
    /// cap the covered candidate set is scheduling-dependent (see the
    /// [module docs](self)).
    pub fn execute_budgeted(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        budget: crate::params::ExecBudget,
    ) -> crate::error::Result<crate::engine::BudgetedRun> {
        if budget.is_unlimited() {
            let (results, cache_hit) = self.execute_tracked(kind, text, exec)?;
            return Ok(crate::engine::BudgetedRun {
                results,
                cache_hit,
                degraded: false,
                report: None,
            });
        }
        let mut limits =
            relq::ExecLimits::new(budget.deadline, budget.max_candidates.map(|n| n as u64));
        if let Exec::TopK(_) = exec {
            limits = limits.with_topk_bar(Arc::new(relq::SharedBar::new()));
        }
        let results = self.execute_on_shards(kind, text, exec, Some(&limits))?;
        Ok(crate::engine::BudgetedRun {
            results,
            cache_hit: false,
            degraded: limits.exhausted(),
            report: Some(crate::engine::BudgetReport::from_limits(&limits)),
        })
    }

    /// The per-mode fan-and-merge (see the module docs for why each merge
    /// preserves its mode's equivalence contract).
    fn execute_on_shards(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        limits: Option<&relq::ExecLimits>,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        match exec {
            Exec::Rank | Exec::Threshold(_) | Exec::ThresholdScan(_) => {
                let locals = self.fan(kind, text, exec, limits)?;
                let mut merged: Vec<ScoredTid> = locals.into_iter().flatten().collect();
                sort_ranked(&mut merged);
                Ok(merged)
            }
            Exec::TopKHeap(k) => {
                if k == 0 {
                    return Ok(Vec::new());
                }
                let locals = self.fan(kind, text, exec, limits)?;
                Ok(top_k_ranked(locals.concat(), k))
            }
            Exec::TopK(k) => {
                if k == 0 {
                    return Ok(Vec::new());
                }
                // The shared θ bar rides inside the ExecLimits; when the
                // caller brought none (the unbudgeted path), attach one to a
                // fresh unlimited budget so shard workers still exchange θ.
                let owned;
                let limits = match limits {
                    Some(l) => l,
                    None => {
                        owned = relq::ExecLimits::unlimited()
                            .with_topk_bar(Arc::new(relq::SharedBar::new()));
                        &owned
                    }
                };
                let locals = self.fan(kind, text, exec, Some(limits))?;
                Ok(top_k_ranked(locals.concat(), k))
            }
        }
    }

    /// Run one traversal per shard through `fan_units` and map each local
    /// result to global tids. With `limits` the execution bypasses the
    /// per-shard result caches (a bar- or budget-shaped local result must
    /// never answer a later unshaped request); without, the per-shard cached
    /// path serves exact modes.
    fn fan(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        limits: Option<&relq::ExecLimits>,
    ) -> crate::error::Result<Vec<Vec<ScoredTid>>> {
        let units: Vec<_> = self
            .shards
            .iter()
            .map(|shard| {
                move || -> crate::error::Result<Vec<ScoredTid>> {
                    let handle = shard.engine.predicate(kind);
                    let query = shard.engine.query(text);
                    let local = match limits {
                        Some(_) => handle.execute_with_limits(&query, exec, limits)?,
                        None => handle.execute(&query, exec)?,
                    };
                    Ok(local
                        .into_iter()
                        .map(|s| ScoredTid::new(shard.records[s.tid as usize].tid, s.score))
                        .collect())
                }
            })
            .collect();
        fan_units(units)
    }

    /// Build the monolithic differential reference: one [`SelectionEngine`]
    /// over the **same** frozen statistics provider every shard projects
    /// against. Exact modes on the sharded engine are bit-identical to it;
    /// bounded top-k is tie-class-equal at the k boundary.
    pub fn rebuild_monolith(&self) -> SelectionEngine {
        SelectionEngine::build(self.stats.clone(), &self.params)
    }

    /// The parameter set every shard engine is built with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The resolved shard count (env override and `1..=N` clamp applied).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Whether the corpus is empty (no shards are built then).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Counters and occupancy of the merged-result cache.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resize the merged-result cache AND every per-shard engine's result
    /// cache (0 disables caching everywhere — the bench needs repeat
    /// executions to really execute on every shard).
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
        for shard in &self.shards {
            shard.engine.set_result_cache_capacity(capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExecBudget;

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
    fn fan_units_preserves_unit_order_and_runs_everything() {
        assert_eq!(fan_units(Vec::<fn() -> crate::error::Result<u32>>::new()).unwrap(), vec![]);
        let one = vec![|| Ok(7u32)];
        assert_eq!(fan_units(one).unwrap(), vec![7]);
        let many: Vec<_> = (0..37u32).map(|i| move || Ok(i * i)).collect();
        let out = fan_units(many).unwrap();
        assert_eq!(out, (0..37u32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn fan_units_surfaces_typed_errors_and_panics() {
        let failing: Vec<Box<dyn FnOnce() -> crate::error::Result<u32> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| Err(crate::error::DaspError::EngineMismatch)),
            Box::new(|| Ok(3)),
        ];
        assert_eq!(fan_units(failing).unwrap_err(), crate::error::DaspError::EngineMismatch);
        let panicking: Vec<Box<dyn FnOnce() -> crate::error::Result<u32> + Send>> =
            vec![Box::new(|| Ok(1)), Box::new(|| panic!("shard worker down")), Box::new(|| Ok(3))];
        match fan_units(panicking).unwrap_err() {
            crate::error::DaspError::Panicked(msg) => {
                assert!(msg.contains("shard worker down"), "payload survives: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
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
            // Bounded top-k: same score multiset, every score exact.
            let got = engine.execute(kind, "Morgan Stanley", Exec::TopK(3)).unwrap();
            let scores = |v: &[ScoredTid]| v.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>();
            assert_eq!(scores(&got), scores(&exact), "x{shards}");
            let truth: std::collections::HashMap<Tid, u64> = monolith
                .predicate(kind)
                .execute(&query, Exec::Rank)
                .unwrap()
                .into_iter()
                .map(|s| (s.tid, s.score.to_bits()))
                .collect();
            for s in &got {
                assert_eq!(truth.get(&s.tid), Some(&s.score.to_bits()), "x{shards}");
            }
        }
    }

    #[test]
    fn merged_cache_makes_repeats_byte_stable() {
        let engine = sharded(3);
        let (first, hit1) =
            engine.execute_tracked(PredicateKind::Bm25, "Beijing", Exec::TopK(2)).unwrap();
        let (second, hit2) =
            engine.execute_tracked(PredicateKind::Bm25, "Beijing", Exec::TopK(2)).unwrap();
        assert!(!hit1 && hit2);
        let bits =
            |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(engine.result_cache_stats().hits, 1);
        engine.set_result_cache_capacity(0);
        assert!(!engine.execute_tracked(PredicateKind::Bm25, "Beijing", Exec::TopK(2)).unwrap().1);
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
