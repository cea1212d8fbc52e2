//! One fan-and-merge for an engine split into parts: the live engine's
//! segments, its tid-range shards and its tail.
//!
//! A [`Part`] is a contiguous slice of the records (carrying **global**
//! tids) plus a full [`SelectionEngine`] over their projection onto one
//! frozen statistics provider, so every per-candidate score is bit-identical
//! to the monolithic engine over the same statistics. A [`PartSet`] adds the
//! per-part count of tombstoned records and the tombstone set itself (both
//! empty until a delete) and executes a request over every part. The request's
//! [`Query`] is prepared once, against the frozen statistics provider, and
//! every part runs it as is: token ids and weights agree across parts
//! because every part shares the provider's dictionaries and statistics.
//!
//! * **Unbudgeted** requests run one *independent* execution per part,
//!   fanned across the bounded scoped-thread pool of [`fan_units`], and
//!   merge the results in part order:
//!   * [`Exec::Rank`] / [`Exec::Threshold`] / [`Exec::ThresholdScan`] run
//!     the same mode per part (a fixed τ bar passes through unchanged); the
//!     mapped results are concatenated and ranked — bit-identical to the
//!     monolith, because per-candidate scores do not depend on which part
//!     holds the candidate.
//!   * [`Exec::TopKHeap`]`(k)` asks each part for its `k + dead` best
//!     (tombstoned rows may occupy up to `dead` of the local top slots),
//!     then ranks the merged survivors — exact.
//!   * [`Exec::TopK`]`(k)` (the bounded operator) likewise asks each part
//!     for its own `TopK(k + dead)` and re-ranks the union — exact too. Both
//!     sides rank by (score desc, tid asc), and a part's local tid order is
//!     its global tid order. A global top-`k` row missing from its part's
//!     local answer would need `k + dead` local rows ranked ahead of it, at
//!     least `k` of them live, which would push it out of the global top
//!     `k`.
//! * **Budgeted** (capped) requests share **one** [`relq::ExecLimits`]
//!   across every part, so the budget bounds the request, not each part,
//!   and run the parts strictly sequentially: a serial cut under a
//!   candidate cap is byte-reproducible, a racing one is not. The loop stops once the budget
//!   trips; parts processed before the trip contribute exactly-scored rows,
//!   so the merged prefix is a valid anytime answer. Each part runs the same
//!   local mode as in the unbudgeted fan — `TopK(k + dead)` for `TopK` —
//!   so a request that never trips returns the unbudgeted bytes. No bar
//!   is carried from part to part: the bounded kernel charges every tid it
//!   touches whatever the bar, so a carried bar would save no work.
//!
//! No part's run reads another's state, and results merge in part order, so
//! every answer is **byte-deterministic under any thread schedule**.

use crate::corpus::TokenizedCorpus;
use crate::engine::{Exec, Query, SelectionEngine};
use crate::error::{DaspError, Result};
use crate::params::Params;
use crate::predicate::PredicateKind;
use crate::record::{sort_ranked, top_k_ranked, Record, ScoredTid, Tid};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// [`std::thread::available_parallelism`], resolved once per process: std
/// re-reads the cgroup limits on every call, which a multi-part request
/// would otherwise pay each time.
fn parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Run every unit closure and return their results **indexed by unit**, so
/// the caller's merge order never depends on thread scheduling.
///
/// A single unit runs inline on the caller (no thread, panics propagate —
/// the serving layer's per-request `catch_unwind` still isolates them).
/// More than one unit fans across at most `parallelism()` scoped threads
/// claiming unit indexes from a shared cursor; each unit runs under
/// `catch_unwind`, and the first failing unit (in unit order, not
/// completion order) decides the returned error — a panic surfaces as the
/// typed [`DaspError::Panicked`].
/// On a 1-core host the pool degenerates to the caller running every unit
/// sequentially, with identical results by construction.
pub(crate) fn fan_units<T, F>(units: Vec<F>) -> Result<Vec<T>>
where
    T: Send,
    F: FnOnce() -> Result<T> + Send,
{
    let n = units.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if n == 1 {
        let unit = units.into_iter().next().expect("one unit");
        return unit().map(|value| vec![value]);
    }
    let workers = parallelism().min(n);
    let units: Vec<Mutex<Option<F>>> = units.into_iter().map(|u| Mutex::new(Some(u))).collect();
    type Outcome<T> = std::thread::Result<Result<T>>;
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
            Err(payload) => return Err(DaspError::Panicked(panic_message(payload.as_ref()))),
        }
    }
    Ok(out)
}

/// One slice of the records and a full engine over it. The engine's corpus
/// holds the records under dense local tids; `tids[i]` is the **global**
/// tid of local record `i` — the local→global map.
pub(crate) struct Part {
    /// Global tids of the part's records, ascending.
    pub(crate) tids: Vec<Tid>,
    /// The engine over this slice, scoring against the frozen statistics.
    pub(crate) engine: SelectionEngine,
}

impl Part {
    /// A part whose local record `i` has global tid `tids[i]`, served by an
    /// engine over `corpus`. Part engines keep no result cache: every
    /// request probes its backend's merged cache first, so a per-part entry
    /// could only answer a key that cache has evicted.
    pub(crate) fn new(tids: Vec<Tid>, corpus: Arc<TokenizedCorpus>, params: &Params) -> Part {
        let engine = SelectionEngine::build(corpus, params);
        engine.set_result_cache_capacity(0);
        Part { tids, engine }
    }

    /// Build a part over `records` (global tids) by projecting them onto
    /// the frozen statistics of `stats` — `O(records)`, independent of the
    /// corpus size.
    pub(crate) fn project(stats: &TokenizedCorpus, records: Vec<Record>, params: &Params) -> Part {
        let tids = records.iter().map(|r| r.tid).collect();
        let dense =
            records.into_iter().enumerate().map(|(i, r)| Record::new(i as Tid, r.text)).collect();
        Part::new(tids, Arc::new(stats.project(dense)), params)
    }

    /// This part plus `record` (a global tid above every tid it holds), over
    /// the same frozen statistics: only the new record is tokenized, and the
    /// rows of the records already held are shared
    /// ([`TokenizedCorpus::project_append`]). The new part's engine starts
    /// with no artifacts, like every fresh engine.
    pub(crate) fn append(&self, record: Record) -> Part {
        let corpus = self.engine.corpus().project_append(record.text);
        let mut tids = Vec::with_capacity(self.tids.len() + 1);
        tids.extend_from_slice(&self.tids);
        tids.push(record.tid);
        Part::new(tids, Arc::new(corpus), self.engine.params())
    }

    /// The part's records under their global tids.
    pub(crate) fn records(&self) -> impl Iterator<Item = Record> + '_ {
        let corpus = self.engine.corpus();
        self.tids.iter().enumerate().map(|(i, &tid)| Record::new(tid, corpus.record_text(i)))
    }

    /// Run this part's engine in `exec` mode under `limits` and map the
    /// local result to global tids, dropping tombstoned rows. `query` must
    /// be prepared against the part's frozen statistics provider (else
    /// [`DaspError::EngineMismatch`]).
    fn run(
        &self,
        kind: PredicateKind,
        query: &Query,
        exec: Exec,
        limits: &crate::engine::RequestLimits,
        tombstones: &BTreeSet<Tid>,
    ) -> Result<Vec<ScoredTid>> {
        let local = self.engine.predicate(kind).execute_with_limits(query, exec, limits)?;
        Ok(local
            .into_iter()
            .filter_map(|s| {
                let global = self.tids[s.tid as usize];
                (!tombstones.contains(&global)).then_some(ScoredTid::new(global, s.score))
            })
            .collect())
    }
}

/// The mode each part runs for a request in mode `exec` when `dead` of its
/// records are tombstoned: top-k modes ask for `k + dead` so tombstoned rows
/// cannot crowd live ones out of the local answer.
fn local_mode(exec: Exec, dead: usize) -> Exec {
    match exec {
        Exec::TopKHeap(k) => Exec::TopKHeap(k.saturating_add(dead)),
        Exec::TopK(k) => Exec::TopK(k.saturating_add(dead)),
        Exec::Rank | Exec::Threshold(_) | Exec::ThresholdScan(_) => exec,
    }
}

/// Merge the mapped per-part rows of a request in mode `exec` into its
/// global answer.
fn merge(exec: Exec, mut rows: Vec<ScoredTid>) -> Vec<ScoredTid> {
    match exec {
        Exec::TopKHeap(k) | Exec::TopK(k) => top_k_ranked(rows, k),
        Exec::Rank | Exec::Threshold(_) | Exec::ThresholdScan(_) => {
            sort_ranked(&mut rows);
            rows
        }
    }
}

/// Parts in ascending global-tid order, with their tombstones. See the
/// [module docs](self) for the execution contract.
#[derive(Clone)]
pub(crate) struct PartSet {
    pub(crate) parts: Vec<Arc<Part>>,
    /// Per-part count of tombstoned records, aligned with `parts`.
    pub(crate) dead: Vec<usize>,
    /// Global tids deleted from the parts (filtered out of every result).
    pub(crate) tombstones: Arc<BTreeSet<Tid>>,
}

impl PartSet {
    /// A frozen set of parts: no tombstones, none dead.
    pub(crate) fn frozen(parts: Vec<Arc<Part>>) -> PartSet {
        let dead = vec![0; parts.len()];
        PartSet { parts, dead, tombstones: Arc::default() }
    }

    /// Records held in parts, tombstoned ones included.
    pub(crate) fn total_records(&self) -> usize {
        self.parts.iter().map(|p| p.tids.len()).sum()
    }

    /// Live (non-tombstoned) records.
    pub(crate) fn live_len(&self) -> usize {
        self.total_records() - self.dead.iter().sum::<usize>()
    }

    /// Execute `kind` over `query` in mode `exec` across every part under
    /// the shared `limits`: fanned when they are uncapped, sequential
    /// otherwise. Returns the merged answer and how many parts actually ran
    /// (fewer than all when a budget tripped, none for `k = 0`).
    pub(crate) fn execute(
        &self,
        kind: PredicateKind,
        query: &Query,
        exec: Exec,
        limits: &crate::engine::RequestLimits,
    ) -> Result<(Vec<ScoredTid>, usize)> {
        if let Exec::TopK(0) | Exec::TopKHeap(0) = exec {
            return Ok((Vec::new(), 0));
        }
        let parts = self.parts.iter().zip(&self.dead);
        if !limits.is_capped() {
            let units: Vec<_> = parts
                .map(|(part, &dead)| {
                    let mode = local_mode(exec, dead);
                    move || part.run(kind, query, mode, limits, &self.tombstones)
                })
                .collect();
            return Ok((merge(exec, fan_units(units)?.concat()), self.parts.len()));
        }
        let mut rows: Vec<ScoredTid> = Vec::new();
        let mut ran = 0;
        for (part, &dead) in parts {
            if limits.exhausted() {
                break;
            }
            let mode = local_mode(exec, dead);
            rows.extend(part.run(kind, query, mode, limits, &self.tombstones)?);
            ran += 1;
        }
        Ok((merge(exec, rows), ran))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;

    #[test]
    fn one_query_prepared_against_the_provider_runs_on_every_part() {
        let texts = vec![
            "Morgan Stanley Group Inc.",
            "Morgan Stanle Grop Inc.",
            "Silicon Valley Group, Inc.",
            "Beijing Hotel",
            "Beijing Labs Limited",
            "AT&T Incorporated",
            "Morgan Stanley Dean Witter",
        ];
        let params = Params::default();
        let build =
            || Arc::new(TokenizedCorpus::build(Corpus::from_strings(texts.clone()), params.qgram));
        let stats = build();
        let monolith = SelectionEngine::build(stats.clone(), &params);
        let part = |range: std::ops::Range<usize>| {
            let records = range.map(|i| Record::new(i as Tid, stats.record_text(i))).collect();
            Arc::new(Part::project(&stats, records, &params))
        };
        let parts = PartSet::frozen(vec![part(0..3), part(3..5), part(5..7)]);
        let text = "Morgan Stanley Group";
        let query = Query::build(&stats, text);
        let unlimited = crate::engine::RequestLimits::unlimited();
        let bits =
            |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
        for &kind in PredicateKind::all() {
            let handle = monolith.predicate(kind);
            let tau = handle.execute(&query, Exec::Rank).unwrap().get(2).map_or(0.0, |s| s.score);
            for exec in [
                Exec::Rank,
                Exec::TopK(2),
                Exec::TopKHeap(2),
                Exec::Threshold(tau),
                Exec::ThresholdScan(tau),
            ] {
                // Every part accepts the one query...
                for p in &parts.parts {
                    p.engine.predicate(kind).execute(&query, exec).unwrap();
                }
                // ...and the merged answer is the monolith's.
                let (got, ran) = parts.execute(kind, &query, exec, &unlimited).unwrap();
                assert_eq!(ran, parts.parts.len());
                let expected = handle.execute(&query, exec).unwrap();
                assert_eq!(bits(&got), bits(&expected), "{kind} {exec:?}");
            }
        }
        // A query prepared against other statistics is refused.
        let foreign = Query::build(&build(), text);
        for p in &parts.parts {
            let refused = p.engine.predicate(PredicateKind::Bm25).execute(&foreign, Exec::Rank);
            assert_eq!(refused.unwrap_err(), DaspError::EngineMismatch);
        }
        let refused = parts.execute(PredicateKind::Bm25, &foreign, Exec::Rank, &unlimited);
        assert_eq!(refused.unwrap_err(), DaspError::EngineMismatch);
    }

    #[test]
    fn fan_units_preserves_unit_order_and_runs_everything() {
        assert_eq!(fan_units(Vec::<fn() -> Result<u32>>::new()).unwrap(), vec![]);
        let one = vec![|| Ok(7u32)];
        assert_eq!(fan_units(one).unwrap(), vec![7]);
        let many: Vec<_> = (0..37u32).map(|i| move || Ok(i * i)).collect();
        let out = fan_units(many).unwrap();
        assert_eq!(out, (0..37u32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn fan_units_surfaces_typed_errors_and_panics() {
        let failing: Vec<Box<dyn FnOnce() -> Result<u32> + Send>> = vec![
            Box::new(|| Ok(1)),
            Box::new(|| Err(DaspError::EngineMismatch)),
            Box::new(|| Ok(3)),
        ];
        assert_eq!(fan_units(failing).unwrap_err(), DaspError::EngineMismatch);
        let panicking: Vec<Box<dyn FnOnce() -> Result<u32> + Send>> =
            vec![Box::new(|| Ok(1)), Box::new(|| panic!("shard worker down")), Box::new(|| Ok(3))];
        match fan_units(panicking).unwrap_err() {
            DaspError::Panicked(msg) => {
                assert!(msg.contains("shard worker down"), "payload survives: {msg}")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
