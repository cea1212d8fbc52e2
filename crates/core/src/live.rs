//! Live corpus: segmented incremental updates with epoch snapshots,
//! tombstone deletes, and compaction.
//!
//! Every other artifact in the crate is build-once: appending a single
//! record to a [`SelectionEngine`] means rebuilding the world. The
//! [`LiveEngine`] replaces that with an LSM-flavored segment design:
//!
//! * **Sealed segments** — immutable, each a full [`SelectionEngine`] (six
//!   shared tables, posting arenas) over a contiguous slice of the records.
//!   Once sealed, a segment is never touched again until compaction folds
//!   it away, so its lazily built artifacts survive across epochs. Segment
//!   engines keep no result cache: the live engine's one epoch-keyed cache
//!   of merged answers sits above them.
//! * **Tid-range shards** — construction ([`LiveEngine::from_corpus`]) and
//!   every [`compact`] split the records into [`Params::shards`] contiguous
//!   tid ranges (`DASP_SHARDS` env override, clamped to `1..=N`), one sealed
//!   segment each, so an unbudgeted request fans across them. One shard
//!   (the default) is one sealed segment over the frozen statistics itself.
//! * **One tail segment** — the only segment that changes. When the tail
//!   reaches the seal threshold ([`Params::segment_seal`],
//!   `DASP_SEGMENT_SEAL` env override) it is frozen in place and the next
//!   append starts a fresh tail.
//! * **Tombstones** — [`delete`] marks a tuple id dead in a shared set that
//!   is checked when per-segment results are mapped to global ids; the
//!   record's postings stay in its segment until [`compact`].
//! * **Epoch snapshots** — every mutation installs a new immutable
//!   [`Arc`]'d snapshot (segment list + tombstone set) under a brief write
//!   lock and bumps the epoch. A query clones the current snapshot `Arc`
//!   and runs entirely against it, so concurrent readers (e.g. the
//!   [`crate::serve::ServingEngine`] pool) never block on, or observe a
//!   torn state from, a concurrent append/delete/seal/compaction.
//!
//! ## What an append costs
//!
//! [`append`] tokenizes **only the new record**, against the frozen
//! dictionaries ([`TokenizedCorpus::project_append`]). Every record the old
//! tail held keeps its text and rows behind one `Arc`, so the new tail
//! copies one pointer per tail record and re-tokenizes none of them. The
//! new tail's engine starts with no artifacts, and the old tail's engine is
//! dropped with everything its reads built. An append therefore does
//! O(record) tokenization plus an O(tail) pointer copy, and never touches a
//! sealed segment. The first kernel read of a predicate on the new tail —
//! an indexed `Rank`, `TopK` or `Threshold` of one of the eight kernel
//! predicates — builds that predicate's posting lists straight from the
//! tail's rows (the predicate's `PostingCatalog`: no weight table, no
//! token index), in O(tail rows). `TopKHeap`, `ThresholdScan` and the
//! other predicates' modes build the tables instead.
//!
//! ## Frozen statistics and the differential contract
//!
//! Corpus-level statistics (`N`, `df`, `cf`, the token dictionaries, …)
//! are **frozen** at construction and refreshed only by [`compact`]: a
//! segment tokenizes its records against the frozen dictionary via
//! [`TokenizedCorpus::project`], dropping tokens outside the frozen
//! vocabulary. That is what makes the segmented engine *bit-identical* to a
//! monolithic engine over the same live records **sharing the same frozen
//! statistics** ([`rebuild_monolith`] builds exactly that reference), while
//! no append ever recomputes a corpus-wide statistic — per-record
//! statistics (lengths, term frequencies) are always exact, and scores of
//! tokens the frozen epoch knows about are exactly what the monolith
//! computes. Text appended after
//! the last compaction contributes nothing to the frozen statistics and its
//! novel vocabulary is unsearchable until the next [`compact`] — the same
//! staleness window Lucene-style engines accept between segment merges.
//!
//! ## Deterministic merging
//!
//! Every segment, shard or tail, executes through one fan-and-merge
//! (`parts.rs`). An unbudgeted query runs one
//! *independent* run per segment on a bounded scoped-thread pool and
//! merges the per-segment results in segment order. Every mode is
//! bit-identical to the monolith: [`Exec::TopKHeap`]`(k)` and
//! [`Exec::TopK`]`(k)` re-rank each segment's own top `k + dead`
//! (tombstoned rows may occupy up to `dead` local top slots). Budgeted
//! queries run the segments strictly sequentially under one shared budget
//! (see [`execute_budgeted`]). Either way the answer is
//! **byte-deterministic regardless of thread scheduling**.
//!
//! [`append`]: LiveEngine::append
//! [`delete`]: LiveEngine::delete
//! [`compact`]: LiveEngine::compact
//! [`rebuild_monolith`]: LiveEngine::rebuild_monolith
//! [`execute_budgeted`]: LiveEngine::execute_budgeted

use crate::corpus::{Corpus, TokenizedCorpus};
use crate::engine::{BudgetedRun, CacheStats, Exec, Query, ResultCache, SelectionEngine};
use crate::params::{ExecBudget, Params};
use crate::parts::{Part, PartSet};
use crate::predicate::PredicateKind;
use crate::record::{Record, ScoredTid, Tid};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default tail-seal threshold: appends per tail segment before it freezes.
/// Small enough that tail rebuilds stay cheap, large enough that a steady
/// append stream does not shred the corpus into hundreds of segments before
/// compaction.
pub const DEFAULT_SEGMENT_SEAL: usize = 256;

/// Parse a `DASP_SEGMENT_SEAL` environment override: a positive integer
/// selects that seal threshold; anything else leaves
/// [`Params::segment_seal`] in charge — loudly for malformed input (see
/// [`crate::envknob`]). Separated from `std::env` for tests.
fn segment_seal_env(var: Option<&str>) -> Option<usize> {
    crate::envknob::positive_usize("DASP_SEGMENT_SEAL", var)
}

/// Parse a `DASP_SHARDS` environment override: a positive integer selects
/// that shard count; anything else leaves [`Params::shards`] in charge —
/// loudly for malformed input (see [`crate::envknob`]). Separated from
/// `std::env` for tests.
fn shards_env(var: Option<&str>) -> Option<usize> {
    crate::envknob::positive_usize("DASP_SHARDS", var)
}

/// The sealed segments over every record of `stats`, whose record `i` has
/// global tid `tids[i]`: `shards` (clamped to `1..=N`) contiguous tid
/// ranges of near-equal size, each projected onto `stats`' frozen
/// statistics ([`Part::project`]). A single range is one part over `stats`
/// itself, and no records make no segments.
fn sealed_shards(
    stats: &Arc<TokenizedCorpus>,
    tids: Vec<Tid>,
    shards: usize,
    params: &Params,
) -> Vec<Arc<Part>> {
    let n = tids.len();
    match shards.clamp(1, n.max(1)) {
        _ if n == 0 => Vec::new(),
        1 => vec![Arc::new(Part::new(tids, stats.clone(), params))],
        count => (0..count)
            .map(|shard| {
                let records = (shard * n / count..(shard + 1) * n / count)
                    .map(|idx| Record::new(tids[idx], stats.record_text(idx)))
                    .collect();
                Arc::new(Part::project(stats, records, params))
            })
            .collect(),
    }
}

/// An immutable view of the live corpus at one epoch. Queries pin one
/// snapshot for their whole execution; writers install a fresh snapshot per
/// mutation and never mutate an installed one.
struct LiveSnapshot {
    /// Monotone mutation counter; also the result-cache key component.
    epoch: u64,
    /// The frozen-statistics donor every segment projects against (the
    /// tokenized corpus of the last compaction or construction).
    stats: Arc<TokenizedCorpus>,
    /// Sealed segments in append order, then the tail (if non-empty) last,
    /// with the tombstones deleted since the last compaction.
    segments: PartSet,
    /// Whether the last segment is the unsealed tail that
    /// [`LiveEngine::append`] replaces. Sealed segments are never rebuilt.
    tail_open: bool,
    /// The next global tid [`LiveEngine::append`] will assign.
    next_tid: Tid,
}

impl LiveSnapshot {
    /// The mutable tail, if the last segment is unsealed.
    fn tail(&self) -> Option<&Arc<Part>> {
        self.segments.parts.last().filter(|_| self.tail_open)
    }

    /// All live (non-tombstoned) records, ascending global tid.
    fn live_records(&self) -> Vec<Record> {
        self.segments
            .parts
            .iter()
            .flat_map(|s| s.records())
            .filter(|r| !self.segments.tombstones.contains(&r.tid))
            .collect()
    }
}

/// Per-request accounting of one [`LiveEngine`] execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveQueryStats {
    /// The epoch the query executed at (the snapshot it pinned).
    pub epoch: u64,
    /// Segments the query actually ran over (0 on a cache hit).
    pub segments_probed: usize,
    /// Result rows that came from sealed segments.
    pub sealed_hits: usize,
    /// Result rows that came from the mutable tail segment.
    pub tail_hits: usize,
    /// Whether the epoch-keyed result cache answered the query.
    pub cache_hit: bool,
}

/// A point-in-time summary of a [`LiveEngine`]: segment layout, lifetime
/// mutation counters, and result-cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveMetrics {
    /// Current epoch (total successful mutations since construction).
    pub epoch: u64,
    /// Sealed segments currently serving.
    pub sealed_segments: usize,
    /// Records in the mutable tail (0 right after a seal or compaction).
    pub tail_len: usize,
    /// Live (non-tombstoned) records.
    pub live_records: usize,
    /// Records held in segments, tombstoned ones included.
    pub total_records: usize,
    /// Tombstoned records awaiting compaction.
    pub tombstones: usize,
    /// Lifetime appends.
    pub appends: u64,
    /// Lifetime successful deletes.
    pub deletes: u64,
    /// Lifetime tail seals (threshold-triggered and explicit).
    pub seals: u64,
    /// Lifetime compactions.
    pub compactions: u64,
    /// Epoch-keyed result-cache counters.
    pub cache: CacheStats,
}

/// An incrementally updatable selection engine: immutable sealed segments
/// plus one small mutable tail, queried under epoch/Arc snapshots.
///
/// See the [module docs](self) for the segment lifecycle and the exactness
/// contract. All methods take `&self`; the engine is `Send + Sync` and is
/// meant to be shared behind an [`Arc`] between one (or more, serialized)
/// writers and any number of concurrent readers.
///
/// # Examples
///
/// ```
/// use dasp_core::{Corpus, Exec, LiveEngine, Params, PredicateKind};
///
/// let live = LiveEngine::from_corpus(
///     Corpus::from_strings(vec!["Morgan Stanley Group Inc.", "Beijing Hotel"]),
///     &Params::default(),
/// );
/// let morgan = live.append("Morgan Stanley Dean Witter");
/// live.delete(1);
/// let top = live.execute(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
/// assert_eq!(top.len(), 2);
/// assert!(top.iter().any(|s| s.tid == morgan));
/// assert!(top.iter().all(|s| s.tid != 1));
/// ```
pub struct LiveEngine {
    params: Params,
    /// Tail records before an automatic seal (≥ 1).
    seal_limit: usize,
    /// Tid-range shards construction and every compaction split the
    /// records into (≥ 1, clamped to the record count per split).
    shards: usize,
    /// The current snapshot; readers clone the `Arc` under the read lock,
    /// writers replace it. Held only for the pointer swap, never during
    /// segment builds or query execution.
    snapshot: RwLock<Arc<LiveSnapshot>>,
    /// Serializes mutations (append/delete/seal/compact) so each builds its
    /// snapshot from the latest state without holding the read path.
    writer: Mutex<()>,
    /// Merged-result cache, keyed on (epoch, kind, query, exec): entries
    /// from before a mutation are unreachable afterwards by key, so a stale
    /// hit is impossible by construction.
    cache: ResultCache,
    appends: AtomicU64,
    deletes: AtomicU64,
    seals: AtomicU64,
    compactions: AtomicU64,
}

/// Default capacity of the live engine's merged-result cache (same sizing
/// rationale as the per-engine cache).
const LIVE_RESULT_CACHE_CAPACITY: usize = 256;

impl LiveEngine {
    /// An empty live engine. The frozen statistics start empty, so nothing
    /// is searchable until the first [`compact`](Self::compact) folds the
    /// appended records into a fresh statistical epoch — prefer
    /// [`from_corpus`](Self::from_corpus) when seed data exists.
    pub fn new(params: &Params) -> Self {
        Self::from_corpus(Corpus::default(), params)
    }

    /// A live engine seeded with `corpus`: the frozen statistics are built
    /// from it and its records, with their corpus tids as global tids,
    /// become the sealed tid-range shards ([`Params::shards`], `DASP_SHARDS`
    /// override, clamped to `1..=N`; one by default).
    pub fn from_corpus(corpus: Corpus, params: &Params) -> Self {
        let seal_limit = segment_seal_env(std::env::var("DASP_SEGMENT_SEAL").ok().as_deref())
            .unwrap_or(params.segment_seal)
            .max(1);
        let shards = shards_env(std::env::var("DASP_SHARDS").ok().as_deref())
            .unwrap_or(params.shards)
            .max(1);
        let next_tid = corpus.len() as Tid;
        let stats = Arc::new(TokenizedCorpus::build(corpus, params.qgram));
        let segments = sealed_shards(&stats, (0..next_tid).collect(), shards, params);
        LiveEngine {
            params: *params,
            seal_limit,
            shards,
            snapshot: RwLock::new(Arc::new(LiveSnapshot {
                epoch: 0,
                stats,
                segments: PartSet::frozen(segments),
                tail_open: false,
                next_tid,
            })),
            writer: Mutex::new(()),
            cache: ResultCache::new(LIVE_RESULT_CACHE_CAPACITY),
            appends: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            seals: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> Arc<LiveSnapshot> {
        self.snapshot.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    fn install(&self, snapshot: LiveSnapshot) {
        *self.snapshot.write().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Arc::new(snapshot);
    }

    /// Append one record, returning its (stable, never reused) global tid.
    /// Tokenizes only the new record against the frozen statistics and
    /// shares the old tail's records with the new tail (see the
    /// [module docs](self#what-an-append-costs)), independent of corpus
    /// size, and seals the tail in place once it reaches the seal
    /// threshold. Bumps the epoch.
    pub fn append(&self, text: impl Into<String>) -> Tid {
        let _w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let snap = self.snapshot();
        let tid = snap.next_tid;
        let record = Record::new(tid, text);
        // The new tail: the old tail's rows plus one tokenized record; a
        // fresh tail projects just the record. The new record is live, so
        // the tail keeps its dead count.
        let (tail, tail_dead) = match snap.tail() {
            Some(tail) => {
                (tail.append(record), *snap.segments.dead.last().expect("tail is a part"))
            }
            None => (Part::project(&snap.stats, vec![record], &self.params), 0),
        };
        let sealed = tail.tids.len() >= self.seal_limit;
        let keep = snap.segments.parts.len() - usize::from(snap.tail_open);
        let mut parts = snap.segments.parts[..keep].to_vec();
        let mut dead = snap.segments.dead[..keep].to_vec();
        parts.push(Arc::new(tail));
        dead.push(tail_dead);
        self.install(LiveSnapshot {
            epoch: snap.epoch + 1,
            stats: snap.stats.clone(),
            segments: PartSet { parts, dead, tombstones: snap.segments.tombstones.clone() },
            tail_open: !sealed,
            next_tid: tid + 1,
        });
        self.appends.fetch_add(1, Ordering::Relaxed);
        if sealed {
            self.seals.fetch_add(1, Ordering::Relaxed);
        }
        tid
    }

    /// Tombstone the record with global tid `tid`. Returns whether a live
    /// record existed (and bumps the epoch); deleting an unknown or
    /// already-deleted tid is a no-op returning `false`. The record's
    /// postings stay in place — every query filters the tombstone set when
    /// mapping segment results — until [`compact`](Self::compact).
    pub fn delete(&self, tid: Tid) -> bool {
        let _w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let snap = self.snapshot();
        if snap.segments.tombstones.contains(&tid) {
            return false;
        }
        let Some(seg) = snap.segments.parts.iter().position(|s| s.tids.binary_search(&tid).is_ok())
        else {
            return false;
        };
        let mut tombstones = (*snap.segments.tombstones).clone();
        tombstones.insert(tid);
        let mut dead = snap.segments.dead.clone();
        dead[seg] += 1;
        self.install(LiveSnapshot {
            epoch: snap.epoch + 1,
            stats: snap.stats.clone(),
            segments: PartSet {
                parts: snap.segments.parts.clone(),
                dead,
                tombstones: Arc::new(tombstones),
            },
            tail_open: snap.tail_open,
            next_tid: snap.next_tid,
        });
        self.deletes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Seal the current tail segment explicitly (normally the seal threshold
    /// does this). Returns whether there was a non-empty tail to seal; if
    /// so, bumps the epoch and the next append starts a fresh tail.
    pub fn seal(&self) -> bool {
        let _w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let snap = self.snapshot();
        if !snap.tail_open {
            return false;
        }
        self.install(LiveSnapshot {
            epoch: snap.epoch + 1,
            stats: snap.stats.clone(),
            segments: snap.segments.clone(),
            tail_open: false,
            next_tid: snap.next_tid,
        });
        self.seals.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Fold every segment into the sealed tid-range shards over the live
    /// records (the shard count resolved at construction, clamped to the
    /// live count), dropping tombstoned rows for good and **refreshing the
    /// frozen statistics** from exactly the surviving records — vocabulary
    /// appended since the last compaction becomes searchable here. Global
    /// tids are preserved (and deleted tids never reused). Bumps the epoch.
    pub fn compact(&self) {
        let _w = self.writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let snap = self.snapshot();
        let live = snap.live_records();
        let tids: Vec<Tid> = live.iter().map(|r| r.tid).collect();
        let dense: Vec<Record> =
            live.into_iter().enumerate().map(|(i, r)| Record::new(i as Tid, r.text)).collect();
        let stats =
            Arc::new(TokenizedCorpus::build(Corpus::from_records(dense), self.params.qgram));
        let segments = sealed_shards(&stats, tids, self.shards, &self.params);
        self.install(LiveSnapshot {
            epoch: snap.epoch + 1,
            stats,
            segments: PartSet::frozen(segments),
            tail_open: false,
            next_tid: snap.next_tid,
        });
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Execute `kind` over the query `text` in mode `exec` against the
    /// current snapshot, returning globally ranked results with **global**
    /// tids. Takes the query as text (not a [`crate::Query`]) because the
    /// frozen statistics change at every compaction: the text is prepared
    /// once per executed request, against the snapshot's statistics, and
    /// that one query runs on every segment.
    pub fn execute(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        self.execute_tracked(kind, text, exec).map(|(results, _)| results)
    }

    /// [`execute`](Self::execute), also reporting per-request accounting
    /// (epoch, segments probed, tail-vs-sealed hit counts, cache hit).
    pub fn execute_tracked(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> crate::error::Result<(Vec<ScoredTid>, LiveQueryStats)> {
        self.execute_budgeted(kind, text, exec, ExecBudget::unlimited())
            .map(|(run, stats)| (run.results, stats))
    }

    /// [`execute_tracked`](Self::execute_tracked) under an execution budget.
    ///
    /// An unlimited budget takes the normal cache-enabled path. A capped one
    /// shares a single [`relq::ExecLimits`] across the segments (the budget
    /// bounds the request, not each segment), runs them sequentially — a
    /// serial cut under a candidate cap is byte-reproducible, a racing one
    /// is not — and stops at the first segment that finds the budget
    /// tripped; [`LiveQueryStats::segments_probed`] counts the segments that
    /// ran. It bypasses the epoch-keyed result cache in both directions — a
    /// degraded partial must never answer an unbudgeted request, and a
    /// cached full answer would make degradation nondeterministic. On
    /// exhaustion the merged prefix is the anytime answer: every returned
    /// score is exactly what the monolith computes for that tid, only
    /// coverage is truncated.
    pub fn execute_budgeted(
        &self,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        budget: ExecBudget,
    ) -> crate::error::Result<(BudgetedRun, LiveQueryStats)> {
        let snap = self.snapshot();
        let (run, segments_probed) =
            self.cache.run(snap.epoch, kind, text, exec, budget, |limits| {
                snap.segments.execute(kind, &Query::build(&snap.stats, text), exec, limits)
            })?;
        // Tail tids are the largest in the snapshot (appends are
        // tid-monotone), so attribution is one comparison per row.
        let tail_start = snap.tail().and_then(|t| t.tids.first().copied());
        let tail_hits =
            run.results.iter().filter(|s| tail_start.is_some_and(|t0| s.tid >= t0)).count();
        let stats = LiveQueryStats {
            epoch: snap.epoch,
            segments_probed,
            sealed_hits: run.results.len() - tail_hits,
            tail_hits,
            cache_hit: run.cache_hit,
        };
        Ok((run, stats))
    }

    /// Rebuild the differential reference for the current snapshot: one
    /// monolithic [`SelectionEngine`] over exactly the live records,
    /// tokenized against the **same frozen statistics**, plus the
    /// dense-local-tid → global-tid map its results need. Every execution
    /// mode on the live engine is bit-identical to this engine at the same
    /// epoch — and rebuilding it per append is exactly the `O(corpus)` cost
    /// the segment design amortizes away, which is what the bench baseline
    /// measures.
    pub fn rebuild_monolith(&self) -> (SelectionEngine, Vec<Tid>) {
        let snap = self.snapshot();
        let monolith = Part::project(&snap.stats, snap.live_records(), &self.params);
        monolith.engine.set_result_cache_capacity(crate::engine::DEFAULT_RESULT_CACHE_CAPACITY);
        (monolith.engine, monolith.tids)
    }

    /// The current epoch: total successful mutations since construction.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Live (non-tombstoned) record count.
    pub fn len(&self) -> usize {
        self.snapshot().segments.live_len()
    }

    /// Whether no live records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live records (global tids, ascending) at the current epoch.
    pub fn live_records(&self) -> Vec<Record> {
        self.snapshot().live_records()
    }

    /// The parameter set every segment engine is built with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The resolved tail-seal threshold (env override applied).
    pub fn seal_limit(&self) -> usize {
        self.seal_limit
    }

    /// Point-in-time segment layout, mutation counters, and cache stats.
    pub fn metrics(&self) -> LiveMetrics {
        let snap = self.snapshot();
        LiveMetrics {
            epoch: snap.epoch,
            sealed_segments: snap.segments.parts.len() - usize::from(snap.tail_open),
            tail_len: snap.tail().map_or(0, |t| t.tids.len()),
            live_records: snap.segments.live_len(),
            total_records: snap.segments.total_records(),
            tombstones: snap.segments.tombstones.len(),
            appends: self.appends.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            seals: self.seals.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            cache: self.cache.stats(),
        }
    }

    /// Counters and occupancy of the epoch-keyed result cache.
    pub fn result_cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resize the merged-result cache (0 disables caching, as in the bench;
    /// segment engines keep no cache of their own).
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::cmp_ranked;

    fn seed_texts() -> Vec<&'static str> {
        vec![
            "Morgan Stanley Group Inc.",
            "Morgan Stanle Grop Inc.",
            "Silicon Valley Group, Inc.",
            "Beijing Hotel",
            "Beijing Labs Limited",
            "AT&T Incorporated",
        ]
    }

    fn live_engine(seal: usize) -> LiveEngine {
        let params = Params { segment_seal: seal, ..Params::default() };
        LiveEngine::from_corpus(Corpus::from_strings(seed_texts()), &params)
    }

    /// The live engine's results must match the frozen-stats monolith
    /// bit-for-bit in every mode.
    fn assert_matches_monolith(live: &LiveEngine, kind: PredicateKind, text: &str, exec: Exec) {
        let got = live.execute(kind, text, exec).unwrap();
        let (reference, map) = live.rebuild_monolith();
        let globalize = |v: Vec<ScoredTid>| -> Vec<ScoredTid> {
            v.into_iter().map(|s| ScoredTid::new(map[s.tid as usize], s.score)).collect()
        };
        let expected =
            globalize(reference.predicate(kind).execute(&reference.query(text), exec).unwrap());
        let as_bits =
            |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
        assert_eq!(as_bits(&got), as_bits(&expected), "{kind:?} {exec:?} on {text:?}");
    }

    #[test]
    fn append_delete_query_matches_monolith() {
        let live = live_engine(2);
        live.append("Morgan Stanley Dean Witter");
        live.append("Beijing Grand Hotel");
        live.append("Silicon Valley Bank");
        assert!(live.delete(1));
        assert!(!live.delete(1));
        assert!(!live.delete(999));
        for exec in [Exec::Rank, Exec::TopKHeap(3), Exec::Threshold(0.1), Exec::TopK(3)] {
            assert_matches_monolith(&live, PredicateKind::Bm25, "Morgan Stanley Group", exec);
            assert_matches_monolith(&live, PredicateKind::Jaccard, "Beijing Hotel", exec);
        }
    }

    #[test]
    fn seal_threshold_and_explicit_seal() {
        let live = live_engine(3);
        assert_eq!(live.metrics().sealed_segments, 1);
        live.append("one");
        live.append("two");
        assert_eq!(live.metrics().tail_len, 2);
        live.append("three");
        let m = live.metrics();
        assert_eq!((m.sealed_segments, m.tail_len, m.seals), (2, 0, 1));
        live.append("four");
        assert!(live.seal());
        assert!(!live.seal());
        let m = live.metrics();
        assert_eq!((m.sealed_segments, m.tail_len, m.seals), (3, 0, 2));
    }

    #[test]
    fn compact_folds_everything_and_refreshes_stats() {
        let live = live_engine(2);
        let added = live.append("Morgan Stanley Dean Witter");
        live.delete(0);
        live.compact();
        let m = live.metrics();
        assert_eq!((m.sealed_segments, m.tail_len, m.tombstones), (1, 0, 0));
        assert_eq!(live.len(), seed_texts().len());
        // Global tids survive compaction; the deleted one is gone for good.
        let ranked = live.execute(PredicateKind::Cosine, "Morgan Stanley", Exec::Rank).unwrap();
        assert!(ranked.iter().any(|s| s.tid == added));
        assert!(ranked.iter().all(|s| s.tid != 0));
        // Post-compaction the frozen stats ARE the live corpus: projection
        // equals a from-scratch build.
        assert_matches_monolith(&live, PredicateKind::Bm25, "Morgan Stanley", Exec::Rank);
    }

    #[test]
    fn delete_everything_yields_empty_results() {
        let live = live_engine(4);
        for tid in 0..seed_texts().len() as Tid {
            assert!(live.delete(tid));
        }
        assert!(live.is_empty());
        for exec in [Exec::Rank, Exec::TopK(3), Exec::Threshold(0.0)] {
            assert!(live.execute(PredicateKind::Bm25, "Morgan", exec).unwrap().is_empty());
        }
        live.compact();
        assert!(live.is_empty());
    }

    #[test]
    fn results_are_globally_ranked() {
        let live = live_engine(1); // every append is its own segment
        live.append("Morgan Stanley Group");
        live.append("Morgan Stanley");
        let ranked = live.execute(PredicateKind::Cosine, "Morgan Stanley", Exec::Rank).unwrap();
        assert!(ranked.windows(2).all(|w| cmp_ranked(&w[0], &w[1]).is_le()));
        assert!(ranked.len() >= 2);
    }

    #[test]
    fn cache_cannot_serve_stale_epochs() {
        let live = live_engine(64);
        let (_, s1) =
            live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
        assert!(!s1.cache_hit);
        let (_, s2) =
            live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
        assert!(s2.cache_hit && s2.epoch == s1.epoch);
        // A mutation advances the epoch: the same request misses and the
        // result reflects the new record.
        let added = live.append("Morgan Stanley Dean Witter");
        let (results, s3) =
            live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2)).unwrap();
        assert!(!s3.cache_hit && s3.epoch == s1.epoch + 1);
        assert!(results.iter().any(|s| s.tid == added));
        assert!(s3.tail_hits >= 1);
    }

    #[test]
    fn segment_engines_never_cache() {
        let live = live_engine(64);
        live.append("Morgan Stanley Dean Witter");
        let assert_segments_uncached = |live: &LiveEngine| {
            let snap = live.snapshot();
            assert!(!snap.segments.parts.is_empty());
            for segment in &snap.segments.parts {
                let stats = segment.engine.result_cache_stats();
                assert_eq!((stats.hits, stats.entries, stats.capacity), (0, 0, 0), "{stats:?}");
            }
        };
        // Reads at the default capacity, repeated: the merged cache answers
        // the repeats, and no segment engine — seed, sealed, tail or
        // compacted — holds an entry.
        let read_twice = |live: &LiveEngine| {
            for exec in [Exec::TopK(2), Exec::Threshold(0.1), Exec::Rank] {
                let (_, first) =
                    live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", exec).unwrap();
                let (_, second) =
                    live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", exec).unwrap();
                assert!(!first.cache_hit && second.cache_hit, "{exec:?}");
            }
            assert_segments_uncached(live);
        };
        read_twice(&live);
        assert!(live.seal());
        live.append("Morgan Stanley Capital");
        assert_eq!(live.metrics().sealed_segments, 2);
        read_twice(&live);
        live.compact();
        read_twice(&live);
        assert_eq!(live.result_cache_stats().hits, 9);
    }

    #[test]
    fn budgeted_reads_count_only_the_segments_that_ran() {
        let live = live_engine(1); // every append is its own segment
        live.append("Morgan Stanley Dean Witter");
        live.append("Morgan Stanley Capital");
        let segments = live.metrics().sealed_segments;
        assert_eq!(segments, 3);
        let cap = crate::params::ExecBudget { max_candidates: Some(1), ..Default::default() };
        let (run, stats) =
            live.execute_budgeted(PredicateKind::Bm25, "Morgan Stanley", Exec::Rank, cap).unwrap();
        assert!(run.degraded, "two seed records match, so a one-candidate cap trips");
        assert_eq!(stats.segments_probed, 1, "the loop stops at the first tripped segment");
        let (_, stats) =
            live.execute_tracked(PredicateKind::Bm25, "Morgan Stanley", Exec::Rank).unwrap();
        assert_eq!(stats.segments_probed, segments);
    }

    /// The bounded predicates, in the order the tests below visit them.
    const BOUNDED: [PredicateKind; 5] = [
        PredicateKind::IntersectSize,
        PredicateKind::WeightedMatch,
        PredicateKind::Cosine,
        PredicateKind::Bm25,
        PredicateKind::Hmm,
    ];

    /// Two tokenized corpora hold the same records with the same rows over
    /// the same frozen statistics.
    fn assert_same_rows(a: &TokenizedCorpus, b: &TokenizedCorpus) {
        assert!(a.shares_stats(b));
        assert_eq!(a.num_records(), b.num_records());
        for idx in 0..a.num_records() {
            assert_eq!(a.record_text(idx), b.record_text(idx), "text of record {idx}");
            assert_eq!(a.record_tokens(idx), b.record_tokens(idx), "tokens of record {idx}");
            assert_eq!(a.record_dl(idx), b.record_dl(idx), "dl of record {idx}");
            assert_eq!(a.record_words(idx), b.record_words(idx), "words of record {idx}");
        }
    }

    #[test]
    fn incremental_tail_projection_equals_a_fresh_projection() {
        let seal = 10;
        let live = live_engine(seal);
        let texts = [
            "Morgan Stanley Dean Witter",
            "",
            "Quixotic Zebra Holdings",
            "Beijing  Hotel",
            "Morgan Stanley Dean Witter",
            "   ",
            "AT&T",
            "zzz qqq",
            "Silicon Valley Bank",
            "Stanley Morgan Group",
        ];
        assert_eq!(texts.len(), seal);
        for (len, text) in (1..=seal).zip(texts) {
            live.append(text);
            let snap = live.snapshot();
            let tail = snap.segments.parts.last().expect("the tail is a part");
            assert_eq!(tail.tids.len(), len);
            assert_eq!(snap.tail_open, len < seal, "the tail seals at the limit");
            let dense = tail.records().enumerate().map(|(i, r)| Record::new(i as Tid, r.text));
            let fresh = snap.stats.project(dense.collect());
            assert_same_rows(tail.engine.corpus(), &fresh);
        }
    }

    /// For each bounded predicate, the posting lists built straight from
    /// `tc`'s rows equal those built from its weight table, list by list
    /// and weight bit by weight bit.
    fn assert_postings_from_rows_match_tables(tc: &Arc<TokenizedCorpus>, params: &Params) {
        use crate::aggregate::{bm25_weight, cosine_weight};
        use crate::overlap::{overlap_token_weight, unit_weight};
        use crate::tables::{base_tokens_distinct, base_weights, postings, TokenWeight};
        use relq::{PostingIndex, Value};
        // The table's rows, mapped into the row builder: `(tid, token,
        // weight)`, a unit weight where the table stores none.
        let from_table = |table: &relq::Table, weight: Option<&str>| {
            let weight = weight.map(|c| table.schema().index_of(c).unwrap());
            let rows = table.rows().map(|row| {
                let w = weight.map_or(1.0, |i| row[i].as_f64().unwrap());
                (row[0].as_i64().unwrap(), row[1].clone(), w)
            });
            PostingIndex::from_rows(rows).unwrap()
        };
        let mut cases = vec![(
            PredicateKind::IntersectSize,
            from_table(&base_tokens_distinct(tc), None),
            postings(tc, unit_weight),
        )];
        let weights: [(PredicateKind, Box<TokenWeight>); 4] = [
            (
                PredicateKind::WeightedMatch,
                Box::new(overlap_token_weight(tc, params.overlap_weighting)),
            ),
            (PredicateKind::Cosine, Box::new(cosine_weight(tc))),
            (PredicateKind::Bm25, Box::new(bm25_weight(tc, params.bm25))),
            (PredicateKind::Hmm, Box::new(crate::hmm::hmm_weight(tc, params.hmm))),
        ];
        for (kind, weight) in &weights {
            let table = base_weights(tc, &**weight);
            cases.push((*kind, from_table(&table, Some("weight")), postings(tc, &**weight)));
        }
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (kind, table, rows) in cases {
            assert_eq!(table.num_tokens(), rows.num_tokens(), "{kind}");
            assert_eq!(table.num_postings(), rows.num_postings(), "{kind}");
            for token in 0..tc.num_tokens() as i64 {
                let key = Value::Int(token);
                match (table.list(&key), rows.list(&key)) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.tids(), b.tids(), "{kind} token {token}");
                        assert_eq!(bits(a.weights()), bits(b.weights()), "{kind} token {token}");
                    }
                    (a, b) => panic!("{kind} token {token}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn tail_postings_from_rows_equal_postings_from_weight_tables() {
        let live = live_engine(8);
        let params = *live.params();
        let stats = live.snapshot().stats.clone();
        // The frozen corpus itself and an empty tail.
        assert_postings_from_rows_match_tables(&stats, &params);
        assert_postings_from_rows_match_tables(&Arc::new(stats.project(Vec::new())), &params);
        // A one-record tail.
        live.append("Morgan Stanley Dean Witter");
        let tail = |live: &LiveEngine| live.snapshot().tail().unwrap().engine.corpus().clone();
        assert_postings_from_rows_match_tables(&tail(&live), &params);
        // A tail whose records are all tombstoned: its postings still hold
        // every record, and every bounded read filters them out.
        let added = [live.append("Beijing Grand Hotel"), live.append("Morgan Stanley Capital")];
        let first = live.snapshot().tail().unwrap().tids[0];
        for tid in [first, added[0], added[1]] {
            assert!(live.delete(tid));
        }
        assert_eq!(live.snapshot().segments.dead.last(), Some(&3));
        assert_postings_from_rows_match_tables(&tail(&live), &params);
        for kind in BOUNDED {
            for exec in [Exec::TopK(3), Exec::Threshold(0.0)] {
                assert_matches_monolith(&live, kind, "Morgan Stanley Group", exec);
                let rows = live.execute(kind, "Morgan Stanley Group", exec).unwrap();
                assert!(rows.iter().all(|s| s.tid < first), "{kind} {exec:?} kept a tombstone");
            }
        }
    }

    #[test]
    fn budgeted_top_k_is_exact_over_the_candidates_it_charged() {
        // Four parts: the seed segment, two sealed pairs and a one-record
        // tail, with a tombstone in the seed segment and one in a pair.
        let live = live_engine(2);
        for text in [
            "Morgan Stanley Dean Witter",
            "Morgan Stanley Capital Group",
            "Stanley Morgan Group Inc.",
            "Beijing Morgan Hotel",
            "Morgan Stanley Group",
        ] {
            live.append(text);
        }
        assert!(live.delete(0) && live.delete(8));
        let snap = live.snapshot();
        assert_eq!(snap.segments.parts.len(), 4);
        let text = "Morgan Stanley Group Inc.";
        // The kernel predicates: Jaccard and WJ join their lengths on top of
        // the kernel, which charges the tids their intersections touch.
        let kernel =
            [BOUNDED.as_slice(), &[PredicateKind::Jaccard, PredicateKind::WeightedJaccard]];
        for kind in kernel.concat() {
            // Every part's exhaustive scores under global tids: the tids a
            // kernel read touches, in the order it charges them.
            let mut scored: Vec<ScoredTid> = Vec::new();
            for part in &snap.segments.parts {
                let handle = part.engine.predicate(kind);
                let local = handle.execute_naive(&part.engine.query(text), Exec::Rank).unwrap();
                let mut rows: Vec<_> = local
                    .iter()
                    .map(|s| ScoredTid::new(part.tids[s.tid as usize], s.score))
                    .collect();
                rows.sort_by_key(|s| s.tid);
                scored.extend(rows);
            }
            // A full rank is `TopK(∞)`: the same anytime contract.
            for (exec, k) in [(Exec::TopK(1), 1), (Exec::TopK(3), 3), (Exec::Rank, usize::MAX)] {
                let unbudgeted = live.execute(kind, text, exec).unwrap();
                for cap in 0..=scored.len() {
                    let budget = ExecBudget { max_candidates: Some(cap), ..ExecBudget::default() };
                    let (run, _) = live.execute_budgeted(kind, text, exec, budget).unwrap();
                    let charged = scored[..cap].iter().copied();
                    let live_rows = charged.filter(|s| !snap.segments.tombstones.contains(&s.tid));
                    let expected = crate::record::top_k_ranked(live_rows.collect(), k);
                    let bits = |v: &[ScoredTid]| {
                        v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&run.results), bits(&expected), "{kind} {exec:?} cap={cap}");
                    assert_eq!(run.degraded, cap < scored.len(), "{kind} {exec:?} cap={cap}");
                }
                let uncapped =
                    ExecBudget { max_candidates: Some(usize::MAX), ..Default::default() };
                let (run, stats) = live.execute_budgeted(kind, text, exec, uncapped).unwrap();
                assert_eq!(run.results, unbudgeted, "{kind} {exec:?}");
                assert!(!run.degraded && stats.segments_probed == 4);
            }
        }
    }

    #[test]
    fn seal_env_override_wins() {
        let params = Params { segment_seal: 100, ..Params::default() };
        assert_eq!(segment_seal_env(Some("7")), Some(7));
        assert_eq!(segment_seal_env(Some("0")), None);
        assert_eq!(segment_seal_env(Some("nope")), None);
        assert_eq!(segment_seal_env(None), None);
        assert_eq!(segment_seal_env(Some("7")).unwrap_or(params.segment_seal), 7);
        assert_eq!(segment_seal_env(None).unwrap_or(params.segment_seal), 100);
    }

    fn sharded(shards: usize) -> LiveEngine {
        let mut texts = seed_texts();
        texts.push("Morgan Stanley Dean Witter");
        LiveEngine::from_corpus(
            Corpus::from_strings(texts),
            &Params { shards, ..Params::default() },
        )
    }

    fn bits(v: &[ScoredTid]) -> Vec<(Tid, u64)> {
        v.iter().map(|s| (s.tid, s.score.to_bits())).collect()
    }

    #[test]
    fn shard_count_resolves_and_clamps() {
        assert_eq!(shards_env(Some("3")), Some(3));
        assert_eq!(shards_env(Some("0")), None);
        assert_eq!(shards_env(Some("nope")), None);
        assert_eq!(shards_env(None), None);
        assert_eq!(sharded(1).metrics().sealed_segments, 1);
        assert_eq!(sharded(3).metrics().sealed_segments, 3);
        // More shards than records clamps to one record per shard.
        let wide = sharded(1000);
        assert_eq!(wide.metrics().sealed_segments, 7);
        assert_eq!(wide.len(), 7);
        assert!(!wide.is_empty());
        // The shards are contiguous, near-equal tid ranges.
        let sizes: Vec<_> =
            sharded(3).snapshot().segments.parts.iter().map(|p| p.tids.clone()).collect();
        assert_eq!(sizes, vec![vec![0, 1], vec![2, 3], vec![4, 5, 6]]);
    }

    #[test]
    fn exact_modes_are_bit_identical_to_the_monolith() {
        for shards in [1, 2, 3, 7, 100] {
            let engine = sharded(shards);
            for exec in [Exec::Rank, Exec::Threshold(0.1), Exec::ThresholdScan(0.1)] {
                for kind in [PredicateKind::Bm25, PredicateKind::Jaccard] {
                    assert_matches_monolith(&engine, kind, "Morgan Stanley Group", exec);
                }
            }
        }
    }

    #[test]
    fn topk_heap_is_bit_identical_and_bounded_topk_is_tie_class() {
        for shards in [2, 3, 7] {
            let engine = sharded(shards);
            let (monolith, _) = engine.rebuild_monolith();
            let kind = PredicateKind::Cosine;
            let query = monolith.query("Morgan Stanley");
            let exact = monolith.predicate(kind).execute(&query, Exec::TopKHeap(3)).unwrap();
            let got_heap = engine.execute(kind, "Morgan Stanley", Exec::TopKHeap(3)).unwrap();
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
            let unlimited = ExecBudget::unlimited();
            engine
                .execute_budgeted(PredicateKind::Bm25, "Beijing", Exec::TopK(2), unlimited)
                .unwrap()
        };
        let ((first, first_stats), (second, second_stats)) = (run(), run());
        assert!(!first.cache_hit && second.cache_hit);
        assert_eq!((first_stats.segments_probed, second_stats.segments_probed), (3, 0));
        assert_eq!(bits(&first.results), bits(&second.results));
        assert_eq!(engine.result_cache_stats().hits, 1);
        engine.set_result_cache_capacity(0);
        assert!(!run().0.cache_hit);
    }

    #[test]
    fn budget_bounds_the_request_not_each_shard() {
        let engine = sharded(3);
        let text = "Morgan Stanley Group";
        let budget = ExecBudget { max_candidates: Some(2), ..ExecBudget::default() };
        let (run, _) =
            engine.execute_budgeted(PredicateKind::Bm25, text, Exec::Rank, budget).unwrap();
        assert!(run.degraded, "a two-candidate cap must trip across {} records", engine.len());
        let report = run.report.expect("capped run carries a report");
        assert_eq!(report.candidates_scored, 2, "the shared cap grants exactly max across shards");
        // Every score in the anytime answer is exact.
        let (monolith, _) = engine.rebuild_monolith();
        let truth: std::collections::HashMap<Tid, u64> = monolith
            .predicate(PredicateKind::Bm25)
            .execute(&monolith.query(text), Exec::Rank)
            .unwrap()
            .into_iter()
            .map(|s| (s.tid, s.score.to_bits()))
            .collect();
        for s in &run.results {
            assert_eq!(truth.get(&s.tid), Some(&s.score.to_bits()));
        }
        // Unlimited budgets take the cached path.
        let unlimited = ExecBudget::unlimited();
        let (run, _) =
            engine.execute_budgeted(PredicateKind::Bm25, text, Exec::Rank, unlimited).unwrap();
        assert!(!run.degraded && run.report.is_none());
    }

    #[test]
    fn empty_corpus_yields_empty_results() {
        let params = Params { shards: 3, ..Params::default() };
        let engine = LiveEngine::from_corpus(Corpus::default(), &params);
        assert!(engine.is_empty());
        assert_eq!(engine.metrics().sealed_segments, 0);
        for exec in [Exec::Rank, Exec::TopK(3), Exec::Threshold(0.0)] {
            assert!(engine.execute(PredicateKind::Bm25, "Morgan", exec).unwrap().is_empty());
        }
    }

    #[test]
    fn every_shard_shares_one_ges_vocabulary_index() {
        use crate::combination::ges_filter::GesFilterKind;
        let engine = sharded(4);
        let snap = engine.snapshot();
        assert_eq!(snap.segments.parts.len(), 4);
        let ges = engine.params().ges;
        for (kind, filter) in [
            (PredicateKind::GesJaccard, GesFilterKind::Jaccard),
            (PredicateKind::GesApx, GesFilterKind::MinHash),
        ] {
            engine.execute(kind, "Morgan Stanley Group", Exec::Rank).unwrap();
            let vocab = snap.stats.ges_vocab(filter, ges);
            for part in &snap.segments.parts {
                assert!(Arc::ptr_eq(&part.engine.corpus().ges_vocab(filter, ges), &vocab));
            }
            // The provider's list, the four segment engines' filters and
            // this handle hold the one index: nothing built a second.
            assert_eq!(Arc::strong_count(&vocab), 6, "{kind}");
        }
        // Other gram sizes get their own index.
        let other = crate::params::GesParams { q: 3, ..ges };
        assert!(!Arc::ptr_eq(
            &snap.stats.ges_vocab(GesFilterKind::Jaccard, other),
            &snap.stats.ges_vocab(GesFilterKind::Jaccard, ges)
        ));
    }

    #[test]
    fn empty_engine_becomes_searchable_after_compact() {
        let live = LiveEngine::new(&Params::default());
        live.append("Morgan Stanley Group Inc.");
        // The frozen vocabulary is empty: nothing matches yet.
        assert!(live.execute(PredicateKind::Bm25, "Morgan", Exec::Rank).unwrap().is_empty());
        live.compact();
        assert!(!live.execute(PredicateKind::Bm25, "Morgan", Exec::Rank).unwrap().is_empty());
    }
}
