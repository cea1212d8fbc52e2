//! The session-based query API: one [`SelectionEngine`] per base relation,
//! shared phase-1 artifacts, prepared [`Query`] objects and an [`Exec`] mode
//! that pushes top-k / threshold selection down into the relational engine.
//!
//! ## Why an engine
//!
//! The paper's preprocessing splits into a phase common to every predicate
//! (tokenization, DF/IDF statistics, token tables) and a predicate-specific
//! weight phase (§5.5.1). The original factory API made each predicate
//! rebuild the common phase privately; `SelectionEngine::build` constructs it
//! exactly once — a shared relq [`Catalog`] of indexed token/weight tables
//! plus the word-level views the combination predicates need — and every
//! predicate handle layers only its own phase-2 tables on top (a cheap
//! catalog clone sharing `Arc`'d tables and indexes).
//!
//! ## Execution modes
//!
//! [`Exec`] is the declarative selection spec: `Rank` materializes the full
//! ranking; `TopK(k)` and `Threshold(τ)` select through the fastest eligible
//! operator — the posting-driven bounded operators
//! ([`relq::Plan::TopKBounded`] and [`relq::Plan::ThresholdBounded`], one
//! windowed dense accumulator over the query's posting lists) for the
//! monotone-sum predicates (Xect, WM, Cosine, BM25, HMM), the same kernel
//! at `k = ∞` under a per-tuple join for Jaccard, WJ and LM (relq's typed
//! finish), the heap pushdown / plan-level score filter otherwise. For
//! those eight kernel predicates the indexed `Rank` is `TopK(∞)`.
//! `TopKHeap(k)`, `ThresholdScan(τ)` and the naive `Rank` force the
//! exhaustive join paths for every predicate and exist as the differential
//! baselines. Every mode returns the same bytes its
//! rank-then-post-process equivalent would: the bounded operators sum each
//! tuple's contributions in the exhaustive order and break score ties by
//! ascending tid, exactly like the heap.
//!
//! ## Queries
//!
//! A [`Query`] is tokenized once — q-gram tokens against the corpus
//! dictionary, the normalized string, word tokens and IDF-weighted word
//! views — and is then reusable across all 13 predicates and any number of
//! executions, the "prepare once, execute many" contract extended to the
//! query side.
//!
//! ## Lazy shared artifacts and the result cache
//!
//! Every phase-1 artifact — the six shared token/weight tables with their
//! equality indexes, the two shared posting indexes, the normalized strings,
//! and the GES word weights and word → record index — is built on first use
//! (`OnceLock` per artifact) and then shared by reference: a standalone
//! single-predicate build pays only for the artifacts that predicate probes. The posting
//! indexes are built from the tokenized rows, not from the tables, so a
//! workload of kernel reads (indexed `Rank`, `TopK`, `Threshold`) builds
//! no token table at all. Corpora are
//! immutable, so the engine also keeps a small invalidation-free LRU of
//! recent results keyed on `(predicate, query text, exec mode)`; see
//! [`SelectionEngine::result_cache_stats`]. Concurrent misses of one key
//! execute it once: the later ones wait for the first's rows.

use crate::combination::ges::WeightedWord;
use crate::combination::ges_filter::{word_records, Csr};
use crate::corpus::{QueryTokens, TokenizedCorpus};
use crate::error::{DaspError, Result};
use crate::overlap::{overlap_token_weight, overlap_weight, unit_weight};
use crate::params::{ExecBudget, Params};
use crate::predicate::{Predicate, PredicateKind};
use crate::record::{sort_ranked, top_k_ranked, ScoredTid, Tid};
use crate::tables;
use dasp_text::normalize;
use relq::{Catalog, PostingIndex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How a selection executes: the declarative spec the engine pushes down
/// into its prepared plans instead of ranking everything and post-processing.
///
/// # Examples
///
/// ```
/// use dasp_core::{Corpus, Exec, Params, PredicateKind, SelectionEngine};
///
/// let engine = SelectionEngine::from_corpus(
///     Corpus::from_strings(vec!["Morgan Stanley Group Inc.", "Beijing Hotel"]),
///     &Params::default(),
/// );
/// let bm25 = engine.predicate(PredicateKind::Bm25);
/// let query = engine.query("Morgan Stanley Group Incorporated");
///
/// let ranking = bm25.execute(&query, Exec::Rank).unwrap();
/// // Threshold(τ) routes through the bounded operator for BM25 and
/// // stays bit-identical to the exhaustive scan and to rank-then-filter.
/// let tau = ranking[0].score * 0.5;
/// let bounded = bm25.execute(&query, Exec::Threshold(tau)).unwrap();
/// let scanned = bm25.execute(&query, Exec::ThresholdScan(tau)).unwrap();
/// assert_eq!(bounded, scanned);
/// let expected: Vec<_> = ranking.iter().copied().filter(|s| s.score >= tau).collect();
/// assert_eq!(bounded, expected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exec {
    /// The full ranking, best match first. For the eight kernel
    /// predicates (Xect, Jaccard, WM, WJ, Cosine, BM25, LM, HMM) the indexed
    /// `Rank` is [`Exec::TopK`] at `k = ∞` over the posting kernel; the
    /// naive `Rank` is their join-plan reference, byte-identical to it.
    Rank,
    /// The `k` best matches through the fastest eligible operator: the
    /// posting-driven kernel for the eight kernel predicates (Jaccard, WJ
    /// and LM join a per-tuple table on top of a `k = ∞` kernel and keep
    /// the `k` best), the bounded heap for the rest. Byte-identical to [`Exec::TopKHeap`],
    /// exact score ties at the k boundary included.
    TopK(usize),
    /// The `k` best matches through the exhaustive heap pushdown —
    /// byte-identical to `Rank` truncated to `k` for every predicate.
    TopKHeap(usize),
    /// Every match with `score >= τ`, best first, through the fastest
    /// eligible operator: the posting-driven bounded operator
    /// ([`relq::Plan::ThresholdBounded`]) for the monotone-sum predicates
    /// (Xect, WM, Cosine, BM25, HMM), a score filter over a `k = ∞` kernel
    /// for Jaccard, WJ and LM, the plan-level score filter otherwise;
    /// the edit predicate additionally tightens its q-gram count filter and
    /// banded verification to τ. **Bit-identical** to [`Exec::ThresholdScan`]
    /// and to `Rank` filtered post-hoc for every predicate and every τ.
    Threshold(f64),
    /// Every match with `score >= τ` through the exhaustive path: score all
    /// candidates, filter at τ before materialization, never consult posting
    /// lists. The differential-testing baseline [`Exec::Threshold`] is
    /// asserted bit-identical against; same bytes, more work.
    ThresholdScan(f64),
}

impl Exec {
    /// Refuse a threshold request whose τ is NaN: no score compares with
    /// it, so no answer would be the right one.
    pub(crate) fn validate(self) -> Result<()> {
        match self {
            Exec::Threshold(tau) | Exec::ThresholdScan(tau) if tau.is_nan() => {
                Err(DaspError::NanThreshold)
            }
            _ => Ok(()),
        }
    }
}

/// Apply an execution mode to natively scored results: the UDF-stage
/// predicates (edit distance, the GES family) score candidates in Rust and
/// then select here, mirroring what the plan operators do relationally.
/// (Their scores are not monotone token sums, so `TopK` and `TopKHeap`
/// coincide: both run the bounded heap.)
pub(crate) fn finalize_ranking(mut results: Vec<ScoredTid>, exec: Exec) -> Vec<ScoredTid> {
    match exec {
        Exec::Rank => {
            sort_ranked(&mut results);
            results
        }
        Exec::TopK(k) | Exec::TopKHeap(k) => top_k_ranked(results, k),
        Exec::Threshold(threshold) | Exec::ThresholdScan(threshold) => {
            results.retain(|s| s.score >= threshold);
            sort_ranked(&mut results);
            results
        }
    }
}

/// The six shared phase-1 tables, in canonical order.
pub(crate) const SHARED_TABLES: [&str; 6] =
    ["base_tokens", "base_tf", "base_len", "overlap_weights", "overlap_len", "base_words"];

/// The phase-1 preprocessing artifacts every predicate shares: the tokenized
/// corpus, the indexed token/weight tables, the tid-ordered posting
/// variants of `base_tokens`/`overlap_weights`, and the per-word weights and
/// word → record index of the GES family.
///
/// Every artifact is **lazy** — a `OnceLock` built on the first probe and
/// shared by `Arc` afterwards — so a standalone single-predicate build pays
/// only for what that predicate's plans reference (e.g. a lone BM25 engine
/// never materializes `base_words` or the overlap weight tables). Predicate
/// cores assemble their minimal catalog with [`Self::catalog_with`]; the
/// merged tables alias the same allocations as [`Self::catalog`], the full
/// phase-1 catalog the engine exposes for introspection.
pub(crate) struct SharedArtifacts {
    corpus: Arc<TokenizedCorpus>,
    params: Params,
    /// One single-table mini-catalog per shared table, in
    /// [`SHARED_TABLES`] order. Merging mini-catalogs shares `Arc` handles.
    table_cells: [OnceLock<Catalog>; SHARED_TABLES.len()],
    /// The full phase-1 catalog (all six tables), for introspection.
    full_catalog: OnceLock<Catalog>,
    /// Tid-ordered posting lists over the rows of `base_tokens` (unit
    /// weights) and `overlap_weights`, the lists `Plan::TopKBounded`
    /// traverses, built from the tokenized rows (see [`Self::posting`]).
    posting_base_tokens: OnceLock<Arc<PostingIndex>>,
    posting_overlap_weights: OnceLock<Arc<PostingIndex>>,
    /// Normalized record text, the strings the edit-distance UDF compares.
    normalized: OnceLock<Vec<String>>,
    /// Per word id, the GES weight of the word (GES family).
    ges_word_weights: OnceLock<Vec<f64>>,
    /// Per word id, the records holding it (the filtered GES estimates).
    ges_word_records: OnceLock<Csr>,
    /// Invalidation-free LRU of recent results (corpora are immutable).
    cache: ResultCache,
}

impl SharedArtifacts {
    /// Set up the shared-artifact store over an already tokenized corpus.
    /// Nothing is materialized here: each artifact builds on first probe.
    pub(crate) fn build(corpus: Arc<TokenizedCorpus>, params: &Params) -> Arc<Self> {
        Arc::new(SharedArtifacts {
            corpus,
            params: *params,
            table_cells: std::array::from_fn(|_| OnceLock::new()),
            full_catalog: OnceLock::new(),
            posting_base_tokens: OnceLock::new(),
            posting_overlap_weights: OnceLock::new(),
            normalized: OnceLock::new(),
            ges_word_weights: OnceLock::new(),
            ges_word_records: OnceLock::new(),
            cache: ResultCache::new(DEFAULT_RESULT_CACHE_CAPACITY),
        })
    }

    pub(crate) fn corpus(&self) -> &Arc<TokenizedCorpus> {
        &self.corpus
    }

    pub(crate) fn params(&self) -> &Params {
        &self.params
    }

    /// Build one shared table (indexed) into a single-table catalog.
    fn build_table(&self, name: &str) -> Catalog {
        let corpus = &self.corpus;
        let weighting = self.params.overlap_weighting;
        let mut catalog = Catalog::new();
        match name {
            "base_tokens" => catalog
                .register_indexed("base_tokens", tables::base_tokens_distinct(corpus), &["token"])
                .expect("base_tokens has a token column"),
            "base_tf" => catalog
                .register_indexed("base_tf", tables::base_tf(corpus), &["token"])
                .expect("base_tf has a token column"),
            "base_len" => catalog
                .register_indexed(
                    "base_len",
                    tables::per_tuple_scalar(corpus, "len", |idx| {
                        corpus.record_tokens(idx).len() as f64
                    }),
                    &["tid"],
                )
                .expect("base_len has a tid column"),
            "overlap_weights" => catalog
                .register_indexed(
                    "overlap_weights",
                    tables::base_weights(corpus, overlap_token_weight(corpus, weighting)),
                    &["token"],
                )
                .expect("overlap_weights has a token column"),
            "overlap_len" => catalog
                .register_indexed(
                    "overlap_len",
                    tables::per_tuple_scalar(corpus, "len", |idx| {
                        corpus
                            .record_tokens(idx)
                            .iter()
                            .map(|&(t, _)| overlap_weight(corpus, weighting, t))
                            .sum()
                    }),
                    &["tid"],
                )
                .expect("overlap_len has a tid column"),
            "base_words" => catalog
                .register_indexed("base_words", tables::base_words_distinct(corpus), &["wtoken"])
                .expect("base_words has a wtoken column"),
            other => panic!("unknown shared artifact {other}"),
        }
        catalog
    }

    /// The single-table catalog of one shared artifact, built on first use.
    fn table_catalog(&self, name: &str) -> &Catalog {
        let slot = SHARED_TABLES
            .iter()
            .position(|&t| t == name)
            .unwrap_or_else(|| panic!("unknown shared artifact {name}"));
        self.table_cells[slot].get_or_init(|| self.build_table(name))
    }

    /// Assemble the minimal catalog a predicate's plans probe: the named
    /// shared tables, aliased (tables, indexes, statistics and postings are
    /// `Arc`-shared with every other user — nothing is rebuilt or copied).
    pub(crate) fn catalog_with(&self, names: &[&str]) -> Catalog {
        let mut catalog = Catalog::new();
        for name in names {
            catalog.merge_from(self.table_catalog(name));
        }
        catalog
    }

    /// The full phase-1 catalog (all six shared tables), for introspection
    /// and the factory-era construction paths. Forces every table.
    pub(crate) fn catalog(&self) -> &Catalog {
        self.full_catalog.get_or_init(|| self.catalog_with(&SHARED_TABLES))
    }

    /// Whether a shared artifact has been materialized yet (laziness tests).
    #[cfg(test)]
    pub(crate) fn artifact_built(&self, name: &str) -> bool {
        match name {
            "posting:base_tokens" => self.posting_base_tokens.get().is_some(),
            "posting:overlap_weights" => self.posting_overlap_weights.get().is_some(),
            "normalized" => self.normalized.get().is_some(),
            "ges_word_records" => self.ges_word_records.get().is_some(),
            _ => {
                let slot = SHARED_TABLES
                    .iter()
                    .position(|&t| t == name)
                    .unwrap_or_else(|| panic!("unknown shared artifact {name}"));
                self.table_cells[slot].get().is_some()
            }
        }
    }

    /// The shared posting index over the rows of one of the two shared
    /// tables the bounded predicates probe (`base_tokens` with
    /// IntersectSize's unit contributions, `overlap_weights` with
    /// WeightedMatch's RSJ/IDF weights), built lazily straight from the
    /// tokenized rows — the table itself stays unbuilt — and shared across
    /// every predicate catalog it is attached to.
    pub(crate) fn posting(&self, name: &str) -> Arc<PostingIndex> {
        let corpus = &self.corpus;
        let built = match name {
            "base_tokens" => self
                .posting_base_tokens
                .get_or_init(|| Arc::new(tables::postings(corpus, unit_weight))),
            "overlap_weights" => self.posting_overlap_weights.get_or_init(|| {
                let weight = overlap_token_weight(corpus, self.params.overlap_weighting);
                Arc::new(tables::postings(corpus, weight))
            }),
            other => panic!("no shared posting index for {other}"),
        };
        built.clone()
    }

    pub(crate) fn normalized(&self, idx: usize) -> &str {
        &self.normalized.get_or_init(|| {
            (0..self.corpus.num_records())
                .map(|idx| normalize(self.corpus.record_text(idx)))
                .collect()
        })[idx]
    }

    pub(crate) fn ges_word_weights(&self) -> &[f64] {
        self.ges_word_weights.get_or_init(|| crate::combination::ges::word_weights(&self.corpus))
    }

    /// Per word id, the records holding it, each once in ascending order:
    /// the word → record index both filtered GES estimates share.
    pub(crate) fn ges_word_records(&self) -> &Csr {
        self.ges_word_records.get_or_init(|| word_records(&self.corpus))
    }

    pub(crate) fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The record index carrying `tid`. Tids are dense from 0 (a tokenized
    /// corpus numbers its records by index), so this is a direct cast — no
    /// per-candidate hash lookup in the UDF verification loops.
    pub(crate) fn record_index(&self, tid: Tid) -> usize {
        let idx = tid as usize;
        debug_assert!(idx < self.corpus.num_records(), "tid {tid} outside the corpus");
        idx
    }
}

/// Default number of cached results per engine. The cap is an *entry*
/// count, not a byte budget: a cached `Exec::Rank` entry holds a full
/// corpus-sized ranking (16 bytes per candidate), so on large corpora the
/// cache can retain up to `capacity · corpus` scored tuples. Size it with
/// [`SelectionEngine::set_result_cache_capacity`] for memory-sensitive
/// serving (0 disables caching entirely); `TopK`/`Threshold` entries are
/// k-/selection-sized and far cheaper.
pub(crate) const DEFAULT_RESULT_CACHE_CAPACITY: usize = 256;

/// The cache epoch of a static (immutable-corpus) [`SelectionEngine`]. Only
/// [`crate::live::LiveEngine`] advances epochs; a static engine's results are
/// valid forever, so they all live under one epoch.
pub(crate) const STATIC_EPOCH: u64 = 0;

/// An [`Exec`] mode as a hashable cache-key component (`f64` thresholds by
/// their bit pattern; distinct NaN payloads are distinct keys, which only
/// costs a duplicate entry, never a wrong hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ExecKey {
    Rank,
    TopK(usize),
    TopKHeap(usize),
    Threshold(u64),
    ThresholdScan(u64),
}

impl From<Exec> for ExecKey {
    fn from(exec: Exec) -> Self {
        match exec {
            Exec::Rank => ExecKey::Rank,
            Exec::TopK(k) => ExecKey::TopK(k),
            Exec::TopKHeap(k) => ExecKey::TopKHeap(k),
            Exec::Threshold(tau) => ExecKey::Threshold(tau.to_bits()),
            Exec::ThresholdScan(tau) => ExecKey::ThresholdScan(tau.to_bits()),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Corpus epoch the entry was computed at. A static [`SelectionEngine`]
    /// is always epoch 0; [`crate::live::LiveEngine`] advances its epoch on
    /// every append/delete/compaction, so a result cached before a mutation
    /// can never answer a query issued after it.
    epoch: u64,
    kind: PredicateKind,
    exec: ExecKey,
    /// The full query text (its tokenizations are a pure function of it).
    /// Storing the text rather than a hash makes collisions impossible.
    text: String,
}

#[derive(Debug, Default)]
struct CacheState {
    map: HashMap<CacheKey, (u64, Arc<Vec<ScoredTid>>)>,
    /// Monotone access clock; the entry with the smallest stamp is the LRU.
    tick: u64,
    capacity: usize,
    /// Keys a request is computing right now: later misses of the same key
    /// park on its flight instead of computing it again.
    flights: HashMap<CacheKey, Arc<Flight>>,
}

impl CacheState {
    /// Evict least recently used entries (smallest stamp) until at most
    /// `keep` remain. A linear scan over a few hundred entries is cheaper
    /// than the pointer chasing of a linked LRU at these capacities.
    fn evict_to(&mut self, keep: usize) {
        while self.map.len() > keep {
            let Some(lru) =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            self.map.remove(&lru);
        }
    }

    /// Cache `results` under `key` (a no-op while caching is disabled).
    /// Re-inserting a key the cache already holds replaces that entry and
    /// evicts nothing else.
    fn store(&mut self, key: CacheKey, results: Arc<Vec<ScoredTid>>) {
        if self.capacity == 0 {
            return;
        }
        if !self.map.contains_key(&key) {
            self.evict_to(self.capacity - 1);
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, results));
    }
}

/// How a computation its waiters park on ended.
#[derive(Debug)]
enum Landing {
    Pending,
    Answered(Arc<Vec<ScoredTid>>),
    /// The computing request erred or panicked: each waiter runs the
    /// request again.
    Failed,
}

/// One in-flight computation of a cache key.
#[derive(Debug)]
struct Flight {
    landing: Mutex<Landing>,
    landed: Condvar,
}

impl Flight {
    /// Park until the flight lands: its rows, or `None` when it failed.
    fn wait(&self) -> Option<Arc<Vec<ScoredTid>>> {
        let mut landing = self.landing.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match &*landing {
                Landing::Pending => {}
                Landing::Answered(rows) => return Some(rows.clone()),
                Landing::Failed => return None,
            }
            landing = self.landed.wait(landing).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn land(&self, landing: Landing) {
        *self.landing.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = landing;
        self.landed.notify_all();
    }
}

/// A cache probe's outcome for one key.
enum Claim {
    Hit(Arc<Vec<ScoredTid>>),
    /// Another request is computing the key.
    Wait(Arc<Flight>),
    /// This request computes the key; its waiters park on the flight.
    Lead(Arc<Flight>),
    /// Caching is disabled.
    Uncached,
}

/// The computing request's hold on its flight: [`ResultCache::land`]
/// answers the waiters, and a leader dropped without landing (an error, a
/// panic unwinding) fails them, so they run the request themselves.
struct FlightGuard<'a> {
    cache: &'a ResultCache,
    key: CacheKey,
    flight: Arc<Flight>,
    landed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.landed {
            self.cache.lock().flights.remove(&self.key);
            self.flight.land(Landing::Failed);
        }
    }
}

/// Hit/miss counters and occupancy of an engine's result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Executions answered from the cache, or by waiting on a concurrent
    /// execution of the same key.
    pub hits: u64,
    /// Executions that ran the engine (including the first of each key).
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum entries kept (0 = caching disabled).
    pub capacity: usize,
}

/// A small LRU of recent results, keyed by epoch so a mutable corpus needs
/// no invalidation: a hit returns exactly the bytes a re-execution at that
/// epoch would produce. Each backend owns one and serves every request
/// through [`ResultCache::run`]: a [`SelectionEngine`] (shared by all its
/// handles), and the merged cache of a live engine, whose segment engines
/// keep none. `execute_naive` stays uncached — it exists to be
/// measured.
///
/// **Single flight:** a miss registers its key as in flight; a concurrent
/// miss of the same key parks until the first one lands and takes its rows
/// (a hit), so every distinct key runs once however many workers ask at
/// the same moment.
#[derive(Debug)]
pub(crate) struct ResultCache {
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultCache {
            state: Mutex::new(CacheState { capacity, ..Default::default() }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn key(epoch: u64, kind: PredicateKind, text: &str, exec: Exec) -> CacheKey {
        CacheKey { epoch, kind, exec: exec.into(), text: text.to_string() }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Probe `key`: a cached entry, a flight to wait on, or the lead of a
    /// new flight. Counts the hit or the miss.
    fn claim(&self, key: &CacheKey) -> Claim {
        let mut state = self.lock();
        if state.capacity == 0 {
            return Claim::Uncached;
        }
        state.tick += 1;
        let tick = state.tick;
        if let Some(entry) = state.map.get_mut(key) {
            entry.0 = tick;
            let rows = entry.1.clone();
            drop(state);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Claim::Hit(rows);
        }
        if let Some(flight) = state.flights.get(key) {
            return Claim::Wait(flight.clone());
        }
        let flight =
            Arc::new(Flight { landing: Mutex::new(Landing::Pending), landed: Condvar::new() });
        state.flights.insert(key.clone(), flight.clone());
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Claim::Lead(flight)
    }

    /// The leader's rows: cache them, end the flight and answer its
    /// waiters.
    fn land(&self, mut guard: FlightGuard, results: &[ScoredTid]) {
        let rows = Arc::new(results.to_vec());
        let mut state = self.lock();
        state.flights.remove(&guard.key);
        state.store(guard.key.clone(), rows.clone());
        drop(state);
        guard.flight.land(Landing::Answered(rows));
        guard.landed = true;
    }

    #[cfg(test)]
    pub(crate) fn get(
        &self,
        epoch: u64,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
    ) -> Option<Arc<Vec<ScoredTid>>> {
        match self.claim(&Self::key(epoch, kind, text, exec)) {
            Claim::Hit(rows) => Some(rows),
            Claim::Lead(flight) => {
                let key = Self::key(epoch, kind, text, exec);
                drop(FlightGuard { cache: self, key, flight, landed: false });
                None
            }
            Claim::Wait(_) | Claim::Uncached => None,
        }
    }

    #[cfg(test)]
    pub(crate) fn insert(
        &self,
        epoch: u64,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        results: &[ScoredTid],
    ) {
        self.lock().store(Self::key(epoch, kind, text, exec), Arc::new(results.to_vec()));
    }

    /// The one request path of every backend: answer `(kind, text, exec)`
    /// at `epoch` under `budget`, where `f` computes the rows under the
    /// given limits and reports how many parts ran.
    ///
    /// A threshold request with a NaN τ is refused before anything else.
    /// Every executed request runs `f` under one fresh [`RequestLimits`]
    /// built from `budget`. An unlimited budget probes the cache first (0
    /// parts ran on a hit), parks on a concurrent execution of the same
    /// key (single flight, also a hit), and caches the rows of a miss. A
    /// capped budget bypasses the cache in both directions: a degraded
    /// partial must never answer a later unbudgeted request, and a cached
    /// full answer would make degradation nondeterministic under cache
    /// pressure — the partial bytes are part of the contract. Its run is
    /// flagged `degraded` when the cap tripped and carries the
    /// [`BudgetReport`] of the work done.
    pub(crate) fn run(
        &self,
        epoch: u64,
        kind: PredicateKind,
        text: &str,
        exec: Exec,
        budget: ExecBudget,
        f: impl FnOnce(&RequestLimits) -> Result<(Vec<ScoredTid>, usize)>,
    ) -> Result<(BudgetedRun, usize)> {
        exec.validate()?;
        let capped = !budget.is_unlimited();
        let hit = |rows: Arc<Vec<ScoredTid>>| {
            let run = BudgetedRun {
                results: rows.to_vec(),
                cache_hit: true,
                degraded: false,
                report: None,
            };
            Ok((run, 0))
        };
        let mut leader = None;
        if !capped {
            let key = Self::key(epoch, kind, text, exec);
            loop {
                match self.claim(&key) {
                    Claim::Hit(rows) => return hit(rows),
                    Claim::Wait(flight) => {
                        if let Some(rows) = flight.wait() {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return hit(rows);
                        }
                    }
                    Claim::Lead(flight) => {
                        leader = Some(FlightGuard { cache: self, key, flight, landed: false });
                        break;
                    }
                    Claim::Uncached => break,
                }
            }
        }
        let limits = RequestLimits::new(budget);
        let (results, ran) = f(&limits)?;
        if let Some(guard) = leader {
            self.land(guard, &results);
        }
        let run = BudgetedRun {
            results,
            cache_hit: false,
            degraded: limits.exhausted(),
            report: capped.then(|| BudgetReport::from_limits(&limits)),
        };
        Ok((run, ran))
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: state.map.len(),
            capacity: state.capacity,
        }
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.capacity = capacity;
        state.evict_to(capacity);
    }
}

/// A query string tokenized once against an engine's corpus, reusable across
/// every predicate and execution mode of that engine.
///
/// All views (q-gram tokens, normalized text, word tokens, weighted words)
/// are computed eagerly at build time — a few to a few tens of microseconds,
/// paid once per request however many predicates, modes or parts it runs —
/// keeping `Query` a plain `Clone + Send + Sync` value. Every view depends
/// only on the frozen dictionaries and statistics, so one query serves every
/// corpus sharing them: every segment of a live engine, tid-range shards
/// included.
///
/// # Examples
///
/// ```
/// use dasp_core::{Corpus, Exec, Params, PredicateKind, SelectionEngine};
///
/// let engine = SelectionEngine::from_corpus(
///     Corpus::from_strings(vec!["Morgan Stanley", "Beijing Hotel"]),
///     &Params::default(),
/// );
/// // Tokenized once...
/// let query = engine.query("Morgan Stanley");
/// assert_eq!(query.text(), "Morgan Stanley");
/// assert!(!query.tokens().tokens.is_empty());
/// // ...and reused across predicates and execution modes.
/// for kind in [PredicateKind::Jaccard, PredicateKind::Cosine] {
///     let ranked = engine.predicate(kind).execute(&query, Exec::Rank).unwrap();
///     assert_eq!(ranked[0].tid, 0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    corpus: Arc<TokenizedCorpus>,
    text: String,
    norm: String,
    norm_chars: usize,
    tokens: QueryTokens,
    word_tokens: Vec<String>,
    weighted_words: Vec<WeightedWord>,
}

impl Query {
    pub(crate) fn build(corpus: &Arc<TokenizedCorpus>, text: &str) -> Query {
        let tokens = corpus.tokenize_query(text);
        let norm = normalize(text);
        let norm_chars = norm.chars().count();
        let word_tokens = dasp_text::word_tokens(text);
        let weighted_words =
            crate::combination::ges::weighted_words(corpus, word_tokens.iter().cloned());
        Query {
            corpus: corpus.clone(),
            text: text.to_string(),
            norm,
            norm_chars,
            tokens,
            word_tokens,
            weighted_words,
        }
    }

    /// The raw query string.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The normalized query string (what the edit-distance UDF compares).
    pub fn norm(&self) -> &str {
        &self.norm
    }

    /// Length of the normalized string in characters.
    pub(crate) fn norm_chars(&self) -> usize {
        self.norm_chars
    }

    /// Q-gram tokens resolved against the corpus dictionary.
    pub fn tokens(&self) -> &QueryTokens {
        &self.tokens
    }

    /// Word tokens in order (normalized, with duplicates).
    pub fn word_tokens(&self) -> &[String] {
        &self.word_tokens
    }

    /// IDF-weighted word views (unknown words get the mean word IDF).
    pub fn weighted_words(&self) -> &[WeightedWord] {
        &self.weighted_words
    }

    /// True when this query was tokenized against `corpus`'s frozen
    /// dictionaries and statistics (see [`TokenizedCorpus::shares_stats`]) —
    /// executing it against a corpus with others would resolve token ids
    /// wrong.
    pub(crate) fn tokenized_against(&self, corpus: &TokenizedCorpus) -> bool {
        self.corpus.shares_stats(corpus)
    }
}

/// The engine-facing surface every predicate core implements — one
/// [`KernelPredicate`](crate::tables::KernelPredicate) for the eight kernel
/// kinds, and the four UDF cores: mode-aware execution over a prepared
/// [`Query`], plus the introspection hooks the shared-artifact contract is
/// asserted through. [`PredicateHandle`] checks that a query was prepared
/// against the core's engine before it calls in.
pub(crate) trait EngineOps: Send + Sync {
    fn predicate_kind(&self) -> PredicateKind;
    fn shared_artifacts(&self) -> &SharedArtifacts;
    /// Execute one query in the given mode; `naive` selects the
    /// pre-refactor engine cost model (the equivalence/bench baseline).
    /// `limits` is the request's cooperative budget, which the
    /// candidate-scoring paths charge (see [`relq::ExecLimits`]); on
    /// exhaustion the execution returns the anytime answer built so far.
    /// Pass [`RequestLimits::unlimited`] to run to completion. The
    /// naive baseline's plans are never budgeted.
    fn execute_mode(
        &self,
        query: &Query,
        exec: Exec,
        naive: bool,
        limits: &RequestLimits,
    ) -> Result<Vec<ScoredTid>>;
    /// The catalog the predicate's plans run against, when it has one.
    fn plan_catalog(&self) -> Option<&Catalog> {
        None
    }
    /// The lazy catalogs of a bounded predicate (laziness tests).
    #[cfg(test)]
    fn posting_catalog(&self) -> Option<&tables::PostingCatalog> {
        None
    }
}

struct EngineInner {
    shared: Arc<SharedArtifacts>,
    /// Lazily built predicate cores, one slot per [`PredicateKind`] in
    /// canonical order. Phase-2 preprocessing for a predicate runs on the
    /// first `predicate()` call for its kind and is cached for the engine's
    /// lifetime.
    predicates: [OnceLock<Arc<dyn EngineOps>>; PredicateKind::COUNT],
}

/// A session over one base relation: shared phase-1 artifacts plus lazily
/// built, cached predicate handles. Cloning is cheap (a shared handle) and
/// the engine is `Send + Sync`, so one instance can serve concurrent query
/// traffic.
///
/// # Examples
///
/// ```
/// use dasp_core::{Corpus, Exec, Params, PredicateKind, SelectionEngine};
///
/// let engine = SelectionEngine::from_corpus(
///     Corpus::from_strings(vec![
///         "Morgan Stanley Group Inc.",
///         "Morgan Stanle Grop Inc.",
///         "Beijing Hotel",
///     ]),
///     &Params::default(),
/// );
/// // Phase-2 preprocessing runs on the first `predicate()` call per kind.
/// let bm25 = engine.predicate(PredicateKind::Bm25);
/// // A Query is tokenized once and reusable across all 13 predicates.
/// let query = engine.query("Morgan Stanley Group Incorporated");
/// let top1 = bm25.execute(&query, Exec::TopK(1)).unwrap();
/// assert_eq!(top1[0].tid, 0);
/// ```
#[derive(Clone)]
pub struct SelectionEngine {
    inner: Arc<EngineInner>,
}

impl SelectionEngine {
    /// Construct the shared phase-1 artifacts over an already tokenized
    /// corpus: the indexed token/weight tables and word-level views every
    /// predicate reuses. Predicate-specific (phase-2) preprocessing is
    /// deferred to the first [`predicate`](Self::predicate) call per kind.
    pub fn build(corpus: Arc<TokenizedCorpus>, params: &Params) -> Self {
        let shared = SharedArtifacts::build(corpus, params);
        SelectionEngine {
            inner: Arc::new(EngineInner {
                shared,
                predicates: std::array::from_fn(|_| OnceLock::new()),
            }),
        }
    }

    /// Tokenize a raw corpus (phase 1 of the paper's preprocessing) and
    /// build the engine over it in one step.
    pub fn from_corpus(corpus: crate::corpus::Corpus, params: &Params) -> Self {
        let tokenized = Arc::new(TokenizedCorpus::build(corpus, params.qgram));
        Self::build(tokenized, params)
    }

    /// The tokenized corpus the engine serves.
    pub fn corpus(&self) -> &Arc<TokenizedCorpus> {
        self.inner.shared.corpus()
    }

    /// The parameter set every predicate of this engine is built with.
    pub fn params(&self) -> &Params {
        self.inner.shared.params()
    }

    /// The full shared phase-1 catalog (token tables, weight tables,
    /// indexes). Predicate handles carry the subset of these tables their
    /// plans reference, aliased — `Arc::ptr_eq` against a handle's
    /// [`catalog`](PredicateHandle::catalog) proves the shared-artifact
    /// contract. Calling this forces every shared table, so prefer the
    /// handles' own catalogs outside of introspection.
    pub fn shared_catalog(&self) -> &Catalog {
        self.inner.shared.catalog()
    }

    /// Hit/miss counters and occupancy of the engine's result cache (an
    /// invalidation-free LRU over `(predicate, query text, exec mode)`;
    /// corpora are immutable, so cached results never go stale).
    pub fn result_cache_stats(&self) -> CacheStats {
        self.inner.shared.cache().stats()
    }

    /// Resize the result cache (0 disables caching and clears it).
    pub fn set_result_cache_capacity(&self, capacity: usize) {
        self.inner.shared.cache().set_capacity(capacity)
    }

    /// Prepare a query once for use with every predicate of this engine.
    pub fn query(&self, text: &str) -> Query {
        Query::build(self.inner.shared.corpus(), text)
    }

    /// The handle for one predicate, running its phase-2 preprocessing on
    /// first use and cached afterwards. Handles are cheap to clone and keep
    /// the engine alive.
    pub fn predicate(&self, kind: PredicateKind) -> PredicateHandle {
        let core = self.inner.predicates[kind.index()]
            .get_or_init(|| build_predicate_core(kind, &self.inner.shared))
            .clone();
        PredicateHandle { core }
    }

    /// Handles for every predicate the paper evaluates, in canonical order.
    pub fn predicates(&self) -> Vec<(PredicateKind, PredicateHandle)> {
        PredicateKind::all().iter().map(|&kind| (kind, self.predicate(kind))).collect()
    }
}

/// Phase-2 preprocessing: build one predicate's core over the shared
/// artifacts. This is the only place predicate cores are constructed: one
/// [`KernelPredicate`](crate::tables::KernelPredicate) per kernel kind, and
/// the four UDF cores.
fn build_predicate_core(kind: PredicateKind, shared: &Arc<SharedArtifacts>) -> Arc<dyn EngineOps> {
    use crate::combination::ges::GesPredicate;
    use crate::combination::ges_filter::{FilteredGes, GesFilterKind};
    use crate::combination::soft_tfidf::SoftTfIdfPredicate;
    use crate::editpred::EditPredicate;
    use crate::{aggregate, hmm, langmodel, overlap};
    let shared = shared.clone();
    match kind {
        PredicateKind::IntersectSize => Arc::new(overlap::intersect_size(shared)),
        PredicateKind::Jaccard => Arc::new(overlap::jaccard(shared)),
        PredicateKind::WeightedMatch => Arc::new(overlap::weighted_match(shared)),
        PredicateKind::WeightedJaccard => Arc::new(overlap::weighted_jaccard(shared)),
        PredicateKind::Cosine => Arc::new(aggregate::cosine(shared)),
        PredicateKind::Bm25 => Arc::new(aggregate::bm25(shared)),
        PredicateKind::LanguageModel => Arc::new(langmodel::language_model(shared)),
        PredicateKind::Hmm => Arc::new(hmm::hmm(shared)),
        PredicateKind::EditSimilarity => Arc::new(EditPredicate::from_shared(shared)),
        PredicateKind::Ges => Arc::new(GesPredicate::from_shared(shared)),
        PredicateKind::GesJaccard => {
            Arc::new(FilteredGes::from_shared(shared, GesFilterKind::Jaccard))
        }
        PredicateKind::GesApx => Arc::new(FilteredGes::from_shared(shared, GesFilterKind::MinHash)),
        PredicateKind::SoftTfIdf => Arc::new(SoftTfIdfPredicate::from_shared(shared)),
    }
}

/// How much work a budgeted execution actually did before finishing or
/// hitting its cap — attached to [`BudgetedRun`] and surfaced by the serving
/// layer as `ServeStats::budget`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetReport {
    /// Candidates that reached the scoring path.
    pub candidates_scored: u64,
    /// Posting entries consumed while scoring them (bounded operators).
    pub postings_touched: u64,
    /// Wall-clock time from budget creation to the report.
    pub elapsed: std::time::Duration,
}

impl BudgetReport {
    pub(crate) fn from_limits(limits: &relq::ExecLimits) -> Self {
        let report = limits.report();
        BudgetReport {
            candidates_scored: report.candidates,
            postings_touched: report.postings,
            elapsed: report.elapsed,
        }
    }
}

/// One request's budget as the predicate cores see it: the
/// [`relq::ExecLimits`] every candidate charge goes to (it derefs to them),
/// and the deadline they were built with.
pub(crate) struct RequestLimits {
    limits: relq::ExecLimits,
    deadline: Option<std::time::Duration>,
}

impl RequestLimits {
    pub(crate) fn new(budget: ExecBudget) -> Self {
        let cap = budget.max_candidates.map(|n| n as u64);
        let limits = relq::ExecLimits::new(budget.deadline, cap);
        RequestLimits { limits, deadline: budget.deadline }
    }

    /// No caps: charges always succeed, only the counters run.
    pub(crate) fn unlimited() -> Self {
        Self::new(ExecBudget::unlimited())
    }

    /// Fresh limits holding what is left of the request's deadline and no
    /// candidate cap, for a candidate generator that must stop at the
    /// deadline but scores no candidate. They expire no earlier than the
    /// request's own limits, so once they have, the request's
    /// [`poll_deadline`](relq::ExecLimits::poll_deadline) refuses too.
    pub(crate) fn deadline_only(&self) -> relq::ExecLimits {
        let left = self.deadline.map(|d| d.saturating_sub(self.limits.report().elapsed));
        relq::ExecLimits::new(left, None)
    }
}

impl std::ops::Deref for RequestLimits {
    type Target = relq::ExecLimits;

    fn deref(&self) -> &relq::ExecLimits {
        &self.limits
    }
}

/// The outcome of a request under an [`ExecBudget`] on any backend: the
/// (possibly partial) results plus the cache-hit and degradation flags and
/// the work report.
#[derive(Debug, Clone)]
pub struct BudgetedRun {
    /// The ranking/selection produced. When `degraded`, a strict subset of
    /// the exhaustive answer with bit-identical per-tid scores.
    pub results: Vec<ScoredTid>,
    /// Whether the answer came from the result cache (only possible on the
    /// unlimited path — budgeted executions bypass the cache).
    pub cache_hit: bool,
    /// `true` iff a budget cap tripped and the results are an anytime
    /// partial. Never set when the budget was not hit.
    pub degraded: bool,
    /// Work counters of the budgeted execution (`None` on the unlimited
    /// path, where no limits were threaded).
    pub report: Option<BudgetReport>,
}

/// A cheap, clonable handle to one predicate of a [`SelectionEngine`].
///
/// The primary interface is [`execute`](Self::execute) over a prepared
/// [`Query`] with an [`Exec`] mode; the [`Predicate`] trait implementation is
/// the string-based compatibility shim (`rank(q)` =
/// `execute(&engine.query(q), Exec::Rank)`).
#[derive(Clone)]
pub struct PredicateHandle {
    core: Arc<dyn EngineOps>,
}

impl PredicateHandle {
    /// Which predicate this handle executes.
    pub fn kind(&self) -> PredicateKind {
        self.core.predicate_kind()
    }

    /// Prepare a query against this handle's engine (equivalent to
    /// [`SelectionEngine::query`]).
    pub fn query(&self, text: &str) -> Query {
        Query::build(self.core.shared_artifacts().corpus(), text)
    }

    /// Execute a prepared query in the given mode through the indexed
    /// engine (prepared plans, index probes, pushdown operators), consulting
    /// the engine's result cache first.
    pub fn execute(&self, query: &Query, exec: Exec) -> Result<Vec<ScoredTid>> {
        self.execute_budgeted(query, exec, ExecBudget::unlimited()).map(|run| run.results)
    }

    /// [`execute`](Self::execute), additionally reporting whether the result
    /// was answered from the engine's result cache — the flag the serving
    /// layer surfaces as [`ServeStats::cache_hit`](crate::serve::ServeStats).
    pub fn execute_tracked(&self, query: &Query, exec: Exec) -> Result<(Vec<ScoredTid>, bool)> {
        self.execute_budgeted(query, exec, ExecBudget::unlimited())
            .map(|run| (run.results, run.cache_hit))
    }

    /// [`execute`](Self::execute) under the pre-refactor cost model
    /// (clone-per-scan, per-query hash builds, sort-then-truncate top-k) —
    /// byte-identical output, kept as the equivalence and bench baseline.
    pub fn execute_naive(&self, query: &Query, exec: Exec) -> Result<Vec<ScoredTid>> {
        exec.validate()?;
        self.core_for(query)?.execute_mode(query, exec, true, &RequestLimits::unlimited())
    }

    /// The predicate core, once `query` is known to be prepared against this
    /// handle's engine: the one check every entry point taking a prepared
    /// [`Query`] runs. A query tokenized against another engine's
    /// dictionary would resolve token ids wrong and return
    /// plausible-looking but bogus scores, so it fails loudly instead.
    fn core_for(&self, query: &Query) -> Result<&dyn EngineOps> {
        if !query.tokenized_against(self.core.shared_artifacts().corpus()) {
            return Err(DaspError::EngineMismatch);
        }
        Ok(&*self.core)
    }

    /// Execute under a cooperative [`ExecBudget`]. An unlimited budget takes
    /// the cached path; with any cap set, the execution runs uncached under
    /// a fresh [`relq::ExecLimits`] and on exhaustion returns the **anytime
    /// answer** — every `(tid, score)` pair bit-identical to that tid's
    /// entry in the exhaustive run, only coverage truncated — flagged
    /// `degraded` with a [`BudgetReport`] of the work done. Capped runs
    /// bypass the result cache in both directions, as every backend's do.
    pub fn execute_budgeted(
        &self,
        query: &Query,
        exec: Exec,
        budget: ExecBudget,
    ) -> Result<BudgetedRun> {
        // The cache is keyed by query text, so a query prepared against
        // other statistics must be rejected before the probe.
        self.core_for(query)?;
        self.run_cached(query.text(), exec, budget, || query)
    }

    /// [`execute_budgeted`](Self::execute_budgeted) over query text: the
    /// cache is probed first, and the text is prepared against this
    /// handle's engine only when the request executes (the static serving
    /// path, where a hit then costs no tokenization).
    pub(crate) fn execute_text(
        &self,
        text: &str,
        exec: Exec,
        budget: ExecBudget,
    ) -> Result<BudgetedRun> {
        self.run_cached(text, exec, budget, || self.query(text))
    }

    /// The engine's one cached, budgeted request path for `text`, whose
    /// query `prepare` supplies on a miss.
    fn run_cached<Q: std::borrow::Borrow<Query>>(
        &self,
        text: &str,
        exec: Exec,
        budget: ExecBudget,
        prepare: impl FnOnce() -> Q,
    ) -> Result<BudgetedRun> {
        let run = |limits: &RequestLimits| {
            let query = prepare();
            self.core.execute_mode(query.borrow(), exec, false, limits).map(|results| (results, 1))
        };
        let cache = self.core.shared_artifacts().cache();
        cache.run(STATIC_EPOCH, self.kind(), text, exec, budget, run).map(|r| r.0)
    }

    /// Execute uncached under caller-owned limits: how every part of a live
    /// engine runs, with one `ExecLimits` shared across the parts of a
    /// request.
    pub(crate) fn execute_with_limits(
        &self,
        query: &Query,
        exec: Exec,
        limits: &RequestLimits,
    ) -> Result<Vec<ScoredTid>> {
        self.core_for(query)?.execute_mode(query, exec, false, limits)
    }

    /// The catalog this predicate's plans run against (`None` for the pure
    /// UDF predicate GES, and for GES_Jaccard and GES_apx until a naive run
    /// has built their reference plan). Tables shared with the engine's
    /// [`shared_catalog`](SelectionEngine::shared_catalog) alias the same
    /// allocations.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.core.plan_catalog()
    }
}

impl Predicate for PredicateHandle {
    fn kind(&self) -> PredicateKind {
        self.core.predicate_kind()
    }

    fn try_rank(&self, query: &str) -> Result<Vec<ScoredTid>> {
        self.execute(&self.query(query), Exec::Rank)
    }

    fn try_rank_naive(&self, query: &str) -> Result<Vec<ScoredTid>> {
        self.execute_naive(&self.query(query), Exec::Rank)
    }

    fn try_execute(&self, query: &str, exec: Exec) -> Result<Vec<ScoredTid>> {
        self.execute(&self.query(query), exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use dasp_text::QgramConfig;

    fn engine() -> SelectionEngine {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Morgan Stanle Grop Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
                "Beijing Labs Limited",
                "AT&T Incorporated",
            ]),
            QgramConfig::new(2),
        ));
        SelectionEngine::build(corpus, &Params::default())
    }

    #[test]
    fn one_query_serves_all_13_predicates_in_every_mode() {
        let engine = engine();
        let query = engine.query("Morgan Stanley Group Inc.");
        for (kind, handle) in engine.predicates() {
            let ranking = handle.execute(&query, Exec::Rank).unwrap();
            assert!(!ranking.is_empty(), "{kind} returned nothing");
            assert_eq!(ranking[0].tid, 0, "{kind} did not rank the duplicate first");
            // TopK pushdown ≡ rank-then-truncate.
            let top2 = handle.execute(&query, Exec::TopK(2)).unwrap();
            assert_eq!(top2, ranking[..ranking.len().min(2)].to_vec(), "{kind} TopK diverged");
            // Threshold pushdown ≡ rank-then-filter, through both the
            // bounded route and the exhaustive scan.
            let tau = ranking[0].score * 0.5;
            let selected = handle.execute(&query, Exec::Threshold(tau)).unwrap();
            let expected: Vec<_> = ranking.iter().copied().filter(|s| s.score >= tau).collect();
            assert_eq!(selected, expected, "{kind} Threshold diverged");
            let scanned = handle.execute(&query, Exec::ThresholdScan(tau)).unwrap();
            assert_eq!(scanned, expected, "{kind} ThresholdScan diverged");
        }
    }

    #[test]
    fn handles_share_phase1_tables_with_the_engine_catalog() {
        let engine = engine();
        // An indexed Jaccard Rank runs against the shared base_len table and
        // the shared base_tokens postings, both aliased: the base_tokens
        // table itself stays unbuilt.
        let shared = &engine.inner.shared;
        let jaccard = engine.predicate(PredicateKind::Jaccard);
        jaccard.execute(&engine.query("Morgan Stanley"), Exec::Rank).unwrap();
        let kernel = jaccard.core.posting_catalog().unwrap().for_exec(Exec::Rank, false);
        let shared_len = shared.catalog_with(&["base_len"]).get_shared("base_len").unwrap();
        assert!(Arc::ptr_eq(&kernel.get_shared("base_len").unwrap(), &shared_len));
        let posting = kernel.posting_for("base_tokens").unwrap();
        assert!(Arc::ptr_eq(posting, &shared.posting("base_tokens")));
        assert!(!kernel.contains("base_tokens") && !shared.artifact_built("base_tokens"));
        // Force the shared tables through two token-table consumers first so
        // the aliasing assertion is meaningful.
        let xect = engine.predicate(PredicateKind::IntersectSize);
        let jaccard = engine.predicate(PredicateKind::Jaccard);
        let shared_tokens = engine.shared_catalog().get_shared("base_tokens").unwrap();
        for handle in [&xect, &jaccard] {
            let catalog = handle.catalog().expect("plan-based predicates expose a catalog");
            let tokens = catalog.get_shared("base_tokens").unwrap();
            assert!(
                Arc::ptr_eq(&tokens, &shared_tokens),
                "{:?} does not alias the shared base_tokens table",
                handle.kind()
            );
        }
        // Handles carry only the tables their plans reference: BM25 probes
        // its private weight table, never the shared token tables.
        let bm25 = engine.predicate(PredicateKind::Bm25);
        let bm25_catalog = bm25.catalog().unwrap();
        assert!(bm25_catalog.contains("bm25_weights"));
        assert!(!bm25_catalog.contains("base_tokens"));
        // The pure-UDF predicate has no plan catalog.
        assert!(engine.predicate(PredicateKind::Ges).catalog().is_none());
    }

    #[test]
    fn shared_artifacts_build_lazily_per_predicate() {
        let engine = engine();
        let shared = &engine.inner.shared;
        for table in crate::engine::SHARED_TABLES {
            assert!(!shared.artifact_built(table), "{table} built before any predicate");
        }
        // A lone BM25 handle needs none of the shared tables (private weight
        // table only) and executing through it keeps them unbuilt.
        let bm25 = engine.predicate(PredicateKind::Bm25);
        let query = engine.query("Morgan Stanley");
        bm25.execute(&query, Exec::TopK(3)).unwrap();
        for table in crate::engine::SHARED_TABLES {
            assert!(!shared.artifact_built(table), "{table} built by a standalone BM25 engine");
        }
        assert!(!shared.artifact_built("normalized"));
        // An indexed IntersectSize Rank forces exactly its posting lists,
        // built from the tokenized rows; the TopKHeap reference then forces
        // base_tokens, nothing else.
        let xect = engine.predicate(PredicateKind::IntersectSize);
        xect.execute(&query, Exec::Rank).unwrap();
        assert!(shared.artifact_built("posting:base_tokens"));
        assert!(!shared.artifact_built("base_tokens"));
        xect.execute(&query, Exec::TopKHeap(3)).unwrap();
        assert!(shared.artifact_built("base_tokens"));
        assert!(!shared.artifact_built("overlap_weights"));
        assert!(!shared.artifact_built("base_words"));
        // The edit predicate forces the normalized strings and base_tf only.
        let edit = engine.predicate(PredicateKind::EditSimilarity);
        edit.execute(&query, Exec::Rank).unwrap();
        assert!(shared.artifact_built("base_tf"));
        assert!(shared.artifact_built("normalized"));
        assert!(!shared.artifact_built("base_words"));
    }

    #[test]
    fn shared_posting_indexes_are_built_once_and_aliased() {
        let engine = engine();
        let shared = &engine.inner.shared;
        let xect = engine.predicate(PredicateKind::IntersectSize);
        // Handles attach postings on first kernel execution, not at build —
        // and the reference modes never force them.
        assert!(xect.catalog().unwrap().posting_for("base_tokens").is_none());
        let query = engine.query("Morgan Stanley");
        xect.execute_naive(&query, Exec::Rank).unwrap();
        xect.execute(&query, Exec::TopKHeap(2)).unwrap();
        xect.execute(&query, Exec::ThresholdScan(1.0)).unwrap();
        assert!(
            xect.catalog().unwrap().posting_for("base_tokens").is_none(),
            "naive Rank/TopKHeap/ThresholdScan must not build posting lists"
        );
        // An indexed Rank is TopK(∞): it runs the kernel over the postings.
        xect.execute(&query, Exec::Rank).unwrap();
        let attached = xect.catalog().unwrap().posting_for("base_tokens").unwrap().clone();
        let a = shared.posting("base_tokens");
        let b = shared.posting("base_tokens");
        assert!(Arc::ptr_eq(&a, &b), "posting index must build once");
        assert!(Arc::ptr_eq(&a, &attached), "handle must alias the shared posting index");
        // A bounded threshold execution on a fresh engine forces the posting
        // attach the same way TopK does.
        let engine = super::tests::engine();
        let wm = engine.predicate(PredicateKind::WeightedMatch);
        assert!(wm.catalog().unwrap().posting_for("overlap_weights").is_none());
        wm.execute(&engine.query("Morgan Stanley"), Exec::Threshold(0.5)).unwrap();
        assert!(
            wm.catalog().unwrap().posting_for("overlap_weights").is_some(),
            "Threshold must route through the posting-backed catalog"
        );
    }

    #[test]
    fn result_cache_hits_repeat_queries_and_reports_stats() {
        let engine = engine();
        let handle = engine.predicate(PredicateKind::Cosine);
        let query = engine.query("Morgan Stanley Group Inc.");
        assert_eq!(engine.result_cache_stats().hits, 0);
        let first = handle.execute(&query, Exec::TopK(3)).unwrap();
        let stats = engine.result_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 1));
        // Same (kind, text, exec): a hit with identical bytes.
        let second = handle.execute(&query, Exec::TopK(3)).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.result_cache_stats().hits, 1);
        // A different exec mode, kind, or text misses.
        handle.execute(&query, Exec::TopK(2)).unwrap();
        engine.predicate(PredicateKind::Bm25).execute(&query, Exec::TopK(3)).unwrap();
        handle.execute(&engine.query("Beijing Hotel"), Exec::TopK(3)).unwrap();
        let stats = engine.result_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 4, 4));
        // The naive baseline path stays uncached (it exists to be measured).
        handle.execute_naive(&query, Exec::TopK(3)).unwrap();
        assert_eq!(engine.result_cache_stats().misses, 4);
        // Rebuilt strings with the same text still hit.
        let rebuilt = engine.query("Morgan Stanley Group Inc.");
        assert_eq!(handle.execute(&rebuilt, Exec::TopK(3)).unwrap(), first);
        assert_eq!(engine.result_cache_stats().hits, 2);
    }

    #[test]
    fn result_cache_capacity_bounds_entries_and_can_be_disabled() {
        let engine = engine();
        engine.set_result_cache_capacity(2);
        let handle = engine.predicate(PredicateKind::Bm25);
        for text in ["Morgan", "Beijing", "Silicon", "AT&T"] {
            handle.execute(&engine.query(text), Exec::Rank).unwrap();
        }
        let stats = engine.result_cache_stats();
        assert_eq!(stats.entries, 2, "LRU must evict down to capacity");
        assert_eq!(stats.capacity, 2);
        // The most recent entries survive.
        handle.execute(&engine.query("AT&T"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().hits, 1);
        handle.execute(&engine.query("Morgan"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().hits, 1, "evicted entry must miss");
        // Capacity 0 disables caching entirely.
        engine.set_result_cache_capacity(0);
        assert_eq!(engine.result_cache_stats().entries, 0);
        handle.execute(&engine.query("Morgan"), Exec::Rank).unwrap();
        handle.execute(&engine.query("Morgan"), Exec::Rank).unwrap();
        let stats = engine.result_cache_stats();
        assert_eq!((stats.hits, stats.entries), (1, 0));
    }

    #[test]
    fn cache_entries_are_isolated_across_exec_modes() {
        // A cached TopK(5) entry must never answer a TopKHeap(5) or
        // Threshold probe: the three modes are distinct cache keys even when
        // their result bytes would coincide.
        let engine = engine();
        let handle = engine.predicate(PredicateKind::Cosine);
        let query = engine.query("Morgan Stanley Group Inc.");
        let modes =
            [Exec::TopK(5), Exec::TopKHeap(5), Exec::Threshold(0.1), Exec::ThresholdScan(0.1)];
        for exec in modes {
            handle.execute(&query, exec).unwrap();
        }
        let stats = engine.result_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 4, 4));
        // Re-probing each mode hits its own entry and only its own entry.
        for exec in modes {
            handle.execute(&query, exec).unwrap();
        }
        let stats = engine.result_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 4, 4));
        // TopK(5) and TopK(6) are distinct too (k is part of the key).
        handle.execute(&query, Exec::TopK(6)).unwrap();
        assert_eq!(engine.result_cache_stats().misses, 5);
    }

    #[test]
    fn cache_evicts_in_lru_order() {
        // Eviction removes the least recently *used* entry, not the oldest
        // inserted: touching an entry protects it from the next eviction.
        let engine = engine();
        engine.set_result_cache_capacity(3);
        let handle = engine.predicate(PredicateKind::Bm25);
        for text in ["Morgan", "Beijing", "Silicon"] {
            handle.execute(&engine.query(text), Exec::Rank).unwrap();
        }
        // Touch "Morgan" so "Beijing" becomes the LRU entry...
        handle.execute(&engine.query("Morgan"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().hits, 1);
        // ...then a fourth insert must evict "Beijing", not "Morgan".
        handle.execute(&engine.query("AT&T"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().entries, 3);
        handle.execute(&engine.query("Morgan"), Exec::Rank).unwrap();
        handle.execute(&engine.query("Silicon"), Exec::Rank).unwrap();
        handle.execute(&engine.query("AT&T"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().hits, 4, "survivors must all hit");
        handle.execute(&engine.query("Beijing"), Exec::Rank).unwrap();
        assert_eq!(engine.result_cache_stats().hits, 4, "the LRU entry must have been evicted");
    }

    #[test]
    fn reinserting_a_held_key_evicts_nothing_else() {
        // Storing a key the cache already holds must replace the entry, not
        // evict an unrelated one to make room.
        let cache = ResultCache::new(2);
        let kind = PredicateKind::Bm25;
        let rows = [ScoredTid::new(0, 1.0)];
        cache.insert(STATIC_EPOCH, kind, "A", Exec::Rank, &rows);
        cache.insert(STATIC_EPOCH, kind, "B", Exec::Rank, &rows);
        assert!(cache.get(STATIC_EPOCH, kind, "A", Exec::Rank).is_some());
        cache.insert(STATIC_EPOCH, kind, "A", Exec::Rank, &rows);
        assert_eq!(cache.stats().entries, 2);
        assert!(cache.get(STATIC_EPOCH, kind, "B", Exec::Rank).is_some(), "B was evicted");
    }

    #[test]
    fn predicate_handles_are_cached_per_kind() {
        let engine = engine();
        let a = engine.predicate(PredicateKind::Bm25);
        let b = engine.predicate(PredicateKind::Bm25);
        assert!(Arc::ptr_eq(&a.core, &b.core), "phase-2 preprocessing must run once per kind");
    }

    #[test]
    fn queries_expose_their_prepared_views() {
        let engine = engine();
        let query = engine.query("Morgan Stanley");
        assert_eq!(query.text(), "Morgan Stanley");
        assert_eq!(query.norm(), normalize("Morgan Stanley"));
        assert!(!query.tokens().tokens.is_empty());
        assert_eq!(query.word_tokens(), ["MORGAN".to_string(), "STANLEY".to_string()]);
        assert_eq!(query.weighted_words().len(), 2);
        assert!(query.weighted_words().iter().all(|w| w.weight > 0.0));
    }

    #[test]
    fn string_shim_matches_prepared_query_execution() {
        let engine = engine();
        let handle = engine.predicate(PredicateKind::Cosine);
        let text = "Beijing Hotel";
        let prepared = engine.query(text);
        assert_eq!(handle.rank(text), handle.execute(&prepared, Exec::Rank).unwrap());
        assert_eq!(handle.top_k(text, 2), handle.execute(&prepared, Exec::TopK(2)).unwrap());
        assert_eq!(
            handle.select(text, 0.2),
            handle.execute(&prepared, Exec::Threshold(0.2)).unwrap()
        );
    }

    #[test]
    fn foreign_queries_are_rejected_not_misanswered() {
        let a = engine();
        let b = SelectionEngine::build(
            Arc::new(TokenizedCorpus::build(
                Corpus::from_strings(vec!["Morgan Stanley", "different", "corpus"]),
                dasp_text::QgramConfig::new(2),
            )),
            &Params::default(),
        );
        let text = "Morgan Stanley Group Inc.";
        let foreign = b.query(text);
        let capped = ExecBudget { max_candidates: Some(1), ..ExecBudget::default() };
        let unlimited = RequestLimits::unlimited();
        let modes = [
            Exec::Rank,
            Exec::TopK(2),
            Exec::TopKHeap(2),
            Exec::Threshold(0.1),
            Exec::ThresholdScan(0.1),
        ];
        let mismatch = |r: Result<Vec<ScoredTid>>| matches!(r, Err(DaspError::EngineMismatch));
        // Every entry point taking a prepared query refuses a foreign one,
        // for every kind and mode: the one check in `PredicateHandle`.
        for (kind, handle) in a.predicates() {
            for exec in modes {
                // A query from the same engine is accepted, and its answer
                // cached: the foreign query with the same text fails before
                // the cache probe, on the cached and the budgeted path alike.
                assert!(handle.execute(&a.query(text), exec).is_ok(), "{kind} {exec:?}");
                assert!(mismatch(handle.execute(&foreign, exec)), "{kind} {exec:?} execute");
                let tracked = handle.execute_tracked(&foreign, exec).map(|(rows, _)| rows);
                assert!(mismatch(tracked), "{kind} {exec:?} execute_tracked");
                for budget in [ExecBudget::unlimited(), capped] {
                    let run = handle.execute_budgeted(&foreign, exec, budget).map(|r| r.results);
                    assert!(mismatch(run), "{kind} {exec:?} execute_budgeted");
                }
                assert!(mismatch(handle.execute_naive(&foreign, exec)), "{kind} {exec:?} naive");
                let parted = handle.execute_with_limits(&foreign, exec, &unlimited);
                assert!(mismatch(parted), "{kind} {exec:?} execute_with_limits");
            }
        }
        assert_eq!(a.result_cache_stats().hits, 0);
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SelectionEngine>();
        assert_send_sync::<PredicateHandle>();
        assert_send_sync::<Query>();
    }

    #[test]
    fn bounded_reads_on_a_fresh_engine_build_no_weight_table() {
        let engine = engine();
        let shared = &engine.inner.shared;
        let query = engine.query("Morgan Stanley Group");
        let bounded = [
            PredicateKind::IntersectSize,
            PredicateKind::WeightedMatch,
            PredicateKind::Cosine,
            PredicateKind::Bm25,
            PredicateKind::Hmm,
        ];
        let mut answers = Vec::new();
        for kind in bounded {
            let handle = engine.predicate(kind);
            let top = handle.execute(&query, Exec::TopK(3)).unwrap();
            let tau = top[top.len() - 1].score;
            let selected = handle.execute(&query, Exec::Threshold(tau)).unwrap();
            let catalog = handle.core.posting_catalog().expect("a bounded predicate");
            assert!(catalog.posting_built(), "{kind}: no posting lists after bounded reads");
            assert!(!catalog.base_built(), "{kind}: a bounded read built its weight table");
            answers.push((handle, top, tau, selected));
        }
        // The shared tables stay unbuilt too: IntersectSize and WeightedMatch
        // read postings built from the tokenized rows.
        for table in crate::engine::SHARED_TABLES {
            assert!(!shared.artifact_built(table), "{table} built by a bounded read");
        }
        assert!(shared.artifact_built("posting:base_tokens"));
        assert!(shared.artifact_built("posting:overlap_weights"));
        // The exhaustive modes build the tables and return the same bytes.
        for (handle, top, tau, selected) in answers {
            let kind = handle.kind();
            assert_eq!(handle.execute(&query, Exec::TopKHeap(3)).unwrap(), top, "{kind}");
            assert_eq!(handle.execute(&query, Exec::ThresholdScan(tau)).unwrap(), selected);
            assert!(handle.core.posting_catalog().unwrap().base_built(), "{kind}");
        }
        assert!(shared.artifact_built("base_tokens") && shared.artifact_built("overlap_weights"));
    }

    #[test]
    fn rank_reads_build_postings_and_no_weight_table() {
        let engine = engine();
        let shared = &engine.inner.shared;
        let query = engine.query("Morgan Stanley Group");
        let kernel = [
            PredicateKind::IntersectSize,
            PredicateKind::Jaccard,
            PredicateKind::WeightedMatch,
            PredicateKind::WeightedJaccard,
            PredicateKind::Cosine,
            PredicateKind::Bm25,
            PredicateKind::LanguageModel,
            PredicateKind::Hmm,
        ];
        let mut ranked = Vec::new();
        for kind in kernel {
            let handle = engine.predicate(kind);
            let rank = handle.execute(&query, Exec::Rank).unwrap();
            assert!(!rank.is_empty(), "{kind}");
            let catalog = handle.core.posting_catalog().expect("a kernel predicate");
            assert!(catalog.posting_built(), "{kind}: an indexed Rank built no posting lists");
            assert!(!catalog.base_built(), "{kind}: an indexed Rank built its weight table");
            ranked.push((handle, rank));
        }
        // Of the shared tables only the per-tuple lengths Jaccard and WJ
        // join on top of the kernel are built.
        for table in crate::engine::SHARED_TABLES {
            let built = matches!(table, "base_len" | "overlap_len");
            assert_eq!(shared.artifact_built(table), built, "{table}");
        }
        // The references build the tables and return the same bytes.
        for (handle, rank) in ranked {
            let kind = handle.kind();
            assert_eq!(handle.execute_naive(&query, Exec::Rank).unwrap(), rank, "{kind}");
            let heap = handle.execute(&query, Exec::TopKHeap(usize::MAX)).unwrap();
            assert_eq!(heap, rank, "{kind}");
            assert!(handle.core.posting_catalog().unwrap().base_built(), "{kind}");
        }
        assert!(shared.artifact_built("base_tokens") && shared.artifact_built("overlap_weights"));
    }

    #[test]
    fn scan_and_short_circuit_routes_never_attach_posting_arenas() {
        let engine = engine();
        let shared = &engine.inner.shared;
        let xect = engine.predicate(PredicateKind::IntersectSize);
        let query = engine.query("Morgan Stanley");
        // The exhaustive modes run against the posting-free base catalog:
        // no posting arena is constructed, whatever the bar or k.
        let scan = xect.execute(&query, Exec::ThresholdScan(1.0)).unwrap();
        assert!(!scan.is_empty());
        let heap = xect.execute(&query, Exec::TopKHeap(2)).unwrap();
        assert_eq!(heap.len(), 2);
        assert!(xect.execute(&query, Exec::ThresholdScan(1e6)).unwrap().is_empty());
        assert!(xect.execute(&engine.query(""), Exec::TopKHeap(5)).unwrap().is_empty());
        assert!(shared.artifact_built("base_tokens"), "the scan still needs the token table");
        assert!(
            !shared.artifact_built("posting:base_tokens"),
            "ThresholdScan/TopKHeap must not build posting lists"
        );
        // The bounded plans attach postings on first use and answer the
        // same bytes; a τ above every reachable score and a token-free query
        // come back empty from the bounded operator itself.
        assert_eq!(xect.execute(&query, Exec::Threshold(1.0)).unwrap(), scan);
        assert!(shared.artifact_built("posting:base_tokens"));
        assert!(xect.execute(&query, Exec::Threshold(1e6)).unwrap().is_empty());
        assert!(xect.execute(&engine.query(""), Exec::Threshold(0.5)).unwrap().is_empty());
    }
}
