//! Concurrent batch serving: a fixed pool of worker threads fanning a
//! request stream over one shared backend — a static [`SelectionEngine`],
//! or a [`LiveEngine`] (via [`ServingEngine::new_live`]) whose epoch
//! snapshots let the pool race a concurrent writer without locks and whose
//! segments (tid-range shards included) fan each request across their own
//! worker pool.
//!
//! The engine has been built for this since PR 2: it is `Send + Sync`,
//! cloning it is a cheap `Arc` handle, every shared artifact is a
//! first-touch-safe `OnceLock`, and the result cache takes its own lock. The
//! [`ServingEngine`] is the driver that actually exercises that contract —
//! the "millions of lookups" workload of the paper's §6 evaluation run as a
//! request stream instead of a hand-written loop.
//!
//! ## Execution model
//!
//! [`ServingEngine::serve`] runs a pool of `min(workers, batch size)`
//! workers over a shared atomic cursor into the request slice. A pool of
//! one (one worker, or one request) runs on the calling thread; a wider
//! pool spawns that many scoped `std::thread` workers per call (no
//! external runtime — the workspace builds offline). Workers claim requests
//! one at a time, so load balances even when per-request cost varies by
//! orders of magnitude across predicates; each worker resolves the predicate
//! handle and executes through the backend's one cached, budgeted request
//! path, which probes the result cache before it tokenizes the query
//! string. Results return **in submission
//! order**, each with a [`ServeStats`] record (queue wait, execution time,
//! cache hit, worker id).
//!
//! ## Determinism
//!
//! Executions are deterministic and artifacts immutable once built, so a
//! concurrent run returns byte-identical results to a serial run of the same
//! requests — including when worker threads race the first-touch
//! construction of lazy artifacts. The `engine_concurrent` integration tier
//! asserts exactly that, differentially against a single-threaded run.
//!
//! ## Metrics
//!
//! The engine records per-predicate execution latency; [`ServingEngine::metrics`]
//! aggregates count / p50 / p95 / max per predicate kind — the measured
//! per-predicate costs that cost-aware scheduling over expensive predicates
//! assumes as its input.

use crate::engine::{BudgetReport, BudgetedRun, Exec, SelectionEngine};
use crate::error::{DaspError, Result};
use crate::live::{LiveEngine, LiveMetrics, LiveQueryStats};
use crate::params::ExecBudget;
use crate::parts::panic_message;
use crate::predicate::PredicateKind;
use crate::record::ScoredTid;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One unit of serving work: execute `kind` over `text` in mode `exec`.
/// Requests carry the raw query string — tokenization happens on the worker
/// thread, so query preparation parallelizes along with execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Which predicate to execute.
    pub kind: PredicateKind,
    /// The raw query string (tokenized on the serving worker).
    pub text: String,
    /// The execution mode pushed down into the engine.
    pub exec: Exec,
    /// Per-request execution-budget override. `None` uses the backend's
    /// engine-wide default ([`crate::Params::budget`], unlimited unless
    /// configured).
    pub budget: Option<ExecBudget>,
}

impl ServeRequest {
    /// Build a request (engine-default budget).
    pub fn new(kind: PredicateKind, text: impl Into<String>, exec: Exec) -> Self {
        ServeRequest { kind, text: text.into(), exec, budget: None }
    }

    /// Override the execution budget for this request only. The deadline
    /// also bounds queue wait: a request claimed after its deadline has
    /// passed is shed with [`crate::DaspError::Timeout`] instead of
    /// executed.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Per-request accounting, attached to every [`ServeResponse`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeStats {
    /// Time between batch submission and a worker claiming the request.
    pub queue_wait: Duration,
    /// Time the worker spent on the request: query tokenization, handle
    /// resolution and execution (cache probe included).
    pub exec_time: Duration,
    /// Whether the engine's result cache answered the request.
    pub cache_hit: bool,
    /// Index of the worker that served the request (`0..workers`).
    pub worker: usize,
    /// Segment observability of a live-backend request — the epoch the
    /// request executed at, segments probed, and tail-vs-sealed hit counts.
    /// `None` when serving a static [`SelectionEngine`].
    pub live: Option<LiveQueryStats>,
    /// Whether the request's execution budget tripped. The results are then
    /// the **anytime answer**: a prefix of the exact answer whose every
    /// score is bit-identical to the unbudgeted run's score for that tuple —
    /// the budget truncates coverage, never correctness. Always `false` on
    /// the unlimited path.
    pub degraded: bool,
    /// Work accounting of a budget-capped execution (candidates scored,
    /// postings touched, elapsed). `None` on the unlimited path.
    pub budget: Option<BudgetReport>,
}

/// The outcome of one request: the selection result plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The ranked selection, or the per-request error.
    pub results: Result<Vec<ScoredTid>>,
    /// Queue/execution accounting for this request.
    pub stats: ServeStats,
}

/// Aggregated execution-latency distribution of one predicate kind over
/// everything a [`ServingEngine`] has served (see [`ServingEngine::metrics`]).
///
/// `count`, `cache_hits`, `max` and `mean` are exact over all traffic;
/// `p50`/`p95` are nearest-rank percentiles over the most recent
/// [`LATENCY_WINDOW`] execution times per kind, so a long-lived serving
/// engine holds bounded memory no matter how many requests it has served
/// (and the percentiles track *current* latency, which is what a serving
/// dashboard wants anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Requests served for this predicate.
    pub count: usize,
    /// How many of them the result cache answered.
    pub cache_hits: usize,
    /// Median execution time (over the recent window).
    pub p50: Duration,
    /// 95th-percentile execution time (over the recent window).
    pub p95: Duration,
    /// Worst observed execution time (all traffic).
    pub max: Duration,
    /// Mean execution time (all traffic).
    pub mean: Duration,
}

/// Retained latency samples per predicate kind: percentiles are computed
/// over a sliding window of this many most-recent requests.
pub const LATENCY_WINDOW: usize = 4096;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set.
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Running latency aggregation of one predicate kind: exact counters plus a
/// ring buffer of recent samples for the percentiles.
#[derive(Default, Clone)]
struct KindMetrics {
    count: usize,
    cache_hits: usize,
    total: Duration,
    max: Duration,
    /// The most recent `LATENCY_WINDOW` execution times (insertion order
    /// does not matter for nearest-rank percentiles).
    recent: Vec<Duration>,
    /// Ring cursor: next `recent` slot to overwrite once full.
    cursor: usize,
}

impl KindMetrics {
    fn record(&mut self, exec_time: Duration, cache_hit: bool) {
        self.count += 1;
        self.cache_hits += usize::from(cache_hit);
        self.total += exec_time;
        self.max = self.max.max(exec_time);
        if self.recent.len() < LATENCY_WINDOW {
            self.recent.push(exec_time);
        } else {
            self.recent[self.cursor] = exec_time;
        }
        self.cursor = (self.cursor + 1) % LATENCY_WINDOW;
    }

    fn stats(&self) -> LatencyStats {
        let mut sorted = self.recent.clone();
        sorted.sort_unstable();
        LatencyStats {
            count: self.count,
            cache_hits: self.cache_hits,
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            max: self.max,
            mean: self.total / self.count as u32,
        }
    }
}

/// A thread-pooled serving layer over one [`SelectionEngine`].
///
/// Construction is free — a one-worker batch runs on the caller and wider
/// pools are scoped threads spawned per [`serve`](Self::serve) call, so an
/// idle `ServingEngine` holds no thread resources, and the engine handle it
/// wraps can be shared with any other consumer (all state that matters is
/// inside the engine and protected).
///
/// Latency metrics accumulate across `serve` calls until
/// [`reset_metrics`](Self::reset_metrics).
///
/// # Examples
///
/// ```
/// use dasp_core::{
///     Corpus, Exec, Params, PredicateKind, SelectionEngine, ServeRequest, ServingEngine,
/// };
///
/// let engine = SelectionEngine::from_corpus(
///     Corpus::from_strings(vec!["Morgan Stanley", "Beijing Hotel"]),
///     &Params::default(),
/// );
/// let serving = ServingEngine::new(engine, 2);
/// let responses = serving.serve(&[
///     ServeRequest::new(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(1)),
///     ServeRequest::new(PredicateKind::Jaccard, "Beijing Hotel", Exec::Threshold(0.5)),
/// ]);
/// // Responses come back in submission order, each with its accounting.
/// assert_eq!(responses[0].results.as_ref().unwrap()[0].tid, 0);
/// assert!(responses[1].stats.worker < 2);
/// // Per-predicate latency aggregation over everything served so far.
/// assert_eq!(serving.metrics().len(), 2);
/// ```
pub struct ServingEngine {
    backend: Backend,
    workers: usize,
    /// One running aggregation per predicate kind, in canonical order.
    metrics: Mutex<[KindMetrics; PredicateKind::COUNT]>,
}

/// What a [`ServingEngine`] executes requests against: a static
/// [`SelectionEngine`] (immutable corpus), or a [`LiveEngine`] (each request
/// pins the live engine's current epoch snapshot and fans across its
/// segments).
enum Backend {
    Static(SelectionEngine),
    Live(Arc<LiveEngine>),
}

impl ServingEngine {
    /// Wrap an engine with a fixed worker-pool width (at least 1).
    pub fn new(engine: SelectionEngine, workers: usize) -> Self {
        Self::with_backend(Backend::Static(engine), workers)
    }

    /// Serve a [`LiveEngine`]: requests execute against the epoch snapshot
    /// current when a worker claims them, so a batch served concurrently
    /// with a writer is equivalent to some interleaving of the requests
    /// into the mutation stream — each response carries its epoch in
    /// [`ServeStats::live`]. The engine handle is shared, so the caller
    /// keeps appending/deleting through its own clone.
    pub fn new_live(live: Arc<LiveEngine>, workers: usize) -> Self {
        Self::with_backend(Backend::Live(live), workers)
    }

    fn with_backend(backend: Backend, workers: usize) -> Self {
        ServingEngine {
            backend,
            workers: workers.max(1),
            metrics: Mutex::new(std::array::from_fn(|_| KindMetrics::default())),
        }
    }

    /// The static engine requests execute against (`None` when this serving
    /// engine wraps a [`LiveEngine`] — use [`live`](Self::live) for that
    /// backend).
    pub fn engine(&self) -> Option<&SelectionEngine> {
        match &self.backend {
            Backend::Static(engine) => Some(engine),
            Backend::Live(_) => None,
        }
    }

    /// The live engine requests execute against (`None` for a static
    /// backend).
    pub fn live(&self) -> Option<&Arc<LiveEngine>> {
        match &self.backend {
            Backend::Static(_) => None,
            Backend::Live(live) => Some(live),
        }
    }

    /// Segment layout and mutation counters of the live backend (`None` for
    /// a static backend) — the serving-side surface of
    /// [`LiveEngine::metrics`].
    pub fn live_metrics(&self) -> Option<LiveMetrics> {
        self.live().map(|l| l.metrics())
    }

    /// The configured worker-pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The effective budget of a request: its own override, else the
    /// backend engine's [`crate::Params::budget`].
    fn default_budget(&self) -> ExecBudget {
        match &self.backend {
            Backend::Static(engine) => engine.params().budget,
            Backend::Live(live) => live.params().budget,
        }
    }

    /// Execute a request stream over the worker pool, returning one response
    /// per request **in submission order**. Workers claim requests from a
    /// shared cursor (dynamic load balancing); results are byte-identical to
    /// a serial execution of the same requests in any pool width. The pool
    /// is never wider than the batch, and a pool of one (one worker, or one
    /// request) runs on the calling thread.
    ///
    /// ## Fault isolation
    ///
    /// Each request executes under [`std::panic::catch_unwind`]: a panic
    /// becomes a [`crate::DaspError::Panicked`] response on its own slot
    /// while the pool and every other slot keep working. Workers write
    /// responses into per-slot cells as they go, so even a worker thread
    /// that dies outright (a panic escaping the per-request boundary) loses
    /// only the one request it was serving — the batch loop respawns
    /// replacement workers until the cursor drains, and a claimed slot left
    /// unwritten by a dead worker is reported as `Panicked` rather than
    /// retried (a deterministic panic must not retry forever). On the
    /// calling thread only the per-request boundary applies.
    pub fn serve(&self, requests: &[ServeRequest]) -> Vec<ServeResponse> {
        let n = requests.len();
        if n == 0 {
            return Vec::new();
        }
        let submitted = Instant::now();
        let cursor = AtomicUsize::new(0);
        let pool = self.workers.min(n);
        let slots: Vec<OnceLock<ServeResponse>> = (0..n).map(|_| OnceLock::new()).collect();
        // One worker's claim loop: take the next unclaimed request, serve it
        // under the per-request panic boundary, write its slot.
        let work = |worker: usize| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let queue_wait = submitted.elapsed();
            let response = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.serve_one(&requests[i], queue_wait, worker)
            }))
            .unwrap_or_else(|payload| {
                let panicked = DaspError::Panicked(panic_message(payload.as_ref()));
                respond(Err(panicked), queue_wait, Duration::ZERO, worker)
            });
            let _ = slots[i].set(response);
        };
        if pool == 1 {
            // A one-worker batch runs on the caller thread: spawning a
            // thread to serve it would only add its start-up to every
            // request's latency.
            work(0);
        } else {
            // Respawn rounds: a dead worker has always already claimed its
            // request (the claim is its first operation), so the cursor
            // strictly advances every round and the loop terminates in at
            // most `n` rounds.
            loop {
                std::thread::scope(|scope| {
                    let handles: Vec<_> =
                        (0..pool).map(|worker| scope.spawn(move || work(worker))).collect();
                    // Join explicitly and swallow worker deaths — an Err here
                    // is a panic that escaped the per-request catch; the
                    // claimed slot it abandoned is reported below.
                    for handle in handles {
                        let _ = handle.join();
                    }
                });
                if cursor.load(Ordering::Relaxed) >= n {
                    break;
                }
            }
        }
        let responses: Vec<ServeResponse> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    let died = DaspError::Panicked("worker died while serving this request".into());
                    respond(Err(died), Duration::ZERO, Duration::ZERO, 0)
                })
            })
            .collect();
        // Latency aggregation merges once per batch under one lock: the
        // per-request path takes no shared serving lock (only the engine's
        // own cache lock), so metrics never serialize the worker pool —
        // which matters exactly for the warm-cache microsecond requests a
        // per-request lock would dominate. Only Ok responses are recorded:
        // panicked and shed slots carry no meaningful execution time.
        let mut inner = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for (request, response) in requests.iter().zip(&responses) {
            if response.results.is_ok() {
                inner[request.kind.index()]
                    .record(response.stats.exec_time, response.stats.cache_hit);
            }
        }
        drop(inner);
        responses
    }

    fn serve_one(
        &self,
        request: &ServeRequest,
        queue_wait: Duration,
        worker: usize,
    ) -> ServeResponse {
        let budget = crate::fault::maybe_exhaust_budget(
            "serve.request",
            request.budget.unwrap_or_else(|| self.default_budget()),
        );
        // Admission control: a request whose queue wait already exceeds its
        // deadline could only produce an answer the caller has given up on —
        // shed it with a typed error instead of executing it.
        if let Some(deadline) = budget.deadline {
            if queue_wait > deadline {
                let shed = DaspError::Timeout { waited: queue_wait, deadline };
                return respond(Err(shed), queue_wait, Duration::ZERO, worker);
            }
        }
        relq::fault_point("serve.request");
        let started = Instant::now();
        let (kind, text, exec) = (request.kind, request.text.as_str(), request.exec);
        let outcome = match &self.backend {
            Backend::Static(engine) => {
                engine.predicate(kind).execute_text(text, exec, budget).map(|run| (run, None))
            }
            Backend::Live(live) => live
                .execute_budgeted(kind, text, exec, budget)
                .map(|(run, stats)| (run, Some(stats))),
        };
        respond(outcome, queue_wait, started.elapsed(), worker)
    }

    /// Per-predicate execution-latency aggregation over everything served so
    /// far, in canonical predicate order, skipping kinds with no traffic.
    pub fn metrics(&self) -> Vec<(PredicateKind, LatencyStats)> {
        let inner = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        PredicateKind::all()
            .iter()
            .map(|&kind| (kind, &inner[kind.index()]))
            .filter(|(_, m)| m.count > 0)
            .map(|(kind, m)| (kind, m.stats()))
            .collect()
    }

    /// Drop all accumulated latency samples and counters.
    pub fn reset_metrics(&self) {
        let mut inner = self.metrics.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *inner = std::array::from_fn(|_| KindMetrics::default());
    }
}

/// The one place a [`ServeResponse`] is built: from a backend's outcome, or
/// from the error of a shed, panicked or abandoned request.
fn respond(
    outcome: Result<(BudgetedRun, Option<LiveQueryStats>)>,
    queue_wait: Duration,
    exec_time: Duration,
    worker: usize,
) -> ServeResponse {
    let (results, cache_hit, live, degraded, budget) = match outcome {
        Ok((run, live)) => (Ok(run.results), run.cache_hit, live, run.degraded, run.report),
        Err(e) => (Err(e), false, None, false, None),
    };
    ServeResponse {
        results,
        stats: ServeStats { queue_wait, exec_time, cache_hit, worker, live, degraded, budget },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, TokenizedCorpus};
    use crate::params::Params;
    use std::sync::Arc;

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
            dasp_text::QgramConfig::new(2),
        ));
        SelectionEngine::build(corpus, &Params::default())
    }

    #[test]
    fn live_backend_reports_segment_observability() {
        let params = Params { segment_seal: 16, ..Params::default() };
        let live = Arc::new(crate::live::LiveEngine::from_corpus(
            Corpus::from_strings(vec!["Morgan Stanley Group Inc.", "Beijing Hotel"]),
            &params,
        ));
        let shards = live.metrics().sealed_segments;
        let added = live.append("Morgan Stanley Dean Witter");
        let serving = ServingEngine::new_live(live.clone(), 2);
        assert!(serving.live().is_some());
        let request = ServeRequest::new(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2));
        let responses = serving.serve(&[request.clone(), request]);
        for response in &responses {
            let stats = response.stats.live.expect("live backend attaches segment stats");
            assert_eq!(stats.epoch, live.epoch());
            // Sealed seed shards + one-record tail.
            assert!(stats.cache_hit || stats.segments_probed == shards + 1);
            assert!(stats.tail_hits >= 1, "the appended record is a top-2 hit");
            assert!(
                response.results.as_ref().unwrap().iter().any(|s| s.tid == added),
                "results carry global tids"
            );
        }
        let metrics = serving.live_metrics().expect("live backend exposes segment metrics");
        assert_eq!((metrics.sealed_segments, metrics.tail_len), (shards, 1));
        assert_eq!(metrics.live_records, 3);
    }

    #[test]
    fn sharded_backend_serves_monolith_bytes_for_exact_modes() {
        let params = Params { shards: 3, ..Params::default() };
        let sharded = Arc::new(crate::live::LiveEngine::from_corpus(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Inc.",
                "Morgan Stanle Grop Inc.",
                "Silicon Valley Group, Inc.",
                "Beijing Hotel",
                "Beijing Labs Limited",
                "AT&T Incorporated",
            ]),
            &params,
        ));
        let serving = ServingEngine::new_live(sharded.clone(), 2);
        assert!(serving.engine().is_none());
        let (monolith, _) = sharded.rebuild_monolith();
        let requests = [
            ServeRequest::new(PredicateKind::Bm25, "Morgan Stanley", Exec::Rank),
            ServeRequest::new(PredicateKind::Jaccard, "Beijing Hotel", Exec::Threshold(0.2)),
        ];
        for (response, q) in serving.serve(&requests).iter().zip(&requests) {
            let expected =
                monolith.predicate(q.kind).execute(&monolith.query(&q.text), q.exec).unwrap();
            assert_eq!(response.results.as_ref().unwrap(), &expected, "{:?}", q.kind);
            let stats = response.stats.live.expect("a sharded backend is a live backend");
            assert_eq!(stats.segments_probed, 3, "every shard ran");
        }
    }

    fn mixed_requests() -> Vec<ServeRequest> {
        let mut requests = Vec::new();
        for text in ["Morgan Stanley Group Inc.", "Beijing Hotel", "AT&T Inc."] {
            for kind in [
                PredicateKind::IntersectSize,
                PredicateKind::Cosine,
                PredicateKind::EditSimilarity,
                PredicateKind::SoftTfIdf,
            ] {
                requests.push(ServeRequest::new(kind, text, Exec::TopK(3)));
                requests.push(ServeRequest::new(kind, text, Exec::Rank));
            }
        }
        requests
    }

    #[test]
    fn serve_returns_serial_bytes_in_submission_order() {
        let requests = mixed_requests();
        // Serial reference over a separate engine.
        let reference = engine();
        let expected: Vec<_> = requests
            .iter()
            .map(|r| {
                reference.predicate(r.kind).execute(&reference.query(&r.text), r.exec).unwrap()
            })
            .collect();
        // A fresh engine served with 4 workers: first touches of every lazy
        // artifact happen under concurrency.
        let serving = ServingEngine::new(engine(), 4);
        let responses = serving.serve(&requests);
        assert_eq!(responses.len(), requests.len());
        for (i, (response, expected)) in responses.iter().zip(&expected).enumerate() {
            assert_eq!(
                response.results.as_ref().unwrap(),
                expected,
                "request {i} diverged from the serial run"
            );
            assert!(response.stats.worker < 4);
        }
    }

    #[test]
    fn metrics_aggregate_per_predicate_latency() {
        let serving = ServingEngine::new(engine(), 2);
        let requests = mixed_requests();
        serving.serve(&requests);
        let metrics = serving.metrics();
        assert_eq!(metrics.len(), 4, "one row per predicate kind with traffic");
        let total: usize = metrics.iter().map(|(_, m)| m.count).sum();
        assert_eq!(total, requests.len());
        for (kind, m) in &metrics {
            assert!(m.count > 0, "{kind}: empty metrics row");
            assert!(m.p50 <= m.p95, "{kind}: p50 above p95");
            assert!(m.p95 <= m.max, "{kind}: p95 above max");
            assert!(m.max > Duration::ZERO, "{kind}: zero max latency");
        }
        serving.reset_metrics();
        assert!(serving.metrics().is_empty());
    }

    #[test]
    fn cache_hits_are_reported_per_request() {
        // One worker makes hit attribution deterministic: the second
        // occurrence of an identical request must be served by the cache.
        let serving = ServingEngine::new(engine(), 1);
        let request = ServeRequest::new(PredicateKind::Bm25, "Morgan Stanley", Exec::TopK(2));
        let responses = serving.serve(&[request.clone(), request]);
        assert!(!responses[0].stats.cache_hit);
        assert!(responses[1].stats.cache_hit);
        assert_eq!(responses[0].results.as_ref().unwrap(), responses[1].results.as_ref().unwrap());
        let metrics = serving.metrics();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].1.cache_hits, 1);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let serving = ServingEngine::new(engine(), 0);
        assert_eq!(serving.workers(), 1, "a zero-width pool clamps to one worker");
        assert!(serving.serve(&[]).is_empty());
        // More workers than requests: the pool shrinks to the batch.
        let serving = ServingEngine::new(engine(), 64);
        let responses =
            serving.serve(&[ServeRequest::new(PredicateKind::Jaccard, "Beijing", Exec::Rank)]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].results.is_ok());
    }

    #[test]
    fn one_worker_batch_runs_on_the_caller_and_survives_a_panic() {
        use std::cell::Cell;
        thread_local! {
            static PANIC_HERE: Cell<bool> = const { Cell::new(false) };
        }
        // Panics at the request boundary, but only on a thread that asked
        // for it: the fault fires only if the request runs on this thread.
        fn panic_here(site: &'static str) {
            if site == "serve.request" && PANIC_HERE.with(Cell::get) {
                panic!("injected fault at {site}");
            }
        }
        let serving = ServingEngine::new(engine(), 4);
        let request = ServeRequest::new(PredicateKind::Jaccard, "Beijing Hotel", Exec::Rank);
        relq::set_fault_hook(Some(panic_here));
        PANIC_HERE.with(|p| p.set(true));
        let panicked = serving.serve(std::slice::from_ref(&request));
        PANIC_HERE.with(|p| p.set(false));
        relq::set_fault_hook(None);
        assert!(
            matches!(
                &panicked[0].results,
                Err(crate::error::DaspError::Panicked(m)) if m.contains("injected fault")
            ),
            "{:?}",
            panicked[0].results
        );
        let answered = serving.serve(&[request]);
        assert!(answered[0].results.as_ref().is_ok_and(|r| !r.is_empty()));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&sorted, 0.50), ms(50));
        assert_eq!(percentile(&sorted, 0.95), ms(95));
        assert_eq!(percentile(&sorted, 1.0), ms(100));
        assert_eq!(percentile(&[ms(7)], 0.5), ms(7));
        let mut metrics = KindMetrics::default();
        metrics.record(ms(3), false);
        metrics.record(ms(1), true);
        metrics.record(ms(2), false);
        let stats = metrics.stats();
        assert_eq!(stats.count, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.p50, ms(2));
        assert_eq!(stats.max, ms(3));
        assert_eq!(stats.mean, ms(2));
    }

    #[test]
    fn latency_samples_are_bounded_while_counters_stay_exact() {
        // A long-lived serving engine must hold bounded memory: percentiles
        // come from a sliding window, count/mean/max from exact counters.
        let ms = |n: u64| Duration::from_millis(n);
        let mut metrics = KindMetrics::default();
        // One early outlier, then steady traffic until it rolls out of the
        // window.
        metrics.record(ms(5000), false);
        for _ in 0..LATENCY_WINDOW + 50 {
            metrics.record(ms(2), false);
        }
        assert_eq!(metrics.recent.len(), LATENCY_WINDOW, "window must stay bounded");
        let stats = metrics.stats();
        assert_eq!(stats.count, LATENCY_WINDOW + 51, "count covers all traffic");
        assert_eq!(stats.max, ms(5000), "max survives rolling out of the window");
        assert_eq!(stats.p95, ms(2), "percentiles track the current window");
    }

    #[test]
    fn serving_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServingEngine>();
        assert_send_sync::<ServeRequest>();
        assert_send_sync::<ServeResponse>();
    }
}
