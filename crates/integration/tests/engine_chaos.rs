//! Chaos & degradation tier: budget-bounded execution and panic-isolated
//! serving under deterministic fault injection.
//!
//! Three contracts are enforced differentially:
//!
//! 1. **Anytime answers.** A budget-capped execution returns a *correct
//!    partial* result: a subset of the exact (unbudgeted) `Rank` answer in
//!    which every score is bit-identical to that tuple's exact score —
//!    budgets truncate coverage, never corrupt a score. The same
//!    `(corpus, query, cap)` always yields byte-identical partial results,
//!    and `degraded` is set **iff** the budget actually tripped.
//! 2. **Panic isolation.** Under a seeded [`dasp_core::fault::FaultPlan`]
//!    injecting panics, delays, and forced budget exhaustion into the hot
//!    paths, an 8-thread serving pool must return one response per request:
//!    every faulted slot a clean typed error ([`DaspError::Panicked`] /
//!    [`DaspError::Timeout`]), every degraded slot a flagged anytime
//!    answer, and every untouched slot **bit-identical** to a serial
//!    no-fault reference — including against a [`LiveEngine`] with a racing
//!    appender.
//! 3. **Recovery.** After a batch in which *every* request panicked, the
//!    pool, the engine's lazy artifacts, and its result cache still serve
//!    exact answers.
//!
//! Fault plans and the relq fault hook are process-global, so every test in
//! this binary serializes on [`CHAOS_LOCK`]. CI pins `DASP_FAULT_SEED` so a
//! failing run reproduces exactly.

use dasp_core::fault::{self, FaultPlan};
use dasp_core::serve::{ServeRequest, ServingEngine};
use dasp_core::{
    BudgetedRun, Corpus, DaspError, Exec, ExecBudget, LiveEngine, Params, PredicateKind, ScoredTid,
    Tid,
};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset};
use dasp_datagen::Dataset;
use dasp_eval::{build_engine, sample_query_indices};
use dasp_text::{edit_distance_within, normalize};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Worker threads per chaos pool (the ISSUE's 8-thread requirement).
const THREADS: usize = 8;

/// Default chaos seed when `DASP_FAULT_SEED` is unset.
const DEFAULT_SEED: u64 = 0xC4A05;

/// Process-global serialization: fault plans and the panic hook are
/// process-wide, so chaos scenarios (and the fault-free degradation tests
/// sharing this binary) must not overlap. A poisoned guard is recovered —
/// one failing test must not cascade into every later one.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install a plan with the panic hook silenced (injected panics would spam
/// stderr), run `f`, then restore both no matter how `f` exits.
fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    fault::install(plan);
    let result = f();
    fault::clear();
    let _ = std::panic::take_hook();
    std::panic::set_hook(prev_hook);
    result
}

fn dataset() -> Dataset {
    cu_dataset_sized(cu_spec("CU8").unwrap(), 130, 13)
}

fn seed_corpus(dataset: &Dataset, seed_n: usize) -> Corpus {
    Corpus::from_strings(dataset.records[..seed_n].iter().map(|r| r.text.clone()))
}

fn query_texts(dataset: &Dataset, num: usize, seed: u64) -> Vec<String> {
    sample_query_indices(dataset, num, seed)
        .into_iter()
        .map(|idx| dataset.records[idx].text.clone())
        .collect()
}

fn as_bits(results: &[ScoredTid]) -> Vec<(Tid, u64)> {
    results.iter().map(|s| (s.tid, s.score.to_bits())).collect()
}

/// The five execution modes, with a threshold placed mid-range of the exact
/// ranking so `Threshold` selects a non-trivial subset.
fn modes_for(exact_rank: &[ScoredTid]) -> [Exec; 5] {
    let tau = exact_rank.get(exact_rank.len() / 2).map(|s| s.score).unwrap_or(0.0);
    [Exec::Rank, Exec::TopK(5), Exec::TopKHeap(5), Exec::Threshold(tau), Exec::ThresholdScan(tau)]
}

/// Anytime-answer check: every `(tid, score)` of the partial result exists
/// bit-identically in the exact `Rank` answer, with no duplicate tids.
fn assert_anytime_subset(partial: &[ScoredTid], exact_rank: &[ScoredTid], label: &str) {
    let exact: HashMap<Tid, u64> = exact_rank.iter().map(|s| (s.tid, s.score.to_bits())).collect();
    let mut seen = std::collections::HashSet::new();
    for s in partial {
        assert!(seen.insert(s.tid), "{label}: duplicate tid {} in partial result", s.tid);
        match exact.get(&s.tid) {
            Some(&bits) => assert_eq!(
                s.score.to_bits(),
                bits,
                "{label}: tid {} score diverged from its exact score",
                s.tid
            ),
            None => panic!("{label}: tid {} not in the exact answer at all", s.tid),
        }
    }
}

/// The full chaos request mix: all 13 predicates × query texts × all five
/// modes, each twice (cache hits under chaos too), deterministically
/// shuffled. Also returns the per-request serial expectation and per
/// `(kind, text)` exact rank, computed on `reference` **before** any plan
/// installs.
#[allow(clippy::type_complexity)]
fn chaos_mix(
    reference: &dyn Fn(PredicateKind, &str, Exec) -> Vec<ScoredTid>,
    texts: &[String],
    seed: u64,
) -> (Vec<ServeRequest>, Vec<Vec<ScoredTid>>, HashMap<(PredicateKind, String), Vec<ScoredTid>>) {
    let mut requests = Vec::new();
    let mut ranks = HashMap::new();
    for &kind in PredicateKind::all() {
        for text in texts {
            let rank = reference(kind, text, Exec::Rank);
            for exec in modes_for(&rank) {
                requests.push(ServeRequest::new(kind, text.clone(), exec));
                requests.push(ServeRequest::new(kind, text.clone(), exec));
            }
            ranks.insert((kind, text.clone()), rank);
        }
    }
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED));
    let requests: Vec<ServeRequest> = order.iter().map(|&i| requests[i].clone()).collect();
    let expected = requests.iter().map(|r| reference(r.kind, &r.text, r.exec)).collect::<Vec<_>>();
    (requests, expected, ranks)
}

// ---------------------------------------------------------------------------
// Degradation determinism (no faults involved)
// ---------------------------------------------------------------------------

/// Run `run` twice under each cap and check the degradation contract: the
/// two runs agree byte for byte, bypass the result cache, score at most
/// `cap` candidates and return an anytime subset of `exact_rank`; an
/// untripped run returns the bytes of `exact`, and the generous cap never
/// trips.
fn assert_capped_runs_degrade_deterministically(
    label: &str,
    exact_rank: &[ScoredTid],
    exact: &[ScoredTid],
    run: impl Fn(ExecBudget) -> BudgetedRun,
) {
    for cap in [0usize, 1, 3, 17, 1_000_000] {
        let budget = ExecBudget { max_candidates: Some(cap), ..ExecBudget::default() };
        let (a, b) = (run(budget), run(budget));
        let label = format!("{label}/cap={cap}");
        assert_eq!(
            as_bits(&a.results),
            as_bits(&b.results),
            "{label}: partial bytes are nondeterministic"
        );
        assert_eq!(a.degraded, b.degraded, "{label}: degraded flag unstable");
        assert!(!a.cache_hit && !b.cache_hit, "{label}: capped runs must bypass the result cache");
        let report = a.report.expect("{label}: capped runs report accounting");
        assert!(
            report.candidates_scored <= cap as u64,
            "{label}: scored {} candidates past the cap",
            report.candidates_scored
        );
        assert_anytime_subset(&a.results, exact_rank, &label);
        if !a.degraded {
            assert_eq!(
                as_bits(&a.results),
                as_bits(exact),
                "{label}: untripped budget must return the exact answer"
            );
        }
        if cap == 1_000_000 {
            assert!(!a.degraded, "{label}: generous budget must never degrade");
        }
    }
}

#[test]
fn degraded_results_are_deterministic_anytime_answers() {
    let _guard = serialize();
    let dataset = dataset();
    let engine = build_engine(&dataset, &Params::default());
    let texts = query_texts(&dataset, 2, 0xD15C);
    for &kind in PredicateKind::all() {
        let handle = engine.predicate(kind);
        for text in &texts {
            let query = engine.query(text);
            let exact_rank = handle.execute(&query, Exec::Rank).unwrap();
            for exec in modes_for(&exact_rank) {
                let exact = handle.execute(&query, exec).unwrap();
                let label = format!("{kind}/{exec:?}");
                assert_capped_runs_degrade_deterministically(
                    &label,
                    &exact_rank,
                    &exact,
                    |budget| handle.execute_budgeted(&query, exec, budget).unwrap(),
                );
            }
        }
    }
}

/// The same contract through a [`LiveEngine`] split into tid-range shards: a
/// capped run shares one budget across the shards and runs them in order,
/// so its cut is byte-reproducible too. Two shards by default; CI's
/// `DASP_SHARDS=3` leg fans three ways.
#[test]
fn degraded_sharded_results_are_deterministic_anytime_answers() {
    let _guard = serialize();
    let dataset = dataset();
    let params = Params { shards: 2, ..Params::default() };
    let sharded = LiveEngine::from_corpus(seed_corpus(&dataset, dataset.records.len()), &params);
    assert!(sharded.metrics().sealed_segments >= 2, "the case must fan");
    let texts = query_texts(&dataset, 2, 0xD15C);
    for &kind in PredicateKind::all() {
        for text in &texts {
            let exact_rank = sharded.execute(kind, text, Exec::Rank).unwrap();
            for exec in modes_for(&exact_rank) {
                let exact = sharded.execute(kind, text, exec).unwrap();
                assert_capped_runs_degrade_deterministically(
                    &format!("sharded {kind}/{exec:?}"),
                    &exact_rank,
                    &exact,
                    |budget| sharded.execute_budgeted(kind, text, exec, budget).unwrap().0,
                );
            }
        }
    }
}

#[test]
fn expired_deadline_degrades_to_an_empty_anytime_answer() {
    let _guard = serialize();
    let dataset = dataset();
    let engine = build_engine(&dataset, &Params::default());
    let text = &query_texts(&dataset, 1, 0xDEAD)[0];
    let budget = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
    for &kind in PredicateKind::all() {
        let handle = engine.predicate(kind);
        let query = engine.query(text);
        let exact_rank = handle.execute(&query, Exec::Rank).unwrap();
        if exact_rank.is_empty() {
            continue;
        }
        for exec in modes_for(&exact_rank) {
            let run = handle.execute_budgeted(&query, exec, budget).unwrap();
            assert!(run.degraded, "{kind}/{exec:?}: expired deadline must trip the budget");
            assert!(
                run.results.is_empty(),
                "{kind}/{exec:?}: the first candidate charge must already refuse"
            );
            assert_eq!(run.report.expect("report").candidates_scored, 0);
        }
    }
}

/// A 5,000-byte query over a DBLP-like corpus: every seventh title, padded
/// with blanks.
fn long_query(dataset: &Dataset, bytes: usize) -> String {
    let mut text = String::new();
    for record in dataset.records.iter().step_by(7) {
        if text.len() + record.text.len() >= bytes {
            break;
        }
        text.push_str(&record.text);
        text.push(' ');
    }
    text.push_str(&" ".repeat(bytes - text.len()));
    text
}

/// A 5,000-byte GES_Jaccard query over 20k DBLP-like titles. Its filter
/// estimate polls the deadline once per query word, so a 50 ms deadline
/// ends the request far inside a second, flagged `degraded` exactly when it
/// cut the work short; an already-expired deadline stops it at the first
/// query word with an empty, degraded answer.
#[test]
fn ges_filter_polls_the_deadline_per_query_word() {
    let _guard = serialize();
    let dataset = dblp_dataset(20_000);
    let engine = build_engine(&dataset, &Params::default());
    let handle = engine.predicate(PredicateKind::GesJaccard);
    // Warm the filter's lazy word → record index.
    handle.execute(&engine.query(&dataset.records[0].text), Exec::Rank).unwrap();
    let query = engine.query(&long_query(&dataset, 5_000));

    let deadline = Duration::from_millis(50);
    let budget = ExecBudget { deadline: Some(deadline), ..ExecBudget::default() };
    let start = std::time::Instant::now();
    let run = handle.execute_budgeted(&query, Exec::TopK(10), budget).unwrap();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(1), "a 50 ms deadline ran {elapsed:?}");
    let report = run.report.expect("a capped run reports");
    if run.degraded {
        assert!(report.elapsed >= deadline, "degraded before the deadline: {report:?}");
        if !run.results.is_empty() {
            let exact = handle.execute(&query, Exec::Rank).unwrap();
            assert_anytime_subset(&run.results, &exact, "GES_Jaccard 5,000-byte query");
        }
    } else {
        let exact = handle.execute(&query, Exec::TopK(10)).unwrap();
        assert_eq!(as_bits(&run.results), as_bits(&exact), "an untripped run must be exact");
    }

    let expired = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
    let run = handle.execute_budgeted(&query, Exec::TopK(10), expired).unwrap();
    assert!(run.degraded && run.results.is_empty(), "expired deadline: {run:?}");
    assert_eq!(run.report.expect("a capped run reports").candidates_scored, 0);
}

/// SoftTFIDF's `CLOSE` product (Jaro-Winkler of every vocabulary word
/// against every query word) charges nothing, so it polls the deadline
/// itself, every 64 vocabulary words or every 1,024 word pairs, whichever
/// comes first: a 5,000-byte query over the 20k DBLP-like vocabulary, which
/// runs for seconds unbudgeted, returns the empty degraded answer within
/// twice a 50 ms deadline, and an expired deadline stops it before the
/// first word.
#[test]
fn soft_tfidf_polls_the_deadline_inside_the_vocabulary_product() {
    let _guard = serialize();
    let dataset = dblp_dataset(20_000);
    let engine = build_engine(&dataset, &Params::default());
    let handle = engine.predicate(PredicateKind::SoftTfIdf);
    let query = engine.query(&long_query(&dataset, 5_000));

    let deadline = Duration::from_millis(50);
    let budget = ExecBudget { deadline: Some(deadline), ..ExecBudget::default() };
    let start = std::time::Instant::now();
    let run = handle.execute_budgeted(&query, Exec::TopK(10), budget).unwrap();
    let elapsed = start.elapsed();
    assert!(run.degraded, "the product finished inside 50 ms: {run:?}");
    assert!(run.results.is_empty(), "a cut product scores nothing: {run:?}");
    assert!(elapsed < 2 * deadline, "a 50 ms deadline ran {elapsed:?}");

    let expired = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
    let run = handle.execute_budgeted(&query, Exec::TopK(10), expired).unwrap();
    assert!(run.degraded && run.results.is_empty(), "expired deadline: {run:?}");
    assert_eq!(run.report.expect("a capped run reports").candidates_scored, 0);
}

/// One record's GES dynamic program against a 100 KB query takes
/// milliseconds, so the every-64th-charge deadline poll would overrun a
/// deadline by dozens of records: GES polls the deadline after its scorer
/// setup and, for a query that long, before every record. A 50 ms deadline
/// over 20k DBLP-like titles returns within twice the deadline plus one
/// record's work, degraded; an already-expired deadline returns the empty,
/// degraded answer before any record.
#[test]
fn ges_polls_the_deadline_per_record_of_a_long_query() {
    let _guard = serialize();
    let dataset = dblp_dataset(20_000);
    let engine = build_engine(&dataset, &Params::default());
    let handle = engine.predicate(PredicateKind::Ges);
    let query = engine.query(&long_query(&dataset, 100_000));

    // One record's work, scorer setup included: a run capped at one record.
    let one = ExecBudget { max_candidates: Some(1), ..ExecBudget::default() };
    let start = std::time::Instant::now();
    let run = handle.execute_budgeted(&query, Exec::TopK(10), one).unwrap();
    let one_record = start.elapsed();
    assert!(run.degraded, "one record is not the whole corpus: {run:?}");

    let deadline = Duration::from_millis(50);
    let budget = ExecBudget { deadline: Some(deadline), ..ExecBudget::default() };
    let start = std::time::Instant::now();
    let run = handle.execute_budgeted(&query, Exec::TopK(10), budget).unwrap();
    let elapsed = start.elapsed();
    assert!(run.degraded, "20k records finished inside 50 ms: {run:?}");
    assert!(
        elapsed < 2 * deadline + one_record,
        "a 50 ms deadline ran {elapsed:?} (one record: {one_record:?})"
    );

    let expired = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
    let run = handle.execute_budgeted(&query, Exec::TopK(10), expired).unwrap();
    assert!(run.degraded && run.results.is_empty(), "expired deadline: {run:?}");
    assert_eq!(run.report.expect("a capped run reports").candidates_scored, 0);
}

/// The edit predicate's q-gram count filter is a relq aggregation over the
/// query's q-grams that scores no candidate: it runs under the request's
/// deadline, polled once per probed q-gram, and a filter cut short returns
/// no candidates. 5,000-byte and 100 KB queries over 20k DBLP-like titles,
/// whose filters run past a 50 ms deadline, return degraded within twice
/// the deadline plus one candidate's verification; an already-expired
/// deadline returns the empty, degraded answer without charging a
/// candidate.
#[test]
fn edit_count_filter_polls_the_deadline_per_probed_gram() {
    let _guard = serialize();
    let dataset = dblp_dataset(20_000);
    let engine = build_engine(&dataset, &Params::default());
    let handle = engine.predicate(PredicateKind::EditSimilarity);
    // Warm the shared tables the count filter probes.
    handle.execute(&engine.query(&dataset.records[0].text), Exec::Rank).unwrap();
    let theta = Params::default().edit.filter_threshold;
    let deadline = Duration::from_millis(50);
    for bytes in [5_000, 100_000] {
        let query = engine.query(&long_query(&dataset, bytes));
        // One candidate's verification: the banded edit distance against
        // the longest record, at the filter threshold's band.
        let record = dataset.records.iter().map(|r| normalize(&r.text)).max_by_key(|r| r.len());
        let record = record.expect("a non-empty corpus");
        let max_len = query.norm().chars().count().max(record.chars().count());
        let band = ((1.0 - theta) * max_len as f64).floor() as usize;
        let start = std::time::Instant::now();
        edit_distance_within(query.norm(), &record, band);
        let one_candidate = start.elapsed();

        let budget = ExecBudget { deadline: Some(deadline), ..ExecBudget::default() };
        let start = std::time::Instant::now();
        let run = handle.execute_budgeted(&query, Exec::TopK(10), budget).unwrap();
        let elapsed = start.elapsed();
        assert!(run.degraded, "{bytes}-byte filter finished inside 50 ms: {run:?}");
        assert!(
            elapsed < 2 * deadline + one_candidate,
            "{bytes} bytes: a 50 ms deadline ran {elapsed:?} (one candidate: {one_candidate:?})"
        );
        let exact = handle.execute(&query, Exec::Rank).unwrap();
        assert_anytime_subset(&run.results, &exact, &format!("edit {bytes}-byte query"));

        let expired = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
        let run = handle.execute_budgeted(&query, Exec::TopK(10), expired).unwrap();
        assert!(run.degraded && run.results.is_empty(), "{bytes} bytes, expired: {run:?}");
        assert_eq!(run.report.expect("a capped run reports").candidates_scored, 0);
    }
}

#[test]
fn tight_budget_never_corrupts_exact_paths() {
    let _guard = serialize();
    let dataset = dataset();
    let engine = build_engine(&dataset, &Params::default());
    let reference = build_engine(&dataset, &Params::default());
    let texts = query_texts(&dataset, 2, 0xBEEF);
    let tight = ExecBudget { max_candidates: Some(2), ..ExecBudget::default() };
    for &kind in PredicateKind::all() {
        let handle = engine.predicate(kind);
        for text in &texts {
            let query = engine.query(text);
            let exact_rank = reference.predicate(kind).execute(&reference.query(text), Exec::Rank);
            let exact_rank = exact_rank.unwrap();
            for exec in modes_for(&exact_rank) {
                let exact =
                    reference.predicate(kind).execute(&reference.query(text), exec).unwrap();
                let label = format!("{kind}/{exec:?}");
                // Warm the cache with the unbudgeted answer …
                let full = handle.execute(&query, exec).unwrap();
                assert_eq!(as_bits(&full), as_bits(&exact), "{label}: full run diverged");
                // … the tight budget must not be served from it …
                let run = handle.execute_budgeted(&query, exec, tight).unwrap();
                assert!(!run.cache_hit, "{label}: budgeted run served from cache");
                assert_anytime_subset(&run.results, &exact_rank, &label);
                if !run.degraded {
                    assert_eq!(as_bits(&run.results), as_bits(&exact), "{label}");
                }
                // … and must not have polluted it for exact execution.
                let again = handle.execute(&query, exec).unwrap();
                assert_eq!(
                    as_bits(&again),
                    as_bits(&exact),
                    "{label}: exact path corrupted after a budgeted run"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Serving-layer budget plumbing and admission control (no injected faults)
// ---------------------------------------------------------------------------

#[test]
fn serving_flags_budgeted_partial_results_per_request() {
    let _guard = serialize();
    let dataset = dataset();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), THREADS);
    assert!(serving.engine().is_some(), "static backend exposes its engine");
    let reference = build_engine(&dataset, &Params::default());
    let text = &query_texts(&dataset, 1, 0x51AB)[0];
    let exact_rank =
        reference.predicate(PredicateKind::Cosine).execute(&reference.query(text), Exec::Rank);
    let exact_rank = exact_rank.unwrap();
    assert!(exact_rank.len() > 2, "query must have enough candidates to truncate");
    let capped = ExecBudget { max_candidates: Some(1), ..ExecBudget::default() };
    let requests = vec![
        ServeRequest::new(PredicateKind::Cosine, text.clone(), Exec::Rank).with_budget(capped),
        ServeRequest::new(PredicateKind::Cosine, text.clone(), Exec::Rank),
    ];
    let responses = serving.serve(&requests);
    // The capped request: flagged, reported, a correct anytime answer.
    let degraded = &responses[0];
    assert!(degraded.stats.degraded);
    let report = degraded.stats.budget.expect("capped request reports accounting");
    assert!(report.candidates_scored <= 1);
    assert_anytime_subset(degraded.results.as_ref().unwrap(), &exact_rank, "capped serve");
    // The unbudgeted request on the same engine: exact, unflagged.
    let clean = &responses[1];
    assert!(!clean.stats.degraded);
    assert!(clean.stats.budget.is_none());
    assert_eq!(as_bits(clean.results.as_ref().unwrap()), as_bits(&exact_rank));
}

#[test]
fn admission_control_sheds_requests_past_their_deadline() {
    let _guard = serialize();
    let dataset = dataset();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), 2);
    let text = &query_texts(&dataset, 1, 0x7133)[0];
    // A deadline of zero is always already exceeded by the time a worker
    // claims the request: shed with the typed error, never executed.
    let expired = ExecBudget { deadline: Some(Duration::ZERO), ..ExecBudget::default() };
    let requests = vec![
        ServeRequest::new(PredicateKind::Bm25, text.clone(), Exec::Rank).with_budget(expired),
        ServeRequest::new(PredicateKind::Bm25, text.clone(), Exec::Rank),
    ];
    let responses = serving.serve(&requests);
    match responses[0].results.as_ref() {
        Err(DaspError::Timeout { waited, deadline }) => {
            assert!(*waited > *deadline);
            assert_eq!(*deadline, Duration::ZERO);
        }
        other => panic!("expected a Timeout shed, got {other:?}"),
    }
    assert_eq!(responses[0].stats.exec_time, Duration::ZERO, "shed requests never execute");
    assert!(responses[1].results.is_ok(), "deadline-free request is unaffected");
    // Shed requests are excluded from latency metrics.
    let total: usize = serving.metrics().iter().map(|(_, m)| m.count).sum();
    assert_eq!(total, 1);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

#[test]
fn every_request_panicking_leaves_pool_and_engine_healthy() {
    let _guard = serialize();
    let dataset = dataset();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), THREADS);
    let reference = build_engine(&dataset, &Params::default());
    let texts = query_texts(&dataset, 1, 0x9A51);
    let reference_run = |kind: PredicateKind, text: &str, exec: Exec| {
        reference.predicate(kind).execute(&reference.query(text), exec).unwrap()
    };
    let (requests, expected, _) = chaos_mix(&reference_run, &texts, 0x9A51);
    let seed = fault::seed_from_env_or(DEFAULT_SEED);
    // Rate 1.0: the very first fault site of every request (the serving
    // boundary) panics — deterministically, every slot faults.
    let responses =
        with_plan(FaultPlan::new(seed).with_panic_rate(1.0), || serving.serve(&requests));
    assert_eq!(responses.len(), requests.len(), "the pool must not lose slots");
    for response in &responses {
        match response.results.as_ref() {
            Err(DaspError::Panicked(msg)) => {
                assert!(msg.contains("injected fault"), "unexpected panic payload: {msg}")
            }
            other => panic!("expected every slot Panicked, got {other:?}"),
        }
        assert!(!response.stats.degraded);
    }
    assert_eq!(fault::stats().panics, requests.len() as u64);
    assert!(serving.metrics().is_empty(), "panicked slots must not pollute latency metrics");
    // The pool, the engine's lazy artifacts and its result cache all
    // recover: the same batch now returns the serial no-fault bytes.
    let responses = serving.serve(&requests);
    for (i, (response, expected)) in responses.iter().zip(&expected).enumerate() {
        assert_eq!(
            as_bits(response.results.as_ref().unwrap()),
            as_bits(expected),
            "request {i} diverged after recovery"
        );
    }
    let total: usize = serving.metrics().iter().map(|(_, m)| m.count).sum();
    assert_eq!(total, requests.len());
}

#[test]
fn forced_exhaustion_degrades_without_corruption() {
    let _guard = serialize();
    let dataset = dataset();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), THREADS);
    let reference = build_engine(&dataset, &Params::default());
    let texts = query_texts(&dataset, 2, 0xE4A);
    let reference_run = |kind: PredicateKind, text: &str, exec: Exec| {
        reference.predicate(kind).execute(&reference.query(text), exec).unwrap()
    };
    let (requests, expected, ranks) = chaos_mix(&reference_run, &texts, 0xE4A);
    let seed = fault::seed_from_env_or(DEFAULT_SEED);
    // Exhaust every request's budget: all slots stay Ok, results degrade to
    // anytime answers, nothing corrupts.
    let responses =
        with_plan(FaultPlan::new(seed).with_exhaust_rate(1.0), || serving.serve(&requests));
    assert_eq!(fault::stats().exhausts, requests.len() as u64);
    let mut degraded = 0usize;
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        let results = response
            .results
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i}: forced exhaustion must not error, got {e:?}"));
        let rank = &ranks[&(request.kind, request.text.clone())];
        if response.stats.degraded {
            degraded += 1;
            assert_anytime_subset(results, rank, &format!("request {i}"));
            assert!(response.stats.budget.is_some());
        } else {
            assert_eq!(as_bits(results), as_bits(&expected[i]), "request {i}");
        }
    }
    assert!(degraded > 0, "a one-candidate budget must degrade some requests");
    // The engine still serves exact answers afterwards.
    let responses = serving.serve(&requests);
    for (i, (response, expected)) in responses.iter().zip(&expected).enumerate() {
        assert_eq!(as_bits(response.results.as_ref().unwrap()), as_bits(expected), "request {i}");
    }
}

#[test]
fn chaos_static_pool_under_mixed_faults() {
    let _guard = serialize();
    let dataset = dataset();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), THREADS);
    let reference = build_engine(&dataset, &Params::default());
    let texts = query_texts(&dataset, 2, 0xFA17);
    let reference_run = |kind: PredicateKind, text: &str, exec: Exec| {
        reference.predicate(kind).execute(&reference.query(text), exec).unwrap()
    };
    let (requests, expected, ranks) = chaos_mix(&reference_run, &texts, 0xFA17);
    let seed = fault::seed_from_env_or(DEFAULT_SEED);
    let plan = FaultPlan::new(seed)
        .with_panic_rate(0.002)
        .with_delay(0.002, Duration::from_micros(50))
        .with_exhaust_rate(0.25);
    let responses = with_plan(plan, || serving.serve(&requests));
    let stats = fault::stats();
    assert_eq!(responses.len(), requests.len(), "the pool must not lose or hang slots");
    assert!(stats.evaluations > 0, "the plan was never consulted");
    let (mut panicked, mut degraded, mut clean) = (0usize, 0usize, 0usize);
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        match response.results.as_ref() {
            Err(DaspError::Panicked(msg)) => {
                panicked += 1;
                assert!(msg.contains("injected fault") || msg.contains("worker died"), "{msg}");
            }
            Err(other) => panic!("request {i}: unexpected error kind {other:?}"),
            Ok(results) => {
                let rank = &ranks[&(request.kind, request.text.clone())];
                if response.stats.degraded {
                    degraded += 1;
                    assert_anytime_subset(results, rank, &format!("request {i}"));
                } else {
                    clean += 1;
                    assert_eq!(
                        as_bits(results),
                        as_bits(&expected[i]),
                        "request {i} ({}/{:?}): non-faulted response diverged from the \
                         serial no-fault reference",
                        request.kind,
                        request.exec
                    );
                }
            }
        }
    }
    // The mix genuinely exercised all three outcomes (expected counts are
    // far from zero at these rates; the draws are seeded).
    assert!(panicked > 0, "no panics were injected");
    assert!(degraded > 0, "no budgets were exhausted");
    assert!(clean > 0, "no request survived unfaulted");
    assert_eq!(panicked as u64, stats.panics, "every injected panic is one typed error");
}

#[test]
fn chaos_live_pool_with_racing_appender() {
    let _guard = serialize();
    let dataset = dataset();
    let seed_n = 120;
    let params = Params { segment_seal: 5, ..Params::default() };
    let appended: Vec<String> = dataset.records[seed_n..].iter().map(|r| r.text.clone()).collect();
    let live = Arc::new(LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &params));
    let serving = ServingEngine::new_live(live.clone(), THREADS);
    assert!(serving.engine().is_none(), "live backend has no static engine");
    let texts = query_texts(&dataset, 2, 0x11FE);
    let mut requests = Vec::new();
    for &kind in PredicateKind::all() {
        for text in &texts {
            for exec in [
                Exec::Rank,
                Exec::TopK(5),
                Exec::TopKHeap(5),
                Exec::Threshold(0.25),
                Exec::ThresholdScan(0.25),
            ] {
                requests.push(ServeRequest::new(kind, text.clone(), exec));
                requests.push(ServeRequest::new(kind, text.clone(), exec));
            }
        }
    }
    requests.shuffle(&mut StdRng::seed_from_u64(0x11FE ^ 0x5EED));
    let seed = fault::seed_from_env_or(DEFAULT_SEED) ^ 1;
    let plan = FaultPlan::new(seed)
        .with_panic_rate(0.002)
        .with_delay(0.002, Duration::from_micros(50))
        .with_exhaust_rate(0.25);
    let responses = with_plan(plan, || {
        std::thread::scope(|scope| {
            let writer = {
                let live = live.clone();
                let appended = appended.clone();
                scope.spawn(move || {
                    for text in appended {
                        live.append(text);
                        std::thread::yield_now();
                    }
                })
            };
            let responses = serving.serve(&requests);
            writer.join().expect("the racing appender must never be harmed by faults");
            responses
        })
    });
    assert_eq!(responses.len(), requests.len());
    assert_eq!(live.epoch(), appended.len() as u64, "every append landed");
    // Per-epoch replicas (same seed corpus + the first e appends) are
    // bit-identical references for the snapshot each response pinned —
    // built after the plan cleared, so they are fault-free.
    let mut replicas: HashMap<u64, LiveEngine> = HashMap::new();
    let (mut panicked, mut degraded, mut clean) = (0usize, 0usize, 0usize);
    for (i, (request, response)) in requests.iter().zip(&responses).enumerate() {
        match response.results.as_ref() {
            Err(DaspError::Panicked(msg)) => {
                panicked += 1;
                assert!(msg.contains("injected fault") || msg.contains("worker died"), "{msg}");
            }
            Err(other) => panic!("request {i}: unexpected error kind {other:?}"),
            Ok(results) => {
                let stats = response.stats.live.expect("live responses carry segment stats");
                assert!(stats.epoch <= appended.len() as u64);
                let replica = replicas.entry(stats.epoch).or_insert_with(|| {
                    let replica = LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &params);
                    for text in &appended[..stats.epoch as usize] {
                        replica.append(text.clone());
                    }
                    replica
                });
                let label =
                    format!("request {i} ({}/{:?}@{})", request.kind, request.exec, stats.epoch);
                if response.stats.degraded {
                    degraded += 1;
                    let rank = replica.execute(request.kind, &request.text, Exec::Rank).unwrap();
                    assert_anytime_subset(results, &rank, &label);
                } else {
                    clean += 1;
                    let exact = replica.execute(request.kind, &request.text, request.exec).unwrap();
                    assert_eq!(
                        as_bits(results),
                        as_bits(&exact),
                        "{label}: diverged from the epoch's fault-free replica"
                    );
                }
            }
        }
    }
    assert!(panicked > 0, "no panics were injected");
    assert!(degraded > 0, "no budgets were exhausted");
    assert!(clean > 0, "no request survived unfaulted");
}
