//! Concurrency differential tier: N threads hammer one shared
//! `SelectionEngine` with a deterministically shuffled mix of all 13
//! predicates × every `Exec` mode over seeded `dasp-datagen` corpora, and
//! every result must be **byte-identical** to a serial single-threaded run
//! of the same requests.
//!
//! The engines under concurrent load are always *fresh* — no predicate
//! handle resolved, no shared artifact materialized — and every worker
//! thread is spawned before the first execution, so the first touches of
//! every lazy `OnceLock` artifact (the six shared tables, the posting
//! indexes, the normalized strings, the word views, the per-kind phase-2
//! handles) race each other across threads. Whoever wins must build the
//! same bytes the serial run built.
//!
//! Determinism is what makes the differential meaningful: executions have no
//! randomness, artifacts are immutable once built, and the result cache
//! returns the exact bytes a re-execution would produce — so any divergence
//! observed here is a real race.

use dasp_core::serve::{ServeRequest, ServingEngine};
use dasp_core::{Exec, Params, PredicateKind, ScoredTid};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset, f_dataset_sized, f_spec};
use dasp_datagen::Dataset;
use dasp_eval::{build_engine, sample_query_indices};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads per concurrent run. The box may grant fewer cores; the
/// differential does not depend on true parallelism, only on interleaving
/// (and the release-mode CI job runs it with realistic timing).
const THREADS: usize = 8;

/// One request of the differential stream.
type Request = (PredicateKind, String, Exec);

/// Build the request mix over a dataset — all 13 predicates × all five
/// `Exec` modes × sampled query strings, each request twice (so the shared
/// result cache serves concurrent hits too) — plus the serial expectation
/// for every request, computed on a dedicated single-threaded engine.
fn requests_and_serial_results(
    dataset: &Dataset,
    num_queries: usize,
    seed: u64,
) -> (Vec<Request>, Vec<Vec<ScoredTid>>) {
    let serial = build_engine(dataset, &Params::default());
    let indices = sample_query_indices(dataset, num_queries, seed);
    let mut requests = Vec::new();
    for &kind in PredicateKind::all() {
        let handle = serial.predicate(kind);
        for &idx in &indices {
            let text = &dataset.records[idx].text;
            let query = serial.query(text);
            let ranked = handle.execute(&query, Exec::Rank).unwrap();
            // A threshold in the middle of this (kind, query)'s score range,
            // so the Threshold mode selects a non-trivial subset.
            let tau = ranked.get(ranked.len() / 2).map(|s| s.score).unwrap_or(0.0);
            for exec in [
                Exec::Rank,
                Exec::TopK(7),
                Exec::TopKHeap(7),
                Exec::Threshold(tau),
                Exec::ThresholdScan(tau),
            ] {
                requests.push((kind, text.clone(), exec));
                requests.push((kind, text.clone(), exec));
            }
        }
    }
    // Deterministic shuffle: the stream interleaves kinds, modes and
    // duplicates arbitrarily, so no artifact is warmed by a predictable
    // predicate order.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5EED));
    let requests: Vec<_> = order.iter().map(|&i| requests[i].clone()).collect();
    let expected = requests
        .iter()
        .map(|(kind, text, exec)| {
            serial.predicate(*kind).execute(&serial.query(text), *exec).unwrap()
        })
        .collect();
    (requests, expected)
}

/// Run the request stream over a **fresh** engine with `THREADS` workers
/// pulling from a shared cursor; threads start before any artifact exists.
fn run_concurrent(dataset: &Dataset, requests: &[Request]) -> Vec<Vec<ScoredTid>> {
    let engine = build_engine(dataset, &Params::default());
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<Vec<ScoredTid>>> = vec![None; requests.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = engine.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut served = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= requests.len() {
                            break;
                        }
                        let (kind, text, exec) = &requests[i];
                        // First touches of phase-2 handles and shared
                        // artifacts race right here.
                        let handle = engine.predicate(*kind);
                        let query = engine.query(text);
                        served.push((i, handle.execute(&query, *exec).unwrap()));
                    }
                    served
                })
            })
            .collect();
        for handle in handles {
            for (i, results) in handle.join().expect("worker panicked") {
                out[i] = Some(results);
            }
        }
    });
    out.into_iter().map(|slot| slot.expect("every request served")).collect()
}

fn assert_identical(
    concurrent: &[Vec<ScoredTid>],
    expected: &[Vec<ScoredTid>],
    requests: &[Request],
    label: &str,
) {
    for (i, ((concurrent, expected), (kind, _, exec))) in
        concurrent.iter().zip(expected).zip(requests).enumerate()
    {
        assert_eq!(
            concurrent.len(),
            expected.len(),
            "{label}/{kind}/{exec:?}: request {i} returned a different size under concurrency"
        );
        for (a, b) in concurrent.iter().zip(expected) {
            assert_eq!(
                (a.tid, a.score.to_bits()),
                (b.tid, b.score.to_bits()),
                "{label}/{kind}/{exec:?}: request {i} diverged from the serial run"
            );
        }
    }
}

fn assert_concurrent_equals_serial(dataset: &Dataset, label: &str) {
    let (requests, expected) = requests_and_serial_results(dataset, 3, 0xC0_FFEE);
    let concurrent = run_concurrent(dataset, &requests);
    assert_identical(&concurrent, &expected, &requests, label);
}

#[test]
fn concurrent_execution_is_byte_identical_on_company_names() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 200, 20);
    assert_concurrent_equals_serial(&dataset, "CU2");
}

#[test]
fn concurrent_execution_is_byte_identical_on_abbreviation_errors() {
    let dataset = f_dataset_sized(f_spec("F1").unwrap(), 170, 17);
    assert_concurrent_equals_serial(&dataset, "F1");
}

#[test]
fn concurrent_execution_is_byte_identical_on_dblp_titles() {
    let dataset = dblp_dataset(170);
    assert_concurrent_equals_serial(&dataset, "DBLP");
}

#[test]
fn serving_engine_matches_the_serial_run_on_a_fresh_engine() {
    // The same differential through the serving layer: a fresh engine, the
    // pool spawned before any artifact exists, responses in submission
    // order. Per-request accounting must be populated and every request
    // attributed to a pool worker.
    let dataset = cu_dataset_sized(cu_spec("CU6").unwrap(), 160, 16);
    let (requests, expected) = requests_and_serial_results(&dataset, 2, 0xBEEF);
    let serve_requests: Vec<ServeRequest> = requests
        .iter()
        .map(|(kind, text, exec)| ServeRequest::new(*kind, text.clone(), *exec))
        .collect();
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), THREADS);
    let responses = serving.serve(&serve_requests);
    let results: Vec<Vec<ScoredTid>> =
        responses.iter().map(|r| r.results.as_ref().unwrap().clone()).collect();
    assert_identical(&results, &expected, &requests, "CU6/serving");
    for response in &responses {
        assert!(response.stats.worker < THREADS);
    }
    // Every duplicated request was served, and the second copy of each can
    // be a cache hit; the latency aggregation saw all traffic.
    let metrics = serving.metrics();
    assert_eq!(metrics.iter().map(|(_, m)| m.count).sum::<usize>(), requests.len());
    assert_eq!(metrics.len(), PredicateKind::all().len(), "every kind saw traffic");
}

#[test]
fn concurrent_misses_of_one_key_execute_it_once() {
    // The `examples/concurrent_search.rs` stream: five kinds, every 4th
    // request a verbatim repeat of the one three places earlier, so four
    // workers often pick up a repeat while its original is still running.
    // The second miss of a key parks on the first (single flight): the
    // engine executes each distinct key exactly once, and the repeat gets
    // the original's bytes.
    let dataset = dblp_dataset(2000);
    let kinds = [
        PredicateKind::IntersectSize,
        PredicateKind::Cosine,
        PredicateKind::Bm25,
        PredicateKind::Hmm,
        PredicateKind::EditSimilarity,
    ];
    let requests: Vec<ServeRequest> = (0..120)
        .map(|i| {
            let j = if i % 4 == 3 { i - 3 } else { i };
            let text = &dataset.records[(j * 17) % dataset.len()].text;
            ServeRequest::new(kinds[j % kinds.len()], text.clone(), Exec::TopK(10))
        })
        .collect();
    let engine = build_engine(&dataset, &Params::default());
    let serving = ServingEngine::new(engine.clone(), 4);
    let responses = serving.serve(&requests);
    for (i, response) in responses.iter().enumerate().filter(|(i, _)| i % 4 == 3) {
        let original = responses[i - 3].results.as_ref().unwrap();
        assert_eq!(response.results.as_ref().unwrap(), original, "request {i}");
    }
    let cache = engine.result_cache_stats();
    assert_eq!(cache.misses, 90, "each of the 90 distinct keys runs once: {cache:?}");
    assert_eq!(cache.hits, 30, "{cache:?}");
}
