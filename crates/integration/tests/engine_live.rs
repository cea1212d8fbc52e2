//! Live-corpus differential tier: every deterministic interleaving of
//! appends, deletes, seals and queries against a `LiveEngine` must agree
//! with a **monolithic engine rebuilt at the same epoch** over exactly the
//! live records (sharing the epoch's frozen statistics, which is what
//! `LiveEngine::rebuild_monolith` constructs): bit-identical in every mode,
//! because per-candidate scores are independent of segment layout and every
//! mode breaks score ties by ascending tid.
//!
//! The tier covers all 13 predicates × all five `Exec` modes, tombstone
//! edge cases (delete in tail vs sealed, delete-then-reinsert, delete
//! everything), compaction, and an 8-thread `ServingEngine` racing a
//! concurrently appending writer — where each response's epoch (from
//! `ServeStats::live`) selects the rebuilt reference it must match.
//!
//! CI runs this tier in debug and release with `DASP_SEGMENT_SEAL=7`,
//! forcing many tiny segments, with `DASP_SHARDS=3`, which splits every
//! seed corpus and every compaction into three tid-range shards, and with
//! both at once, so tails seal over a sharded base; the assertions hold at
//! every seal threshold and shard count because segmentation is invisible
//! to the contract.

use dasp_core::serve::{ServeRequest, ServingEngine};
use dasp_core::{Corpus, Exec, LiveEngine, Params, PredicateKind, ScoredTid, SelectionEngine, Tid};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, f_dataset_sized, f_spec};
use dasp_datagen::Dataset;
use dasp_eval::sample_query_indices;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Worker threads of the concurrent run (the contract does not depend on
/// true parallelism, only on interleaving).
const THREADS: usize = 8;

/// The k of every top-k request in the tier.
const K: usize = 5;

/// A seal threshold small enough that scripted appends cross segment
/// boundaries even without the CI env override.
fn live_params() -> Params {
    Params { segment_seal: 5, ..Params::default() }
}

fn seed_corpus(dataset: &Dataset, seed_n: usize) -> Corpus {
    Corpus::from_strings(dataset.records[..seed_n].iter().map(|r| r.text.clone()))
}

/// Query texts sampled from the full dataset (clean and erroneous alike).
fn query_texts(dataset: &Dataset, num: usize, seed: u64) -> Vec<String> {
    sample_query_indices(dataset, num, seed)
        .into_iter()
        .map(|idx| dataset.records[idx].text.clone())
        .collect()
}

/// The monolithic reference at one epoch: a fresh engine over the live
/// records plus its dense-local-tid → global-tid map.
struct Reference {
    engine: SelectionEngine,
    map: Vec<Tid>,
}

impl Reference {
    fn of(live: &LiveEngine) -> Self {
        let (engine, map) = live.rebuild_monolith();
        Reference { engine, map }
    }

    fn run(&self, kind: PredicateKind, text: &str, exec: Exec) -> Vec<ScoredTid> {
        self.engine
            .predicate(kind)
            .execute(&self.engine.query(text), exec)
            .unwrap()
            .into_iter()
            .map(|s| ScoredTid::new(self.map[s.tid as usize], s.score))
            .collect()
    }
}

fn as_bits(results: &[ScoredTid]) -> Vec<(Tid, u64)> {
    results.iter().map(|s| (s.tid, s.score.to_bits())).collect()
}

/// The full 13-predicate × 5-mode differential at the live engine's current
/// epoch, against a monolith rebuilt right here. The live engine's seed and
/// compacted records sit in `Params::shards` tid-range shards (default 1)
/// or as many as the `DASP_SHARDS` override asks for; CI re-runs this tier
/// under `DASP_SHARDS=3`, so the shard merge rides every interleaving the
/// live schedules produce.
fn assert_live_matches_monolith(live: &LiveEngine, texts: &[String], label: &str) {
    let reference = Reference::of(live);
    for &kind in PredicateKind::all() {
        for text in texts {
            let truth = reference.run(kind, text, Exec::Rank);
            // A bar in the middle of the score range, so Threshold selects a
            // non-trivial subset of the live records.
            let tau = truth.get(truth.len() / 2).map(|s| s.score).unwrap_or(0.0);
            for exec in [
                Exec::Rank,
                Exec::TopK(K),
                Exec::TopKHeap(K),
                Exec::Threshold(tau),
                Exec::ThresholdScan(tau),
            ] {
                let expected = reference.run(kind, text, exec);
                let got = live.execute(kind, text, exec).unwrap();
                assert_eq!(
                    as_bits(&got),
                    as_bits(&expected),
                    "{label}/{kind}/{exec:?} on {text:?} diverged from the rebuilt monolith"
                );
            }
        }
    }
}

#[test]
fn interleaved_appends_deletes_seals_match_rebuilt_monolith() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 130, 13);
    let seed_n = 110;
    let live = LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &live_params());
    let shards = live.metrics().sealed_segments;
    let texts = query_texts(&dataset, 2, 0x11FE);
    // Phase 1: appends crossing the seal threshold (and the env override's,
    // when CI sets one).
    for record in &dataset.records[seed_n..seed_n + 12] {
        live.append(record.text.clone());
    }
    assert_live_matches_monolith(&live, &texts, "CU2/appended");
    // Phase 2: deletes in a sealed segment (seed tids) and in the tail,
    // plus an explicit seal between them.
    assert!(live.delete(3));
    assert!(live.delete(42));
    live.seal();
    let in_tail = live.append(dataset.records[seed_n + 12].text.clone());
    assert!(live.delete(in_tail));
    assert_live_matches_monolith(&live, &texts, "CU2/deleted");
    // Phase 3: compaction folds every segment into as many tid-range shards
    // as the seed corpus had and drops the tombstones; the differential
    // keeps holding (and the frozen stats now ARE the live corpus).
    live.compact();
    let metrics = live.metrics();
    assert_eq!((metrics.sealed_segments, metrics.tombstones, metrics.tail_len), (shards, 0, 0));
    assert_live_matches_monolith(&live, &texts, "CU2/compacted");
    // Deleted tids never come back.
    for text in &texts {
        let ranked = live.execute(PredicateKind::Jaccard, text, Exec::Rank).unwrap();
        assert!(ranked.iter().all(|s| s.tid != 3 && s.tid != 42 && s.tid != in_tail));
    }
}

#[test]
fn compaction_refreshes_the_frozen_statistics() {
    // Before compaction, text appended after construction contributes
    // nothing to the frozen statistics; after compact() the live engine
    // must be bit-identical to a **from-scratch** engine over the live
    // records — the strongest form of the differential, with no shared
    // statistics at all.
    let dataset = f_dataset_sized(f_spec("F1").unwrap(), 90, 9);
    let live = LiveEngine::from_corpus(seed_corpus(&dataset, 70), &live_params());
    for record in &dataset.records[70..82] {
        live.append(record.text.clone());
    }
    live.delete(7);
    live.compact();
    let texts = query_texts(&dataset, 2, 0xF1);
    let records = live.live_records();
    let map: Vec<Tid> = records.iter().map(|r| r.tid).collect();
    let scratch = SelectionEngine::from_corpus(
        Corpus::from_strings(records.iter().map(|r| r.text.clone())),
        live.params(),
    );
    for &kind in PredicateKind::all() {
        for text in &texts {
            let got = live.execute(kind, text, Exec::Rank).unwrap();
            let expected: Vec<ScoredTid> = scratch
                .predicate(kind)
                .execute(&scratch.query(text), Exec::Rank)
                .unwrap()
                .into_iter()
                .map(|s| ScoredTid::new(map[s.tid as usize], s.score))
                .collect();
            assert_eq!(
                as_bits(&got),
                as_bits(&expected),
                "{kind} diverged from a from-scratch rebuild after compact()"
            );
        }
    }
}

#[test]
fn tombstone_edge_cases_hold_the_differential() {
    let dataset = f_dataset_sized(f_spec("F4").unwrap(), 80, 8);
    let seed_n = 60;
    let live = LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &live_params());
    let texts = query_texts(&dataset, 2, 0xED6E);
    // Delete-then-reinsert: the text comes back under a fresh tid, the old
    // tid stays dead.
    let victim_text = dataset.records[5].text.clone();
    assert!(live.delete(5));
    let reborn = live.append(victim_text.clone());
    assert_ne!(reborn, 5, "tids are never reused");
    assert_live_matches_monolith(&live, &texts, "F4/reinserted");
    let ranked = live.execute(PredicateKind::Cosine, &victim_text, Exec::Rank).unwrap();
    assert!(ranked.iter().any(|s| s.tid == reborn), "the reinserted record is live");
    assert!(ranked.iter().all(|s| s.tid != 5), "the deleted tid never resurfaces");
    // Delete in tail vs sealed around an explicit seal.
    let tail_tid = live.append(dataset.records[seed_n].text.clone());
    assert!(live.delete(tail_tid)); // dies in the tail
    live.seal();
    let sealed_tid = live.append(dataset.records[seed_n + 1].text.clone());
    live.seal();
    assert!(live.delete(sealed_tid)); // dies sealed
    assert_live_matches_monolith(&live, &texts, "F4/tail-vs-sealed");
    // Delete everything: every mode returns empty, before and after
    // compaction.
    for record in live.live_records() {
        assert!(live.delete(record.tid));
    }
    assert!(live.is_empty());
    for exec in [Exec::Rank, Exec::TopK(K), Exec::TopKHeap(K), Exec::Threshold(0.0)] {
        assert!(live.execute(PredicateKind::Bm25, &texts[0], exec).unwrap().is_empty());
    }
    live.compact();
    assert!(live.is_empty());
    assert!(live.execute(PredicateKind::Bm25, &texts[0], Exec::Rank).unwrap().is_empty());
}

#[test]
fn concurrent_serving_races_a_live_writer() {
    let dataset = cu_dataset_sized(cu_spec("CU8").unwrap(), 130, 13);
    let seed_n = 120;
    let params = live_params();
    let appended: Vec<String> = dataset.records[seed_n..].iter().map(|r| r.text.clone()).collect();
    let live = Arc::new(LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &params));
    assert_eq!(live.epoch(), 0);
    let texts = query_texts(&dataset, 2, 0xACE);
    let mut requests: Vec<ServeRequest> = Vec::new();
    for &kind in PredicateKind::all() {
        for text in &texts {
            for exec in [
                Exec::Rank,
                Exec::TopK(K),
                Exec::TopKHeap(K),
                Exec::Threshold(0.25),
                Exec::ThresholdScan(0.25),
            ] {
                requests.push(ServeRequest::new(kind, text.clone(), exec));
                requests.push(ServeRequest::new(kind, text.clone(), exec));
            }
        }
    }
    requests.shuffle(&mut StdRng::seed_from_u64(0xACE ^ 0x5EED));
    // 8 workers serve the stream while the writer appends — every response
    // pins some epoch along the append stream.
    let serving = ServingEngine::new_live(live.clone(), THREADS);
    let responses = std::thread::scope(|scope| {
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
        writer.join().expect("writer panicked");
        responses
    });
    assert_eq!(live.epoch(), appended.len() as u64);
    // The writer is append-only from epoch 0, so epoch e ⇔ the seed corpus
    // plus the first e appended texts: rebuild that replica's monolith and
    // the response must match it exactly.
    let mut replicas: HashMap<u64, Reference> = HashMap::new();
    let mut epochs_seen: Vec<u64> = Vec::new();
    for (request, response) in requests.iter().zip(&responses) {
        let stats = response.stats.live.expect("live backend attaches stats");
        assert!(stats.epoch <= appended.len() as u64);
        epochs_seen.push(stats.epoch);
        let reference = replicas.entry(stats.epoch).or_insert_with(|| {
            let replica = LiveEngine::from_corpus(seed_corpus(&dataset, seed_n), &params);
            for text in &appended[..stats.epoch as usize] {
                replica.append(text.clone());
            }
            Reference::of(&replica)
        });
        let got = response.results.as_ref().unwrap();
        let label = format!("CU8/{}/{:?}@{}", request.kind, request.exec, stats.epoch);
        assert_eq!(
            as_bits(got),
            as_bits(&reference.run(request.kind, &request.text, request.exec)),
            "{label} diverged from the epoch's rebuilt monolith"
        );
    }
    // The epoch stream a worker observes is monotone per worker but the
    // batch as a whole must have executed against real snapshots only.
    assert!(epochs_seen.iter().all(|&e| e <= appended.len() as u64));
    let metrics = serving.live_metrics().expect("live backend");
    assert_eq!(metrics.appends, appended.len() as u64);
    assert_eq!(metrics.live_records, dataset.records.len());
}
