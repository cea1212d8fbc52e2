//! Differential tier for the indexed `Rank` of the eight kernel predicates
//! (Xect, Jaccard, WM, WJ, Cosine, BM25, LM, HMM). An indexed `Rank` is
//! `TopK(∞)` over the posting kernel; it must return the bytes of the naive
//! join-plan `Rank` and of the heap `TopKHeap(usize::MAX)` on the monolith,
//! on a live engine carrying tombstones (against its rebuilt monolith) and
//! on a sharded engine. Jaccard, WJ and LM run a per-tuple join on top of
//! the kernel in every kernel mode (relq's typed finish), so their `TopK`
//! must equal `TopKHeap` and their `Threshold` must equal `ThresholdScan`
//! with bars sitting exactly on scores; the tier checks that for all eight.
//!
//! Edge cases: a query token repeated (HMM counts each occurrence), a query
//! of unknown tokens only, a one-record corpus, and a sealed segment whose
//! every record is a tombstone. The `DASP_SEGMENT_SEAL` and `DASP_SHARDS`
//! overrides reshape the live engines the tier builds.

use dasp_core::{
    Corpus, Exec, LiveEngine, Params, PredicateKind, ScoredTid, SelectionEngine, Tid,
    TokenizedCorpus,
};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec};
use std::sync::Arc;

/// The predicates whose indexed `Rank`, `TopK` and `Threshold` run the
/// posting kernel.
const KERNEL: [PredicateKind; 8] = [
    PredicateKind::IntersectSize,
    PredicateKind::Jaccard,
    PredicateKind::WeightedMatch,
    PredicateKind::WeightedJaccard,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::LanguageModel,
    PredicateKind::Hmm,
];

/// Seals every few appends, so appended records span several segments.
fn params() -> Params {
    Params { segment_seal: 3, ..Params::default() }
}

fn as_bits(results: &[ScoredTid]) -> Vec<(Tid, u64)> {
    results.iter().map(|s| (s.tid, s.score.to_bits())).collect()
}

fn monolith(strings: &[String]) -> SelectionEngine {
    let params = params();
    let corpus = Corpus::from_strings(strings.iter().cloned());
    SelectionEngine::build(Arc::new(TokenizedCorpus::build(corpus, params.qgram)), &params)
}

/// The monolith's indexed `Rank` equals its naive `Rank` and its
/// `TopKHeap(usize::MAX)`; its `TopK` equals `TopKHeap` at small `k`, and
/// its `Threshold` equals `ThresholdScan` at every exact score. Returns the
/// ranking.
fn assert_monolith(engine: &SelectionEngine, kind: PredicateKind, text: &str) -> Vec<ScoredTid> {
    let handle = engine.predicate(kind);
    let query = engine.query(text);
    let rank = handle.execute(&query, Exec::Rank).unwrap();
    let context = format!("{kind} on {text:?}");
    let naive = handle.execute_naive(&query, Exec::Rank).unwrap();
    assert_eq!(as_bits(&rank), as_bits(&naive), "{context}: Rank vs naive Rank");
    let heap = handle.execute(&query, Exec::TopKHeap(usize::MAX)).unwrap();
    assert_eq!(as_bits(&rank), as_bits(&heap), "{context}: Rank vs TopKHeap(MAX)");
    for k in [1, 3, rank.len()] {
        let top = handle.execute(&query, Exec::TopK(k)).unwrap();
        let heap = handle.execute(&query, Exec::TopKHeap(k)).unwrap();
        assert_eq!(as_bits(&top), as_bits(&heap), "{context}: TopK({k}) vs TopKHeap");
    }
    let mut bars: Vec<f64> = rank.iter().map(|s| s.score).collect();
    bars.dedup();
    for tau in bars.into_iter().take(12) {
        let bounded = handle.execute(&query, Exec::Threshold(tau)).unwrap();
        let scan = handle.execute(&query, Exec::ThresholdScan(tau)).unwrap();
        assert_eq!(as_bits(&bounded), as_bits(&scan), "{context}: Threshold({tau})");
        let expected: Vec<_> = rank.iter().copied().filter(|s| s.score >= tau).collect();
        assert_eq!(as_bits(&scan), as_bits(&expected), "{context}: ThresholdScan({tau})");
    }
    rank
}

/// A live engine's `Rank` and `TopKHeap(usize::MAX)` equal its rebuilt
/// monolith's naive `Rank`, mapped to global tids.
fn assert_live(live: &LiveEngine, kind: PredicateKind, text: &str) {
    let (engine, map) = live.rebuild_monolith();
    let handle = engine.predicate(kind);
    let naive: Vec<_> = handle
        .execute_naive(&engine.query(text), Exec::Rank)
        .unwrap()
        .into_iter()
        .map(|s| ScoredTid::new(map[s.tid as usize], s.score))
        .collect();
    for exec in [Exec::Rank, Exec::TopKHeap(usize::MAX)] {
        let got = live.execute(kind, text, exec).unwrap();
        assert_eq!(as_bits(&got), as_bits(&naive), "live {kind} {exec:?} on {text:?}");
    }
}

/// The `Rank` and `TopKHeap(usize::MAX)` of a live engine built over the
/// whole corpus (as many tid-range shards as `DASP_SHARDS` asks for) equal
/// the independently built monolith's naive `Rank` (both number records by
/// corpus position).
fn assert_sharded(sharded: &LiveEngine, engine: &SelectionEngine, kind: PredicateKind, text: &str) {
    let naive = engine.predicate(kind).execute_naive(&engine.query(text), Exec::Rank).unwrap();
    for exec in [Exec::Rank, Exec::TopKHeap(usize::MAX)] {
        let got = sharded.execute(kind, text, exec).unwrap();
        assert_eq!(
            as_bits(&got),
            as_bits(&naive),
            "sharded x{} {kind} {exec:?} on {text:?}",
            sharded.metrics().sealed_segments
        );
    }
}

/// Every backend over `strings`, with the last `appended` records appended
/// to the live engine and `deleted` tids deleted from it, for every kernel
/// predicate and query text.
fn assert_backends(strings: &[String], appended: usize, deleted: &[Tid], texts: &[String]) {
    let engine = monolith(strings);
    let sharded = LiveEngine::from_corpus(Corpus::from_strings(strings.to_vec()), &params());
    let (seed, tail) = strings.split_at(strings.len() - appended);
    let live = LiveEngine::from_corpus(Corpus::from_strings(seed.to_vec()), &params());
    for text in tail {
        live.append(text.clone());
    }
    for &tid in deleted {
        assert!(live.delete(tid));
    }
    for kind in KERNEL {
        for text in texts {
            assert_monolith(&engine, kind, text);
            assert_live(&live, kind, text);
            assert_sharded(&sharded, &engine, kind, text);
        }
    }
}

#[test]
fn indexed_rank_equals_the_references_on_company_names() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 120, 12);
    let strings = dataset.strings();
    // Record texts, the first word of one said twice, and a query of
    // unknown tokens only.
    let word = strings[7].split_whitespace().next().unwrap().to_string();
    let texts =
        vec![strings[3].clone(), strings[40].clone(), format!("{word} {word}"), "zzz qqq".into()];
    assert_backends(&strings, 9, &[2, 50, 114], &texts);
}

#[test]
fn a_repeated_query_token_counts_twice_for_hmm_only() {
    let strings: Vec<String> =
        ["Morgan Stanley Group Inc.", "Beijing Hotel", "Beijing Labs Limited", "Morgan Labs"]
            .map(String::from)
            .to_vec();
    let engine = monolith(&strings);
    let once = assert_monolith(&engine, PredicateKind::Hmm, "Beijing");
    let twice = assert_monolith(&engine, PredicateKind::Hmm, "Beijing Beijing");
    assert_eq!(once.len(), twice.len());
    assert!(once.iter().zip(&twice).all(|(a, b)| a.tid == b.tid && b.score > a.score));
    // The overlap predicates count distinct query tokens.
    for kind in [PredicateKind::IntersectSize, PredicateKind::Jaccard] {
        let once = assert_monolith(&engine, kind, "Beijing");
        assert_eq!(as_bits(&once), as_bits(&assert_monolith(&engine, kind, "Beijing Beijing")));
    }
}

#[test]
fn unknown_tokens_and_a_one_record_corpus_rank_exactly() {
    let strings = vec!["Morgan Stanley Group Inc.".to_string()];
    let texts = ["Morgan Stanley".to_string(), "Morgan Morgan".into(), "zzz qqq".into()];
    assert_backends(&strings, 0, &[], &texts);
    let engine = monolith(&strings);
    for kind in KERNEL {
        assert!(assert_monolith(&engine, kind, "zzz qqq").is_empty(), "{kind}");
        // Every IDF is 0 in a one-record corpus, so Cosine ranks nothing.
        let ranked = assert_monolith(&engine, kind, "Morgan Stanley").len();
        assert_eq!(ranked, usize::from(kind != PredicateKind::Cosine), "{kind}");
    }
}

#[test]
fn an_all_tombstone_segment_ranks_exactly() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 60, 6);
    let strings = dataset.strings();
    let (seed, tail) = strings.split_at(50);
    let live = LiveEngine::from_corpus(Corpus::from_strings(seed.to_vec()), &params());
    // Three records sealed into a segment of their own, then all deleted.
    live.seal();
    let doomed: Vec<Tid> = tail[..3].iter().map(|text| live.append(text.clone())).collect();
    live.seal();
    for text in &tail[3..] {
        live.append(text.clone());
    }
    for &tid in &doomed {
        assert!(live.delete(tid));
    }
    for kind in KERNEL {
        for text in [&tail[0], &tail[1], &strings[4], &tail[5]] {
            assert_live(&live, kind, text);
            let ranked = live.execute(kind, text, Exec::Rank).unwrap();
            assert!(ranked.iter().all(|s| !doomed.contains(&s.tid)), "{kind}: a dead tid ranked");
        }
    }
}
