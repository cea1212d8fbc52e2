//! Equivalence tier for the posting-driven top-k operator: for the five
//! monotone-sum predicates (Xect, WM, Cosine, BM25, HMM) over seeded
//! `dasp-datagen` corpora, `Exec::TopK(k)` — relq's windowed dense
//! accumulator — must return exactly the bytes of the exhaustive heap
//! pushdown `Exec::TopKHeap(k)` in both engine modes and on every backend,
//! exact score ties at the k boundary included. A property test
//! additionally drives random corpora through the operator.

use dasp_core::{Corpus, Exec, LiveEngine, Params, PredicateKind, SelectionEngine};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset, f_dataset_sized, f_spec};
use dasp_eval::{build_engine, sample_query_indices};

/// The predicates whose scores are monotone sums of non-negative per-token
/// contributions — the ones `Exec::TopK` routes through the bounded operator.
const BOUNDED_KINDS: [PredicateKind; 5] = [
    PredicateKind::IntersectSize,
    PredicateKind::WeightedMatch,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::Hmm,
];

fn assert_bounded_equivalent(dataset: &dasp_datagen::Dataset, label: &str) {
    let engine = build_engine(dataset, &Params::default());
    // A live engine over the same corpus: tokenization and stats are
    // deterministic, so its scores are bit-compatible with the monolith's.
    // Its tid-range shard count comes from `Params::shards` (default 1 —
    // one sealed segment) or the `DASP_SHARDS` override; CI re-runs this
    // tier under `DASP_SHARDS=3`, which fans every execution below across
    // three tid-range shards.
    let sharded =
        LiveEngine::from_corpus(Corpus::from_strings(dataset.strings()), &Params::default());
    let indices = sample_query_indices(dataset, 5, 0x7A_11);
    for kind in BOUNDED_KINDS {
        let handle = engine.predicate(kind);
        for &idx in &indices {
            let query = engine.query(&dataset.records[idx].text);
            let ranked = handle.execute(&query, Exec::Rank).unwrap();
            for k in [0, 1, 5, 10, ranked.len(), ranked.len() + 7] {
                let heap = handle.execute(&query, Exec::TopKHeap(k)).unwrap();
                assert_eq!(
                    heap,
                    ranked[..ranked.len().min(k)],
                    "{label}/{kind}: heap path must stay byte-identical to rank-truncate"
                );
                let bounded = handle.execute(&query, Exec::TopK(k)).unwrap();
                let context = format!("{label}/{kind} k={k}");
                assert_eq!(bounded, heap, "{context}");
                // The naive lowering (exhaustive scoring + sort + truncate)
                // returns the same bytes.
                let bounded_naive = handle.execute_naive(&query, Exec::TopK(k)).unwrap();
                assert_eq!(bounded_naive, heap, "{context} (naive)");
                // The sharded merge at whatever shard count resolved.
                let bounded_sharded =
                    sharded.execute(kind, &dataset.records[idx].text, Exec::TopK(k)).unwrap();
                assert_eq!(
                    bounded_sharded,
                    heap,
                    "{context} (sharded x{})",
                    sharded.metrics().sealed_segments
                );
            }
        }
    }
}

#[test]
fn bounded_top_k_is_equivalent_on_company_names() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 220, 22);
    assert_bounded_equivalent(&dataset, "CU2");
}

#[test]
fn bounded_top_k_is_equivalent_on_abbreviation_errors() {
    let dataset = f_dataset_sized(f_spec("F1").unwrap(), 180, 18);
    assert_bounded_equivalent(&dataset, "F1");
}

#[test]
fn bounded_top_k_is_equivalent_on_dblp_titles() {
    let dataset = dblp_dataset(180);
    assert_bounded_equivalent(&dataset, "DBLP");
}

#[test]
fn non_monotone_predicates_keep_the_heap_path_under_top_k() {
    // For the eight predicates without a bounded plan, Exec::TopK must remain
    // byte-identical to Exec::TopKHeap (both run the heap pushdown).
    let dataset = cu_dataset_sized(cu_spec("CU6").unwrap(), 150, 15);
    let engine = build_engine(&dataset, &Params::default());
    for (kind, handle) in engine.predicates() {
        if BOUNDED_KINDS.contains(&kind) {
            continue;
        }
        let query = engine.query(&dataset.records[4].text);
        for k in [1, 5, 20] {
            assert_eq!(
                handle.execute(&query, Exec::TopK(k)).unwrap(),
                handle.execute(&query, Exec::TopKHeap(k)).unwrap(),
                "{kind}: TopK and TopKHeap must coincide without a bounded plan"
            );
        }
    }
}

#[test]
fn k_beyond_i64_saturates_to_the_full_ranking_on_every_backend() {
    // A `k` past every corpus size — including ones a signed row count
    // cannot hold — selects everything: `TopKHeap` and `TopK` are the `Rank`
    // bytes, on the monolith, a live engine carrying a
    // tombstone (its per-segment `k + dead` must not wrap), and a sharded
    // engine.
    let dataset = cu_dataset_sized(cu_spec("CU6").unwrap(), 120, 12);
    let strings = dataset.strings();
    let engine = build_engine(&dataset, &Params::default());
    let sharded =
        LiveEngine::from_corpus(Corpus::from_strings(strings.clone()), &Params::default());
    let (seed, appended) = strings.split_at(strings.len() - 2);
    let live = LiveEngine::from_corpus(Corpus::from_strings(seed.to_vec()), &Params::default());
    for text in appended {
        live.append(text.clone());
    }
    assert!(live.delete(3));
    let huge = [usize::MAX, 1usize << 63];
    for (kind, handle) in engine.predicates() {
        for &idx in &sample_query_indices(&dataset, 2, 0x0B16) {
            let text = &dataset.records[idx].text;
            let query = engine.query(text);
            let run = |backend: &str, exec: Exec| match backend {
                "monolith" => handle.execute(&query, exec).unwrap(),
                "live" => live.execute(kind, text, exec).unwrap(),
                _ => sharded.execute(kind, text, exec).unwrap(),
            };
            for backend in ["monolith", "live", "sharded"] {
                let ranked = run(backend, Exec::Rank);
                for k in huge {
                    let context = format!("{backend}/{kind} k={k}");
                    assert_eq!(
                        run(backend, Exec::TopKHeap(k)),
                        ranked,
                        "{context}: heap must equal Rank"
                    );
                    assert_eq!(
                        run(backend, Exec::TopK(k)),
                        ranked,
                        "{context}: TopK must equal Rank"
                    );
                }
            }
        }
    }
}

#[test]
fn tie_classes_straddling_the_k_boundary_honor_the_contract() {
    // A *constructed* tie regression, instead of relying on seeded corpora
    // to happen to produce exact ties: four byte-identical records form one
    // exact tie class (identical token multisets score bit-identically under
    // every predicate), and k is chosen to cut through that class. The
    // contract: the boundary run resolves by ascending tid, exactly as the
    // heap path does, so the bytes are the heap path's.
    let tie_class = ["morgan co", "morgan co", "morgan co", "morgan co"];
    let mut strings = vec![
        "morgan stanley group inc".to_string(), // the unique best match
        "stanley brothers ltd".to_string(),     // a distinct mid score
        "beijing hotel organisation".to_string(), // low but non-zero overlap
    ];
    strings.extend(tie_class.iter().map(|s| s.to_string()));
    let corpus = std::sync::Arc::new(dasp_core::TokenizedCorpus::build(
        dasp_core::Corpus::from_strings(strings),
        dasp_text::QgramConfig::new(2),
    ));
    let engine = SelectionEngine::build(corpus, &Params::default());
    let query = engine.query("morgan stanley group inc");
    let tie_tids: std::collections::HashSet<u32> = (3..7).collect();

    for kind in BOUNDED_KINDS {
        let handle = engine.predicate(kind);
        let ranked = handle.execute(&query, Exec::Rank).unwrap();
        // Locate the duplicates' run in this predicate's ranking and pick a
        // k that cuts through it (the regression's whole point).
        let start = ranked
            .iter()
            .position(|s| tie_tids.contains(&s.tid))
            .unwrap_or_else(|| panic!("{kind}: the tie-class records did not score"));
        let end = start
            + ranked[start..]
                .iter()
                .take_while(|s| s.score.to_bits() == ranked[start].score.to_bits())
                .count();
        assert!(end - start >= tie_class.len(), "{kind}: duplicates must tie exactly");
        let k = start + 2;
        assert!(k < end, "{kind}: k={k} must fall strictly inside the tie run {start}..{end}");
        assert_eq!(
            ranked[k - 1].score.to_bits(),
            ranked[k].score.to_bits(),
            "{kind}: the k-th and (k+1)-th scores must tie for this regression to bite"
        );

        let heap = handle.execute(&query, Exec::TopKHeap(k)).unwrap();
        assert_eq!(heap, ranked[..k], "{kind}: heap path must stay byte-identical");
        for (label, bounded) in [
            ("indexed", handle.execute(&query, Exec::TopK(k)).unwrap()),
            ("naive", handle.execute_naive(&query, Exec::TopK(k)).unwrap()),
        ] {
            assert_eq!(bounded, heap, "tie-regression/{kind}/{label} k={k}");
        }
    }
}

#[test]
fn one_hot_document_corpus_stays_exact_under_block_skipping() {
    // A skewed corpus: one record repeats a rare word many times, giving the
    // tf-sensitive predicates (BM25, HMM) one enormous posting in otherwise
    // featherweight lists. The operator must stay byte-exact on it.
    let hot_word = "zephyr ".repeat(12);
    let mut strings: Vec<String> =
        (0..120).map(|i| format!("zephyr common record number {i}")).collect();
    strings.push(format!("{hot_word} outlier"));
    strings.push("zephyr common record".to_string());
    let dataset = dasp_datagen::Dataset {
        name: "one-hot".to_string(),
        records: strings
            .iter()
            .enumerate()
            .map(|(i, s)| dasp_datagen::DirtyRecord {
                text: s.clone(),
                cluster: i as u32,
                is_erroneous: false,
            })
            .collect(),
    };
    let engine = build_engine(&dataset, &Params::default());
    for kind in BOUNDED_KINDS {
        let handle = engine.predicate(kind);
        for query_text in ["zephyr common record", hot_word.as_str()] {
            let query = engine.query(query_text);
            for k in [1, 5, 20] {
                let heap = handle.execute(&query, Exec::TopKHeap(k)).unwrap();
                let bounded = handle.execute(&query, Exec::TopK(k)).unwrap();
                assert_eq!(bounded, heap, "one-hot/{kind} k={k}");
            }
        }
    }
}

/// Property test over random corpora: the bounded operator may never skip a
/// tid that outscores the returned k-th result.
#[test]
fn pruning_bound_is_never_violated_on_random_corpora() {
    use proptest::prelude::*;
    check(24, |g| {
        let n = g.usize_in(20..120);
        let words = ["morgan", "stanley", "group", "beijing", "labs", "silicon", "hotel", "inc"];
        let strings: Vec<String> = (0..n)
            .map(|_| {
                let len = g.usize_in(1..5);
                (0..len).map(|_| *g.pick(&words)).collect::<Vec<_>>().join(" ")
                    + &g.string_of("abcdefgh", 0..4)
            })
            .collect();
        let corpus = std::sync::Arc::new(dasp_core::TokenizedCorpus::build(
            dasp_core::Corpus::from_strings(strings.clone()),
            dasp_text::QgramConfig::new(2),
        ));
        let engine = SelectionEngine::build(corpus, &Params::default());
        let kind = *g.pick(&BOUNDED_KINDS);
        let handle = engine.predicate(kind);
        let query = engine.query(&strings[g.usize_in(0..strings.len())]);
        let k = g.usize_in(1..12);
        let ranked = handle.execute(&query, Exec::Rank).unwrap();
        let bounded = handle.execute(&query, Exec::TopK(k)).unwrap();
        assert_eq!(bounded.len(), ranked.len().min(k), "{kind}: wrong result size");
        assert_eq!(bounded, ranked[..bounded.len()], "{kind}: TopK must be the Rank prefix");
        if let Some(kth) = bounded.last() {
            let returned: std::collections::HashSet<u32> = bounded.iter().map(|s| s.tid).collect();
            for s in &ranked {
                assert!(
                    returned.contains(&s.tid) || s.score <= kth.score,
                    "{kind}: skipped tid {} (score {}) outscores the k-th ({})",
                    s.tid,
                    s.score,
                    kth.score
                );
            }
        }
    });
}
