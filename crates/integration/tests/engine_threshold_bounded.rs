//! Equivalence tier for the posting-driven threshold operator: for the five
//! monotone-sum predicates (Xect, WM, Cosine, BM25, HMM) over seeded
//! `dasp-datagen` corpora, `Exec::Threshold(τ)` — the windowed dense
//! accumulator behind `relq::Plan::ThresholdBounded` — must return results
//! **bit-identical** (tids and score bits) to the exhaustive
//! `Exec::ThresholdScan(τ)` and to `Exec::Rank` filtered post hoc, in both
//! engine modes, across a τ sweep that includes exact-score boundaries,
//! below-minimum and above-maximum bars. The same differential runs through
//! the thread-pooled `ServingEngine`, and a property test over random
//! corpora asserts the selected set is exactly `{tid : score(tid) ≥ τ}`.

use dasp_core::{
    Corpus, DaspError, Exec, ExecBudget, LiveEngine, Params, PredicateKind, ScoredTid,
    SelectionEngine, ServeRequest, ServingEngine, TokenizedCorpus,
};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset, f_dataset_sized, f_spec};
use dasp_eval::{build_engine, sample_query_indices};
use std::sync::Arc;

/// The predicates whose scores are monotone sums of non-negative per-token
/// contributions — the ones `Exec::Threshold` routes through the fixed-bar
/// bounded operator.
const BOUNDED_KINDS: [PredicateKind; 5] = [
    PredicateKind::IntersectSize,
    PredicateKind::WeightedMatch,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::Hmm,
];

/// Bit-level equality: same length, same tids, same score bits at every
/// rank. This is the threshold contract — strictly stronger than the
/// tie-aware contract of the top-k tier.
fn assert_bit_identical(bounded: &[ScoredTid], expected: &[ScoredTid], context: &str) {
    assert_eq!(bounded.len(), expected.len(), "{context}: result sizes differ");
    for (i, (b, e)) in bounded.iter().zip(expected).enumerate() {
        assert_eq!(b.tid, e.tid, "{context}: tid at rank {i} differs");
        assert_eq!(
            b.score.to_bits(),
            e.score.to_bits(),
            "{context}: score bits at rank {i} differ ({} vs {})",
            b.score,
            e.score
        );
    }
}

/// A τ sweep spanning the score range of one ranking: bars below every
/// score, bars equal to exact scores (the `>=` boundary must admit them),
/// the next float above an exact score (must exclude it), between-score
/// bars, and bars above the maximum (empty selection).
fn tau_sweep(ranked: &[ScoredTid]) -> Vec<f64> {
    let mut taus = vec![f64::NEG_INFINITY, 0.0];
    if let (Some(first), Some(last)) = (ranked.first(), ranked.last()) {
        taus.push(last.score / 2.0);
        taus.push(last.score);
        taus.push((first.score + last.score) / 2.0);
        if let Some(mid) = ranked.get(ranked.len() / 2) {
            taus.push(mid.score);
            taus.push(f64::from_bits(mid.score.to_bits() + 1));
        }
        taus.push(first.score);
        taus.push(first.score * 1.5 + 1.0);
    }
    taus
}

fn assert_threshold_equivalent(dataset: &dasp_datagen::Dataset, label: &str) {
    let engine = build_engine(dataset, &Params::default());
    // A live engine over the same corpus (bit-compatible stats — the build
    // is deterministic). Its tid-range shard count resolves from
    // `Params::shards` (default 1, one sealed segment) or the `DASP_SHARDS`
    // override; CI re-runs this tier under `DASP_SHARDS=3`, so the
    // concat-and-resort threshold merge gets differential coverage at a
    // real fan-out.
    let sharded =
        LiveEngine::from_corpus(Corpus::from_strings(dataset.strings()), &Params::default());
    let indices = sample_query_indices(dataset, 4, 0x7B_22);
    for kind in BOUNDED_KINDS {
        let handle = engine.predicate(kind);
        for &idx in &indices {
            let query = engine.query(&dataset.records[idx].text);
            let ranked = handle.execute(&query, Exec::Rank).unwrap();
            for tau in tau_sweep(&ranked) {
                let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
                let context = format!("{label}/{kind} tau={tau}");
                // The exhaustive scan is the rank-then-filter bytes...
                let scan = handle.execute(&query, Exec::ThresholdScan(tau)).unwrap();
                assert_bit_identical(&scan, &expected, &format!("{context} (scan)"));
                // ...and the bounded route must match it bit for bit, in
                // both engine modes.
                let bounded = handle.execute(&query, Exec::Threshold(tau)).unwrap();
                assert_bit_identical(&bounded, &expected, &context);
                let bounded_naive = handle.execute_naive(&query, Exec::Threshold(tau)).unwrap();
                assert_bit_identical(&bounded_naive, &expected, &format!("{context} (naive)"));
                let scan_naive = handle.execute_naive(&query, Exec::ThresholdScan(tau)).unwrap();
                assert_bit_identical(&scan_naive, &expected, &format!("{context} (naive scan)"));
                // The sharded merge at whatever shard count resolved: a
                // fixed τ has no tie class, so this stays bit-identical.
                let sharded_res = sharded
                    .execute(kind, &dataset.records[idx].text, Exec::Threshold(tau))
                    .unwrap();
                assert_bit_identical(
                    &sharded_res,
                    &expected,
                    &format!("{context} (sharded x{})", sharded.metrics().sealed_segments),
                );
            }
        }
    }
}

#[test]
fn bounded_threshold_is_bit_identical_on_company_names() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 220, 22);
    assert_threshold_equivalent(&dataset, "CU2");
}

#[test]
fn bounded_threshold_is_bit_identical_on_abbreviation_errors() {
    let dataset = f_dataset_sized(f_spec("F1").unwrap(), 180, 18);
    assert_threshold_equivalent(&dataset, "F1");
}

#[test]
fn bounded_threshold_is_bit_identical_on_dblp_titles() {
    let dataset = dblp_dataset(180);
    assert_threshold_equivalent(&dataset, "DBLP");
}

#[test]
fn non_monotone_predicates_route_threshold_through_the_scan() {
    // For the eight predicates without a bounded plan, Threshold and
    // ThresholdScan must coincide byte for byte (both run the plan-level
    // score filter / the native post-filter).
    let dataset = cu_dataset_sized(cu_spec("CU6").unwrap(), 150, 15);
    let engine = build_engine(&dataset, &Params::default());
    for (kind, handle) in engine.predicates() {
        if BOUNDED_KINDS.contains(&kind) {
            continue;
        }
        let query = engine.query(&dataset.records[4].text);
        let ranked = handle.execute(&query, Exec::Rank).unwrap();
        for tau in tau_sweep(&ranked) {
            let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
            assert_bit_identical(
                &handle.execute(&query, Exec::Threshold(tau)).unwrap(),
                &expected,
                &format!("{kind} tau={tau}"),
            );
            assert_bit_identical(
                &handle.execute(&query, Exec::ThresholdScan(tau)).unwrap(),
                &expected,
                &format!("{kind} tau={tau} (scan)"),
            );
        }
    }
}

#[test]
fn unreachable_bars_and_token_free_queries_select_nothing_on_every_backend() {
    // Inputs the bounded operator must answer empty by itself: a τ above
    // every score (`f64::MAX` exceeds any finite score sum), τ = +∞, and
    // queries with no token at all. Each answer is empty
    // and bit-identical to the exhaustive scan, on the monolith, a live
    // engine with a tombstone, and a sharded engine.
    let dataset = dblp_dataset(150);
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
    let mut cases: Vec<(String, f64)> = Vec::new();
    for &idx in &sample_query_indices(&dataset, 3, 0x0E_11) {
        for tau in [f64::MAX, f64::INFINITY] {
            cases.push((dataset.records[idx].text.clone(), tau));
        }
    }
    for text in ["", "   "] {
        for tau in [f64::NEG_INFINITY, 0.0, 0.5] {
            cases.push((text.to_string(), tau));
        }
    }
    for kind in BOUNDED_KINDS {
        let handle = engine.predicate(kind);
        for (text, tau) in &cases {
            let query = engine.query(text);
            let run = |backend: &str, exec: Exec| match backend {
                "monolith" => handle.execute(&query, exec).unwrap(),
                "live" => live.execute(kind, text, exec).unwrap(),
                _ => sharded.execute(kind, text, exec).unwrap(),
            };
            for backend in ["monolith", "live", "sharded"] {
                let context = format!("{backend}/{kind} tau={tau} query={text:?}");
                let bounded = run(backend, Exec::Threshold(*tau));
                assert!(bounded.is_empty(), "{context}: selected {} rows", bounded.len());
                assert_bit_identical(&bounded, &run(backend, Exec::ThresholdScan(*tau)), &context);
            }
        }
    }
}

#[test]
fn one_hot_document_corpus_stays_bit_identical_under_block_skipping() {
    // A skewed corpus: one record repeats a rare word many times, giving the
    // tf-sensitive predicates (BM25, HMM) one enormous posting in otherwise
    // featherweight lists. The operator must stay bit-identical on it,
    // including at τ bars that only the hot document clears.
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
            let ranked = handle.execute(&query, Exec::Rank).unwrap();
            for tau in tau_sweep(&ranked) {
                let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
                let bounded = handle.execute(&query, Exec::Threshold(tau)).unwrap();
                assert_bit_identical(&bounded, &expected, &format!("one-hot/{kind} tau={tau}"));
            }
        }
    }
}

#[test]
fn threshold_differential_holds_through_serving() {
    // The serving surface must return the same bounded-threshold bytes as
    // per-item execution — including when worker threads race the
    // first-touch posting attach of a fresh engine.
    let dataset = dblp_dataset(160);
    let indices = sample_query_indices(&dataset, 3, 0xD1_07);

    // Expected bytes from a per-item loop over a reference engine.
    let reference = build_engine(&dataset, &Params::default());
    let mut requests: Vec<ServeRequest> = Vec::new();
    let mut expected: Vec<Vec<ScoredTid>> = Vec::new();
    for kind in BOUNDED_KINDS {
        let handle = reference.predicate(kind);
        for &idx in &indices {
            let text = &dataset.records[idx].text;
            let query = reference.query(text);
            let ranked = handle.execute(&query, Exec::Rank).unwrap();
            // One selective and one permissive bar per query.
            let taus =
                [ranked.get(9).map(|s| s.score).unwrap_or(0.5), ranked.last().unwrap().score];
            for tau in taus {
                for exec in [Exec::Threshold(tau), Exec::ThresholdScan(tau)] {
                    requests.push(ServeRequest::new(kind, text.clone(), exec));
                    expected.push(
                        ranked.iter().copied().filter(|s| s.score >= tau).collect::<Vec<_>>(),
                    );
                }
            }
        }
    }

    // ServingEngine over a FRESH engine: worker threads spawn before any
    // lazy artifact (shared tables, posting lists) exists.
    let serving = ServingEngine::new(build_engine(&dataset, &Params::default()), 4);
    for (i, (response, exp)) in serving.serve(&requests).iter().zip(&expected).enumerate() {
        assert_bit_identical(
            response.results.as_ref().unwrap(),
            exp,
            &format!("serving request {i} ({:?})", requests[i].exec),
        );
    }
}

/// A NaN τ compares with no score, so every backend refuses it with the one
/// typed error: all 13 predicates, both threshold modes, the static engine
/// (indexed and naive), a `LiveEngine` and a `ServingEngine` over each,
/// budgeted or not.
#[test]
fn nan_threshold_is_one_typed_error_on_every_backend() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 60, 6);
    let engine = build_engine(&dataset, &Params::default());
    let live = Arc::new(LiveEngine::from_corpus(
        Corpus::from_strings(dataset.strings()),
        &Params::default(),
    ));
    let pools = [ServingEngine::new(engine.clone(), 2), ServingEngine::new_live(live.clone(), 2)];
    let text = &dataset.records[0].text;
    let query = engine.query(text);
    let capped = ExecBudget { max_candidates: Some(1_000), ..ExecBudget::default() };
    let refused = |r: Result<&[ScoredTid], &DaspError>| matches!(r, Err(DaspError::NanThreshold));
    for &kind in PredicateKind::all() {
        let handle = engine.predicate(kind);
        for exec in [Exec::Threshold(f64::NAN), Exec::ThresholdScan(f64::NAN)] {
            let label = format!("{kind}/{exec:?}");
            for budget in [ExecBudget::unlimited(), capped] {
                let run = handle.execute_budgeted(&query, exec, budget);
                assert!(refused(run.as_ref().map(|r| &r.results[..])), "{label} static {run:?}");
                let run = live.execute_budgeted(kind, text, exec, budget);
                assert!(refused(run.as_ref().map(|r| &r.0.results[..])), "{label} live {run:?}");
                for pool in &pools {
                    let request = ServeRequest::new(kind, text.clone(), exec).with_budget(budget);
                    let response = &pool.serve(&[request])[0];
                    let results = response.results.as_deref();
                    assert!(refused(results), "{label} serving {:?}", response.results);
                }
            }
            let naive = handle.execute_naive(&query, exec);
            assert!(refused(naive.as_deref()), "{label} naive {naive:?}");
        }
    }
}

/// Property test over random corpora: the bounded threshold selection is
/// exactly `{tid : score(tid) >= τ}` — it never drops a qualifying tid and
/// never admits an unqualified one.
#[test]
fn pruned_tids_never_reach_tau_on_random_corpora() {
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
        let corpus = std::sync::Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(strings.clone()),
            dasp_text::QgramConfig::new(2),
        ));
        let engine = SelectionEngine::build(corpus, &Params::default());
        let kind = *g.pick(&BOUNDED_KINDS);
        let handle = engine.predicate(kind);
        let query = engine.query(&strings[g.usize_in(0..strings.len())]);
        let ranked = handle.execute(&query, Exec::Rank).unwrap();
        // A random bar: sometimes an exact score, sometimes arbitrary.
        let tau = if !ranked.is_empty() && g.bool_with(0.5) {
            ranked[g.usize_in(0..ranked.len())].score
        } else {
            g.f64_in(0.0..3.0)
        };
        let bounded = handle.execute(&query, Exec::Threshold(tau)).unwrap();
        let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
        assert_bit_identical(&bounded, &expected, &format!("{kind} tau={tau}"));
    });
}
