//! Pushdown-equivalence and shared-artifact tests for the session-based
//! query API: for all 13 predicates over seeded `dasp-datagen` corpora,
//! `Exec::TopKHeap(k)` (the exhaustive heap pushdown) must return
//! byte-identical results to `Exec::Rank` truncated to `k`, and both
//! threshold modes — `Exec::Threshold(τ)` (bounded for the five monotone
//! predicates) and `Exec::ThresholdScan(τ)` (always exhaustive) —
//! byte-identical results to the post-hoc filter, through the indexed
//! engine *and* through the naive baseline; and every handle of one engine
//! must alias (not copy) the shared phase-1 tables its plans reference.
//! (`Exec::TopK` has its own tie-aware equivalence tier in
//! `engine_topk_bounded.rs`, and the bounded threshold route its own
//! bit-identity tier in `engine_threshold_bounded.rs`.)

use dasp_core::{Exec, Params, PredicateKind, SelectionEngine};
use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset, f_dataset_sized, f_spec};
use dasp_eval::{build_engine, sample_query_indices};
use std::sync::Arc;

fn assert_pushdown_equivalent(dataset: &dasp_datagen::Dataset, label: &str) {
    let engine = build_engine(dataset, &Params::default());
    let indices = sample_query_indices(dataset, 6, 0x70_9D);
    for (kind, handle) in engine.predicates() {
        for &idx in &indices {
            let query = engine.query(&dataset.records[idx].text);
            let ranked = handle.execute(&query, Exec::Rank).unwrap();

            // TopKHeap(k) ≡ rank truncated to k, in both engine modes.
            for k in [0, 1, 5, 10, ranked.len(), ranked.len() + 7] {
                let expected = &ranked[..ranked.len().min(k)];
                let pushed = handle.execute(&query, Exec::TopKHeap(k)).unwrap();
                assert_eq!(
                    pushed, expected,
                    "{label}/{kind}: TopKHeap({k}) diverged from rank-then-truncate"
                );
                let pushed_naive = handle.execute_naive(&query, Exec::TopKHeap(k)).unwrap();
                assert_eq!(
                    pushed_naive, expected,
                    "{label}/{kind}: naive TopKHeap({k}) diverged from rank-then-truncate"
                );
            }

            // Threshold(τ) ≡ rank filtered post hoc, for taus spanning the
            // score range (including one above the maximum and one below the
            // minimum so both empty and full selections are exercised).
            let mut taus = vec![f64::NEG_INFINITY, 0.0];
            if let (Some(first), Some(last)) = (ranked.first(), ranked.last()) {
                taus.push(last.score);
                taus.push((first.score + last.score) / 2.0);
                taus.push(first.score);
                taus.push(first.score * 1.5 + 1.0);
            }
            for tau in taus {
                let expected: Vec<_> = ranked.iter().copied().filter(|s| s.score >= tau).collect();
                let pushed = handle.execute(&query, Exec::Threshold(tau)).unwrap();
                assert_eq!(
                    pushed, expected,
                    "{label}/{kind}: Threshold({tau}) diverged from rank-then-filter"
                );
                let pushed_naive = handle.execute_naive(&query, Exec::Threshold(tau)).unwrap();
                assert_eq!(
                    pushed_naive, expected,
                    "{label}/{kind}: naive Threshold({tau}) diverged"
                );
                let scanned = handle.execute(&query, Exec::ThresholdScan(tau)).unwrap();
                assert_eq!(
                    scanned, expected,
                    "{label}/{kind}: ThresholdScan({tau}) diverged from rank-then-filter"
                );
                let scanned_naive = handle.execute_naive(&query, Exec::ThresholdScan(tau)).unwrap();
                assert_eq!(
                    scanned_naive, expected,
                    "{label}/{kind}: naive ThresholdScan({tau}) diverged"
                );
            }
        }
    }
}

#[test]
fn pushdown_is_equivalent_on_company_names() {
    let dataset = cu_dataset_sized(cu_spec("CU2").unwrap(), 220, 22);
    assert_pushdown_equivalent(&dataset, "CU2");
}

#[test]
fn pushdown_is_equivalent_on_abbreviation_errors() {
    let dataset = f_dataset_sized(f_spec("F1").unwrap(), 180, 18);
    assert_pushdown_equivalent(&dataset, "F1");
}

#[test]
fn pushdown_is_equivalent_on_dblp_titles() {
    let dataset = dblp_dataset(180);
    assert_pushdown_equivalent(&dataset, "DBLP");
}

#[test]
fn all_13_handles_share_phase1_artifacts() {
    // Building every predicate through one engine must tokenize the corpus
    // exactly once (the engine holds the one TokenizedCorpus it was given)
    // and share the phase-1 tables lazily: each handle's catalog carries
    // exactly the shared tables its plans reference, aliasing the same
    // Arc'd allocations as the engine's shared catalog.
    let dataset = cu_dataset_sized(cu_spec("CU8").unwrap(), 120, 12);
    let params = Params::default();
    let corpus = dasp_eval::tokenize_dataset(&dataset, &params);
    let engine = SelectionEngine::build(corpus.clone(), &params);
    assert!(Arc::ptr_eq(engine.corpus(), &corpus), "the engine must not re-tokenize");

    // Which shared phase-1 tables each predicate's plans probe.
    let expected_shared: &[(PredicateKind, &[&str])] = &[
        (PredicateKind::IntersectSize, &["base_tokens"]),
        (PredicateKind::Jaccard, &["base_tokens", "base_len"]),
        (PredicateKind::WeightedMatch, &["overlap_weights"]),
        (PredicateKind::WeightedJaccard, &["overlap_weights", "overlap_len"]),
        (PredicateKind::Cosine, &[]),
        (PredicateKind::Bm25, &[]),
        (PredicateKind::LanguageModel, &[]),
        (PredicateKind::Hmm, &[]),
        (PredicateKind::EditSimilarity, &["base_tf"]),
        (PredicateKind::GesJaccard, &["base_words"]),
        (PredicateKind::GesApx, &["base_words"]),
        (PredicateKind::SoftTfIdf, &[]),
    ];
    // GES_Jaccard and GES_apx serve their filter estimate from a word memo:
    // only a naive run builds their relq reference plan and its catalog.
    let probe = engine.query(&dataset.records[0].text);
    for kind in [PredicateKind::GesJaccard, PredicateKind::GesApx] {
        let handle = engine.predicate(kind);
        handle.execute(&probe, Exec::Rank).unwrap();
        assert!(handle.catalog().is_none(), "{kind}: a served run built the reference plan");
        handle.execute_naive(&probe, Exec::Rank).unwrap();
    }
    let mut handles_with_catalogs = 0;
    for (kind, handle) in engine.predicates() {
        let Some(catalog) = handle.catalog() else {
            assert_eq!(kind, PredicateKind::Ges, "only pure-UDF GES lacks a catalog");
            continue;
        };
        handles_with_catalogs += 1;
        let tables = expected_shared
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("no expectation for {kind}"));
        for table in tables {
            assert!(catalog.contains(table), "{kind}: expected shared table {table}");
        }
    }
    assert_eq!(handles_with_catalogs, 12);
    // An indexed Rank runs the eight kernel predicates over the posting
    // lists of the table they sum, and attaches those lists to their
    // catalogs; the other five never attach one.
    let query = engine.query(&dataset.records[0].text);
    let summed: &[(PredicateKind, &str)] = &[
        (PredicateKind::IntersectSize, "base_tokens"),
        (PredicateKind::Jaccard, "base_tokens"),
        (PredicateKind::WeightedMatch, "overlap_weights"),
        (PredicateKind::WeightedJaccard, "overlap_weights"),
        (PredicateKind::Cosine, "cosine_weights"),
        (PredicateKind::Bm25, "bm25_weights"),
        (PredicateKind::LanguageModel, "base_pm"),
        (PredicateKind::Hmm, "hmm_weights"),
    ];
    for (kind, handle) in engine.predicates() {
        handle.execute(&query, Exec::Rank).unwrap();
        let Some(catalog) = handle.catalog() else { continue };
        match summed.iter().find(|(k, _)| *k == kind) {
            Some((_, table)) => assert!(catalog.posting_for(table).is_some(), "{kind}: {table}"),
            None => {
                for (_, table) in summed {
                    assert!(catalog.posting_for(table).is_none(), "{kind}: {table}");
                }
            }
        }
    }
    // Aliasing: every shared table a handle carries is the engine's own
    // allocation, never a copy. (shared_catalog() forces all six tables, so
    // it is consulted only after the handles exist.)
    let shared = engine.shared_catalog();
    for (kind, handle) in engine.predicates() {
        let Some(catalog) = handle.catalog() else { continue };
        for table in
            ["base_tokens", "base_tf", "base_len", "overlap_weights", "overlap_len", "base_words"]
        {
            if catalog.contains(table) {
                let from_handle = catalog.get_shared(table).unwrap();
                let from_engine = shared.get_shared(table).unwrap();
                assert!(
                    Arc::ptr_eq(&from_handle, &from_engine),
                    "{kind}: table {table} is a copy, not a shared artifact"
                );
            }
        }
    }

    // Weight tables are shared across predicates too: WeightedMatch and
    // WeightedJaccard both run over the one overlap_weights table.
    let wm = engine.predicate(PredicateKind::WeightedMatch);
    let wj = engine.predicate(PredicateKind::WeightedJaccard);
    let wm_weights = wm.catalog().unwrap().get_shared("overlap_weights").unwrap();
    let wj_weights = wj.catalog().unwrap().get_shared("overlap_weights").unwrap();
    assert!(Arc::ptr_eq(&wm_weights, &wj_weights));
    // So are their posting lists: Jaccard sums IntersectSize's, WJ WM's.
    for (a, b, table) in [
        (PredicateKind::IntersectSize, PredicateKind::Jaccard, "base_tokens"),
        (PredicateKind::WeightedMatch, PredicateKind::WeightedJaccard, "overlap_weights"),
    ] {
        let (a, b) = (engine.predicate(a), engine.predicate(b));
        let lists = |h: &dasp_core::PredicateHandle| {
            h.catalog().unwrap().posting_for(table).unwrap().clone()
        };
        assert!(Arc::ptr_eq(&lists(&a), &lists(&b)), "{table} postings are copies");
    }
}

#[test]
fn one_prepared_query_serves_every_predicate() {
    let dataset = cu_dataset_sized(cu_spec("CU6").unwrap(), 150, 15);
    let engine = build_engine(&dataset, &Params::default());
    let text = &dataset.records[3].text;
    let query = engine.query(text);
    for (kind, handle) in engine.predicates() {
        // The prepared query and the string shim must return the same bytes.
        let via_query = handle.execute(&query, Exec::Rank).unwrap();
        let via_str = dasp_core::Predicate::rank(&handle, text);
        assert_eq!(via_query, via_str, "{kind}: prepared-query path diverged from string shim");
    }
}
