//! Quickstart: build a small base relation, spin up a `SelectionEngine`, and
//! run approximate selections with prepared queries and pushdown execution
//! modes — the 30-second tour of the public API.
//!
//! Run with: `cargo run -p dasp-bench --example quickstart`

use dasp_core::{Corpus, Exec, Params, PredicateKind, SelectionEngine};

fn main() {
    // 1. The base relation: a handful of dirty company names.
    let corpus = Corpus::from_strings(vec![
        "Morgan Stanley Group Inc.",
        "Morgan Stanle Grop Incorporated",
        "Stalney Morgan Group Inc.",
        "Goldman Sachs Group Inc.",
        "Silicon Valley Group, Inc.",
        "Beijing Hotel",
        "Beijing Labs Limited",
        "AT&T Incorporated",
        "AT&T Inc.",
    ]);

    // 2. Build the engine: phase-1 preprocessing (q-gram tokenization with
    //    q = 2, the paper's choice, plus shared token/weight tables) runs
    //    exactly once here, shared by every predicate.
    let engine = SelectionEngine::from_corpus(corpus, &Params::default());
    let tokenized = engine.corpus();
    println!(
        "base relation: {} tuples, {} distinct q-grams, avgdl {:.1}",
        tokenized.num_records(),
        tokenized.num_tokens(),
        tokenized.avgdl()
    );

    // 3. Predicate handles: phase-2 preprocessing (weight tables) happens on
    //    first use per kind and is cached by the engine.
    let bm25 = engine.predicate(PredicateKind::Bm25);
    let soft = engine.predicate(PredicateKind::SoftTfIdf);

    // 4. Prepare the query once — tokenized a single time, reusable across
    //    all predicates and execution modes.
    let query = engine.query("Morgan Stanley Group Incorporated");

    // 5. Top-k approximate selection. `Exec::TopK` is pushed down into the
    //    engine (a bounded heap over the candidate stream), so the full
    //    ranking is never materialized or sorted.
    println!("\nBM25 top-5 for query {:?}:", query.text());
    for s in bm25.execute(&query, Exec::TopK(5)).unwrap() {
        println!(
            "  tid {:>2}  score {:8.4}  {}",
            s.tid,
            s.score,
            tokenized.record_text(s.tid as usize)
        );
    }

    // 6. The same prepared query through a different predicate class.
    println!("\nSoftTFIDF (Jaro-Winkler) top-5 for the same query:");
    for s in soft.execute(&query, Exec::TopK(5)).unwrap() {
        println!(
            "  tid {:>2}  score {:8.4}  {}",
            s.tid,
            s.score,
            tokenized.record_text(s.tid as usize)
        );
    }

    // 7. Threshold selection (the approximate selection operator): for BM25
    //    this sums the query's posting lists per tuple in a dense
    //    accumulator and admits every score >= τ — bit-identical results to
    //    the exhaustive scan.
    let selected = bm25.execute(&query, Exec::Threshold(5.0)).unwrap();
    let scanned = bm25.execute(&query, Exec::ThresholdScan(5.0)).unwrap();
    assert_eq!(selected, scanned, "bounded threshold must match the exhaustive scan");
    println!("\ntuples with BM25 score >= 5.0: {}", selected.len());
}
