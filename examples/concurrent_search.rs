//! Concurrent batch serving: the "thousands of lookups against one corpus"
//! workload of the paper's evaluation chapter, driven through the
//! thread-pooled `ServingEngine` instead of a hand-written loop. Builds one
//! engine over a DBLP-like titles table, fans a mixed-predicate request
//! stream over a pool of workers, and reports per-request accounting
//! (queue wait, execution time, cache hits) plus the per-predicate latency
//! aggregation (`count` / `p50` / `p95` / `max`) that cost-aware scheduling
//! over expensive predicates starts from.
//!
//! Run with: `cargo run -p dasp-bench --release --example concurrent_search`

use dasp_core::{Exec, Params, PredicateKind, ServeRequest, ServingEngine};
use dasp_datagen::dblp_dataset;
use dasp_eval::{build_engine, time_serving};

fn main() {
    let dataset = dblp_dataset(2000);
    let params = Params::default();
    let engine = build_engine(&dataset, &params);
    println!("base relation: {} DBLP-like titles, one shared SelectionEngine", dataset.len());

    // A mixed request stream: five predicate kinds, 30 distinct query
    // strings, top-10 pushdown — with every 4th request a repeat, so the
    // engine's result cache sees serving-shaped traffic too.
    let kinds = [
        PredicateKind::IntersectSize,
        PredicateKind::Cosine,
        PredicateKind::Bm25,
        PredicateKind::Hmm,
        PredicateKind::EditSimilarity,
    ];
    let requests: Vec<ServeRequest> = (0..120)
        .map(|i| {
            // Every 4th request repeats an earlier one verbatim (same
            // predicate, text and mode), so the cache sees hits too.
            let j = if i % 4 == 3 { i - 3 } else { i };
            let text = &dataset.records[(j * 17) % dataset.len()].text;
            ServeRequest::new(kinds[j % kinds.len()], text.clone(), Exec::TopK(10))
        })
        .collect();

    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
    let serving = ServingEngine::new(engine.clone(), workers);
    let (responses, timing) = time_serving(&serving, &requests);
    println!(
        "\nserved {} requests over {} worker(s) in {:.1} ms ({:.0} queries/sec)",
        requests.len(),
        serving.workers(),
        timing.total.as_secs_f64() * 1e3,
        requests.len() as f64 / timing.total.as_secs_f64()
    );

    // Per-request accounting: results come back in submission order, each
    // with its queue wait, execution time and cache-hit flag.
    println!("\nfirst requests of the stream:");
    for (request, response) in requests.iter().zip(&responses).take(6) {
        let stats = &response.stats;
        let best = response.results.as_ref().unwrap().first();
        println!(
            "  {:<7} wait {:>7.1} us  exec {:>8.1} us  worker {}  {}  {:?} -> {}",
            request.kind.short_name(),
            stats.queue_wait.as_secs_f64() * 1e6,
            stats.exec_time.as_secs_f64() * 1e6,
            stats.worker,
            if stats.cache_hit { "cache" } else { "fresh" },
            &request.text[..request.text.len().min(28)],
            best.map(|s| format!("tid {} ({:.3e})", s.tid, s.score)).unwrap_or_default()
        );
    }

    // Per-predicate latency aggregation over everything served.
    println!(
        "\n{:<8} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "", "count", "hits", "p50 (us)", "p95 (us)", "max (us)"
    );
    for (kind, m) in serving.metrics() {
        println!(
            "{:<8} {:>6} {:>6} {:>10.1} {:>10.1} {:>10.1}",
            kind.short_name(),
            m.count,
            m.cache_hits,
            m.p50.as_secs_f64() * 1e6,
            m.p95.as_secs_f64() * 1e6,
            m.max.as_secs_f64() * 1e6
        );
    }

    let cache = engine.result_cache_stats();
    println!(
        "\nresult cache: {} hits / {} misses ({} entries cached)",
        cache.hits, cache.misses, cache.entries
    );
}
