//! Engine baseline bench: preprocessing and query time for all 13 predicates
//! at 1k / 10k records through the session-based `SelectionEngine` API —
//! indexed prepared plans vs. the naive pre-refactor path (clone-per-scan +
//! per-query full-table hash builds), plus the pushdown operators against
//! their exhaustive baselines: the heap top-k (`Exec::TopKHeap`) vs
//! rank-then-truncate, and — for the five monotone-sum predicates (Xect,
//! WM, Cosine, BM25, HMM) — the two posting-driven bounded operators,
//! `Exec::TopK` → `Plan::TopKBounded` vs the heap and `Exec::Threshold` →
//! `Plan::ThresholdBounded` vs the exhaustive `Exec::ThresholdScan` at a
//! selective τ (`threshold_bounded_us` / `threshold_speedup`, with a
//! per-selectivity `threshold_sweep` section across τ bars). A
//! `bounded_100k` section records the bounded-vs-exhaustive speedups at a
//! 100k-record scale point (bounded predicates only, not run in smoke). A
//! `batch_throughput` section runs a mixed bounded-top-k request stream
//! through `ServingEngine` pools of 1/2/4 workers (queries/sec; worker
//! scaling is bounded by the cores the machine grants, recorded alongside
//! as `serving_cores`). A `live`
//! section measures the segmented `LiveEngine`: append throughput at seal
//! limits 1/64/1000 (the limit bounds the tail each append shares),
//! bounded top-k latency with the same records held as 1/4/16 sealed
//! segments (cross-checked against each variant's rebuilt monolith), and
//! the default-seal append against rebuilding a monolithic engine per
//! ingested record (the >= 10x acceptance bar at 10k). A `sharded` section
//! runs the bounded top-k and fixed-τ threshold through a `LiveEngine`
//! split into tid-range shards (a fixed 4-shard partition, one independent
//! run per shard, merged) against its rebuilt monolith over the same frozen
//! corpus stats, at
//! the grid sizes and — not in smoke — at 100k and 1M scale points; every
//! sharded answer is first cross-checked against the monolith (Rank,
//! threshold and top-k bit-identical). Writes
//! `BENCH_engine.json` at the workspace root so future PRs have a perf
//! trajectory to compare against.
//!
//! Run with: `cargo bench --bench bench_engine`
//! Smoke mode (CI): `cargo bench --bench bench_engine -- --smoke`
//!
//! The acceptance bars this file demonstrates at 10k records: the indexed
//! engine answers queries >= 4x faster than the naive full-join path for the
//! plan-based predicates, the heap top-k pushdown beats materializing and
//! sorting the full ranking of the same join plan
//! (`median_topk_speedup_10k`), the bounded top-k operator is >= 2x faster
//! than the heap pushdown (median over its five predicates,
//! `median_ta_speedup_10k`), and the bounded threshold operator is >= 2x
//! faster than the exhaustive threshold scan at a selective τ
//! (`median_threshold_speedup_10k`). GES (exact) has no relational plan —
//! the paper computes it with a UDF — so its two engine paths coincide and
//! it is excluded from the engine-speedup summary (its top-k pushdown, a
//! bounded heap over the scored tuples, is still measured).
//!
//! Smoke mode doubles as the CI regression guard: for the eight kernel
//! predicates (the five bounded ones plus Jaccard, WJ and LM) it cross-checks
//! the indexed `Rank` against the naive join plan, the kernel top-k against
//! the heap path and the kernel threshold against the exhaustive scan (all
//! bit-identical; panics on any divergence), and fails on gross
//! performance regressions of any pushdown operator.

use criterion::{measure, Measurement};
use dasp_core::{
    Corpus, Exec, ExecBudget, LiveEngine, Params, PredicateKind, Query, ScoredTid, SelectionEngine,
    ServeRequest, ServingEngine,
};
use dasp_datagen::dblp_dataset;
use dasp_eval::tokenize_dataset;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [usize; 2] = [1_000, 10_000];
const SMOKE_SIZES: [usize; 1] = [1_000];
const NUM_QUERIES: usize = 3;
const TOP_K: usize = 10;
/// The 100k scale point: bounded operators only (the exhaustive baselines
/// of the full grid would dominate the run at this size). Not run in smoke.
const SCALE_SIZE: usize = 100_000;
/// Worker-pool widths of the batch-serving throughput section.
const WORKER_WIDTHS: [usize; 3] = [1, 2, 4];
/// Seal limits of the live-append throughput rows: the tail cycles between
/// 0 and the limit, so the limit bounds the tail each append shares with
/// the new tail (1 = a fresh segment per append, 1000 = a large
/// mostly-unsealed tail).
const LIVE_SEALS: [usize; 3] = [1, 64, 1000];
/// Segment counts of the live query-latency rows: the same records held as
/// 1 / 4 / 16 sealed segments, so the per-segment traversal + merge
/// overhead of segmented execution is isolated from corpus size.
const LIVE_SEGMENTS: [usize; 3] = [1, 4, 16];
/// Shard count of the sharded-execution section: fixed (rather than the
/// machine's core count) so recorded numbers stay comparable across runs
/// on different hardware. Shard-count *sweeps* belong to the differential
/// tier (`engine_sharded.rs`); this section records latency.
const SHARD_COUNT: usize = 4;
/// Scale points of the sharded section (not run in smoke): 100k matches
/// the bounded scale point, 1M is where per-shard traversal is long enough
/// for a multi-core machine to amortize the fan-out; on a single-core
/// runner both record the fan-out + merge overhead instead.
const SHARDED_SCALE_SIZES: [usize; 2] = [100_000, 1_000_000];

/// The predicates `Exec::TopK` routes through the bounded operator.
const BOUNDED: [PredicateKind; 5] = [
    PredicateKind::IntersectSize,
    PredicateKind::WeightedMatch,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::Hmm,
];

/// The predicates whose indexed `Rank`, `TopK` and `Threshold` run the
/// posting kernel: the five bounded ones, plus Jaccard, WJ and LM, which
/// join a per-tuple table on top of the kernel's per-tid sums.
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

/// The predicates whose indexed modes filter candidates through the GES
/// word memo, with the relq filter plan as the naive reference.
const GES_FILTERED: [PredicateKind; 2] = [PredicateKind::GesJaccard, PredicateKind::GesApx];

struct BenchRow {
    predicate: &'static str,
    bounded: bool,
    size: usize,
    preprocess_ms: f64,
    query_indexed_us: f64,
    query_naive_us: f64,
    top_k_heap_us: f64,
    top_k_bounded_us: f64,
    rank_truncate_us: f64,
    /// `Exec::Threshold` at the selective τ (the rank-`TOP_K` score): the
    /// bounded operator for the five bounded predicates, the plan-level
    /// score filter otherwise.
    threshold_bounded_us: f64,
    /// `Exec::ThresholdScan` at the same τ — always the exhaustive path.
    threshold_scan_us: f64,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        ratio(self.query_naive_us, self.query_indexed_us)
    }

    /// Heap pushdown vs. the rank-then-truncate baseline.
    fn top_k_speedup(&self) -> f64 {
        ratio(self.rank_truncate_us, self.top_k_heap_us)
    }

    /// Bounded operator vs. the heap pushdown (1.0 for heap-only predicates,
    /// whose `Exec::TopK` is the heap).
    fn ta_speedup(&self) -> f64 {
        ratio(self.top_k_heap_us, self.top_k_bounded_us)
    }

    /// Bounded threshold vs. the exhaustive scan at the selective τ (≈1.0
    /// for the predicates whose `Exec::Threshold` is the scan).
    fn threshold_speedup(&self) -> f64 {
        ratio(self.threshold_scan_us, self.threshold_bounded_us)
    }
}

/// One τ bar of the threshold-selectivity sweep: both threshold paths of a
/// bounded predicate measured at the τ selecting ~`target_rank` records.
struct ThresholdSweepRow {
    predicate: &'static str,
    size: usize,
    /// The τ bar was set at this rank's score (per query), i.e. a selection
    /// of roughly this many records.
    target_rank: usize,
    threshold_bounded_us: f64,
    threshold_scan_us: f64,
}

impl ThresholdSweepRow {
    fn speedup(&self) -> f64 {
        ratio(self.threshold_scan_us, self.threshold_bounded_us)
    }
}

/// One bounded predicate at the 100k scale point: the two bounded operators
/// against their exhaustive counterparts.
struct ScaleRow {
    predicate: &'static str,
    size: usize,
    top_k_heap_us: f64,
    top_k_bounded_us: f64,
    threshold_bounded_us: f64,
    threshold_scan_us: f64,
}

impl ScaleRow {
    fn ta_speedup(&self) -> f64 {
        ratio(self.top_k_heap_us, self.top_k_bounded_us)
    }

    fn threshold_speedup(&self) -> f64 {
        ratio(self.threshold_scan_us, self.threshold_bounded_us)
    }
}

/// One bounded predicate through a tid-range sharded `LiveEngine` vs a
/// monolithic engine over the same frozen corpus stats. The `*_speedup`
/// ratios are monolith-time / sharded-time, so > 1.0 means fanning the
/// shards paid off; on a single-core runner the expected value sits a
/// little *below* 1.0 (scoped-thread spawn + merge overhead with no
/// parallelism to buy it back), which is why smoke only guards against a
/// collapse, not for a speedup.
struct ShardedRow {
    predicate: &'static str,
    size: usize,
    shards: usize,
    topk_monolith_us: f64,
    topk_sharded_us: f64,
    /// Threshold at the selective (rank-`TOP_K`) τ on both sides.
    threshold_monolith_us: f64,
    threshold_sharded_us: f64,
}

impl ShardedRow {
    fn topk_speedup(&self) -> f64 {
        ratio(self.topk_monolith_us, self.topk_sharded_us)
    }

    fn threshold_speedup(&self) -> f64 {
        ratio(self.threshold_monolith_us, self.threshold_sharded_us)
    }
}

/// Build a `SHARD_COUNT`-shard `LiveEngine` and its rebuilt monolith over
/// the SAME frozen statistics (the shards and the monolith project them, so
/// scores are comparable bit-for-bit), cross-check every query in
/// every mode the section times — Rank, fixed-τ threshold and bounded
/// top-k (against the monolith's heap) bit-identical — then record
/// one [`ShardedRow`] per bounded predicate. Shared by the per-size grid
/// (smoke's differential guard) and the non-smoke scale points. The sharded
/// side takes query *text* (each shard tokenizes against its own corpus
/// view), so its numbers include per-request query preparation; at these
/// corpus sizes that cost is noise next to traversal.
fn measure_sharded_rows(
    dataset: &dasp_datagen::Dataset,
    params: &Params,
    size: usize,
    samples: usize,
    sharded_rows: &mut Vec<ShardedRow>,
) {
    let corpus = Corpus::from_strings(dataset.strings());
    let sharded = LiveEngine::from_corpus(corpus, &Params { shards: SHARD_COUNT, ..*params });
    let (monolith, _) = sharded.rebuild_monolith();
    // Disable the merged cache (shard engines keep none) — the timing loops
    // repeat identical executions, which a cache would short-circuit.
    sharded.set_result_cache_capacity(0);
    monolith.set_result_cache_capacity(0);
    let texts: Vec<String> =
        (0..NUM_QUERIES).map(|i| dataset.records[i * 7 % dataset.len()].text.clone()).collect();
    for &kind in &BOUNDED {
        let handle = monolith.predicate(kind);
        let qs: Vec<Query> = texts.iter().map(|t| monolith.query(t)).collect();
        let rankings: Vec<Vec<ScoredTid>> =
            qs.iter().map(|q| handle.execute(q, Exec::Rank).unwrap()).collect();
        let taus: Vec<f64> = rankings.iter().map(|r| tau_at_rank(r, TOP_K)).collect();

        for (i, (text, q)) in texts.iter().zip(&qs).enumerate() {
            // Exact mode: the shard merge must reproduce the monolith's
            // ranking bit-for-bit (tids and score bits at every rank).
            let sr = sharded.execute(kind, text, Exec::Rank).unwrap();
            assert_eq!(sr.len(), rankings[i].len(), "{kind}: sharded rank size diverged");
            for (rank, (s, m)) in sr.iter().zip(&rankings[i]).enumerate() {
                assert_eq!(s.tid, m.tid, "{kind}: sharded rank tid diverged at rank {rank}");
                assert_eq!(
                    s.score.to_bits(),
                    m.score.to_bits(),
                    "{kind}: sharded rank score diverged at rank {rank}"
                );
            }
            // Bounded top-k, one run per shard, and fixed-τ threshold.
            let b = sharded.execute(kind, text, Exec::TopK(TOP_K)).unwrap();
            let h = handle.execute(q, Exec::TopKHeap(TOP_K)).unwrap();
            assert_bit_identical(kind, "sharded top-k", &b, &h);
            let tb = sharded.execute(kind, text, Exec::Threshold(taus[i])).unwrap();
            let tm = handle.execute(q, Exec::Threshold(taus[i])).unwrap();
            assert_bit_identical(kind, "sharded threshold", &tb, &tm);
        }

        let s_topk = measure(samples, || {
            let mut n = 0;
            for text in &texts {
                n += sharded.execute(kind, text, Exec::TopK(TOP_K)).unwrap().len();
            }
            n
        });
        let m_topk = measure(samples, || {
            let mut n = 0;
            for q in &qs {
                n += handle.execute(q, Exec::TopK(TOP_K)).unwrap().len();
            }
            n
        });
        let s_thr = measure(samples, || {
            let mut n = 0;
            for (text, &tau) in texts.iter().zip(&taus) {
                n += sharded.execute(kind, text, Exec::Threshold(tau)).unwrap().len();
            }
            n
        });
        let m_thr = measure(samples, || {
            let mut n = 0;
            for (q, &tau) in qs.iter().zip(&taus) {
                n += handle.execute(q, Exec::Threshold(tau)).unwrap().len();
            }
            n
        });
        let row = ShardedRow {
            predicate: kind.short_name(),
            size,
            shards: sharded.metrics().sealed_segments,
            topk_monolith_us: per_query_us(&m_topk, qs.len()),
            topk_sharded_us: per_query_us(&s_topk, texts.len()),
            threshold_monolith_us: per_query_us(&m_thr, qs.len()),
            threshold_sharded_us: per_query_us(&s_thr, texts.len()),
        };
        println!(
            "bench engine/{:<12} n={:<7} sharded x{} vs monolith: top{TOP_K} {:>9.1} us vs {:>9.1} us ({:>5.2}x)   thr {:>9.1} us vs {:>9.1} us ({:>5.2}x)",
            row.predicate, size, row.shards, row.topk_sharded_us, row.topk_monolith_us,
            row.topk_speedup(), row.threshold_sharded_us, row.threshold_monolith_us,
            row.threshold_speedup()
        );
        sharded_rows.push(row);
    }
}

/// Live-engine append throughput at one seal limit: single-record appends
/// into a `LiveEngine` whose tail cycles between 0 and `seal` records (each
/// append tokenizes only the new record and copies one pointer per tail
/// record, so the seal limit bounds only that copy).
struct LiveAppendRow {
    size: usize,
    seal: usize,
    batch: usize,
    per_append_us: f64,
}

impl LiveAppendRow {
    fn appends_per_sec(&self) -> f64 {
        ratio(1e6, self.per_append_us)
    }
}

/// Bounded top-k latency of one predicate with the same records held as
/// `segments` sealed segments: each query runs the bounded operator per
/// segment and merges, so the row isolates the
/// per-segment overhead of segmented execution.
struct LiveSegmentRow {
    predicate: &'static str,
    size: usize,
    segments: usize,
    topk_us: f64,
}

/// Append cost vs the naive alternative — rebuilding a monolithic
/// `SelectionEngine` over the whole corpus after every ingested record.
/// `ratio()` is the factor the live append saves over the O(n)
/// rebuild; the acceptance bar asks >= 10x at 10k records.
struct LiveRebuildRow {
    size: usize,
    per_append_us: f64,
    rebuild_us: f64,
}

impl LiveRebuildRow {
    fn rebuild_ratio(&self) -> f64 {
        ratio(self.rebuild_us, self.per_append_us)
    }
}

fn ratio(baseline: f64, contender: f64) -> f64 {
    if contender > 0.0 {
        baseline / contender
    } else {
        f64::INFINITY
    }
}

fn per_query_us(m: &Measurement, queries: usize) -> f64 {
    m.median.as_secs_f64() * 1e6 / queries.max(1) as f64
}

fn median(sorted: &[(String, f64)]) -> f64 {
    sorted.get(sorted.len() / 2).map(|(_, s)| *s).unwrap_or(0.0)
}

/// Smoke-mode correctness guard: `got` must carry `expected`'s bytes — tids
/// and score bits at every rank. Bounded top-k is checked against the heap
/// path, bounded threshold against the exhaustive scan; any divergence
/// fails CI here.
fn assert_bit_identical(kind: PredicateKind, op: &str, got: &[ScoredTid], expected: &[ScoredTid]) {
    assert_eq!(got.len(), expected.len(), "{kind}: {op} returned a different size");
    for (i, (g, e)) in got.iter().zip(expected).enumerate() {
        assert_eq!(g.tid, e.tid, "{kind}: {op} tid diverged at rank {i}");
        assert_eq!(
            g.score.to_bits(),
            e.score.to_bits(),
            "{kind}: {op} score diverged at rank {i} ({} vs {})",
            g.score,
            e.score
        );
    }
}

/// The τ selecting roughly `rank` records for one (handle, query): the score
/// at that rank of the full ranking (clamped to the last score when the
/// ranking is shorter). `score >= τ` then admits `rank` records (more only
/// on exact ties).
fn tau_at_rank(ranked: &[ScoredTid], rank: usize) -> f64 {
    match ranked.get(rank.saturating_sub(1).min(ranked.len().saturating_sub(1))) {
        Some(s) => s.score,
        None => 0.0,
    }
}

/// One batch-serving throughput measurement: a fixed request stream through
/// a `ServingEngine` of the given pool width.
struct BatchRow {
    size: usize,
    workers: usize,
    requests: usize,
    qps: f64,
}

/// One anytime-degradation measurement: `Exec::Rank` latency with the
/// candidate budget capped at a fraction of the query's full candidate
/// count (`budget_pct` = 25 / 50, or 100 for an effectively unlimited cap
/// through the same budgeted code path).
struct DegradationRow {
    size: usize,
    predicate: &'static str,
    budget_pct: u32,
    latency_us: f64,
    degraded: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sizes, samples): (&[usize], usize) = if smoke { (&SMOKE_SIZES, 1) } else { (&SIZES, 5) };

    let mut rows: Vec<BenchRow> = Vec::new();
    let mut sweep_rows: Vec<ThresholdSweepRow> = Vec::new();
    let mut scale_rows: Vec<ScaleRow> = Vec::new();
    let mut sharded_rows: Vec<ShardedRow> = Vec::new();
    let mut batch_rows: Vec<BatchRow> = Vec::new();
    let mut degradation_rows: Vec<DegradationRow> = Vec::new();
    let mut live_append_rows: Vec<LiveAppendRow> = Vec::new();
    let mut live_segment_rows: Vec<LiveSegmentRow> = Vec::new();
    let mut live_rebuild_rows: Vec<LiveRebuildRow> = Vec::new();
    // Phase-1 (shared-artifact) build time per size: with lazy artifacts this
    // is near zero at build and paid per artifact on first probe instead.
    let mut phase1: Vec<(usize, f64)> = Vec::new();
    for &size in sizes {
        let dataset = dblp_dataset(size);
        let params = Params::default();
        let corpus = tokenize_dataset(&dataset, &params);
        let engine_start = Instant::now();
        let engine = SelectionEngine::build(corpus, &params);
        let engine_ms = engine_start.elapsed().as_secs_f64() * 1e3;
        phase1.push((size, engine_ms));
        println!(
            "bench engine/shared-artifacts n={size:<6} engine build {engine_ms:>9.2} ms (lazy)"
        );
        // Timing loops repeat identical executions, which the result cache
        // would short-circuit; disable it so measurements stay honest.
        engine.set_result_cache_capacity(0);

        // Queries are prepared (tokenized) once and reused across predicates
        // and modes — exactly what the session API is for. Combination
        // predicates tokenize at the word level; the paper queries them with
        // short strings for the same reason we do.
        let queries: Vec<Query> = (0..NUM_QUERIES)
            .map(|i| engine.query(&dataset.records[i * 7 % dataset.len()].text))
            .collect();
        let short_queries: Vec<Query> = queries
            .iter()
            .map(|q| {
                engine.query(&q.text().split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            })
            .collect();

        for &kind in PredicateKind::all() {
            let start = Instant::now();
            let handle = engine.predicate(kind);
            let preprocess_ms = start.elapsed().as_secs_f64() * 1e3;
            let qs: &[Query] = if kind.uses_word_tokens() { &short_queries } else { &queries };
            let bounded = BOUNDED.contains(&kind);

            // The selective τ per query: the rank-TOP_K score, so threshold
            // selection returns ~TOP_K of the corpus — the serving-shaped
            // "give me everything above a high bar" workload.
            let rankings: Vec<Vec<ScoredTid>> =
                qs.iter().map(|q| handle.execute(q, Exec::Rank).unwrap()).collect();
            let taus: Vec<f64> = rankings.iter().map(|r| tau_at_rank(r, TOP_K)).collect();

            // Correctness guards (before timing). Indexed Rank returns the
            // naive plan's bytes: the kernel predicates' join plan, and for
            // GES_Jaccard/GES_apx the re-scored survivors of the relq filter
            // plan, not of the served word memo.
            if KERNEL.contains(&kind) || GES_FILTERED.contains(&kind) {
                for (q, ranking) in qs.iter().zip(&rankings) {
                    let naive = handle.execute_naive(q, Exec::Rank).unwrap();
                    assert_bit_identical(kind, "rank", ranking, &naive);
                }
            }
            if KERNEL.contains(&kind) {
                // The kernel modes: TopK returns the heap's bytes,
                // Threshold the scan's.
                for (q, &tau) in qs.iter().zip(&taus) {
                    let b = handle.execute(q, Exec::TopK(TOP_K)).unwrap();
                    let h = handle.execute(q, Exec::TopKHeap(TOP_K)).unwrap();
                    assert_bit_identical(kind, "top-k", &b, &h);
                    let tb = handle.execute(q, Exec::Threshold(tau)).unwrap();
                    let ts = handle.execute(q, Exec::ThresholdScan(tau)).unwrap();
                    assert_bit_identical(kind, "threshold", &tb, &ts);
                }
            }

            let indexed = measure(samples, || {
                let mut n = 0;
                for q in qs {
                    n += handle.execute(q, Exec::Rank).unwrap().len();
                }
                n
            });
            let naive = measure(samples, || {
                let mut n = 0;
                for q in qs {
                    n += handle.execute_naive(q, Exec::Rank).unwrap().len();
                }
                n
            });
            // The two top-k pushdown operators vs. the old cost model for
            // `top_k`: rank the full corpus, materialize + sort, truncate.
            // The baseline ranks over the heap's own join plan: for the
            // kernel predicates, whose indexed `Rank` is the posting kernel,
            // that full ranking is `TopKHeap(∞)`.
            let rank_everything =
                if KERNEL.contains(&kind) { Exec::TopKHeap(usize::MAX) } else { Exec::Rank };
            let top_k_heap = measure(samples, || {
                let mut n = 0;
                for q in qs {
                    n += handle.execute(q, Exec::TopKHeap(TOP_K)).unwrap().len();
                }
                n
            });
            let top_k_bounded = measure(samples, || {
                let mut n = 0;
                for q in qs {
                    n += handle.execute(q, Exec::TopK(TOP_K)).unwrap().len();
                }
                n
            });
            let rank_truncate = measure(samples, || {
                let mut n = 0;
                for q in qs {
                    let mut ranked = handle.execute(q, rank_everything).unwrap();
                    ranked.truncate(TOP_K);
                    n += ranked.len();
                }
                n
            });
            // The two threshold routes at the selective τ: `Threshold` is
            // the bounded operator for the bounded five (the scan for the
            // rest), `ThresholdScan` always the exhaustive filter.
            let threshold_bounded = measure(samples, || {
                let mut n = 0;
                for (q, &tau) in qs.iter().zip(&taus) {
                    n += handle.execute(q, Exec::Threshold(tau)).unwrap().len();
                }
                n
            });
            let threshold_scan = measure(samples, || {
                let mut n = 0;
                for (q, &tau) in qs.iter().zip(&taus) {
                    n += handle.execute(q, Exec::ThresholdScan(tau)).unwrap().len();
                }
                n
            });
            let row = BenchRow {
                predicate: kind.short_name(),
                bounded,
                size,
                preprocess_ms,
                query_indexed_us: per_query_us(&indexed, qs.len()),
                query_naive_us: per_query_us(&naive, qs.len()),
                top_k_heap_us: per_query_us(&top_k_heap, qs.len()),
                top_k_bounded_us: per_query_us(&top_k_bounded, qs.len()),
                rank_truncate_us: per_query_us(&rank_truncate, qs.len()),
                threshold_bounded_us: per_query_us(&threshold_bounded, qs.len()),
                threshold_scan_us: per_query_us(&threshold_scan, qs.len()),
            };
            println!(
                "bench engine/{:<12} n={:<6} preprocess {:>9.2} ms   rank {:>9.1} us   naive {:>9.1} us ({:>5.1}x)   top{TOP_K} heap {:>9.1} us vs rank+cut {:>9.1} us ({:>5.2}x)   bounded {:>9.1} us ({:>5.2}x{})   thr {:>9.1} us vs scan {:>9.1} us ({:>5.2}x)",
                row.predicate, row.size, row.preprocess_ms, row.query_indexed_us,
                row.query_naive_us, row.speedup(), row.top_k_heap_us, row.rank_truncate_us,
                row.top_k_speedup(), row.top_k_bounded_us, row.ta_speedup(),
                if KERNEL.contains(&kind) { "" } else { ", heap" },
                row.threshold_bounded_us, row.threshold_scan_us, row.threshold_speedup()
            );
            rows.push(row);

            // Threshold-selectivity sweep (bounded predicates): the bar at
            // the rank-10 / rank-100 / rank-1000 scores — from "a handful of
            // strong matches" to "a tenth of the corpus". The speedup of the
            // bounded operator shrinks as τ admits more of the corpus;
            // the sweep records that curve. The rank-TOP_K bar is exactly
            // the workload the row's threshold columns just measured, so it
            // reuses those numbers instead of re-measuring.
            if bounded {
                let row = rows.last().expect("row pushed above");
                let (row_bounded_us, row_scan_us) =
                    (row.threshold_bounded_us, row.threshold_scan_us);
                for target_rank in [TOP_K, 100, 1000] {
                    if target_rank > size {
                        continue;
                    }
                    let sweep_row = if target_rank == TOP_K {
                        ThresholdSweepRow {
                            predicate: kind.short_name(),
                            size,
                            target_rank,
                            threshold_bounded_us: row_bounded_us,
                            threshold_scan_us: row_scan_us,
                        }
                    } else {
                        let sweep_taus: Vec<f64> =
                            rankings.iter().map(|r| tau_at_rank(r, target_rank)).collect();
                        let b = measure(samples, || {
                            let mut n = 0;
                            for (q, &tau) in qs.iter().zip(&sweep_taus) {
                                n += handle.execute(q, Exec::Threshold(tau)).unwrap().len();
                            }
                            n
                        });
                        let s = measure(samples, || {
                            let mut n = 0;
                            for (q, &tau) in qs.iter().zip(&sweep_taus) {
                                n += handle.execute(q, Exec::ThresholdScan(tau)).unwrap().len();
                            }
                            n
                        });
                        ThresholdSweepRow {
                            predicate: kind.short_name(),
                            size,
                            target_rank,
                            threshold_bounded_us: per_query_us(&b, qs.len()),
                            threshold_scan_us: per_query_us(&s, qs.len()),
                        }
                    };
                    println!(
                        "bench engine/{:<12} n={:<6} tau@rank{:<5} bounded {:>9.1} us vs scan {:>9.1} us ({:>5.2}x)",
                        sweep_row.predicate, size, target_rank, sweep_row.threshold_bounded_us,
                        sweep_row.threshold_scan_us, sweep_row.speedup()
                    );
                    sweep_rows.push(sweep_row);
                }
            }
        }

        // --- Batch / concurrent serving throughput ---------------------------
        // A fixed mixed stream of bounded-top-k requests (the serving-shaped
        // workload: many lookups, small k) through `ServingEngine` pools of
        // 1/2/4 workers. The cache stays disabled, so every request really
        // executes; worker scaling therefore measures the engine's shared
        // artifacts under true parallelism and tops out at the machine's
        // core count.
        let n_requests = if smoke { 60 } else { 240 };
        // 48 distinct texts against 5 kinds: kind cycles fastest, text
        // advances per kind-cycle, and 5 ∤ 48 keeps every (kind, text) pair
        // of the stream distinct — no duplicates, so the (disabled) cache
        // could not answer any request anyway and every row below measures
        // real executions.
        let mut texts: Vec<String> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0.. {
            if texts.len() == 48 {
                break;
            }
            let text = &dataset.records[(i * 37 + 11) % dataset.len()].text;
            if seen.insert(text.clone()) {
                texts.push(text.clone());
            }
        }
        let requests: Vec<ServeRequest> = (0..n_requests)
            .map(|i| {
                ServeRequest::new(
                    BOUNDED[i % BOUNDED.len()],
                    texts[(i / BOUNDED.len()) % texts.len()].clone(),
                    Exec::TopK(TOP_K),
                )
            })
            .collect();
        assert!(
            requests
                .iter()
                .map(|r| (r.kind, r.text.as_str()))
                .collect::<std::collections::HashSet<_>>()
                .len()
                == requests.len(),
            "throughput stream must be duplicate-free"
        );
        // The serial reference every concurrent configuration must match.
        let reference: Vec<Vec<ScoredTid>> = requests
            .iter()
            .map(|r| engine.predicate(r.kind).execute(&engine.query(&r.text), r.exec).unwrap())
            .collect();

        for workers in WORKER_WIDTHS {
            let serving = ServingEngine::new(engine.clone(), workers);
            // Warm-up doubling as the byte-identity guard: any pool width
            // must return the serial bytes, in submission order.
            for (response, expected) in serving.serve(&requests).iter().zip(&reference) {
                assert_eq!(
                    response.results.as_ref().unwrap(),
                    expected,
                    "{workers}-worker serving diverged from serial execution"
                );
            }
            let m = measure(samples, || serving.serve(&requests).len());
            let qps = n_requests as f64 / m.median.as_secs_f64();
            let base = batch_rows
                .iter()
                .find(|r| r.size == size && r.workers == 1)
                .map(|r| r.qps)
                .unwrap_or(qps);
            println!(
                "bench engine/batch        n={size:<6} serve x{workers} workers {qps:>9.0} q/s ({:>5.2}x vs 1 worker)",
                qps / base
            );
            batch_rows.push(BatchRow { size, workers, requests: n_requests, qps });
        }

        // --- Degradation: anytime latency under candidate budgets ------------
        // `Exec::Rank` through `execute_budgeted` with the candidate cap at
        // 25% / 50% of the query's full candidate count, and at an
        // effectively unlimited cap through the same budgeted code path (the
        // 100% row — so the ratios isolate what truncation buys, not what
        // budget bookkeeping costs). Before timing, each configuration is
        // checked in place: every returned score bit-identical to the exact
        // ranking's score for that tid, and `degraded` set iff the cap is
        // below the candidate count.
        for &kind in &BOUNDED {
            let handle = engine.predicate(kind);
            let q = &queries[0];
            let exact = handle.execute(q, Exec::Rank).unwrap();
            let exact_scores: std::collections::HashMap<_, _> =
                exact.iter().map(|s| (s.tid, s.score.to_bits())).collect();
            let open = ExecBudget { max_candidates: Some(usize::MAX), ..ExecBudget::default() };
            let probe = handle.execute_budgeted(q, Exec::Rank, open).unwrap();
            let total =
                probe.report.expect("capped runs report accounting").candidates_scored as usize;
            let total = total.max(1);
            for (pct, cap) in
                [(25u32, (total / 4).max(1)), (50, (total / 2).max(1)), (100, usize::MAX)]
            {
                let budget = ExecBudget { max_candidates: Some(cap), ..ExecBudget::default() };
                let run = handle.execute_budgeted(q, Exec::Rank, budget).unwrap();
                for s in &run.results {
                    assert_eq!(
                        exact_scores.get(&s.tid),
                        Some(&s.score.to_bits()),
                        "{kind}: budgeted run corrupted the score of tid {}",
                        s.tid
                    );
                }
                assert_eq!(
                    run.degraded,
                    cap < total,
                    "{kind}: degraded flag must track whether the cap binds ({cap}/{total})"
                );
                let m = measure(samples, || {
                    handle.execute_budgeted(q, Exec::Rank, budget).unwrap().results.len()
                });
                let latency_us = m.median.as_secs_f64() * 1e6;
                println!(
                    "bench engine/degradation  n={size:<6} {:<6} budget {pct:>3}% {latency_us:>9.1} us{}",
                    kind.short_name(),
                    if run.degraded { " (degraded)" } else { "" }
                );
                degradation_rows.push(DegradationRow {
                    size,
                    predicate: kind.short_name(),
                    budget_pct: pct,
                    latency_us,
                    degraded: run.degraded,
                });
            }
        }

        // --- Live corpus: appends, segmented queries, rebuild baseline -------
        // Append throughput at three seal limits. Every append tokenizes
        // only the new record and shares the tail's other records (the
        // engine build itself is lazy), so the seal limit — the tail size at
        // which the engine freezes a segment — bounds only a pointer copy;
        // the corpus behind the sealed segments never matters.
        let append_batch = if smoke { 48 } else { 192 };
        for seal in LIVE_SEALS {
            let live = LiveEngine::from_corpus(
                Corpus::from_strings(dataset.strings()),
                &Params { segment_seal: seal, ..params },
            );
            let mut next = 0usize;
            let m = measure(samples, || {
                for _ in 0..append_batch {
                    live.append(dataset.records[next % dataset.len()].text.clone());
                    next += 1;
                }
                live.epoch()
            });
            let row = LiveAppendRow {
                size,
                seal,
                batch: append_batch,
                per_append_us: m.median.as_secs_f64() * 1e6 / append_batch as f64,
            };
            println!(
                "bench engine/live         n={size:<6} append @ seal {seal:<5} {:>9.1} us/append ({:>9.0} appends/s)",
                row.per_append_us,
                row.appends_per_sec()
            );
            live_append_rows.push(row);
        }

        // Bounded top-k latency vs segment count: the same records held as
        // 1 / 4 / 16 segments (seed chunk + seal-limit-sized appends). The
        // frozen vocabulary is the seed chunk's, so the variants' scores are
        // not mutually comparable — the latency of the per-segment traversal
        // + merge is what the rows record. Queries are drawn from
        // the seed chunk so every variant's vocabulary covers them, and each
        // variant is first cross-checked against its own rebuilt monolith
        // (append-only construction keeps the tid map the identity).
        let strings = dataset.strings();
        for segments in LIVE_SEGMENTS {
            let chunk = size.div_ceil(segments);
            let live = LiveEngine::from_corpus(
                Corpus::from_strings(strings[..chunk].to_vec()),
                &Params { segment_seal: chunk, ..params },
            );
            for text in &strings[chunk..] {
                live.append(text.clone());
            }
            live.seal();
            live.set_result_cache_capacity(0);
            let texts: Vec<String> =
                (0..NUM_QUERIES).map(|i| strings[i * 7 % chunk].clone()).collect();
            let (monolith, map) = live.rebuild_monolith();
            monolith.set_result_cache_capacity(0);
            for &kind in &BOUNDED {
                let handle = monolith.predicate(kind);
                for t in &texts {
                    let lv = live.execute(kind, t, Exec::TopKHeap(TOP_K)).unwrap();
                    let mv: Vec<ScoredTid> = handle
                        .execute(&monolith.query(t), Exec::TopKHeap(TOP_K))
                        .unwrap()
                        .into_iter()
                        .map(|s| ScoredTid { tid: map[s.tid as usize], score: s.score })
                        .collect();
                    assert_bit_identical(kind, "live top-k", &lv, &mv);
                }
                let m = measure(samples, || {
                    let mut n = 0;
                    for t in &texts {
                        n += live.execute(kind, t, Exec::TopK(TOP_K)).unwrap().len();
                    }
                    n
                });
                let row = LiveSegmentRow {
                    predicate: kind.short_name(),
                    size,
                    segments,
                    topk_us: per_query_us(&m, texts.len()),
                };
                println!(
                    "bench engine/live         n={size:<6} {:<12} top{TOP_K} over {segments:>2} segment(s) {:>9.1} us",
                    row.predicate, row.topk_us
                );
                live_segment_rows.push(row);
            }
        }

        // Append vs rebuild-per-append: the live append at the default seal
        // limit against rebuilding a monolithic engine (tokenize + build)
        // over the whole corpus, i.e. what every ingested record would cost
        // without the segmented engine. Both sides defer predicate-artifact
        // construction the same way (lazy build), so the comparison is
        // ingestion cost against ingestion cost.
        let live = LiveEngine::from_corpus(Corpus::from_strings(dataset.strings()), &params);
        let mut next = 0usize;
        let ma = measure(samples, || {
            for _ in 0..append_batch {
                live.append(dataset.records[next % dataset.len()].text.clone());
                next += 1;
            }
            live.epoch()
        });
        let mr = measure(samples.min(3), || {
            let engine = SelectionEngine::build(tokenize_dataset(&dataset, &params), &params);
            engine.query("a").text().len()
        });
        let row = LiveRebuildRow {
            size,
            per_append_us: ma.median.as_secs_f64() * 1e6 / append_batch as f64,
            rebuild_us: mr.median.as_secs_f64() * 1e6,
        };
        println!(
            "bench engine/live         n={size:<6} append {:>9.1} us vs rebuild-per-append {:>9.1} us ({:>6.1}x)",
            row.per_append_us,
            row.rebuild_us,
            row.rebuild_ratio()
        );
        live_rebuild_rows.push(row);

        // --- Sharded execution: tid-range shards vs the monolith -------------
        // The same corpus partitioned into SHARD_COUNT tid-range shards,
        // fanned and merged, against a monolithic engine over the same
        // frozen stats. In smoke mode the in-place cross-checks (Rank,
        // threshold and top-k bit-identical) double as the CI differential
        // guard between the sharded and monolithic code paths.
        measure_sharded_rows(&dataset, &params, size, samples, &mut sharded_rows);
    }

    // --- 100k scale point: bounded operators only -------------------------
    // The full 13-predicate grid at 100k would spend most of the run in the
    // naive and exhaustive baselines; the question at this scale is how the
    // bounded operators hold up as the posting lists grow 10x, so only the
    // five bounded predicates are measured, against their exhaustive
    // counterparts (fewer samples — at 100k the per-query times dwarf timer
    // noise). Skipped in smoke mode.
    if !smoke {
        let size = SCALE_SIZE;
        let scale_samples = 3;
        let dataset = dblp_dataset(size);
        let params = Params::default();
        let build_start = Instant::now();
        let engine = SelectionEngine::build(tokenize_dataset(&dataset, &params), &params);
        println!(
            "bench engine/scale        n={size:<6} corpus + engine build {:>9.2} ms",
            build_start.elapsed().as_secs_f64() * 1e3
        );
        engine.set_result_cache_capacity(0);
        let queries: Vec<Query> = (0..NUM_QUERIES)
            .map(|i| engine.query(&dataset.records[i * 7 % dataset.len()].text))
            .collect();
        for &kind in &BOUNDED {
            let handle = engine.predicate(kind);
            let rankings: Vec<Vec<ScoredTid>> =
                queries.iter().map(|q| handle.execute(q, Exec::Rank).unwrap()).collect();
            let taus: Vec<f64> = rankings.iter().map(|r| tau_at_rank(r, TOP_K)).collect();
            for (q, &tau) in queries.iter().zip(&taus) {
                let b = handle.execute(q, Exec::TopK(TOP_K)).unwrap();
                let h = handle.execute(q, Exec::TopKHeap(TOP_K)).unwrap();
                assert_bit_identical(kind, "top-k", &b, &h);
                let tb = handle.execute(q, Exec::Threshold(tau)).unwrap();
                let ts = handle.execute(q, Exec::ThresholdScan(tau)).unwrap();
                assert_bit_identical(kind, "threshold", &tb, &ts);
            }
            let heap = measure(scale_samples, || {
                let mut n = 0;
                for q in &queries {
                    n += handle.execute(q, Exec::TopKHeap(TOP_K)).unwrap().len();
                }
                n
            });
            let bounded = measure(scale_samples, || {
                let mut n = 0;
                for q in &queries {
                    n += handle.execute(q, Exec::TopK(TOP_K)).unwrap().len();
                }
                n
            });
            let threshold_bounded = measure(scale_samples, || {
                let mut n = 0;
                for (q, &tau) in queries.iter().zip(&taus) {
                    n += handle.execute(q, Exec::Threshold(tau)).unwrap().len();
                }
                n
            });
            let threshold_scan = measure(scale_samples, || {
                let mut n = 0;
                for (q, &tau) in queries.iter().zip(&taus) {
                    n += handle.execute(q, Exec::ThresholdScan(tau)).unwrap().len();
                }
                n
            });
            let srow = ScaleRow {
                predicate: kind.short_name(),
                size,
                top_k_heap_us: per_query_us(&heap, queries.len()),
                top_k_bounded_us: per_query_us(&bounded, queries.len()),
                threshold_bounded_us: per_query_us(&threshold_bounded, queries.len()),
                threshold_scan_us: per_query_us(&threshold_scan, queries.len()),
            };
            println!(
                "bench engine/{:<12} n={:<6} top{TOP_K} heap {:>9.1} us vs bounded {:>9.1} us ({:>5.2}x)   thr bounded {:>9.1} us vs scan {:>9.1} us ({:>5.2}x)",
                srow.predicate, size, srow.top_k_heap_us, srow.top_k_bounded_us,
                srow.ta_speedup(), srow.threshold_bounded_us, srow.threshold_scan_us,
                srow.threshold_speedup()
            );
            scale_rows.push(srow);
        }
        drop(engine);

        // --- Sharded execution at scale --------------------------------------
        // 100k re-uses the scale corpus; 1M is built fresh (only this
        // section runs there — the exhaustive baselines would take hours).
        // Fewer samples at 1M: per-query times dwarf timer noise.
        measure_sharded_rows(&dataset, &params, size, scale_samples, &mut sharded_rows);
        for &sharded_size in &SHARDED_SCALE_SIZES {
            if sharded_size == size {
                continue;
            }
            let sharded_dataset = dblp_dataset(sharded_size);
            measure_sharded_rows(
                &sharded_dataset,
                &params,
                sharded_size,
                scale_samples.min(2),
                &mut sharded_rows,
            );
        }
    }

    // GES (exact) is UDF-only (no relational plan), so both engine paths
    // coincide; the engine-speedup summary covers the 12 plan-based
    // predicates. The heap top-k summary covers all 13; the TA summary the
    // five bounded predicates.
    let summary_size = *sizes.last().unwrap();
    let mut speedups: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.size == summary_size && r.predicate != "GES")
        .map(|r| (r.predicate.to_string(), r.speedup()))
        .collect();
    speedups.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_speedup = speedups.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_speedup = median(&speedups);

    let mut topk_speedups: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.size == summary_size)
        .map(|r| (r.predicate.to_string(), r.top_k_speedup()))
        .collect();
    topk_speedups.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_topk = topk_speedups.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_topk = median(&topk_speedups);

    let mut ta_speedups: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.size == summary_size && r.bounded)
        .map(|r| (r.predicate.to_string(), r.ta_speedup()))
        .collect();
    ta_speedups.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_ta = ta_speedups.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_ta = median(&ta_speedups);

    let mut threshold_speedups: Vec<(String, f64)> = rows
        .iter()
        .filter(|r| r.size == summary_size && r.bounded)
        .map(|r| (r.predicate.to_string(), r.threshold_speedup()))
        .collect();
    threshold_speedups.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_threshold = threshold_speedups.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_threshold = median(&threshold_speedups);

    // 100k scale summary (empty in smoke mode).
    let mut scale_ta: Vec<(String, f64)> =
        scale_rows.iter().map(|r| (r.predicate.to_string(), r.ta_speedup())).collect();
    scale_ta.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_ta_100k = scale_ta.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_ta_100k = median(&scale_ta);
    let mut scale_threshold: Vec<(String, f64)> =
        scale_rows.iter().map(|r| (r.predicate.to_string(), r.threshold_speedup())).collect();
    scale_threshold.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let min_threshold_100k = scale_threshold.first().map(|(_, s)| *s).unwrap_or(0.0);
    let median_threshold_100k = median(&scale_threshold);

    // Sharded-execution summary: monolith/sharded latency ratio, median
    // over the bounded predicates, at the grid summary size (the smoke
    // collapse guard) and at each scale point (0.0 in smoke, where the
    // scale points don't run). On a single-core runner every one of these
    // sits slightly below 1.0 — the fan-out overhead the section exists to
    // record; a multi-core runner is where > 1.0 appears.
    let sharded_median = |at: usize, f: fn(&ShardedRow) -> f64| {
        let mut ratios: Vec<(String, f64)> = sharded_rows
            .iter()
            .filter(|r| r.size == at)
            .map(|r| (r.predicate.to_string(), f(r)))
            .collect();
        ratios.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        median(&ratios)
    };
    let median_sharded_topk_grid = sharded_median(summary_size, ShardedRow::topk_speedup);
    let median_sharded_topk_100k = sharded_median(SHARDED_SCALE_SIZES[0], ShardedRow::topk_speedup);
    let median_sharded_threshold_100k =
        sharded_median(SHARDED_SCALE_SIZES[0], ShardedRow::threshold_speedup);
    let median_sharded_topk_1m = sharded_median(SHARDED_SCALE_SIZES[1], ShardedRow::topk_speedup);
    let median_sharded_threshold_1m =
        sharded_median(SHARDED_SCALE_SIZES[1], ShardedRow::threshold_speedup);

    // Batch-serving summary: worker scaling is bounded by the cores the
    // machine actually grants, so the scaling number is reported next to the
    // observed parallelism rather than asserted against a fixed bar here
    // (the differential tier owns correctness; CI owns the collapse guard).
    let serving_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let batch_qps = |workers: usize| {
        batch_rows
            .iter()
            .find(|r| r.size == summary_size && r.workers == workers)
            .map(|r| r.qps)
            .unwrap_or(0.0)
    };
    let batch_scaling_4w = ratio(batch_qps(4), batch_qps(1));

    // Live-corpus summary: the append-vs-rebuild ratio at the summary size
    // (the >= 10x acceptance bar at 10k) and the default-seal append cost.
    let live_rebuild_ratio = live_rebuild_rows
        .iter()
        .find(|r| r.size == summary_size)
        .map(|r| r.rebuild_ratio())
        .unwrap_or(0.0);
    let live_append_us = live_rebuild_rows
        .iter()
        .find(|r| r.size == summary_size)
        .map(|r| r.per_append_us)
        .unwrap_or(0.0);

    // Degradation summary: budgeted latency at 25% / 50% of the candidate
    // count relative to the unlimited-cap row through the same budgeted
    // path, median over the bounded predicates at the summary size.
    let degradation_ratio = |pct: u32| {
        let mut ratios: Vec<(String, f64)> = BOUNDED
            .iter()
            .filter_map(|kind| {
                let at = |p: u32| {
                    degradation_rows
                        .iter()
                        .find(|r| {
                            r.size == summary_size
                                && r.predicate == kind.short_name()
                                && r.budget_pct == p
                        })
                        .map(|r| r.latency_us)
                };
                Some((kind.short_name().to_string(), ratio(at(pct)?, at(100)?)))
            })
            .collect();
        ratios.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        median(&ratios)
    };
    let degradation_latency_25 = degradation_ratio(25);
    let degradation_latency_50 = degradation_ratio(50);

    println!(
        "\nengine speedup at {summary_size} records (plan-based predicates): min {min_speedup:.1}x, median {median_speedup:.1}x"
    );
    println!(
        "top-{TOP_K} heap pushdown vs rank-then-truncate at {summary_size} records: min {min_topk:.2}x, median {median_topk:.2}x"
    );
    println!(
        "top-{TOP_K} bounded (dense kernel) vs heap pushdown at {summary_size} records: min {min_ta:.2}x, median {median_ta:.2}x"
    );
    println!(
        "threshold bounded (dense kernel) vs exhaustive scan at {summary_size} records (selective tau): min {min_threshold:.2}x, median {median_threshold:.2}x"
    );
    if !scale_rows.is_empty() {
        println!(
            "bounded operators at {SCALE_SIZE} records: top-{TOP_K} bounded vs heap min {min_ta_100k:.2}x / median {median_ta_100k:.2}x; bounded threshold vs scan min {min_threshold_100k:.2}x / median {median_threshold_100k:.2}x"
        );
        println!(
            "sharded execution ({SHARD_COUNT} tid-range shards, {serving_cores} core{}) vs monolith: top-{TOP_K} median {median_sharded_topk_100k:.2}x at 100k / {median_sharded_topk_1m:.2}x at 1M; threshold median {median_sharded_threshold_100k:.2}x at 100k / {median_sharded_threshold_1m:.2}x at 1M",
            if serving_cores == 1 { "" } else { "s" }
        );
    }
    println!(
        "batch serving at {summary_size} records: {:.0} q/s @ 1 worker -> {:.0} q/s @ 4 workers ({batch_scaling_4w:.2}x scaling on {serving_cores} available core{})",
        batch_qps(1),
        batch_qps(4),
        if serving_cores == 1 { "" } else { "s" }
    );
    println!(
        "live corpus at {summary_size} records: append {live_append_us:.1} us (default seal) vs rebuild-per-append: {live_rebuild_ratio:.1}x cheaper"
    );
    println!(
        "degradation at {summary_size} records: budgeted rank latency at 25% of candidates {degradation_latency_25:.2}x of unlimited, at 50% {degradation_latency_50:.2}x (median over bounded predicates)"
    );
    // The naive bar is 4x, not the ~5-7x a quiet host measures: the 13-way
    // median lands in a dense cluster of ~4.5-5.5x predicates whose
    // per-predicate ratios drift +/-15% across sessions on the shared
    // 1-core container (absolute indexed timings stay put; the naive side
    // wanders), so a 5x bar flips on host noise rather than regressions.
    // The heap pushdown saves only the materialize+sort tail, a few percent
    // of an aggregate-dominated query — its ratio sits at parity plus the
    // tail, so the bar tolerates measurement noise (>= 0.95). The bounded
    // operators are where selection actually gets fast (>= 2x over their
    // exhaustive baselines). The live-append bar (>= 10x over
    // rebuild-per-append) only binds at the full 10k summary size — at the
    // 1k smoke size the rebuild is 10x smaller while the default-seal tail
    // is not, so smoke applies its own looser collapse guard instead.
    let live_bar_met = smoke || live_rebuild_ratio >= 10.0;
    println!(
        "acceptance (>= 4x naive; heap top-k >= 0.95x; bounded top-k >= 2x over heap; bounded threshold >= 2x over scan; live append >= 10x over rebuild-per-append at 10k): {}",
        if median_speedup >= 4.0
            && median_topk >= 0.95
            && median_ta >= 2.0
            && median_threshold >= 2.0
            && live_bar_met
        {
            "PASS"
        } else {
            "FAIL"
        }
    );

    if smoke {
        // Regression guard for CI: gross slowdowns fail the job. Thresholds
        // are loose (one sample at 1k records is noisy); they catch a path
        // accidentally degrading to the rank-everything baseline, not
        // percent-level drift.
        assert!(
            median_topk >= 0.7,
            "heap top-k pushdown regressed below rank-then-truncate (median {median_topk:.2}x)"
        );
        assert!(
            median_ta >= 1.0,
            "bounded top-k regressed below the heap pushdown (median {median_ta:.2}x)"
        );
        assert!(
            median_threshold >= 1.0,
            "bounded threshold regressed below the exhaustive scan (median {median_threshold:.2}x)"
        );
        // Worker scaling tracks the cores CI grants. On starved (1-2 core)
        // runners the guard only catches a concurrency collapse (contention
        // so bad that 4 workers run far below 1); when the runner actually
        // grants 4+ cores, a pool that stopped scaling — e.g. a global lock
        // slipped into the execution path — must fail the job. The
        // byte-identity of every pool width was already asserted above.
        assert!(
            batch_scaling_4w >= 0.4,
            "4-worker serving throughput collapsed vs 1 worker ({batch_scaling_4w:.2}x)"
        );
        assert!(
            serving_cores < 4 || batch_scaling_4w >= 1.5,
            "4 workers on {serving_cores} cores must scale >= 1.5x, got {batch_scaling_4w:.2}x"
        );
        // The live section's per-query cross-checks vs the rebuilt monolith
        // already ran in place; this asserts the section wasn't skipped and
        // that the live append keeps a clear margin over rebuilding the
        // monolith per record (the >= 10x acceptance bar binds at 10k; one
        // 1k sample only guards against the advantage collapsing outright).
        assert!(
            live_segment_rows.iter().filter(|r| r.size == summary_size).count()
                == LIVE_SEGMENTS.len() * BOUNDED.len(),
            "live query-vs-segments section did not cover every (segment count, predicate) pair"
        );
        assert!(
            live_rebuild_ratio >= 2.0,
            "live append lost its edge over rebuild-per-append ({live_rebuild_ratio:.2}x)"
        );
        // The degradation section's in-place guards (bit-identical partial
        // scores, degraded flag exactly when capped) already ran; this
        // asserts the section covered every bounded predicate at all three
        // budget points, and that a capped run never costs more than the
        // unlimited run through the same budgeted path — the budget layer
        // must shed work, not add it (one 1k sample is noisy, so the bar
        // only catches the accounting making execution outright slower).
        assert!(
            degradation_rows.iter().filter(|r| r.size == summary_size).count() == BOUNDED.len() * 3,
            "degradation section did not cover every (bounded predicate, budget) pair"
        );
        assert!(
            degradation_latency_25 <= 2.0,
            "a 25% candidate budget made execution slower than unlimited ({degradation_latency_25:.2}x)"
        );
        // The sharded section's per-query cross-checks vs the monolith
        // already ran in place (they panic on any divergence); this asserts
        // the section covered every bounded predicate, and that fanning
        // SHARD_COUNT shards hasn't made the bounded top-k collapse vs the
        // monolith. The bar is deliberately low: CI runners are often
        // 1-core, where the honest sharded number is *below* 1.0 (thread
        // spawn + merge overhead, no parallelism; ~0.35-0.7x observed at
        // the 1k smoke size, where per-query work barely exceeds the
        // spawn cost) — the guard catches a shard layer gone quadratic,
        // not the expected overhead.
        assert!(
            sharded_rows.iter().filter(|r| r.size == summary_size).count() == BOUNDED.len(),
            "sharded vs monolith cross-check section did not cover every bounded predicate"
        );
        assert!(
            median_sharded_topk_grid >= 0.2,
            "sharded top-k collapsed vs the monolith (median {median_sharded_topk_grid:.2}x)"
        );
        println!("smoke mode: guards passed, baseline file not rewritten");
        return;
    }

    // Serialize the baseline by hand (no JSON dependency in this workspace).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"bench_engine\",\n");
    json.push_str("  \"dataset\": \"dblp (dasp-datagen, seeded)\",\n");
    let _ = writeln!(json, "  \"num_queries\": {NUM_QUERIES},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"top_k\": {TOP_K},");
    let _ = writeln!(
        json,
        "  \"summary\": {{ \"min_plan_speedup_10k\": {min_speedup:.3}, \"median_plan_speedup_10k\": {median_speedup:.3}, \"min_topk_speedup_10k\": {min_topk:.3}, \"median_topk_speedup_10k\": {median_topk:.3}, \"min_ta_speedup_10k\": {min_ta:.3}, \"median_ta_speedup_10k\": {median_ta:.3}, \"min_threshold_speedup_10k\": {min_threshold:.3}, \"median_threshold_speedup_10k\": {median_threshold:.3}, \"min_ta_speedup_100k\": {min_ta_100k:.3}, \"median_ta_speedup_100k\": {median_ta_100k:.3}, \"min_threshold_speedup_100k\": {min_threshold_100k:.3}, \"median_threshold_speedup_100k\": {median_threshold_100k:.3}, \"shard_count\": {SHARD_COUNT}, \"median_sharded_topk_speedup_100k\": {median_sharded_topk_100k:.3}, \"median_sharded_threshold_speedup_100k\": {median_sharded_threshold_100k:.3}, \"median_sharded_topk_speedup_1m\": {median_sharded_topk_1m:.3}, \"median_sharded_threshold_speedup_1m\": {median_sharded_threshold_1m:.3}, \"batch_qps_1w_10k\": {:.1}, \"batch_qps_4w_10k\": {:.1}, \"batch_scaling_4w_10k\": {batch_scaling_4w:.3}, \"serving_cores\": {serving_cores}, \"live_append_us_10k\": {live_append_us:.1}, \"live_rebuild_ratio_10k\": {live_rebuild_ratio:.3}, \"degradation_latency_ratio_25_10k\": {degradation_latency_25:.3}, \"degradation_latency_ratio_50_10k\": {degradation_latency_50:.3} }},",
        batch_qps(1),
        batch_qps(4)
    );
    // Threshold-selectivity sweep: the two threshold paths of each bounded
    // predicate measured with the bar at the rank-10/100/1000 scores. The
    // per-row `threshold_*` fields in `results` use the selective (rank-10)
    // bar; this section records how the speedup decays as τ admits more of
    // the corpus.
    json.push_str("  \"threshold_sweep\": [\n");
    for (i, s) in sweep_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"predicate\": \"{}\", \"size\": {}, \"tau_at_rank\": {}, \"threshold_bounded_us\": {:.1}, \"threshold_scan_us\": {:.1}, \"threshold_speedup\": {:.3} }}",
            s.predicate,
            s.size,
            s.target_rank,
            s.threshold_bounded_us,
            s.threshold_scan_us,
            s.speedup()
        );
        json.push_str(if i + 1 < sweep_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // The 100k scale point: bounded operators vs their exhaustive baselines
    // for the five bounded predicates (the full grid is 1k/10k only).
    json.push_str("  \"bounded_100k\": [\n");
    for (i, r) in scale_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"predicate\": \"{}\", \"size\": {}, \"topk_pushdown_us\": {:.1}, \"topk_bounded_us\": {:.1}, \"ta_speedup\": {:.3}, \"threshold_bounded_us\": {:.1}, \"threshold_scan_us\": {:.1}, \"threshold_speedup\": {:.3} }}",
            r.predicate,
            r.size,
            r.top_k_heap_us,
            r.top_k_bounded_us,
            r.ta_speedup(),
            r.threshold_bounded_us,
            r.threshold_scan_us,
            r.threshold_speedup()
        );
        json.push_str(if i + 1 < scale_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Sharded execution: the bounded top-k and selective-τ threshold
    // through a fixed SHARD_COUNT-shard tid-range `LiveEngine` (shards
    // fanned on scoped threads, merged in shard order) against a
    // monolithic engine over the same frozen stats. `*_speedup` is
    // monolith-time / sharded-time; > 1.0 needs real cores — on a 1-core
    // runner the ratio records the fan-out + merge overhead instead (see
    // `serving_cores` in the summary for what this run had). Rows at the
    // grid sizes plus the 100k / 1M scale points.
    json.push_str("  \"sharded\": [\n");
    for (i, r) in sharded_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"predicate\": \"{}\", \"size\": {}, \"shards\": {}, \"topk_monolith_us\": {:.1}, \"topk_sharded_us\": {:.1}, \"sharded_topk_speedup\": {:.3}, \"threshold_monolith_us\": {:.1}, \"threshold_sharded_us\": {:.1}, \"sharded_threshold_speedup\": {:.3} }}",
            r.predicate,
            r.size,
            r.shards,
            r.topk_monolith_us,
            r.topk_sharded_us,
            r.topk_speedup(),
            r.threshold_monolith_us,
            r.threshold_sharded_us,
            r.threshold_speedup()
        );
        json.push_str(if i + 1 < sharded_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Batch serving throughput: the thread-pooled `ServingEngine` over raw
    // request strings. Worker scaling is bounded by `serving_cores` (the
    // cores this run actually had).
    json.push_str("  \"batch_throughput\": [\n");
    for (i, b) in batch_rows.iter().enumerate() {
        let scaling = batch_rows
            .iter()
            .find(|r| r.size == b.size && r.workers == 1)
            .map(|r| ratio(b.qps, r.qps))
            .unwrap_or(1.0);
        let _ = write!(
            json,
            "    {{ \"size\": {}, \"api\": \"serving_engine\", \"workers\": {}, \"requests\": {}, \"qps\": {:.1}, \"scaling_vs_1_worker\": {:.3} }}",
            b.size,
            b.workers,
            b.requests,
            b.qps,
            scaling
        );
        json.push_str(if i + 1 < batch_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Degradation: budgeted `Exec::Rank` latency with `max_candidates`
    // capped at 25% / 50% of the predicate's full candidate count, and
    // uncapped through the same budgeted (cache-bypassing) path. The
    // in-place guards asserted every partial result is a bit-identical
    // subset of the exact ranking; these rows record what the budget buys
    // in latency (`latency_ratio_vs_unlimited` < 1 means the cap sheds
    // real work).
    json.push_str("  \"degradation\": [\n");
    for (i, r) in degradation_rows.iter().enumerate() {
        let unlimited = degradation_rows
            .iter()
            .find(|u| u.size == r.size && u.predicate == r.predicate && u.budget_pct == 100)
            .map(|u| u.latency_us)
            .unwrap_or(r.latency_us);
        let _ = write!(
            json,
            "    {{ \"predicate\": \"{}\", \"size\": {}, \"budget_pct\": {}, \"rank_latency_us\": {:.1}, \"latency_ratio_vs_unlimited\": {:.3}, \"degraded\": {} }}",
            r.predicate,
            r.size,
            r.budget_pct,
            r.latency_us,
            ratio(r.latency_us, unlimited),
            r.degraded
        );
        json.push_str(if i + 1 < degradation_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Live-corpus section. `append_throughput`: single-record appends at
    // three seal limits (the limit bounds the tail each append re-indexes).
    // `query_vs_segments`: bounded top-k latency with the same records held
    // as 1/4/16 sealed segments — the per-segment cost of the fan and
    // merge. `rebuild_per_append`: the default-seal append against
    // rebuilding a monolithic engine per ingested record (`rebuild_ratio`
    // is the factor the live engine saves; the acceptance bar asks >= 10x
    // at 10k).
    json.push_str("  \"live\": {\n");
    json.push_str("    \"append_throughput\": [\n");
    for (i, r) in live_append_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"size\": {}, \"segment_seal\": {}, \"appends\": {}, \"per_append_us\": {:.1}, \"appends_per_sec\": {:.0} }}",
            r.size, r.seal, r.batch, r.per_append_us, r.appends_per_sec()
        );
        json.push_str(if i + 1 < live_append_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    json.push_str("    \"query_vs_segments\": [\n");
    for (i, r) in live_segment_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"predicate\": \"{}\", \"size\": {}, \"segments\": {}, \"topk_bounded_us\": {:.1} }}",
            r.predicate, r.size, r.segments, r.topk_us
        );
        json.push_str(if i + 1 < live_segment_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    json.push_str("    \"rebuild_per_append\": [\n");
    for (i, r) in live_rebuild_rows.iter().enumerate() {
        let _ = write!(
            json,
            "      {{ \"size\": {}, \"per_append_us\": {:.1}, \"rebuild_us\": {:.1}, \"rebuild_ratio\": {:.3} }}",
            r.size, r.per_append_us, r.rebuild_us, r.rebuild_ratio()
        );
        json.push_str(if i + 1 < live_rebuild_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");
    // Per-row preprocess_ms below is *phase 2 only* (the predicate's own
    // weight tables over the shared artifacts); engine_build_ms records the
    // (now lazy, near-zero) up-front engine construction.
    json.push_str("  \"shared_phase1\": [\n");
    for (i, (size, ms)) in phase1.iter().enumerate() {
        let _ = write!(json, "    {{ \"size\": {size}, \"engine_build_ms\": {ms:.3} }}");
        json.push_str(if i + 1 < phase1.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"predicate\": \"{}\", \"size\": {}, \"bounded\": {}, \"preprocess_ms\": {:.3}, \"query_indexed_us\": {:.1}, \"query_naive_us\": {:.1}, \"speedup\": {:.3}, \"topk_pushdown_us\": {:.1}, \"topk_bounded_us\": {:.1}, \"rank_truncate_us\": {:.1}, \"topk_speedup\": {:.3}, \"ta_speedup\": {:.3}, \"threshold_bounded_us\": {:.1}, \"threshold_scan_us\": {:.1}, \"threshold_speedup\": {:.3} }}",
            r.predicate,
            r.size,
            r.bounded,
            r.preprocess_ms,
            r.query_indexed_us,
            r.query_naive_us,
            r.speedup(),
            r.top_k_heap_us,
            r.top_k_bounded_us,
            r.rank_truncate_us,
            r.top_k_speedup(),
            r.ta_speedup(),
            r.threshold_bounded_us,
            r.threshold_scan_us,
            r.threshold_speedup()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    println!("baseline written to {path}");
}
