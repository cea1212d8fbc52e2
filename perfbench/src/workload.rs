//! What the workloads share: generated inputs, the read mix, and the
//! reduction of per-read measurements into metrics.

use crate::trace::Tracer;
use crate::util::{mean, median, ms, quantile, us, HostClock};
use crate::{kind_name, metric, Metric};
use dasp_core::{CacheStats, Exec, ExecBudget, PredicateKind, ScoredTid};
use dasp_datagen::{generate, Dataset, DuplicateDistribution, GeneratorConfig};
use std::collections::HashSet;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Length of every run's timed phase. The benchmark fixes it so that runs
/// compared for a change always measure the same amount of time.
pub const RUN_SECONDS: u64 = 20;
/// `k` of every top-k read.
pub const TOP_K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: u64 = 5;
/// Reads every run completes, however long that takes: 1000 reads leave
/// ten samples beyond the 99th percentile.
pub const MIN_READS: u64 = 1000;
/// `map` averages the first this-many reads, so it repeats exactly for a
/// seed whatever the run length.
pub const MAP_READS: u64 = 1000;
/// Served answers re-run against a reference engine after the timed phase.
pub const CHECK_SAMPLES: usize = 48;
/// Reads replayed on a twin engine for the traced run's work counters.
pub const COUNT_READS: u64 = 200;
/// Queries whose 10th-best score sets a predicate's threshold τ.
pub const TAU_SAMPLES: usize = 16;

/// The five predicates with score-bounded top-k and threshold operators.
pub const BOUNDED: [PredicateKind; 5] = [
    PredicateKind::IntersectSize,
    PredicateKind::WeightedMatch,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::Hmm,
];

/// A candidate cap no request can reach: `execute_budgeted` then threads
/// its work counters through the whole execution and returns them, and
/// bypasses the result cache in both directions.
pub const NEVER_TRIP: ExecBudget = ExecBudget { deadline: None, max_candidates: Some(usize::MAX) };

/// Request ids of the traced run: set-up repetitions first, then reads.
pub const SETUP_REQS: Range<u64> = 0..SETUP_REPS;
pub const READ_REQS: Range<u64> = SETUP_REPS..u64::MAX;

pub fn read_req(read: u64) -> u64 {
    SETUP_REPS + read
}

fn derive(seed: u64, stream: u64) -> u64 {
    crate::util::Rng::new(seed, stream).next_u64()
}

/// The DBLP-like performance dataset of the paper's §5.5 (as
/// `dasp_datagen::dblp_dataset`: `size / 10` clean titles, 70% erroneous
/// duplicates, 20% edit extent, 20% token swaps), generated from `seed`.
/// The generator emits each cluster's records together; they are shuffled,
/// so the live workload's seed prefix and held-out suffix share clusters.
pub fn dblp_like(size: usize, seed: u64) -> Dataset {
    let clean = dasp_datagen::clean::dblp_titles((size / 10).max(1), derive(seed, 1));
    let config = GeneratorConfig {
        dataset_size: size,
        distribution: DuplicateDistribution::Uniform,
        erroneous_pct: 70.0,
        edit_extent_pct: 20.0,
        token_swap_pct: 20.0,
        abbreviation_pct: 0.0,
        seed: derive(seed, 2),
    };
    let mut data = generate(&format!("DBLP-{size}"), &clean, &config);
    crate::util::Rng::new(seed, 5).shuffle(&mut data.records);
    data
}

/// The record indices of each cluster, indexed by cluster id.
pub fn cluster_members(data: &Dataset) -> Vec<Vec<u32>> {
    let clusters = data.records.iter().map(|r| r.cluster as usize + 1).max().unwrap_or(0);
    let mut members = vec![Vec::new(); clusters];
    for (tid, record) in data.records.iter().enumerate() {
        members[record.cluster as usize].push(tid as u32);
    }
    members
}

/// CU1 of Table 5.3 at the paper's size (5,000 tuples from 500 clean company
/// names), generated from `seed`.
pub fn cu1(seed: u64) -> Dataset {
    let spec = dasp_datagen::cu_spec("CU1").expect("CU1 is a Table 5.3 dataset");
    let clean = dasp_datagen::clean::company_names(500, derive(seed, 3));
    let config = GeneratorConfig {
        dataset_size: 5000,
        distribution: DuplicateDistribution::Uniform,
        erroneous_pct: spec.erroneous_pct,
        edit_extent_pct: spec.edit_extent_pct,
        token_swap_pct: spec.token_swap_pct,
        abbreviation_pct: spec.abbreviation_pct,
        seed: derive(seed, 4),
    };
    generate(spec.name, &clean, &config)
}

/// The mode of lookup read `read`: `Threshold(τ)` for two reads in eight
/// (one odd, one even, so the traced and untraced halves of a traced run
/// see the same mix), `TopK(10)` otherwise.
pub fn lookup_exec(read: u64, tau: f64) -> Exec {
    if read % 8 >= 6 {
        Exec::Threshold(tau)
    } else {
        Exec::TopK(TOP_K)
    }
}

/// τ of each bounded predicate, indexed by `PredicateKind::index`: the
/// median 10th-best score over [`TAU_SAMPLES`] seeded records, so threshold
/// reads return about as many rows as top-k reads. `top_k` answers
/// `TopK(10)` for a predicate and a text.
pub fn lookup_taus(
    strings: &[String],
    seed: u64,
    mut top_k: impl FnMut(PredicateKind, &str) -> dasp_core::error::Result<Vec<ScoredTid>>,
) -> Result<[f64; PredicateKind::COUNT], String> {
    let mut pick = crate::util::Rng::new(seed, 8);
    let texts: Vec<&str> =
        (0..TAU_SAMPLES).map(|_| strings[pick.below(strings.len())].as_str()).collect();
    let mut taus = [0.0; PredicateKind::COUNT];
    for kind in BOUNDED {
        let mut kth = Vec::new();
        for text in &texts {
            let rows = top_k(kind, text).map_err(|e| format!("τ of {}: {e}", kind_name(kind)))?;
            kth.extend(rows.get(TOP_K - 1).map(|s| s.score));
        }
        taus[kind.index()] = median(&mut kth);
    }
    Ok(taus)
}

/// Seeded read indices (among the first [`MAP_READS`]) whose answers are
/// checked.
pub fn check_sample(seed: u64) -> HashSet<u64> {
    let mut rng = crate::util::Rng::new(seed, 7);
    let mut picked = HashSet::new();
    while picked.len() < CHECK_SAMPLES {
        picked.insert(rng.below(MAP_READS as usize) as u64);
    }
    picked
}

/// A served ranking cut after its last relevant row (the rows after it do
/// not change average precision), with the relevant set it is scored
/// against.
pub struct ApEntry {
    ranking: Vec<u32>,
    relevant: Vec<u32>,
}

impl ApEntry {
    pub fn new(rows: &[ScoredTid], cluster_of: &[u32], cluster: u32, relevant: Vec<u32>) -> Self {
        let end =
            rows.iter().rposition(|s| cluster_of[s.tid as usize] == cluster).map_or(0, |i| i + 1);
        ApEntry { ranking: rows[..end].iter().map(|s| s.tid).collect(), relevant }
    }
}

/// Mean of `dasp_eval::average_precision` over the entries.
pub fn mean_average_precision(entries: &[ApEntry]) -> f64 {
    let aps: Vec<f64> = entries
        .iter()
        .map(|e| {
            let relevant: HashSet<u32> = e.relevant.iter().copied().collect();
            dasp_eval::average_precision(&e.ranking, &relevant)
        })
        .collect();
    mean(&aps)
}

/// Per-read measurements of the timed phase.
#[derive(Default)]
pub struct ReadLog {
    /// Reads attempted.
    pub reads: u64,
    /// Time around each untraced `serve` call, in ms; a failed read counts
    /// as infinitely slow.
    pub latency_ms: Vec<f64>,
    /// `ServeStats::exec_time` of each untraced read, in ms.
    pub exec_ms: Vec<f64>,
    /// `serve` call time minus `exec_time`, in µs.
    pub overhead_us: Vec<f64>,
    /// Root-span time of each traced read, in ms.
    pub traced_ms: Vec<f64>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub ap: Vec<ApEntry>,
}

impl ReadLog {
    pub fn served(&mut self, latency: Duration, exec_time: Duration) {
        self.latency_ms.push(ms(latency));
        self.exec_ms.push(ms(exec_time));
        self.overhead_us.push(us(latency.saturating_sub(exec_time)));
    }

    pub fn fail(&mut self, traced: bool, error: impl std::fmt::Display) {
        self.failed += 1;
        if !traced {
            self.latency_ms.push(f64::INFINITY);
        }
        self.first_error.get_or_insert_with(|| error.to_string());
    }
}

/// Work counters summed over the replayed reads of a twin engine.
#[derive(Default)]
pub struct WorkCounts {
    pub reads: u64,
    pub candidates: u64,
    pub postings: u64,
    pub rows: u64,
}

impl WorkCounts {
    pub fn add(&mut self, report: Option<dasp_core::BudgetReport>, rows: usize) {
        let report = report.unwrap_or_default();
        self.reads += 1;
        self.candidates += report.candidates_scored;
        self.postings += report.postings_touched;
        self.rows += rows as u64;
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    setups: &mut [f64],
    ops: u64,
    wall: Duration,
    reads: &mut ReadLog,
    rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", median(setups), "s"),
        metric("throughput_rps", ops as f64 / wall.as_secs_f64(), "1/s"),
        metric("latency_p50_ms", quantile(&mut reads.latency_ms, 0.50), "ms"),
        metric("latency_p99_ms", quantile(&mut reads.latency_ms, 0.99), "ms"),
        metric("map", mean_average_precision(&reads.ap), "share"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// `exec.<kind>.p50_ms` / `.p99_ms` of every predicate kind from its
/// execution spans; 0 for a kind the workload does not call.
fn exec_metrics(tracer: &Tracer, span: &str) -> Vec<Metric> {
    let mut out = Vec::new();
    for &kind in PredicateKind::all() {
        let mut times: Vec<f64> =
            tracer.durations(span, Some(kind), READ_REQS).into_iter().map(ms).collect();
        let name = kind_name(kind);
        out.push(metric(format!("exec.{name}.p50_ms"), or_zero(quantile(&mut times, 0.50)), "ms"));
        out.push(metric(format!("exec.{name}.p99_ms"), or_zero(quantile(&mut times, 0.99)), "ms"));
    }
    out
}

/// Median over the set-up repetitions of the summed durations of the named
/// spans (of one kind, when given), in seconds.
pub fn setup_seconds(tracer: &Tracer, names: &[&str], kind: Option<PredicateKind>) -> f64 {
    let mut per_rep: Vec<f64> = SETUP_REQS
        .map(|rep| {
            names
                .iter()
                .flat_map(|name| tracer.durations(name, kind, rep..rep + 1))
                .map(|d| d.as_secs_f64())
                // `sum` of no values is -0.0; a kind never set up reads 0.
                .fold(0.0, |total, s| total + s)
        })
        .collect();
    median(&mut per_rep)
}

/// Median self time of each distinct span name over the reads, in µs.
pub fn self_time_metrics(tracer: &Tracer) -> Vec<Metric> {
    let self_times = tracer.self_times();
    let mut names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let mut times: Vec<f64> = tracer
                .spans()
                .iter()
                .zip(&self_times)
                .filter(|(s, _)| s.name == name && READ_REQS.contains(&s.req))
                .map(|(_, &t)| us(t))
                .collect();
            metric(format!("self_us_p50.{name}"), median(&mut times), "us")
        })
        .filter(|m| !m.value.is_nan())
        .collect()
}

/// What a workload does before its next operation.
pub enum Step {
    /// Run the operation.
    Run,
    /// Pause the clock and run set-up repetition `rep`, then resume.
    SetUp(u64),
    /// The timed phase is over.
    Stop,
}

/// The timed phase, cut into [`SETUP_REPS`] segments of equal length: the
/// workload runs one set-up before the first segment and one between each
/// two. The host's speed drifts over seconds, memory-heavy set-ups most, so
/// set-ups spread over the run give a steadier median than set-ups run back
/// to back. The last segment runs on until the run has made enough reads.
pub struct TimedPhase {
    segment: Duration,
    index: u64,
    started: Instant,
    clock: HostClock,
    /// Time spent in segments.
    pub wall: Duration,
    /// `(host.cpu_s, host.runqueue_wait_ms)` summed over the segments.
    pub host: (f64, f64),
}

impl TimedPhase {
    pub fn start() -> Self {
        TimedPhase {
            segment: Duration::from_secs(RUN_SECONDS) / SETUP_REPS as u32,
            index: 0,
            started: Instant::now(),
            clock: HostClock::now(),
            wall: Duration::ZERO,
            host: (0.0, 0.0),
        }
    }

    /// `enough`: the run has made the reads its metrics need.
    pub fn next(&self, enough: bool) -> Step {
        if self.started.elapsed() < self.segment {
            Step::Run
        } else if self.index + 1 < SETUP_REPS {
            Step::SetUp(self.index + 1)
        } else if !enough {
            Step::Run
        } else {
            Step::Stop
        }
    }

    /// Stop the clock at the end of a segment.
    pub fn pause(&mut self) {
        self.wall += self.started.elapsed();
        let (cpu_s, wait_ms) = HostClock::now().since(&self.clock);
        self.host = (self.host.0 + cpu_s, self.host.1 + wait_ms);
    }

    /// Start the next segment.
    pub fn resume(&mut self) {
        self.index += 1;
        self.started = Instant::now();
        self.clock = HostClock::now();
    }
}

/// Hit and miss counts between two readings of one result cache.
pub fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats { hits: after.hits - before.hits, misses: after.misses - before.misses, ..after }
}

/// Measurements of the live engine's own calls; all empty on a static
/// engine, whose `live.*` metrics are then 0.
#[derive(Default)]
pub struct LiveLayer {
    pub append_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub segments_probed: Vec<f64>,
    pub tail_len: Vec<f64>,
    pub seals: u64,
    /// Median `ServeStats::exec_time` of the live reads, in ms.
    pub read_exec_ms: f64,
}

/// The inputs of the per-layer metrics every workload reports. The set-up
/// and per-kind execution metrics come from the tracer's spans.
pub struct Layers<'a> {
    pub reads: &'a mut ReadLog,
    pub tracer: &'a Tracer,
    /// Name of the span around each traced read's execution call.
    pub exec_span: &'static str,
    /// Result-cache counts of the timed phase.
    pub cache: CacheStats,
    pub counts: WorkCounts,
    pub live: LiveLayer,
    /// `(host.cpu_s, host.runqueue_wait_ms)` of the timed phase.
    pub host: (f64, f64),
}

impl Layers<'_> {
    pub fn metrics(mut self) -> Vec<Metric> {
        let lookups = (self.cache.hits + self.cache.misses).max(1) as f64;
        let per_read = |n: u64| n as f64 / self.counts.reads.max(1) as f64;
        let exec_median = median(&mut self.reads.exec_ms);
        let mut prep: Vec<f64> =
            self.tracer.durations("engine.query", None, READ_REQS).into_iter().map(us).collect();
        let live = &mut self.live;
        let mut out = vec![
            metric("serve.overhead_us_p50", median(&mut self.reads.overhead_us), "us"),
            metric("serve.exec_ms_p50", exec_median, "ms"),
            metric("engine.query_prep_us_p50", or_zero(median(&mut prep)), "us"),
            metric("engine.cache_hit_share", self.cache.hits as f64 / lookups, "share"),
            metric("relq.candidates_per_read", per_read(self.counts.candidates), "count"),
            metric("relq.postings_per_read", per_read(self.counts.postings), "count"),
            metric(
                "relq.useful_share",
                self.counts.rows as f64 / self.counts.candidates.max(1) as f64,
                "share",
            ),
        ];
        out.extend(exec_metrics(self.tracer, self.exec_span));
        out.extend([
            metric("live.append_us_p50", or_zero(median(&mut live.append_us)), "us"),
            metric("live.delete_us_p50", or_zero(median(&mut live.delete_us)), "us"),
            metric("live.segments_probed_per_read", or_zero(mean(&live.segments_probed)), "count"),
            metric("live.tail_len_mean", or_zero(mean(&live.tail_len)), "count"),
            metric("live.seals", live.seals as f64, "count"),
            metric("live.read_exec_ms_p50", live.read_exec_ms, "ms"),
            metric("setup.tokenize_s", setup_seconds(self.tracer, &["setup.tokenize"], None), "s"),
            metric(
                "setup.engine_build_s",
                setup_seconds(self.tracer, &["setup.engine_build"], None),
                "s",
            ),
        ]);
        for (span, prefix) in [
            ("setup.predicate_build", "setup.predicate_build_s"),
            ("setup.first_exec", "setup.first_exec_s"),
        ] {
            for &kind in PredicateKind::all() {
                let seconds = setup_seconds(self.tracer, &[span], Some(kind));
                out.push(metric(format!("{prefix}.{}", kind_name(kind)), seconds, "s"));
            }
        }
        out.extend([
            metric("host.cpu_s", self.host.0, "s"),
            metric("host.runqueue_wait_ms", self.host.1, "ms"),
            metric(
                "trace.overhead_share",
                median(&mut self.reads.traced_ms) / exec_median,
                "share",
            ),
        ]);
        out
    }
}

/// A statistic of no samples (NaN) reported as 0.
fn or_zero(value: f64) -> f64 {
    if value.is_nan() {
        0.0
    } else {
        value
    }
}
