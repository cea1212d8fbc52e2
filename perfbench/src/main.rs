//! Request-level benchmark of the DASP serving path.
//!
//! ```text
//! dasp-perfbench --workload <name> --seed <n> [--seconds 20] --trace <0|1>
//!                [--out <dir>] [--commit <sha>]
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets the engine up
//! several times, then drives `ServingEngine::serve` with one request in
//! flight on one worker for [`workload::RUN_SECONDS`] (`--seconds`, when
//! given, must name that length), and checks the answers outside the timed
//! loop. With `--trace 0` the last stdout line carries the end-to-end
//! metrics; with `--trace 1` every other read makes the public calls
//! `serve` makes itself, each inside a span, and the last line carries the
//! per-layer metrics. A run record (and, traced, the spans) goes to `--out`.
//! The process exits non-zero when any answer is wrong or any request fails.

mod check;
mod live;
mod static_wl;
mod trace;
mod util;
mod workload;

use dasp_core::PredicateKind;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{json_num, json_str};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    out: Option<PathBuf>,
    commit: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            trace: false,
            out: None,
            commit: "unknown".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    let secs: u64 = value.parse().map_err(|e| bad(&e))?;
                    if secs != workload::RUN_SECONDS {
                        let fixed = format!("every run measures {} s", workload::RUN_SECONDS);
                        return Err(bad(&fixed));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                "--commit" => args.commit = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (reads and writes).
    pub attempted: u64,
    /// Operations that returned an error or panicked.
    pub failed: u64,
    /// Answer-check failures, one line each.
    pub mismatches: Vec<String>,
    /// The metrics of the result line: end-to-end untraced, per-layer
    /// traced.
    pub metrics: Vec<Metric>,
    /// Printed and recorded, but not part of the result line.
    pub extras: Vec<Metric>,
    /// Checks run, for the summary.
    pub checks: u64,
    pub host_cpu_s: f64,
    pub host_runqueue_wait_ms: f64,
    pub wall_s: f64,
    pub tracer: Option<trace::Tracer>,
}

/// The snake_case name of a predicate kind, as metric names spell it.
pub fn kind_name(kind: PredicateKind) -> &'static str {
    use PredicateKind::*;
    match kind {
        IntersectSize => "intersect_size",
        Jaccard => "jaccard",
        WeightedMatch => "weighted_match",
        WeightedJaccard => "weighted_jaccard",
        Cosine => "cosine",
        Bm25 => "bm25",
        LanguageModel => "language_model",
        Hmm => "hmm",
        EditSimilarity => "edit_similarity",
        Ges => "ges",
        GesJaccard => "ges_jaccard",
        GesApx => "ges_apx",
        SoftTfIdf => "soft_tfidf",
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_record(args: &Args, outcome: &Outcome, correct: bool) -> std::io::Result<()> {
    let Some(dir) = &args.out else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}.seed{}.trace{}", args.workload, args.seed, u8::from(args.trace));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mismatches: Vec<String> = outcome.mismatches.iter().map(|m| json_str(m)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpus_allowed_list\": {}, \"build_profile\": {}, \"commit\": {}, \"wall_s\": {}, \
         \"host.cpu_s\": {}, \"host.runqueue_wait_ms\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {}, \"checks\": {}, \"mismatches\": [{}], \
         \"metrics\": {}, \"extras\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        workload::RUN_SECONDS,
        args.trace,
        json_str(&util::cpus_allowed_list()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(&args.commit),
        json_num(outcome.wall_s),
        json_num(outcome.host_cpu_s),
        json_num(outcome.host_runqueue_wait_ms),
        outcome.attempted,
        outcome.failed,
        outcome.checks,
        mismatches.join(", "),
        metrics_json(&outcome.metrics),
        metrics_json(&outcome.extras),
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if let Some(tracer) = &outcome.tracer {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dasp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "lookup_topk_20k" => static_wl::lookup_topk_20k(&args),
        "rank_all13_cu1" => static_wl::rank_all13_cu1(&args),
        "live_mixed_10k" => live::live_mixed_10k(&args),
        other => {
            eprintln!(
                "dasp-perfbench: unknown workload {other:?} \
                 (lookup_topk_20k, rank_all13_cu1, live_mixed_10k)"
            );
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("dasp-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extras.insert(0, metric("failed_share", failed_share, "share"));
    let correct = outcome.failed == 0 && outcome.mismatches.is_empty();

    println!(
        "workload {} seed {} trace {}: {} operations, {} failed, {} answers checked, {} mismatches",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.checks,
        outcome.mismatches.len()
    );
    for m in &outcome.mismatches {
        println!("MISMATCH {m}");
    }
    println!(
        "host: nproc {} cpus_allowed_list {} wall_s {:.3} host.cpu_s {:.2} host.runqueue_wait_ms {:.2}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        util::cpus_allowed_list(),
        outcome.wall_s,
        outcome.host_cpu_s,
        outcome.host_runqueue_wait_ms
    );
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!("  {:<44} {:>14.6} {}", m.name, m.value, m.unit);
    }
    if let Err(e) = write_record(&args, &outcome, correct) {
        eprintln!("dasp-perfbench: cannot write the run record: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
