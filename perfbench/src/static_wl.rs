//! The two workloads over a static `SelectionEngine`: bounded lookups on the
//! DBLP-like corpus, and ranking by all 13 predicates on CU1.

use crate::check::against_reference;
use crate::trace::Tracer;
use crate::util::{ms, peak_rss_mb, Rng};
use crate::workload::*;
use crate::{kind_name, metric, Args, Outcome};
use dasp_core::{
    CacheStats, Corpus, Exec, Params, PredicateKind, ScoredTid, SelectionEngine, ServeRequest,
    ServingEngine, TokenizedCorpus,
};
use dasp_datagen::Dataset;
use std::sync::Arc;
use std::time::Instant;

/// What a static workload reads, and how.
struct Spec {
    data: Dataset,
    /// Read `r` goes to `kinds[r % kinds.len()]`.
    kinds: &'static [PredicateKind],
    /// Every read is `Exec::Rank`; otherwise reads follow [`lookup_exec`].
    rank: bool,
}

/// `lookup_topk_20k`: top-10 and threshold lookups of sampled DBLP-like
/// records on the five bounded predicates.
pub fn lookup_topk_20k(args: &Args) -> Result<Outcome, String> {
    run(args, Spec { data: dblp_like(20_000, args.seed), kinds: &BOUNDED, rank: false })
}

/// `rank_all13_cu1`: full rankings of sampled CU1 records by all 13
/// predicates.
pub fn rank_all13_cu1(args: &Args) -> Result<Outcome, String> {
    run(args, Spec { data: cu1(args.seed), kinds: PredicateKind::all(), rank: true })
}

/// One set-up: tokenize, build the engine, then build and first run every
/// predicate the workload uses, each inside its span. Returns the engine
/// and the seconds it took.
fn set_up(
    strings: &[String],
    spec: &Spec,
    probe: &str,
    tracer: &mut Tracer,
    rep: u64,
) -> Result<(SelectionEngine, f64), String> {
    let params = Params::default();
    let corpus = Corpus::from_strings(strings.iter().cloned());
    let started = Instant::now();
    let tokenized = tracer.wrap(rep, "setup.tokenize", None, None, || {
        Arc::new(TokenizedCorpus::build(corpus, params.qgram))
    });
    let engine = tracer
        .wrap(rep, "setup.engine_build", None, None, || SelectionEngine::build(tokenized, &params));
    let first = if spec.rank { Exec::Rank } else { Exec::TopK(TOP_K) };
    for &kind in spec.kinds {
        let handle =
            tracer.wrap(rep, "setup.predicate_build", Some(kind), None, || engine.predicate(kind));
        let query = engine.query(probe);
        tracer
            .wrap(rep, "setup.first_exec", Some(kind), None, || handle.execute(&query, first))
            .map_err(|e| format!("set-up: first {} answer: {e}", kind_name(kind)))?;
    }
    Ok((engine, started.elapsed().as_secs_f64()))
}

fn run(args: &Args, spec: Spec) -> Result<Outcome, String> {
    let strings = spec.data.strings();
    let cluster_of = spec.data.clusters();
    let members = cluster_members(&spec.data);
    // Set-up's first answers use a query that is no record, so they never
    // answer a timed read from the cache.
    let probe = format!("{} {}", strings[0], strings[1]);

    let mut tracer = Tracer::new();
    let (engine, seconds) = set_up(&strings, &spec, &probe, &mut tracer, 0)?;
    let mut setups = vec![seconds];
    // Ranking reads take no τ. Budgeted runs bypass the result cache, so τ
    // leaves the cache as set-up left it.
    let taus = if spec.rank {
        [0.0; PredicateKind::COUNT]
    } else {
        lookup_taus(&strings, args.seed, |kind, text| {
            let query = engine.query(text);
            let run =
                engine.predicate(kind).execute_budgeted(&query, Exec::TopK(TOP_K), NEVER_TRIP);
            run.map(|run| run.results)
        })?
    };
    let mut serving = ServingEngine::new(engine, 1);
    let cache_of = |serving: &ServingEngine| {
        serving.engine().expect("a static serving engine").result_cache_stats()
    };

    let sample = check_sample(args.seed);
    let mut pick = Rng::new(args.seed, 6);
    let mut log = ReadLog::default();
    let mut plan: Vec<(usize, PredicateKind, Exec)> = Vec::new();
    let mut served_sample: Vec<(u64, Vec<ScoredTid>)> = Vec::new();
    let mut cache_before = cache_of(&serving);
    let (mut hits, mut misses) = (0, 0);
    let mut phase = TimedPhase::start();
    loop {
        match phase.next(log.reads >= MIN_READS) {
            Step::Run => {}
            Step::SetUp(rep) => {
                // Each segment reads through the engine its set-up built;
                // the previous one is freed first, so peak RSS is one engine.
                phase.pause();
                let cache = cache_of(&serving);
                (hits, misses) = (
                    hits + cache.hits - cache_before.hits,
                    misses + cache.misses - cache_before.misses,
                );
                drop(serving);
                let (engine, seconds) = set_up(&strings, &spec, &probe, &mut tracer, rep)?;
                setups.push(seconds);
                serving = ServingEngine::new(engine, 1);
                cache_before = cache_of(&serving);
                phase.resume();
            }
            Step::Stop => break,
        }
        let engine = serving.engine().expect("a static serving engine");
        let read = log.reads;
        log.reads += 1;
        let idx = pick.below(strings.len());
        let kind = spec.kinds[read as usize % spec.kinds.len()];
        let exec = if spec.rank { Exec::Rank } else { lookup_exec(read, taus[kind.index()]) };
        plan.push((idx, kind, exec));
        let traced = args.trace && read % 2 == 1;
        let result = if traced {
            // The public calls `ServingEngine::serve_one` makes, in its order.
            let req = read_req(read);
            let root = tracer.open(req, "request", Some(kind), None);
            let handle = tracer
                .wrap(req, "engine.predicate", Some(kind), Some(root), || engine.predicate(kind));
            let query = tracer
                .wrap(req, "engine.query", Some(kind), Some(root), || engine.query(&strings[idx]));
            let result = tracer.wrap(req, "handle.execute_tracked", Some(kind), Some(root), || {
                handle.execute_tracked(&query, exec)
            });
            tracer.close(root);
            log.traced_ms.push(ms(tracer.spans()[root].duration()));
            result.map(|(rows, _)| rows)
        } else {
            let request = [ServeRequest::new(kind, strings[idx].as_str(), exec)];
            let t0 = Instant::now();
            let response = serving.serve(&request).pop().expect("one response per request");
            let latency = t0.elapsed();
            if response.results.is_ok() {
                log.served(latency, response.stats.exec_time);
            }
            response.results
        };
        match result {
            Ok(rows) => {
                if read < MAP_READS {
                    let cluster = cluster_of[idx];
                    let relevant = members[cluster as usize].clone();
                    log.ap.push(ApEntry::new(&rows, &cluster_of, cluster, relevant));
                }
                if sample.contains(&read) {
                    served_sample.push((read, rows));
                }
            }
            Err(e) => log.fail(traced, e),
        }
    }
    phase.pause();
    let (wall, host) = (phase.wall, phase.host);
    let rss = peak_rss_mb();
    let last = cache_of(&serving);
    let cache = CacheStats {
        hits: hits + last.hits - cache_before.hits,
        misses: misses + last.misses - cache_before.misses,
        ..last
    };
    drop(serving);

    // Outside the timed phase: a cache-less reference engine checks the
    // sampled answers and, traced, replays reads for the work counters.
    let reference = SelectionEngine::from_corpus(
        Corpus::from_strings(strings.iter().cloned()),
        &Params::default(),
    );
    reference.set_result_cache_capacity(0);
    let mut mismatches = Vec::new();
    if let Some(e) = &log.first_error {
        mismatches.push(format!("a read failed: {e}"));
    }
    for (read, rows) in &served_sample {
        let (idx, kind, exec) = plan[*read as usize];
        let text = &strings[idx];
        match against_reference(
            &reference.predicate(kind),
            &reference.query(text),
            exec,
            rows,
            None,
        ) {
            Ok(true) => {}
            Ok(false) => mismatches
                .push(format!("read {read}: {} {exec:?} of {text:?} differs", kind_name(kind))),
            Err(e) => mismatches.push(format!("read {read}: the reference failed: {e}")),
        }
    }

    let (metrics, extras) = if args.trace {
        let mut counts = WorkCounts::default();
        for &(idx, kind, exec) in plan.iter().take(COUNT_READS as usize) {
            let query = reference.query(&strings[idx]);
            let run = reference
                .predicate(kind)
                .execute_budgeted(&query, exec, NEVER_TRIP)
                .map_err(|e| format!("work-count replay: {e}"))?;
            counts.add(run.report, run.results.len());
        }
        let layers = Layers {
            reads: &mut log,
            tracer: &tracer,
            exec_span: "handle.execute_tracked",
            cache,
            counts,
            live: LiveLayer::default(),
            host,
        };
        (layers.metrics(), self_time_metrics(&tracer))
    } else {
        let samples = metric("latency_samples", log.latency_ms.len() as f64, "count");
        let reads = log.reads;
        (end_to_end(&mut setups, reads, wall, &mut log, rss), vec![samples])
    };
    Ok(Outcome {
        attempted: log.reads,
        failed: log.failed,
        mismatches,
        metrics,
        extras,
        checks: served_sample.len() as u64,
        host_cpu_s: host.0,
        host_runqueue_wait_ms: host.1,
        wall_s: wall.as_secs_f64(),
        tracer: args.trace.then_some(tracer),
    })
}
