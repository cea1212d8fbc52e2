//! `live_mixed_10k`: lookups through `ServingEngine::new_live` beside
//! appends and deletes on the same `LiveEngine`, one operation at a time.

use crate::check::against_reference;
use crate::trace::Tracer;
use crate::util::{median, ms, peak_rss_mb, quantile, us, Rng};
use crate::workload::*;
use crate::{kind_name, metric, Args, Outcome};
use dasp_core::{
    Corpus, Exec, LiveEngine, LiveMetrics, Params, PredicateKind, ServeRequest, ServingEngine, Tid,
};
use std::sync::Arc;
use std::time::Instant;

/// Records the live engine starts with (dataset indices `0..SEED_RECORDS`,
/// which are also their tids).
const SEED_RECORDS: usize = 10_000;
/// Records held out for appends; the `n`-th append is dataset index
/// `SEED_RECORDS + n` and gets that tid.
const HELD_OUT: usize = 10_000;
/// Held-out records appended to every engine after its set-up, outside the
/// clock: the tail then holds 200 of the 256 records it seals at, so every
/// segment's stream crosses a seal.
const PRIMED: usize = 200;
/// `map` averages the stream's first this-many reads. Every segment replays
/// the stream, so the furthest segment supplies them and `map` repeats
/// exactly for a seed.
const MAP_READS_LIVE: u64 = 500;

/// One operation of the stream.
enum Op {
    /// Append dataset record `index`, whose tid is `index`.
    Append(usize),
    Delete(Tid),
    /// The stream's `read`-th read.
    Read {
        read: u64,
        tid: Tid,
        kind: PredicateKind,
        exec: Exec,
    },
}

/// The seeded operation stream over one primed engine, with the live
/// records as the benchmark tracks them: their tids, to sample reads and
/// deletes, and each cluster's live members, a read's relevant set.
///
/// Every delete makes later top-k reads ask each segment for one more row,
/// so read cost grows along the stream. Each segment therefore starts a
/// fresh engine and a fresh stream: all segments run the same operations
/// from the same state, and how far a segment gets does not change what
/// the operations before it cost.
struct Stream {
    tids: Vec<Tid>,
    members: Vec<Vec<u32>>,
    next: usize,
    roll: Rng,
    pick: Rng,
    reads: u64,
}

impl Stream {
    fn new(seed: u64, cluster_of: &[u32]) -> Self {
        let mut stream = Stream {
            tids: Vec::new(),
            members: vec![Vec::new(); cluster_of.len()],
            next: SEED_RECORDS + PRIMED,
            roll: Rng::new(seed, 10),
            pick: Rng::new(seed, 6),
            reads: 0,
        };
        for (tid, &cluster) in cluster_of[..stream.next].iter().enumerate() {
            stream.tids.push(tid as Tid);
            stream.members[cluster as usize].push(tid as Tid);
        }
        stream
    }

    /// The next operation; the tracked live set already reflects it.
    fn next_op(&mut self, cluster_of: &[u32], taus: &[f64]) -> Op {
        // One operation in four writes: appends and deletes in equal shares.
        match self.roll.below(8) {
            0 if self.next < SEED_RECORDS + HELD_OUT => {
                let index = self.next;
                self.next += 1;
                self.tids.push(index as Tid);
                self.members[cluster_of[index] as usize].push(index as Tid);
                Op::Append(index)
            }
            1 if self.tids.len() > 1 => {
                let tid = self.tids.swap_remove(self.pick.below(self.tids.len()));
                let members = &mut self.members[cluster_of[tid as usize] as usize];
                let at =
                    members.iter().position(|&m| m == tid).expect("a live tid is in its cluster");
                members.swap_remove(at);
                Op::Delete(tid)
            }
            _ => {
                let read = self.reads;
                self.reads += 1;
                let tid = self.tids[self.pick.below(self.tids.len())];
                let kind = BOUNDED[read as usize % BOUNDED.len()];
                Op::Read { read, tid, kind, exec: lookup_exec(read, taus[kind.index()]) }
            }
        }
    }
}

pub fn live_mixed_10k(args: &Args) -> Result<Outcome, String> {
    let data = dblp_like(SEED_RECORDS + HELD_OUT, args.seed);
    let strings = data.strings();
    let cluster_of = data.clusters();
    let params = Params::default();
    let probe = format!("{} {}", strings[0], strings[1]);
    let seed_corpus = || Corpus::from_strings(strings[..SEED_RECORDS].iter().cloned());
    let prime = |live: &LiveEngine| {
        for text in &strings[SEED_RECORDS..SEED_RECORDS + PRIMED] {
            live.append(text.clone());
        }
    };

    // One set-up: build the engine and first answer every predicate, each
    // inside its span. Returns the engine and the seconds it took.
    let set_up = |tracer: &mut Tracer, rep: u64| -> Result<(LiveEngine, f64), String> {
        let corpus = seed_corpus();
        let started = Instant::now();
        // `from_corpus` tokenizes and builds the first segment in one call.
        let built = tracer.wrap(rep, "setup.engine_build", None, None, || {
            LiveEngine::from_corpus(corpus, &params)
        });
        for &kind in &BOUNDED {
            tracer
                .wrap(rep, "setup.first_exec", Some(kind), None, || {
                    built.execute(kind, &probe, Exec::TopK(TOP_K))
                })
                .map_err(|e| format!("set-up: first {} answer: {e}", kind_name(kind)))?;
        }
        Ok((built, started.elapsed().as_secs_f64()))
    };
    let mut tracer = Tracer::new();
    let (built, seconds) = set_up(&mut tracer, 0)?;
    let mut setups = vec![seconds];

    // Budgeted runs bypass the result cache, so τ leaves it empty.
    let taus = lookup_taus(&strings[..SEED_RECORDS], args.seed, |kind, text| {
        built
            .execute_budgeted(kind, text, Exec::TopK(TOP_K), NEVER_TRIP)
            .map(|(run, _)| run.results)
    })?;
    prime(&built);
    let mut live = Arc::new(built);
    let mut serving = ServingEngine::new_live(Arc::clone(&live), 1);
    let mut stream = Stream::new(args.seed, &cluster_of);
    let mut before = live.metrics();
    // Seals and result-cache counts of the segments' engines.
    let mut seals = 0;
    // Zero hits and misses.
    let mut cache = cache_delta(before.cache, before.cache);
    let mut segment_done = |live: &LiveEngine, before: &LiveMetrics| {
        let after = live.metrics();
        seals += after.seals - before.seals;
        let delta = cache_delta(before.cache, after.cache);
        (cache.hits, cache.misses) = (cache.hits + delta.hits, cache.misses + delta.misses);
    };

    let mut attempted = 0u64;
    let mut log = ReadLog::default();
    let mut layer = LiveLayer::default();
    let mut append_ms = Vec::new();
    let mut failed_deletes = 0u64;
    let mut mismatches = Vec::new();
    let mut phase = TimedPhase::start();
    loop {
        let enough = log.reads >= MIN_READS && log.ap.len() as u64 >= MAP_READS_LIVE;
        match phase.next(enough) {
            Step::Run => {}
            Step::SetUp(rep) => {
                phase.pause();
                segment_done(&live, &before);
                // Free the finished segment's engine first, so peak RSS is
                // one engine.
                drop(serving);
                drop(live);
                let (built, seconds) = set_up(&mut tracer, rep)?;
                setups.push(seconds);
                prime(&built);
                live = Arc::new(built);
                serving = ServingEngine::new_live(Arc::clone(&live), 1);
                stream = Stream::new(args.seed, &cluster_of);
                before = live.metrics();
                phase.resume();
            }
            Step::Stop => break,
        }
        let req = read_req(attempted);
        attempted += 1;
        match stream.next_op(&cluster_of, &taus) {
            Op::Append(index) => {
                let text = strings[index].clone();
                let t0 = Instant::now();
                let tid = if args.trace {
                    tracer.wrap(req, "live.append", None, None, || live.append(text))
                } else {
                    live.append(text)
                };
                let took = t0.elapsed();
                append_ms.push(ms(took));
                layer.append_us.push(us(took));
                if tid as usize != index {
                    mismatches.push(format!("append {index} got tid {tid}"));
                }
            }
            Op::Delete(tid) => {
                let t0 = Instant::now();
                let deleted = if args.trace {
                    tracer.wrap(req, "live.delete", None, None, || live.delete(tid))
                } else {
                    live.delete(tid)
                };
                layer.delete_us.push(us(t0.elapsed()));
                if !deleted {
                    failed_deletes += 1;
                    mismatches.push(format!("delete of live tid {tid} found no record"));
                }
            }
            Op::Read { read, tid, kind, exec } => {
                log.reads += 1;
                let text = strings[tid as usize].as_str();
                let traced = args.trace && read % 2 == 1;
                let result = if traced {
                    let root = tracer.open(req, "request", Some(kind), None);
                    let result =
                        tracer.wrap(req, "live.execute_tracked", Some(kind), Some(root), || {
                            live.execute_tracked(kind, text, exec)
                        });
                    tracer.close(root);
                    log.traced_ms.push(ms(tracer.spans()[root].duration()));
                    result.map(|(rows, stats)| {
                        layer.segments_probed.push(stats.segments_probed as f64);
                        rows
                    })
                } else {
                    let request = [ServeRequest::new(kind, text, exec)];
                    let t0 = Instant::now();
                    let response = serving.serve(&request).pop().expect("one response per request");
                    let latency = t0.elapsed();
                    if response.results.is_ok() {
                        log.served(latency, response.stats.exec_time);
                    }
                    if let Some(stats) = response.stats.live {
                        layer.segments_probed.push(stats.segments_probed as f64);
                    }
                    response.results
                };
                if args.trace {
                    layer.tail_len.push(live.metrics().tail_len as f64);
                }
                match result {
                    // Only the first segment to reach a read adds it.
                    Ok(rows) if read < MAP_READS_LIVE && read == log.ap.len() as u64 => {
                        let cluster = cluster_of[tid as usize];
                        let relevant = stream.members[cluster as usize].clone();
                        log.ap.push(ApEntry::new(&rows, &cluster_of, cluster, relevant));
                    }
                    Ok(_) => {}
                    Err(e) => log.fail(traced, e),
                }
            }
        }
    }
    phase.pause();
    let (wall, host) = (phase.wall, phase.host);
    let rss = peak_rss_mb();
    segment_done(&live, &before);
    layer.seals = seals;
    if let Some(e) = &log.first_error {
        mismatches.push(format!("a read failed: {e}"));
    }

    // Outside the timed phase: sampled reads at the final epoch against a
    // cache-less monolith over the same live records.
    let (monolith, global) = live.rebuild_monolith();
    monolith.set_result_cache_capacity(0);
    let mut pick = Rng::new(args.seed, 9);
    for s in 0..CHECK_SAMPLES as u64 {
        let tid = stream.tids[pick.below(stream.tids.len())];
        let text = strings[tid as usize].as_str();
        let kind = BOUNDED[s as usize % BOUNDED.len()];
        let exec = lookup_exec(s, taus[kind.index()]);
        let response = serving.serve(&[ServeRequest::new(kind, text, exec)]).pop();
        let verdict = match response.map(|r| r.results) {
            Some(Ok(rows)) => against_reference(
                &monolith.predicate(kind),
                &monolith.query(text),
                exec,
                &rows,
                Some(&global),
            ),
            Some(Err(e)) => Err(e),
            None => Ok(false),
        };
        match verdict {
            Ok(true) => {}
            Ok(false) => mismatches
                .push(format!("check {s}: {} {exec:?} of {text:?} differs", kind_name(kind))),
            Err(e) => mismatches.push(format!("check {s}: {e}")),
        }
    }
    drop((monolith, serving, live));

    let (metrics, extras) = if args.trace {
        // Work counters: the stream's first reads, with the writes between
        // them, replayed on a primed twin engine through the never-tripping
        // budget.
        let twin = LiveEngine::from_corpus(seed_corpus(), &params);
        prime(&twin);
        let mut replay = Stream::new(args.seed, &cluster_of);
        let mut counts = WorkCounts::default();
        while counts.reads < COUNT_READS {
            match replay.next_op(&cluster_of, &taus) {
                Op::Append(index) => {
                    twin.append(strings[index].clone());
                }
                Op::Delete(tid) => {
                    twin.delete(tid);
                }
                Op::Read { tid, kind, exec, .. } => {
                    let (run, _) = twin
                        .execute_budgeted(kind, &strings[tid as usize], exec, NEVER_TRIP)
                        .map_err(|e| format!("work-count replay: {e}"))?;
                    counts.add(run.report, run.results.len());
                }
            }
        }
        layer.read_exec_ms = median(&mut log.exec_ms.clone());
        let layers = Layers {
            reads: &mut log,
            tracer: &tracer,
            exec_span: "live.execute_tracked",
            cache,
            counts,
            live: layer,
            host,
        };
        (layers.metrics(), self_time_metrics(&tracer))
    } else {
        let extras = vec![
            metric("append_p50_ms", quantile(&mut append_ms, 0.50), "ms"),
            metric("append_p90_ms", quantile(&mut append_ms, 0.90), "ms"),
            metric("appends", append_ms.len() as f64, "count"),
            metric("latency_samples", log.latency_ms.len() as f64, "count"),
        ];
        (end_to_end(&mut setups, attempted, wall, &mut log, rss), extras)
    };
    Ok(Outcome {
        attempted,
        failed: log.failed + failed_deletes,
        mismatches,
        metrics,
        extras,
        checks: CHECK_SAMPLES as u64,
        host_cpu_s: host.0,
        host_runqueue_wait_ms: host.1,
        wall_s: wall.as_secs_f64(),
        tracer: args.trace.then_some(tracer),
    })
}
