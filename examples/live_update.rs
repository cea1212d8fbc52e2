//! Serving a living corpus: the paper's benchmark assumes a static base
//! relation, but real deduplication services keep ingesting records. This
//! example drives `LiveEngine` — immutable sealed segments plus one mutable
//! tail — through the full lifecycle: seed build, appends, a tombstoned
//! delete, an explicit seal, queries merged across segments under one
//! shared score bar, and a final `compact()` that folds everything back
//! into a single sealed segment with refreshed corpus statistics. The
//! differential check at the end replays every query against a
//! monolithically rebuilt `SelectionEngine` at the same epoch.
//!
//! Run with: `cargo run -p dasp-bench --release --example live_update`

use std::sync::Arc;

use dasp_core::{Corpus, Exec, LiveEngine, Params, PredicateKind, ServeRequest, ServingEngine};
use dasp_datagen::dblp_dataset;

fn main() {
    let dataset = dblp_dataset(400);
    // A small seal limit so the demo grows several segments.
    let params = Params { segment_seal: 64, ..Params::default() };

    // Seed corpus becomes the first sealed segment; its statistics (df, cf,
    // avgdl, ...) are frozen until the next compact().
    let live = LiveEngine::from_corpus(Corpus::from_strings(dataset.strings()), &params);
    println!(
        "seeded live engine: {} records, epoch {}, seal limit {}",
        live.len(),
        live.epoch(),
        live.seal_limit()
    );

    // Ingest a stream of new titles. Each append tokenizes only the new
    // title; the tail's other records are shared, never re-tokenized.
    let stream = dblp_dataset(560);
    let mut appended = Vec::new();
    for record in &stream.records[400..] {
        appended.push(live.append(record.text.clone()));
    }
    println!(
        "appended {} records -> epoch {}, {} sealed segment(s) + tail of {}",
        appended.len(),
        live.epoch(),
        live.metrics().sealed_segments,
        live.metrics().tail_len
    );

    // Tombstone one of the appended records; it disappears from every
    // subsequent result without touching any segment index.
    let victim = appended[3];
    assert!(live.delete(victim));
    println!("deleted tid {victim} (tombstoned, epoch {})", live.epoch());

    // Freeze the current tail explicitly — e.g. ahead of a low-traffic
    // window — so later appends start a fresh tail.
    live.seal();

    // Queries run the bounded operators per segment and merge the
    // answers; results are globally ranked.
    let queries = [
        (PredicateKind::Cosine, &stream.records[410].text),
        (PredicateKind::Bm25, &stream.records[7].text),
        (PredicateKind::Jaccard, &stream.records[430].text),
    ];
    for (kind, text) in &queries {
        let hits = live.execute(*kind, text, Exec::TopK(5)).expect("query succeeds");
        let top = hits.first().map(|s| format!("tid {} @ {:.4}", s.tid, s.score));
        println!("{kind:?} top-5 for {text:?}: {} hits, best {:?}", hits.len(), top);
        assert!(hits.iter().all(|s| s.tid != victim), "tombstoned tid must not surface");
    }

    // The same engine serves a concurrent request pool (PR 4's
    // ServingEngine) — readers share epoch/Arc snapshots, never lock out
    // the writer.
    let live = Arc::new(live);
    let serving = ServingEngine::new_live(live.clone(), 4);
    let requests: Vec<ServeRequest> = (0..40)
        .map(|i| {
            let (kind, text) = &queries[i % queries.len()];
            // Alternate k so half the stream misses the result cache and
            // actually probes the segments.
            ServeRequest::new(*kind, (*text).clone(), Exec::TopK(if i % 2 == 0 { 5 } else { 8 }))
        })
        .collect();
    let responses = serving.serve(&requests);
    let probed: u64 =
        responses.iter().filter_map(|r| r.stats.live.map(|l| l.segments_probed as u64)).sum();
    let cache_hits = responses.iter().filter(|r| r.stats.cache_hit).count();
    println!(
        "served {} concurrent requests (epoch {}, {} cache hits, {} segment probes total)",
        responses.len(),
        live.epoch(),
        cache_hits,
        probed
    );

    // Differential contract: a monolithic engine rebuilt over the live
    // records at this epoch returns bit-identical rankings.
    let (monolith, tid_map) = live.rebuild_monolith();
    for (kind, text) in &queries {
        let live_hits = live.execute(*kind, text, Exec::Rank).expect("live rank");
        let handle = monolith.predicate(*kind);
        let mono_hits = handle.execute(&monolith.query(text), Exec::Rank).expect("monolith rank");
        assert_eq!(live_hits.len(), mono_hits.len());
        for (l, m) in live_hits.iter().zip(&mono_hits) {
            assert_eq!(l.tid, tid_map[m.tid as usize]);
            assert_eq!(l.score.to_bits(), m.score.to_bits());
        }
    }
    println!("differential check vs rebuilt monolith: rankings bit-identical");

    // Compaction folds all segments into one, drops tombstones for good and
    // refreshes the frozen statistics so new vocabulary becomes searchable.
    live.compact();
    let m = live.metrics();
    println!(
        "compacted -> epoch {}, {} sealed segment(s), tail {}, {} live records, {} tombstones",
        m.epoch, m.sealed_segments, m.tail_len, m.live_records, m.tombstones
    );
}
