//! The exactness contracts the served answers are checked against, outside
//! the timed loop: a fixed bar (`Threshold`, `Rank`) must return the
//! reference's bytes, and a bounded top-k must be tie-class-equal to the
//! exhaustive heap.

use dasp_core::{Exec, PredicateHandle, Query, ScoredTid, Tid};

/// Whether `served` (the answer to `exec`) meets its contract against a
/// cache-less reference engine: `TopK` tie-class-equal to `TopKHeap`,
/// `Threshold` bit-identical to `ThresholdScan`, `Rank` bit-identical to the
/// naive path. `global` maps the reference's tids to the served ones.
pub fn against_reference(
    reference: &PredicateHandle,
    query: &Query,
    exec: Exec,
    served: &[ScoredTid],
    global: Option<&[Tid]>,
) -> dasp_core::error::Result<bool> {
    let run = |exec: Exec| -> dasp_core::error::Result<Vec<ScoredTid>> {
        let mut rows = match exec {
            Exec::Rank => reference.execute_naive(query, exec)?,
            _ => reference.execute(query, exec)?,
        };
        if let Some(map) = global {
            rows.iter_mut().for_each(|row| row.tid = map[row.tid as usize]);
        }
        Ok(rows)
    };
    Ok(match exec {
        Exec::TopK(k) => {
            let heap = run(Exec::TopKHeap(k))?;
            let class = match heap.last() {
                Some(last) => run(Exec::ThresholdScan(last.score))?,
                None => Vec::new(),
            };
            tie_class_equal(served, &heap, &class)
        }
        Exec::Threshold(tau) => bit_identical(served, &run(Exec::ThresholdScan(tau))?),
        exec => bit_identical(served, &run(exec)?),
    })
}

/// Same tids in the same order with bit-identical scores.
pub fn bit_identical(served: &[ScoredTid], reference: &[ScoredTid]) -> bool {
    served.len() == reference.len()
        && served
            .iter()
            .zip(reference)
            .all(|(a, b)| a.tid == b.tid && a.score.to_bits() == b.score.to_bits())
}

/// Tie-class equality of a bounded top-k answer with the exhaustive heap's
/// `heap` answer: the same score sequence bit for bit, the same entries
/// above the k-th score, and at the k-th score only distinct members of
/// `tie_class` (every record scoring exactly the k-th score).
pub fn tie_class_equal(served: &[ScoredTid], heap: &[ScoredTid], tie_class: &[ScoredTid]) -> bool {
    let Some(kth) = heap.last().map(|s| s.score.to_bits()) else {
        return served.is_empty();
    };
    if served.len() != heap.len()
        || served.iter().zip(heap).any(|(a, b)| a.score.to_bits() != b.score.to_bits())
    {
        return false;
    }
    let above = heap.iter().take_while(|s| s.score.to_bits() != kth).count();
    if !bit_identical(&served[..above], &heap[..above]) {
        return false;
    }
    let mut boundary: Vec<_> = served[above..].iter().map(|s| s.tid).collect();
    boundary.sort_unstable();
    boundary.dedup();
    boundary.len() == served.len() - above
        && boundary
            .iter()
            .all(|&tid| tie_class.iter().any(|t| t.tid == tid && t.score.to_bits() == kth))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(tid: u32, score: f64) -> ScoredTid {
        ScoredTid { tid, score }
    }

    #[test]
    fn tie_class_accepts_a_different_boundary_member_only() {
        let heap = [st(4, 0.9), st(1, 0.5)];
        let class = [st(1, 0.5), st(7, 0.5)];
        assert!(tie_class_equal(&[st(4, 0.9), st(7, 0.5)], &heap, &class));
        assert!(!tie_class_equal(&[st(4, 0.9), st(8, 0.5)], &heap, &class));
        assert!(!tie_class_equal(&[st(3, 0.9), st(1, 0.5)], &heap, &class));
        assert!(!tie_class_equal(&[st(4, 0.9)], &heap, &class));
        assert!(tie_class_equal(&[], &[], &[]));
    }
}
