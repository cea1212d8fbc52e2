//! Posting storage behind the bounded operators: a flat struct-of-arrays
//! posting store, one tid-ascending list per token.
//!
//! A [`PostingIndex`] is the third artifact a catalog name can carry (after
//! the shared `Arc<Table>` storage and the equality
//! [`TableIndex`](crate::TableIndex)), and the only one the bounded
//! operators read, so a catalog may hold it under a name with no table.
//! Storage is **flat struct-of-arrays**: one contiguous `tids` arena and one
//! parallel `weights` arena for the whole index, with each distinct token
//! owning an `(offset, len)` slice of both — no per-list allocations, and a
//! list walk reads one dense cache line after another instead of chasing a
//! `HashMap`-of-`Vec`s.
//!
//! A posting carries one weight per named **lane**. The bounded predicates'
//! lists have one lane, `score`; a multi-lane index (the language model's
//! three log-probability lanes) stores each list's lanes back to back, so
//! every lane of a list is one contiguous run too. The bounded operators sum
//! every lane per tid and rank by the first.
//!
//! [`PostingIndex::from_lanes`] is the one builder: it lays `(tid, token,
//! weights)` rows out count-then-scatter. [`PostingIndex::from_rows`] feeds
//! it single-lane rows; a catalog takes the result with
//! [`Catalog::attach_posting`](crate::Catalog::attach_posting).
//!
//! [`Plan::TopKBounded`](crate::Plan::TopKBounded) and
//! [`Plan::ThresholdBounded`](crate::Plan::ThresholdBounded) read these
//! lists score-at-a-time: the executor walks every probed list in windows
//! of consecutive tids and sums `factor × weight` into a dense accumulator,
//! the physical form of the declarative `SUM(factor × weight) … GROUP BY
//! tid` over the token join (see `exec.rs`). Each list stays tid-ascending
//! so a cursor can stop at a window's end and resume there.

use crate::error::{RelqError, Result};
use crate::value::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The token-keyed maps of a posting build and its list lookup, hashed by
/// [`TokenHasher`].
type TokenMap<V> = HashMap<Value, V, BuildHasherDefault<TokenHasher>>;

/// A small multiplicative hash for token keys, in place of the default
/// SipHash, whose keyed rounds cost more than laying a posting out: a live
/// tail rebuilds every kernel predicate's lists on its first read after an
/// append. Token keys are the predicate layer's own dictionary ids, so a
/// keyed hash buys nothing here. Each word is a folded multiply (the two
/// halves of the 128-bit product xored), so low and high output bits both
/// depend on every input bit: an integer key hashes as the bits of the
/// equal `f64`, whose low bits are all zero.
#[derive(Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        // An odd multiplier whose bits look random.
        let product = u128::from(self.0 ^ n) * 0x517c_c1b7_2722_0a95;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where one token's postings live inside the flat arenas.
#[derive(Debug, Clone, Copy)]
struct ListMeta {
    /// First posting in the `tids` arena (its lanes start at `offset ×
    /// lanes` in the `weights` arena).
    offset: usize,
    /// Number of postings.
    len: usize,
}

/// A borrowed view of one token's posting list inside the flat
/// struct-of-arrays store: ascending `tids` and their weights, lane after
/// lane. `Copy` — cursors hold it by value, no indirection per access.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    tids: &'a [i64],
    /// `tids.len()` weights per lane, lane after lane.
    weights: &'a [f64],
}

impl<'a> PostingList<'a> {
    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the list holds no postings (never the case for lists built
    /// from rows).
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Tuple ids in ascending order.
    pub fn tids(&self) -> &'a [i64] {
        self.tids
    }

    /// First-lane contributions aligned with [`tids`](Self::tids).
    pub fn weights(&self) -> &'a [f64] {
        &self.weights[..self.tids.len()]
    }

    /// Lane `lane`'s contributions aligned with [`tids`](Self::tids).
    pub fn lane(&self, lane: usize) -> &'a [f64] {
        let n = self.tids.len();
        &self.weights[lane * n..(lane + 1) * n]
    }
}

/// Posting lists for every distinct token over one flat struct-of-arrays
/// store, built once ([`from_lanes`](Self::from_lanes)) and read by
/// [`Plan::TopKBounded`](crate::Plan::TopKBounded) /
/// [`Plan::ThresholdBounded`](crate::Plan::ThresholdBounded).
#[derive(Debug, Clone)]
pub struct PostingIndex {
    /// All lists' tuple ids, list after list (each list's run ascending).
    tids: Vec<i64>,
    /// Contributions: per list, its run of each lane in lane order.
    weights: Vec<f64>,
    /// Lane names, the operators' output columns after `tid`.
    lanes: Vec<String>,
    map: TokenMap<ListMeta>,
}

impl PostingIndex {
    /// Build single-lane posting lists (lane `score`) from `(tid, token,
    /// weight)` rows; see [`from_lanes`](Self::from_lanes).
    pub fn from_rows(rows: impl IntoIterator<Item = (i64, Value, f64)>) -> Result<Self> {
        Self::from_lanes(["score"], rows.into_iter().map(|(tid, token, w)| (tid, token, [w])))
    }

    /// Build posting lists with one weight lane per name in `lanes` from
    /// `(tid, token, weights)` rows: one list per distinct token, each entry
    /// pairing a tid with its contribution to every lane. `(token, tid)`
    /// pairs must be unique — the token rows of the predicate layer are
    /// distinct per tuple by construction — and weights must be finite.
    /// Rows may arrive in any order; rows in ascending tid order (a
    /// tokenized corpus walked record by record) skip the per-list sort.
    ///
    /// Count-then-scatter: one pass numbers the distinct tokens in
    /// first-seen order and counts their postings, a second lays every list
    /// out back to back in the two arenas, so no per-token list is ever
    /// allocated.
    pub fn from_lanes<const L: usize>(
        lanes: [&str; L],
        rows: impl IntoIterator<Item = (i64, Value, [f64; L])>,
    ) -> Result<Self> {
        if L == 0 {
            return Err(RelqError::InvalidPlan("a posting index needs a weight lane".to_string()));
        }
        let mut slots: TokenMap<u32> = TokenMap::default();
        let mut counts: Vec<usize> = Vec::new();
        let mut postings: Vec<(u32, i64, [f64; L])> = Vec::new();
        for (tid, token, weights) in rows {
            if weights.iter().any(|w| !w.is_finite()) {
                return Err(RelqError::InvalidPlan(format!(
                    "posting weight for token {token} / tid {tid} is not finite"
                )));
            }
            let next = counts.len() as u32;
            let slot = *slots.entry(token).or_insert(next);
            if slot == next {
                counts.push(0);
            }
            counts[slot as usize] += 1;
            postings.push((slot, tid, weights));
        }
        let mut offsets: Vec<usize> = Vec::with_capacity(counts.len());
        let mut total = 0;
        for &count in &counts {
            offsets.push(total);
            total += count;
        }
        let mut tids = vec![0i64; total];
        let mut weights = vec![0f64; total * L];
        let mut next = offsets.clone();
        // Lane `l` of the posting at arena position `at` in the list of
        // `slot` lives at `offset·L + l·len + (at − offset)`.
        let place = |slot: usize, at: usize, lane: usize| {
            let (offset, len) = (offsets[slot], counts[slot]);
            offset * L + lane * len + (at - offset)
        };
        for (slot, tid, lane_weights) in postings {
            let at = next[slot as usize];
            tids[at] = tid;
            for (lane, w) in lane_weights.into_iter().enumerate() {
                weights[place(slot as usize, at, lane)] = w;
            }
            next[slot as usize] += 1;
        }
        // Per list: sort by tid where row order left the run unsorted, and
        // reject duplicate pairs.
        for (slot, (&offset, &len)) in offsets.iter().zip(&counts).enumerate() {
            let run = offset..offset + len;
            if !tids[run.clone()].windows(2).all(|w| w[0] < w[1]) {
                let mut order: Vec<usize> = run.clone().collect();
                order.sort_unstable_by_key(|&at| tids[at]);
                let sorted_tids: Vec<i64> = order.iter().map(|&at| tids[at]).collect();
                let sorted_weights: Vec<f64> = (0..L)
                    .flat_map(|lane| order.iter().map(move |&at| (lane, at)))
                    .map(|(lane, at)| weights[place(slot, at, lane)])
                    .collect();
                tids[run.clone()].copy_from_slice(&sorted_tids);
                weights[offset * L..(offset + len) * L].copy_from_slice(&sorted_weights);
            }
            if let Some(dup) = tids[run].windows(2).find(|w| w[0] == w[1]) {
                let token = slots.iter().find(|&(_, &s)| s as usize == slot).map(|(t, _)| t);
                return Err(RelqError::InvalidPlan(format!(
                    "duplicate posting ({}, {}): posting lists need distinct \
                     (token, tid) pairs",
                    token.expect("every slot has a token"),
                    dup[0]
                )));
            }
        }
        let map = slots
            .into_iter()
            .map(|(token, slot)| {
                let slot = slot as usize;
                (token, ListMeta { offset: offsets[slot], len: counts[slot] })
            })
            .collect();
        let lanes = lanes.iter().map(|s| s.to_string()).collect();
        Ok(PostingIndex { tids, weights, lanes, map })
    }

    /// Number of distinct tokens with a posting list.
    pub fn num_tokens(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings across all lists (the arena length).
    pub fn num_postings(&self) -> usize {
        self.tids.len()
    }

    /// The weight lanes' names, in lane order (`["score"]` for a
    /// single-lane index).
    pub fn lanes(&self) -> &[String] {
        &self.lanes
    }

    /// The posting list of one token key, as a borrowed view into the arenas.
    pub fn list(&self, token: &Value) -> Option<PostingList<'_>> {
        let meta = self.map.get(token)?;
        let lanes = self.lanes.len();
        Some(PostingList {
            tids: &self.tids[meta.offset..meta.offset + meta.len],
            weights: &self.weights[meta.offset * lanes..(meta.offset + meta.len) * lanes],
        })
    }
}

#[cfg(test)]
mod tests {
    //! Besides the build, these tests hold the bounded operators' kernel
    //! (`exec::score_windowed`) to the exhaustive probe-major reference
    //! (`exec::score_exhaustive`) over posting lists built here.
    use super::*;
    use crate::exec::{
        score_exhaustive, score_windowed, sum_exhaustive, sum_windowed, LaneSums, Select,
    };
    use crate::limits::ExecLimits;

    /// The posting index of `(tid, token, weight)` rows with integer tokens.
    fn index(rows: &[(i64, i64, f64)]) -> Result<PostingIndex> {
        PostingIndex::from_rows(rows.iter().map(|&(tid, token, w)| (tid, Value::Int(token), w)))
    }

    /// `(tids, weights)` of one list: equality here is list-content equality.
    fn content(ix: &PostingIndex, token: i64) -> Option<(Vec<i64>, Vec<f64>)> {
        ix.list(&Value::Int(token)).map(|l| (l.tids().to_vec(), l.weights().to_vec()))
    }

    #[test]
    fn build_produces_tid_sorted_lists() {
        let rows = [(3, 7, 0.5), (1, 7, 0.25), (2, 9, 1.5), (1, 9, 0.75)];
        let ix = index(&rows).unwrap();
        assert_eq!(ix.num_tokens(), 2);
        assert_eq!(ix.num_postings(), 4);
        assert_eq!(content(&ix, 7), Some((vec![1, 3], vec![0.25, 0.5])));
        assert_eq!(content(&ix, 9), Some((vec![1, 2], vec![0.75, 1.5])));
        assert_eq!(content(&ix, 42), None);
        // Rows already in tid order lay out the same lists.
        let mut sorted = rows;
        sorted.sort_by_key(|&(tid, _, _)| tid);
        let direct = index(&sorted).unwrap();
        for token in [7, 9, 42] {
            assert_eq!(content(&direct, token), content(&ix, token));
        }
        // Keys equal as `Value`s share one list.
        let mixed = PostingIndex::from_rows([
            (2, Value::Float(7.0), 0.5),
            (1, Value::Int(7), 0.25),
            (1, Value::Int(-3), 1.0),
            (2, Value::Float(-3.0), 2.0),
            (1, Value::Str("ab".into()), 4.0),
        ])
        .unwrap();
        assert_eq!(mixed.num_tokens(), 3);
        assert_eq!(content(&mixed, 7), Some((vec![1, 2], vec![0.25, 0.5])));
        assert_eq!(content(&mixed, -3), Some((vec![1, 2], vec![1.0, 2.0])));
        let ab = mixed.list(&Value::Str("ab".into())).unwrap();
        assert_eq!((ab.tids(), ab.weights()), (&[1][..], &[4.0][..]));
    }

    #[test]
    fn non_finite_weights_duplicates_and_zero_blocks_are_rejected() {
        assert!(index(&[(1, 7, f64::INFINITY)]).is_err());
        assert!(index(&[(1, 7, 0.5), (1, 7, 0.25)]).is_err());
        assert_eq!(index(&[]).unwrap().num_postings(), 0);
        assert!(PostingIndex::from_rows([(1, Value::Int(7), f64::NAN)]).is_err());
        let dup = [(1, Value::Int(7), 0.5), (1, Value::Int(7), 0.25)];
        assert!(PostingIndex::from_rows(dup).is_err());
        let no_lanes: [(i64, Value, [f64; 0]); 1] = [(1, Value::Int(7), [])];
        assert!(PostingIndex::from_lanes([], no_lanes).is_err());
        assert!(
            PostingIndex::from_lanes(["a", "b"], [(1, Value::Int(7), [0.5, f64::NAN])]).is_err()
        );
    }

    /// The probed lists of `probes` (`(token, factor)`, in probe order;
    /// tokens without a list are skipped, as the executor does).
    fn gather<'a>(ix: &'a PostingIndex, probes: &[(i64, f64)]) -> Vec<(PostingList<'a>, f64)> {
        probes
            .iter()
            .filter_map(|&(token, factor)| ix.list(&Value::Int(token)).map(|l| (l, factor)))
            .collect()
    }

    /// The exhaustive reference: [`score_exhaustive`], restricted to the tids
    /// `keep` accepts, then selected and brought into ranking order (score
    /// descending, ties by ascending tid). The threshold test "not below τ"
    /// is the relational filter's, under which a NaN τ admits everything.
    fn reference(
        ix: &PostingIndex,
        probes: &[(i64, f64)],
        select: Select,
        keep: impl Fn(i64) -> bool,
    ) -> Vec<(i64, f64)> {
        let mut scores = score_exhaustive(&gather(ix, probes));
        scores.retain(|&(tid, _)| keep(tid));
        if let Select::Threshold(tau) = select {
            scores.retain(|&(_, score)| score.partial_cmp(&tau) != Some(std::cmp::Ordering::Less));
        }
        scores.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Select::TopK(k) = select {
            scores.truncate(k);
        }
        scores
    }

    fn kernel(ix: &PostingIndex, probes: &[(i64, f64)], select: Select) -> Vec<(i64, f64)> {
        score_windowed(&gather(ix, probes), select, &ExecLimits::unlimited()).unwrap()
    }

    /// `(tid, score bits)`: equality here is byte equality, `-0.0` included.
    fn bits(rows: &[(i64, f64)]) -> Vec<(i64, u64)> {
        rows.iter().map(|&(tid, score)| (tid, score.to_bits())).collect()
    }

    /// A random posting index whose tids span several accumulator windows:
    /// each list starts anywhere in `[-20_000, 20_000)` and mostly steps by
    /// 1–3, sometimes by more than a whole window. Probes draw tokens with
    /// replacement, so a list may be probed twice, and include a token
    /// without a list.
    fn random_case(g: &mut proptest::Gen) -> (PostingIndex, Vec<(i64, f64)>) {
        let (rows, probes) = random_rows(g);
        (random_index(&rows), probes)
    }

    fn random_index(rows: &[(i64, i64, f64)]) -> PostingIndex {
        index(rows).unwrap()
    }

    /// `(tid, token, weight)` rows.
    type Rows = Vec<(i64, i64, f64)>;

    /// The rows and probes of [`random_case`].
    fn random_rows(g: &mut proptest::Gen) -> (Rows, Vec<(i64, f64)>) {
        let num_tokens = g.usize_in(1..10);
        let mut rows = Vec::new();
        for token in 0..num_tokens as i64 {
            let mut tid = g.int_in(-20_000..20_000);
            for _ in 0..g.usize_in(1..60) {
                rows.push((tid, token, g.f64_in(0.0..2.0)));
                tid += if g.bool_with(0.1) { g.int_in(4_000..12_000) } else { g.int_in(1..4) };
            }
        }
        let probes = (0..g.usize_in(1..12))
            .map(|_| (g.int_in(0..num_tokens as i64 + 1), g.f64_in(0.0..1.5)))
            .collect();
        (rows, probes)
    }

    /// Three signed lanes per row of [`random_rows`], the first the row's
    /// weight; rows arrive in reverse so every list takes the sort path.
    fn lane_index(rows: &[(i64, i64, f64)]) -> PostingIndex {
        let lanes = rows.iter().rev().map(|&(tid, token, w)| {
            (tid, Value::Int(token), [w, -w / 3.0, w * w - (tid % 7) as f64])
        });
        PostingIndex::from_lanes(["a", "b", "c"], lanes).unwrap()
    }

    /// `(tid, lane bits…)` rows of lane sums, by ascending tid.
    fn lane_bits(sums: &LaneSums) -> Vec<(i64, Vec<u64>)> {
        let mut rows: Vec<(i64, Vec<u64>)> = (0..sums.len())
            .map(|row| (sums.tid(row), sums.row(row).iter().map(|x| x.to_bits()).collect()))
            .collect();
        rows.sort_by_key(|row| row.0);
        rows
    }

    #[test]
    fn lane_sums_match_the_exhaustive_reference_on_random_inputs() {
        use proptest::prelude::*;
        check(64, |g| {
            let (rows, probes) = random_rows(g);
            let (single, lanes) = (random_index(&rows), lane_index(&rows));
            assert_eq!(lanes.lanes(), ["a", "b", "c"]);
            let (gathered, all) = (gather(&lanes, &probes), Select::TopK(usize::MAX));
            let windowed = sum_windowed(&gathered, 3, all, &ExecLimits::unlimited()).unwrap();
            let tids: Vec<i64> = (0..windowed.len()).map(|row| windowed.tid(row)).collect();
            assert!(tids.windows(2).all(|w| w[0] < w[1]), "ascending tids");
            assert_eq!(lane_bits(&windowed), lane_bits(&sum_exhaustive(&gathered, 3)));
            // The first lane is the single-lane index's score.
            let mut scores = score_exhaustive(&gather(&single, &probes));
            scores.sort_by_key(|&(tid, _)| tid);
            let first: Vec<(i64, u64)> =
                lane_bits(&windowed).iter().map(|(tid, bits)| (*tid, bits[0])).collect();
            assert_eq!(first, bits(&scores));
            // A cut-short charge keeps the exact sums of a tid prefix.
            for cap in [0, 1, tids.len() / 2, tids.len()] {
                let limits = ExecLimits::new(None, Some(cap as u64));
                let cut = sum_windowed(&gathered, 3, all, &limits).unwrap();
                assert_eq!(lane_bits(&cut), lane_bits(&windowed)[..cap.min(tids.len())], "{cap}");
                assert_eq!(limits.exhausted(), cap < tids.len());
            }
            assert_eq!(
                sum_windowed(&gathered, 3, Select::TopK(0), &ExecLimits::unlimited())
                    .unwrap()
                    .len(),
                0
            );
        });
    }

    #[test]
    fn bounded_matches_exhaustive_reference_on_random_inputs() {
        use proptest::prelude::*;
        check(64, |g| {
            let (ix, probes) = random_case(g);
            for k in [0, 1, 3, 10, 1000, usize::MAX] {
                assert_eq!(
                    bits(&kernel(&ix, &probes, Select::TopK(k))),
                    bits(&reference(&ix, &probes, Select::TopK(k), |_| true)),
                    "k={k} probes={probes:?}"
                );
            }
        });
    }

    #[test]
    fn negative_factors_are_rejected() {
        let ix = index(&[(1, 7, 0.5)]).unwrap();
        let list = ix.list(&Value::Int(7)).unwrap();
        for select in [Select::TopK(3), Select::Threshold(0.1)] {
            for bad in [-0.5, f64::NAN, f64::INFINITY] {
                assert!(
                    score_windowed(&[(list, bad)], select, &ExecLimits::unlimited()).is_err(),
                    "{bad}"
                );
            }
            assert!(score_windowed(&[(list, 0.0)], select, &ExecLimits::unlimited()).is_ok());
        }
    }

    #[test]
    fn threshold_traversal_is_bit_identical_to_exhaustive_filter() {
        use proptest::prelude::*;
        check(64, |g| {
            let (ix, probes) = random_case(g);
            let all = reference(&ix, &probes, Select::TopK(usize::MAX), |_| true);
            // τ sweep: non-finite bars, a bar below every score, bars equal
            // to exact scores (the `>=` boundary), between-score bars and a
            // bar above the maximum.
            let mut taus = vec![f64::NEG_INFINITY, 0.0, f64::INFINITY, f64::NAN, 1e300, -1e300];
            if let (Some(&(_, hi)), Some(&(_, lo))) = (all.first(), all.last()) {
                taus.extend([lo, hi, (lo + hi) / 2.0, hi * 1.5 + 1.0, lo / 2.0]);
                if let Some(&(_, mid)) = all.get(all.len() / 2) {
                    taus.push(mid);
                    taus.push(f64::from_bits(mid.to_bits() + 1)); // next float up
                }
            }
            for tau in taus {
                assert_eq!(
                    bits(&kernel(&ix, &probes, Select::Threshold(tau))),
                    bits(&reference(&ix, &probes, Select::Threshold(tau), |_| true)),
                    "tau={tau} probes={probes:?}"
                );
            }
        });
    }

    #[test]
    fn windows_cover_gaps_negative_and_extreme_tids_and_repeated_lists() {
        // Tids at both ends of i64, around zero and across window edges
        // (4,096 apart), with gaps far wider than a window.
        let tids = [i64::MIN, i64::MIN + 4_095, -4_097, -1, 0, 4_095, 4_096, 1 << 40, i64::MAX];
        let mut rows = Vec::new();
        for (i, &tid) in tids.iter().enumerate() {
            rows.push((tid, 0, 1.0 + i as f64));
            if i % 2 == 0 {
                rows.push((tid, 1, 0.25));
            }
        }
        let ix = index(&rows).unwrap();
        // List 0 probed twice, with list 1 between the two probes.
        let probes = [(0, 0.5), (1, 3.0), (0, 0.125)];
        for k in [1, 4, tids.len(), usize::MAX] {
            let got = kernel(&ix, &probes, Select::TopK(k));
            assert_eq!(bits(&got), bits(&reference(&ix, &probes, Select::TopK(k), |_| true)));
        }
        let all = kernel(&ix, &probes, Select::Threshold(f64::NEG_INFINITY));
        let mut got: Vec<i64> = all.iter().map(|&(tid, _)| tid).collect();
        got.sort_unstable();
        assert_eq!(got, tids);
        let expect = reference(&ix, &probes, Select::Threshold(f64::NEG_INFINITY), |_| true);
        assert_eq!(bits(&all), bits(&expect));
    }

    #[test]
    fn a_negative_zero_first_contribution_keeps_its_sign() {
        // tid 1: only `0 × -1.0 = -0.0`; tid 2: `-0.0` then `+0.0` (= +0.0).
        // Adding the first contribution to a 0.0 start would turn tid 1's
        // score into +0.0.
        let rows = [(1, 0, -1.0), (2, 0, -1.0), (2, 1, 1.0)];
        let ix = index(&rows).unwrap();
        let probes = [(0, 0.0), (1, 0.0)];
        let got = kernel(&ix, &probes, Select::TopK(10));
        assert_eq!(bits(&got), vec![(2, 0f64.to_bits()), (1, (-0f64).to_bits())]);
        assert_eq!(bits(&got), bits(&reference(&ix, &probes, Select::TopK(10), |_| true)));
        let at_zero = kernel(&ix, &probes, Select::Threshold(0.0));
        assert_eq!(bits(&at_zero), bits(&got), "-0.0 compares equal to τ = 0");
    }

    #[test]
    fn every_candidate_cap_returns_the_exact_answer_over_a_tid_prefix() {
        use proptest::prelude::*;
        check(12, |g| {
            let (ix, probes) = random_case(g);
            let mut touched: Vec<i64> =
                score_exhaustive(&gather(&ix, &probes)).iter().map(|&(tid, _)| tid).collect();
            touched.sort_unstable();
            let tau = g.f64_in(0.0..2.0);
            let k = g.usize_in(1..8);
            for cap in 0..=touched.len() {
                // The first `cap` touched tids, in ascending order.
                let in_prefix = |tid: i64| touched[..cap].binary_search(&tid).is_ok();
                for select in [Select::TopK(k), Select::Threshold(tau)] {
                    let limits = ExecLimits::new(None, Some(cap as u64));
                    let got = score_windowed(&gather(&ix, &probes), select, &limits).unwrap();
                    let expect = reference(&ix, &probes, select, in_prefix);
                    assert_eq!(bits(&got), bits(&expect), "cap={cap} {select:?}");
                    assert_eq!(limits.report().candidates, cap as u64, "cap={cap}");
                    assert_eq!(limits.exhausted(), cap < touched.len(), "cap={cap}");
                }
            }
        });
    }
}
