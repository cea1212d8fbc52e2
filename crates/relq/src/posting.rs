//! Score-bounded posting storage and the two bounded traversals it enables:
//! a flat struct-of-arrays posting store with per-block maxima (Block-Max
//! WAND) behind the max-score operators.
//!
//! A [`PostingIndex`] is the third registration-time artifact a catalog table
//! can carry (after the shared `Arc<Table>` storage and the equality
//! [`TableIndex`](crate::TableIndex)). Storage is **flat struct-of-arrays**:
//! one contiguous `tids` arena and one parallel `weights` arena for the whole
//! index, with each distinct key of the token column owning an
//! `(offset, len)` slice of both — no per-list allocations, and a list
//! traversal walks one dense cache line after another instead of chasing a
//! `HashMap`-of-`Vec`s. Alongside the per-list maximum contribution the build
//! records **per-block maxima**: the largest weight inside every
//! `block_size`-posting run of a list (a third arena, ~`len / block_size`
//! entries per list). Those bounds power two early-terminating operators:
//!
//! * [`Plan::TopKBounded`](crate::Plan::TopKBounded) — a document-at-a-time
//!   max-score traversal (Turtle & Flood's refinement of WAND / Fagin's
//!   threshold algorithm) that keeps a `k`-sized heap with a *running*
//!   threshold θ and never fully scores a tid whose sum of remaining list
//!   upper bounds cannot beat θ ([`MaxScoreTraversal`]).
//! * [`Plan::ThresholdBounded`](crate::Plan::ThresholdBounded) — the same
//!   traversal with the threshold *fixed* at a caller-supplied τ from the
//!   start ([`ThresholdTraversal`]): no heap, the non-essential prefix is
//!   computed once, and the operator returns every tid whose exact score
//!   reaches τ. Strictly simpler than top-k — and, because θ never moves,
//!   free of the tie-class ambiguity at the k boundary.
//!
//! ## Block-max skipping
//!
//! A per-list maximum is a *global* bound: one hot document poisons the whole
//! list, keeping it essential forever and forcing the traversal to visit
//! every candidate it emits. Per-block maxima localize the damage (the
//! standard WAND → Block-Max WAND upgrade): whenever the global-bound sum of
//! the essential lists clears the bar, the traversal re-checks against the
//! **block-level** bound sum at the current cursors — the maxima of exactly
//! the blocks any candidate below the next block boundary could draw
//! contributions from. If even that sum is hopeless, the cursors jump
//! straight to the boundary with a **galloping** (exponential-then-binary)
//! search over the dense tid arena, skipping every candidate in between
//! without scoring a single one. Skipping therefore happens *inside*
//! essential lists, where the global bound is powerless.
//!
//! For the monotone sum-of-non-negative-contribution predicates this makes
//! both selections sublinear in the candidate count: the long, low-weight
//! lists of frequent tokens are consulted only through bounded random
//! accesses (also galloping), never traversed.
//!
//! ## Exactness contract
//!
//! Block maxima are upper bounds on every weight in their block, so the
//! block-level bound sum is an upper bound on the exact score of every tid in
//! the skipped range — a skip can only discard tids that could never reach
//! the bar. Bound arithmetic additionally uses a small relative slack so
//! floating-point summation order can never prune a tid whose exact score
//! ties or beats the bar (pruning only discards a tid when its upper bound is
//! below `θ · (1 − 1e-9)`-ish, seven orders of magnitude wider than
//! accumulated rounding). Every tid that survives pruning is then re-scored
//! in *probe order* — the exact accumulation order of the materializing
//! aggregation plans. For top-k that makes emitted scores bit-identical to
//! the heap path's whenever they are distinct (only the membership of exact
//! score ties may differ); for the fixed-τ traversal the final admission test
//! is the exact `score ≥ τ` on the re-scored sum, so the result is
//! **bit-identical** to the exhaustive score-then-filter pipeline — there is
//! no tie class at a fixed τ. Both contracts hold for *every* block size,
//! including the degenerate `1` (per-posting maxima) and `≥ list length`
//! (block max = global max, i.e. plain WAND).

use crate::error::{RelqError, Result};
use crate::table::Table;
use crate::value::Value;
use std::collections::HashMap;

/// Default number of postings per block-max block. 64 keeps a block's tids
/// inside one 512-byte run (a single prefetchable stretch) while making the
/// block maxima arena ~1.5 % of the posting storage; the engine layer can
/// tune it per index ([`PostingIndex::build_with_block_size`]).
pub const DEFAULT_POSTING_BLOCK: usize = 64;

/// Where one token's postings live inside the flat arenas.
#[derive(Debug, Clone, Copy)]
struct ListMeta {
    /// First posting in the `tids` / `weights` arenas.
    offset: usize,
    /// Number of postings.
    len: usize,
    /// First entry in the `block_maxes` arena (`len.div_ceil(block_size)`
    /// entries follow).
    block_offset: usize,
    /// The largest weight of the list (the global per-list upper bound).
    max_weight: f64,
}

/// A borrowed view of one token's posting list inside the flat
/// struct-of-arrays store: parallel `tids` (ascending) / `weights` slices,
/// the per-block maxima of its `block_size`-posting runs, and the list-level
/// maximum. `Copy` — cursors hold it by value, no indirection per access.
#[derive(Debug, Clone, Copy)]
pub struct PostingList<'a> {
    tids: &'a [i64],
    weights: &'a [f64],
    block_maxes: &'a [f64],
    block_size: usize,
    max_weight: f64,
}

impl<'a> PostingList<'a> {
    /// Number of postings in the list.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// True when the list holds no postings (never the case for lists built
    /// from table rows, but callers constructing empty cursors rely on it).
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Tuple ids in ascending order.
    pub fn tids(&self) -> &'a [i64] {
        self.tids
    }

    /// Contributions aligned with [`tids`](Self::tids).
    pub fn weights(&self) -> &'a [f64] {
        self.weights
    }

    /// The largest contribution in the list (the per-list upper bound).
    pub fn max_weight(&self) -> f64 {
        self.max_weight
    }

    /// Number of postings per block-max block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Per-block maxima: entry `b` bounds every weight in postings
    /// `[b * block_size, (b + 1) * block_size)` of this list.
    pub fn block_maxes(&self) -> &'a [f64] {
        self.block_maxes
    }

    /// Number of block-max blocks (`len.div_ceil(block_size)`).
    pub fn num_blocks(&self) -> usize {
        self.block_maxes.len()
    }

    /// The block-level upper bound at posting position `pos`: the maximum
    /// weight of the block containing `pos`.
    pub fn block_max_at(&self, pos: usize) -> f64 {
        self.block_maxes[pos / self.block_size]
    }

    /// First posting position of the block after the one containing `pos`
    /// (≥ `len` when `pos` sits in the final block). Saturating, so a
    /// degenerate `block_size` near `usize::MAX` stays well-defined.
    pub fn next_block_start(&self, pos: usize) -> usize {
        (pos / self.block_size).saturating_add(1).saturating_mul(self.block_size)
    }

    /// The first position `≥ from` whose tid is `≥ tid`, by galloping search:
    /// exponential probes from `from` bracket the target, a binary search
    /// finishes inside the bracket. O(log distance) — cheap for the short
    /// hops of block skips, never worse than a full binary search (up to a
    /// constant) for long ones.
    pub fn seek(&self, from: usize, tid: i64) -> usize {
        let tids = self.tids;
        let from = from.min(tids.len());
        if from == tids.len() || tids[from] >= tid {
            return from;
        }
        // Exponential phase: invariant tids[lo] < tid; double the step until
        // the probe overshoots (or runs off the end).
        let mut lo = from;
        let mut step = 1usize;
        let hi = loop {
            let probe = lo + step;
            if probe >= tids.len() {
                break tids.len();
            }
            if tids[probe] >= tid {
                break probe;
            }
            lo = probe;
            step <<= 1;
        };
        // Binary phase over (lo, hi): everything at or before lo is < tid.
        lo + 1 + tids[lo + 1..hi].partition_point(|&t| t < tid)
    }

    /// Random access: the contribution of `tid`, if it appears in the list
    /// (a gallop from the front of the dense tid slice).
    pub fn weight_of(&self, tid: i64) -> Option<f64> {
        let pos = self.seek(0, tid);
        (self.tids.get(pos) == Some(&tid)).then(|| self.weights[pos])
    }
}

/// Posting lists for every distinct key of a table's token column over one
/// flat struct-of-arrays store, built once at registration time
/// ([`Catalog::register_posting`](crate::Catalog::register_posting)) and
/// traversed by [`Plan::TopKBounded`](crate::Plan::TopKBounded) /
/// [`Plan::ThresholdBounded`](crate::Plan::ThresholdBounded).
#[derive(Debug, Clone)]
pub struct PostingIndex {
    token_col: String,
    tid_col: String,
    weight_col: Option<String>,
    block_size: usize,
    /// All lists' tuple ids, list after list (each list's run ascending).
    tids: Vec<i64>,
    /// Contributions aligned with `tids`.
    weights: Vec<f64>,
    /// Per-block maxima, list after list (`len.div_ceil(block_size)` entries
    /// per list).
    block_maxes: Vec<f64>,
    map: HashMap<Value, ListMeta>,
}

impl PostingIndex {
    /// Build posting lists over `table` with the default block size
    /// ([`DEFAULT_POSTING_BLOCK`]): one list per distinct non-NULL value of
    /// `token_col`, each entry pairing the row's `tid_col` (an integer) with
    /// its `weight_col` contribution (`None` = unit weight 1.0, the
    /// unweighted-overlap case). `(token, tid)` pairs must be unique — the
    /// token tables of the predicate layer are distinct-per-tuple by
    /// construction — and weights must be finite, or the per-list and
    /// per-block maxima would not be valid upper bounds.
    pub fn build(
        table: &Table,
        token_col: &str,
        tid_col: &str,
        weight_col: Option<&str>,
    ) -> Result<Self> {
        Self::build_with_block_size(table, token_col, tid_col, weight_col, DEFAULT_POSTING_BLOCK)
    }

    /// [`build`](Self::build) with an explicit block-max granularity.
    /// `block_size = 1` stores one bound per posting (tightest, largest
    /// arena); any size `≥` the longest list degenerates every block max to
    /// the list max — the plain-WAND configuration the benchmarks use as the
    /// global-max baseline. The traversals are exact at every setting; the
    /// size only moves the skip/overhead trade-off.
    pub fn build_with_block_size(
        table: &Table,
        token_col: &str,
        tid_col: &str,
        weight_col: Option<&str>,
        block_size: usize,
    ) -> Result<Self> {
        if block_size == 0 {
            return Err(RelqError::InvalidPlan(
                "posting block size must be at least 1".to_string(),
            ));
        }
        let token_idx = table.schema().index_of(token_col)?;
        let tid_idx = table.schema().index_of(tid_col)?;
        let weight_idx = weight_col.map(|c| table.schema().index_of(c)).transpose()?;
        // A row's posting: `None` when it contributes nothing (a NULL key
        // never matches under SQL equality, a NULL weight vanishes under
        // SUM).
        let posting = |row: &[Value]| -> Result<Option<(i64, f64)>> {
            let token = &row[token_idx];
            if token.is_null() || row[tid_idx].is_null() {
                return Ok(None);
            }
            let tid = row[tid_idx].as_i64()?;
            let weight = match weight_idx {
                None => 1.0,
                Some(i) => match &row[i] {
                    Value::Null => return Ok(None),
                    v => v.as_f64()?,
                },
            };
            if !weight.is_finite() {
                return Err(RelqError::InvalidPlan(format!(
                    "posting weight for token {token} / tid {tid} is not finite"
                )));
            }
            Ok(Some((tid, weight)))
        };
        // Pass 1: number the distinct tokens in first-seen order and count
        // their postings, keeping each row's token number (`u32::MAX` for a
        // row without a posting). A token Value is cloned once per distinct
        // token.
        let mut slots: HashMap<Value, u32> = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut row_slots: Vec<u32> = Vec::with_capacity(table.num_rows());
        for row in table.rows() {
            if posting(row)?.is_none() {
                row_slots.push(u32::MAX);
                continue;
            }
            let token = &row[token_idx];
            let slot = match slots.get(token) {
                Some(&slot) => slot,
                None => {
                    let slot = counts.len() as u32;
                    slots.insert(token.clone(), slot);
                    counts.push(0);
                    slot
                }
            };
            counts[slot as usize] += 1;
            row_slots.push(slot);
        }
        // Pass 2: scatter every posting into its list's run of the flat
        // arenas, in table order, so no per-token list is ever allocated.
        let mut offsets: Vec<usize> = Vec::with_capacity(counts.len());
        let mut total = 0;
        for &count in &counts {
            offsets.push(total);
            total += count;
        }
        let mut tids = vec![0i64; total];
        let mut weights = vec![0f64; total];
        let mut next = offsets.clone();
        for (row, &slot) in table.rows().zip(&row_slots) {
            if slot != u32::MAX {
                let (tid, weight) = posting(row)?.expect("pass 1 found a posting in this row");
                let at = &mut next[slot as usize];
                (tids[*at], weights[*at]) = (tid, weight);
                *at += 1;
            }
        }
        // Pass 3, per list: sort by tid where table order left the run
        // unsorted, reject duplicate pairs, fold the block maxima.
        let mut block_maxes: Vec<f64> = Vec::new();
        let mut metas: Vec<ListMeta> = Vec::with_capacity(counts.len());
        for (slot, (&offset, &len)) in offsets.iter().zip(&counts).enumerate() {
            let run = offset..offset + len;
            if !tids[run.clone()].windows(2).all(|w| w[0] < w[1]) {
                let mut pairs: Vec<(i64, f64)> = tids[run.clone()]
                    .iter()
                    .copied()
                    .zip(weights[run.clone()].iter().copied())
                    .collect();
                pairs.sort_unstable_by_key(|&(tid, _)| tid);
                for (i, (tid, weight)) in pairs.into_iter().enumerate() {
                    (tids[offset + i], weights[offset + i]) = (tid, weight);
                }
            }
            if let Some(dup) = tids[run.clone()].windows(2).find(|w| w[0] == w[1]) {
                let token = slots.iter().find(|&(_, &s)| s as usize == slot).map(|(t, _)| t);
                return Err(RelqError::InvalidPlan(format!(
                    "duplicate posting ({}, {}): posting lists need distinct \
                     (token, tid) pairs",
                    token.expect("every slot has a token"),
                    dup[0]
                )));
            }
            let block_offset = block_maxes.len();
            let mut max_weight = f64::NEG_INFINITY;
            for block in weights[run].chunks(block_size) {
                let block_max =
                    block.iter().fold(f64::NEG_INFINITY, |m, &w| if w > m { w } else { m });
                block_maxes.push(block_max);
                if block_max > max_weight {
                    max_weight = block_max;
                }
            }
            metas.push(ListMeta { offset, len, block_offset, max_weight });
        }
        let map: HashMap<Value, ListMeta> =
            slots.into_iter().map(|(token, slot)| (token, metas[slot as usize])).collect();
        Ok(PostingIndex {
            token_col: token_col.to_string(),
            tid_col: tid_col.to_string(),
            weight_col: weight_col.map(str::to_string),
            block_size,
            tids,
            weights,
            block_maxes,
            map,
        })
    }

    /// The token column the lists are keyed on.
    pub fn token_col(&self) -> &str {
        &self.token_col
    }

    /// The tid column the postings carry.
    pub fn tid_col(&self) -> &str {
        &self.tid_col
    }

    /// The contribution column (`None` = unit weights).
    pub fn weight_col(&self) -> Option<&str> {
        self.weight_col.as_deref()
    }

    /// The block-max granularity this index was built with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of distinct tokens with a posting list.
    pub fn num_tokens(&self) -> usize {
        self.map.len()
    }

    /// Total number of postings across all lists (the arena length).
    pub fn num_postings(&self) -> usize {
        self.tids.len()
    }

    /// The posting list of one token key, as a borrowed view into the arenas.
    pub fn list(&self, token: &Value) -> Option<PostingList<'_>> {
        let meta = self.map.get(token)?;
        let blocks = meta.len.div_ceil(self.block_size);
        Some(PostingList {
            tids: &self.tids[meta.offset..meta.offset + meta.len],
            weights: &self.weights[meta.offset..meta.offset + meta.len],
            block_maxes: &self.block_maxes[meta.block_offset..meta.block_offset + blocks],
            block_size: self.block_size,
            max_weight: meta.max_weight,
        })
    }
}

/// One query-side probe of a posting list: the list view, the non-negative
/// query-side factor its contributions are scaled by, and the probe row the
/// factor came from (the canonical re-scoring order).
struct ProbedList<'a> {
    list: PostingList<'a>,
    factor: f64,
    /// Upper bound of this list's scaled contribution (`factor * max_weight`;
    /// exact — float multiplication by a non-negative factor is monotone).
    bound: f64,
    /// Cursor into the list during document-at-a-time traversal.
    pos: usize,
    /// Monotone random-access cursor: candidates are enumerated in ascending
    /// tid order, so every probe ([`probe`](Self::probe)) targets a tid no
    /// smaller than the last one and can gallop *forward* from here instead
    /// of bisecting the whole list. Amortized O(1) per probe for dense
    /// candidate runs, never worse than the cold gallop it replaces.
    probe_pos: usize,
    /// Position of this probe in the original probe order (exact re-scoring
    /// accumulates contributions in this order).
    canon: usize,
}

impl<'a> ProbedList<'a> {
    /// The contribution of `tid`, if present — like
    /// [`PostingList::weight_of`] but galloping forward from the monotone
    /// probe cursor. Callers must probe non-decreasing tids (both traversals
    /// enumerate candidates in ascending tid order); re-probing the current
    /// tid is fine, the cursor parks *at* it, not past it.
    fn probe(&mut self, tid: i64) -> Option<f64> {
        self.probe_pos = self.list.seek(self.probe_pos, tid);
        (self.list.tids().get(self.probe_pos) == Some(&tid))
            .then(|| self.list.weights()[self.probe_pos])
    }
}

/// Result ordering: descending score (ties by ascending tid), the one
/// canonical ranking order of the predicate layer.
fn ranks_before(score: f64, tid: i64, than_score: f64, than_tid: i64) -> bool {
    match score.total_cmp(&than_score) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => tid < than_tid,
    }
}

/// `bound` cannot reach `theta` even granting a generous rounding margin.
/// The slack is relative (`1e-9`) — seven orders of magnitude above the
/// worst accumulated ulp error of these short sums — so pruning can never
/// discard a tid whose exactly-computed score ties or beats θ.
fn hopeless(bound: f64, theta: f64) -> bool {
    bound < theta - 1e-9 * (theta.abs() + bound.abs() + 1.0)
}

/// The exact `score ≥ τ` admission test of the fixed-τ traversal, with the
/// same NaN semantics as the relational filter it replaces: `Filter`
/// comparisons go through [`Value::total_cmp`], under which NaN compares
/// equal to everything — so a NaN τ admits every candidate (and pruning,
/// whose arithmetic propagates NaN into `false` comparisons, never fires).
/// Scores themselves are finite sums of finite non-negative products and
/// cannot be NaN.
pub(crate) fn admits(score: f64, tau: f64) -> bool {
    !matches!(score.partial_cmp(&tau), Some(std::cmp::Ordering::Less))
}

/// What the block-level check decided for the next candidate range.
enum BlockStep {
    /// Every essential cursor is exhausted (or provably unable to reach the
    /// bar from inside its final block): the traversal is done.
    Exhausted,
    /// The block-level bound sum could not reach the bar for any tid below
    /// the next block boundary; every essential cursor jumped past the
    /// boundary without scoring anything.
    Skipped,
    /// The block bounds cleared the bar: evaluate this candidate tid.
    Evaluate(i64),
}

/// Counters describing how much work one traversal actually did (exposed to
/// the block-structure tests, which assert skipping really happens on
/// adversarial corpora rather than just returning correct answers slowly).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct TraversalStats {
    /// Candidates that reached the evaluation path (partial scoring and
    /// possibly the prefix descent).
    pub(crate) evaluated: u64,
    /// Block-level range skips (each jumps every essential cursor to the
    /// next block boundary).
    pub(crate) range_skips: u64,
}

/// The machinery both bounded traversals share: the probed lists sorted by
/// ascending upper bound (ties: longer lists first, so the largest traversal
/// volume becomes skippable soonest), the canonical probe-order permutation
/// for exact re-scoring, prefix bound sums, and the document-at-a-time
/// candidate enumeration with its block-max range skips and bounded prefix
/// descent. Keeping this in one place is what keeps the two operators' bound
/// arithmetic — and therefore their exactness contracts — provably identical.
struct ProbedLists<'a> {
    lists: Vec<ProbedList<'a>>,
    /// Internal list indices in original probe order (canonical re-scoring).
    by_canon: Vec<usize>,
    /// `prefix_bound[i]` = Σ bounds of `lists[0..=i]`.
    prefix_bound: Vec<f64>,
    /// List indices sitting exactly on the current candidate, recorded by
    /// the [`block_step`](Self::block_step) scan so [`consume`](Self::consume)
    /// does not re-scan the essential suffix.
    on_candidate: Vec<usize>,
    /// Gate memo: while the bar keeps these exact bits, candidates below
    /// [`gate_until`](Self::gate_until) evaluate without re-summing block
    /// maxima. Sound because only *skip* verdicts prune — evaluating a
    /// candidate a fresh gate might have skipped merely costs time.
    gate_bar: f64,
    /// First tid at which the memoized cleared verdict expires (a cursor
    /// reaches a new block there, so the block-level bound may change).
    gate_until: i64,
    stats: TraversalStats,
}

impl<'a> ProbedLists<'a> {
    /// `probes` pairs each probed posting list with its query-side factor,
    /// in probe order (the canonical accumulation order). Factors must be
    /// non-negative and finite: a negative factor would invert a list's
    /// ordering and break the upper-bound argument. `op` names the plan
    /// operator in the rejection message.
    fn new(probes: Vec<(PostingList<'a>, f64)>, op: &str) -> Result<Self> {
        let mut lists = Vec::with_capacity(probes.len());
        for (canon, (list, factor)) in probes.into_iter().enumerate() {
            if !(factor >= 0.0 && factor.is_finite()) {
                return Err(RelqError::InvalidPlan(format!(
                    "{op} requires finite non-negative query factors, got {factor}"
                )));
            }
            lists.push(ProbedList {
                list,
                factor,
                bound: factor * list.max_weight(),
                pos: 0,
                probe_pos: 0,
                canon,
            });
        }
        // Ascending bound; equal bounds put the longer list first so it turns
        // non-essential (skippable) earlier.
        lists.sort_by(|a, b| {
            a.bound.total_cmp(&b.bound).then_with(|| b.list.len().cmp(&a.list.len()))
        });
        let mut by_canon: Vec<usize> = (0..lists.len()).collect();
        by_canon.sort_by_key(|&i| lists[i].canon);
        let mut prefix_bound = Vec::with_capacity(lists.len());
        let mut sum = 0.0;
        for l in &lists {
            sum += l.bound;
            prefix_bound.push(sum);
        }
        Ok(ProbedLists {
            lists,
            by_canon,
            prefix_bound,
            on_candidate: Vec::new(),
            gate_bar: f64::NAN,
            gate_until: i64::MIN,
            stats: TraversalStats::default(),
        })
    }

    fn len(&self) -> usize {
        self.lists.len()
    }

    /// Exact score of `tid`, accumulated in probe order — the same order the
    /// materializing aggregation pipeline sums contributions in, so emitted
    /// scores are bit-identical to the exhaustive paths'. Probes go through
    /// the monotone cursors ([`ProbedList::probe`]): survivors arrive in
    /// ascending tid order, so each list is walked forward at most once over
    /// the whole traversal.
    fn exact_score(&mut self, tid: i64) -> f64 {
        let mut score = 0.0;
        for j in 0..self.by_canon.len() {
            let i = self.by_canon[j];
            let l = &mut self.lists[i];
            if let Some(w) = l.probe(tid) {
                score += l.factor * w;
            }
        }
        score
    }

    /// The block-max gate in front of candidate evaluation. One pass over the
    /// essential suffix finds the next candidate (smallest un-visited tid,
    /// recording the lists that carry it for [`consume`](Self::consume));
    /// unless a memoized verdict short-circuits it, a second pass computes
    /// the **block-level** bound valid for every tid below the next block
    /// boundary — Σ `factor · block_max(current block)` over the essential
    /// cursors plus the global bounds of the non-essential prefix — and the
    /// boundary itself (the smallest first-tid of any essential list's next
    /// block). A cleared verdict is memoized until the boundary: below it no
    /// cursor can have entered a new block *at the gate's bound-checking
    /// granularity* (a cursor consuming through its block's tail re-gates
    /// only at the boundary, which can only cost missed skips — Evaluate
    /// verdicts are unconditionally sound), so uniform-weight corpora, whose
    /// block maxima never go hopeless, pay one bound summation per block
    /// range instead of one per candidate.
    ///
    /// If the block bound clears the bar, the candidate is evaluated as
    /// before. If the range is skippable, **no** tid in `[candidate,
    /// boundary)` can beat the bar — consumed cursor positions always lie
    /// below the current candidate, so any such tid's postings in essential
    /// lists sit inside the current blocks, whose maxima the bound sums — and
    /// every essential cursor gallops straight to the boundary. With no next
    /// block anywhere the cursors are in their final blocks and nothing
    /// further can qualify at all.
    ///
    /// ## The two-tier skip decision
    ///
    /// The cheap sorted-order sum decides the common case through
    /// [`hopeless`]'s relative slack. When that sum lands *near or above*
    /// the bar, the decisive test is [`canon_gate_bound`]
    /// (Self::canon_gate_bound): a canonical-order sum that provably
    /// dominates every candidate's exact score bit-for-bit (see its doc),
    /// so it can skip without any slack at all:
    ///
    /// * `tie_skip == false` (fixed-τ selection): skip iff `canon < bar`.
    ///   Every exact score in the range is ≤ `canon` < τ, and `score ≥ τ`
    ///   admission means none of them can be emitted.
    /// * `tie_skip == true` (top-k): skip iff `canon ≤ bar`. Candidates
    ///   arrive in ascending tid order, so every heap entry's tid is below
    ///   the skipped range; a range tid scoring *exactly* θ ranks after the
    ///   heap's worst entry (ties break by ascending tid) and can never
    ///   displace it. Skipping score-ties is therefore exact — the emitted
    ///   top-k is still bit-identical to the exhaustive heap's.
    fn block_step(&mut self, first_essential: usize, bar: f64, tie_skip: bool) -> BlockStep {
        // One scan finds the candidate and records which lists sit on it
        // (consumed later without re-scanning the suffix).
        let candidate = {
            let on = &mut self.on_candidate;
            on.clear();
            let mut candidate = i64::MAX;
            for (i, l) in self.lists.iter().enumerate().skip(first_essential) {
                if l.pos >= l.list.len() {
                    continue;
                }
                let t = l.list.tids()[l.pos];
                if t < candidate {
                    candidate = t;
                    on.clear();
                    on.push(i);
                } else if t == candidate {
                    on.push(i);
                }
            }
            candidate
        };
        if candidate == i64::MAX {
            return BlockStep::Exhausted;
        }
        // Memoized cleared verdict: until a cursor can have reached a new
        // block (`gate_until`) under an unchanged bar, the block-level bound
        // still clears — evaluate without touching the block-max arrays.
        if bar.to_bits() == self.gate_bar.to_bits() && candidate < self.gate_until {
            self.stats.evaluated += 1;
            return BlockStep::Evaluate(candidate);
        }
        let prefix =
            if first_essential == 0 { 0.0 } else { self.prefix_bound[first_essential - 1] };
        let mut block_bound = prefix;
        let mut boundary = i64::MAX;
        for l in &self.lists[first_essential..] {
            if l.pos >= l.list.len() {
                continue;
            }
            block_bound += l.factor * l.list.block_max_at(l.pos);
            if let Some(&t) = l.list.tids().get(l.list.next_block_start(l.pos)) {
                boundary = boundary.min(t);
            }
        }
        // Tier 1: the sorted-order sum is near or above the bar. Tier 2
        // decides exactly via the canonical-order dominating bound — skips
        // there need no slack, and top-k may skip score-ties outright.
        let skip = if hopeless(block_bound, bar) {
            true
        } else {
            let canon = self.canon_gate_bound(first_essential);
            if tie_skip {
                canon <= bar
            } else {
                canon < bar
            }
        };
        if !skip {
            self.gate_bar = bar;
            self.gate_until = boundary;
            self.stats.evaluated += 1;
            return BlockStep::Evaluate(candidate);
        }
        if boundary == i64::MAX {
            // Every essential cursor sits in its list's final block and even
            // the block maxima cannot reach the bar: nothing left qualifies.
            return BlockStep::Exhausted;
        }
        self.stats.range_skips += 1;
        for l in &mut self.lists[first_essential..] {
            l.pos = l.list.seek(l.pos, boundary);
        }
        BlockStep::Skipped
    }

    /// A bound on the exact probe-order score of **every** tid in the current
    /// candidate range, accumulated in canonical probe order — the same order
    /// [`exact_score`](Self::exact_score) sums in — so the domination is
    /// bit-level, not approximate: per canonical position the score adds
    /// either nothing or `fl(factor · w)` with `w ≤ max`, the bound adds
    /// `fl(factor · max) ≥ 0`, and IEEE multiplication and addition are both
    /// monotone, so by induction every partial sum of the score is ≤ the
    /// matching partial sum of the bound, and `fl(score) ≤ fl(bound)` exactly.
    /// Non-essential prefix lists contribute their whole-list bound (the tid
    /// may sit anywhere in them); essential cursors contribute their current
    /// block maximum (range tids' postings sit inside the current blocks);
    /// exhausted essential lists contribute nothing (no postings remain at or
    /// past the candidate). Terms are clamped at zero so a list of negative
    /// weights still dominates the absent-doc contribution of 0 (clamping
    /// only raises the sum, so domination is preserved).
    fn canon_gate_bound(&self, first_essential: usize) -> f64 {
        let mut bound = 0.0;
        for &i in &self.by_canon {
            let l = &self.lists[i];
            if i < first_essential {
                bound += l.bound.max(0.0);
            } else if l.pos < l.list.len() {
                bound += (l.factor * l.list.block_max_at(l.pos)).max(0.0);
            }
        }
        bound
    }

    /// Consume the current candidate `tid`: advance the cursors
    /// [`block_step`](Self::block_step) recorded as sitting on it and return
    /// its partial score from those lists.
    fn consume(&mut self, tid: i64) -> f64 {
        let mut partial = 0.0;
        for j in 0..self.on_candidate.len() {
            let l = &mut self.lists[self.on_candidate[j]];
            debug_assert_eq!(l.list.tids().get(l.pos), Some(&tid));
            partial += l.factor * l.list.weights()[l.pos];
            l.pos += 1;
        }
        partial
    }

    /// Descend through the non-essential prefix for `tid`, highest bound
    /// first, adding its contributions to `partial` — abandoning with `None`
    /// as soon as the remaining upper bounds cannot lift the partial score
    /// past `bar` (with the [`hopeless`] slack, so no qualifying tid is ever
    /// abandoned).
    fn descend_prefix(
        &mut self,
        tid: i64,
        mut partial: f64,
        first_essential: usize,
        bar: f64,
    ) -> Option<f64> {
        for i in (0..first_essential).rev() {
            if hopeless(partial + self.prefix_bound[i], bar) {
                return None;
            }
            let l = &mut self.lists[i];
            if let Some(w) = l.probe(tid) {
                partial += l.factor * w;
            }
        }
        Some(partial)
    }
}

/// The document-at-a-time max-score traversal behind
/// [`Plan::TopKBounded`](crate::Plan::TopKBounded).
///
/// A growing prefix of "non-essential" lists — those whose bounds sum below
/// the current threshold θ (the k-th best exact score so far) — is excluded
/// from candidate generation: a tid appearing only there cannot reach the
/// heap. Candidates from the essential suffix pass the block-max gate first
/// (see [`ProbedLists::block_step`]): ranges whose block-level bound sum
/// cannot reach θ are skipped wholesale, cursors galloping to the next block
/// boundary. Surviving candidates consult the non-essential prefix via
/// bounded random accesses that abandon as soon as the remaining upper
/// bounds cannot lift the partial score past θ (see [`ProbedLists`]).
pub(crate) struct MaxScoreTraversal<'a> {
    probed: ProbedLists<'a>,
    /// `lists[0..first_essential]` are non-essential under the current θ.
    first_essential: usize,
    k: usize,
    /// The `k` best `(score, tid)` seen so far, worst first (max-heap under
    /// "ranks last"); θ is the score of `heap[0]` once full.
    heap: Vec<(f64, i64)>,
}

impl<'a> MaxScoreTraversal<'a> {
    /// Wrap the probes (see [`ProbedLists::new`]) for a top-`k` selection.
    pub(crate) fn new(probes: Vec<(PostingList<'a>, f64)>, k: usize) -> Result<Self> {
        Ok(MaxScoreTraversal {
            probed: ProbedLists::new(probes, "TopKBounded")?,
            first_essential: 0,
            k,
            heap: Vec::new(),
        })
    }

    /// θ: the k-th best exact score, or −∞ until the heap is full.
    fn theta(&self) -> f64 {
        if self.heap.len() == self.k {
            self.heap.first().map(|&(s, _)| s).unwrap_or(f64::NEG_INFINITY)
        } else {
            f64::NEG_INFINITY
        }
    }

    /// `a` ranks strictly after `b` — i.e. `a` is the worse entry.
    fn is_worse(a: &(f64, i64), b: &(f64, i64)) -> bool {
        ranks_before(b.0, b.1, a.0, a.1)
    }

    /// Restore the "worst entry at the root" invariant downward from `i`.
    fn sift_down(heap: &mut [(f64, i64)], mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut worst = i;
            if l < heap.len() && Self::is_worse(&heap[l], &heap[worst]) {
                worst = l;
            }
            if r < heap.len() && Self::is_worse(&heap[r], &heap[worst]) {
                worst = r;
            }
            if worst == i {
                break;
            }
            heap.swap(i, worst);
            i = worst;
        }
    }

    fn push_heap(&mut self, score: f64, tid: i64) {
        if self.heap.len() < self.k {
            self.heap.push((score, tid));
            // Sift up under "worst at the root".
            let mut i = self.heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if Self::is_worse(&self.heap[i], &self.heap[parent]) {
                    self.heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        } else if ranks_before(score, tid, self.heap[0].0, self.heap[0].1) {
            self.heap[0] = (score, tid);
            Self::sift_down(&mut self.heap, 0);
        }
    }

    /// Run the traversal, returning `(tid, score)` in ranking order. With
    /// `limits`, the traversal charges one candidate per evaluation and
    /// stops early on exhaustion — the heap drained at that point is the
    /// anytime answer: the exact top-k *of the candidates visited so far*,
    /// every score bit-identical to the exhaustive run's entry for that tid
    /// (survivors are re-scored exactly before admission).
    pub(crate) fn run(self, limits: Option<&crate::limits::ExecLimits>) -> Vec<(i64, f64)> {
        self.run_with_stats(limits).0
    }

    /// [`run`](Self::run), also reporting the work counters (test/bench
    /// introspection).
    pub(crate) fn run_with_stats(
        mut self,
        limits: Option<&crate::limits::ExecLimits>,
    ) -> (Vec<(i64, f64)>, TraversalStats) {
        if self.k == 0 || self.probed.len() == 0 {
            return (Vec::new(), self.probed.stats);
        }
        loop {
            // θ is −∞ until the heap fills, and `hopeless(·, −∞)` never
            // holds, so nothing is pruned before k candidates are scored.
            let theta = self.theta();
            // Grow the non-essential prefix: lists[0..first_essential] alone
            // can no longer produce a heap entry.
            while self.first_essential < self.probed.len()
                && hopeless(self.probed.prefix_bound[self.first_essential], theta)
            {
                self.first_essential += 1;
            }
            if self.first_essential == self.probed.len() {
                break; // Even the sum of all remaining bounds is below θ.
            }
            // The block-max gate: either the next candidate to evaluate, a
            // wholesale skip past a hopeless block range, or the end. Top-k
            // skips score-ties too (`tie_skip`): a range tid scoring exactly
            // θ has a higher tid than every heap entry and cannot displace
            // the worst one.
            let tid = match self.probed.block_step(self.first_essential, theta, true) {
                BlockStep::Exhausted => break,
                BlockStep::Skipped => continue,
                BlockStep::Evaluate(tid) => tid,
            };
            // Budget cut point: nothing about `tid` has been consumed yet,
            // so stopping here leaves the heap holding only exactly-scored
            // entries — the anytime answer.
            if let Some(limits) = limits {
                if !limits.charge_candidate() {
                    break;
                }
            }
            crate::fault::fault_point("relq.topk.candidate");
            let partial = self.probed.consume(tid);
            if let Some(limits) = limits {
                limits.charge_postings(self.probed.on_candidate.len() as u64);
            }
            let Some(partial) =
                self.probed.descend_prefix(tid, partial, self.first_essential, theta)
            else {
                continue; // Abandoned mid-descent: cannot reach θ.
            };
            if hopeless(partial, theta) {
                continue;
            }
            // Survivor: re-score exactly in probe order before admission.
            let exact = self.probed.exact_score(tid);
            self.push_heap(exact, tid);
        }
        // Drain the max-heap worst-first, then reverse into ranking order.
        let mut out = Vec::with_capacity(self.heap.len());
        while !self.heap.is_empty() {
            let last = self.heap.len() - 1;
            self.heap.swap(0, last);
            let (score, tid) = self.heap.pop().expect("non-empty");
            out.push((tid, score));
            Self::sift_down(&mut self.heap, 0);
        }
        out.reverse();
        (out, self.probed.stats)
    }
}

/// The document-at-a-time max-score traversal behind
/// [`Plan::ThresholdBounded`](crate::Plan::ThresholdBounded): the threshold
/// selection "return every tid with `score ≥ τ`" over the same posting
/// lists [`MaxScoreTraversal`] uses for top-k.
///
/// The bar is **fixed** at τ from the start, which simplifies everything the
/// top-k traversal has to maintain dynamically: there is no heap, and the
/// non-essential prefix — the lists whose summed upper bounds cannot reach
/// τ — is computed once before the descent instead of growing as θ rises. A
/// tid appearing only in non-essential lists can never reach τ and is never
/// visited; candidates from the essential suffix pass the same block-max
/// gate as top-k (hopeless block ranges are skipped wholesale) and consult
/// the prefix through the same highest-bound-first random accesses with
/// early abandon.
///
/// ## Exactness
///
/// Pruning carries the shared relative slack (see [`hopeless`]), block
/// maxima bound every weight in their block, so no tid whose exact score
/// ties or beats τ is ever discarded or skipped; every survivor is re-scored
/// in probe order and admitted by the **exact** `score ≥ τ` test
/// ([`admits`], no slack). The emitted `(tid, score)` set is therefore
/// bit-identical — tids and score bits — to exhaustively scoring every
/// candidate in probe-major order and filtering, which is exactly what the
/// naive lowering does. Results are in ranking order (score descending,
/// ties by ascending tid).
///
/// A non-finite τ behaves like the exhaustive filter too: `τ = −∞` disables
/// pruning and admits every candidate, `τ = +∞` short-circuits to empty (no
/// finite score reaches it), and `τ = NaN` admits every candidate — the
/// relational comparator treats NaN as equal to everything (see [`admits`]).
pub(crate) struct ThresholdTraversal<'a> {
    probed: ProbedLists<'a>,
    /// The fixed selection bar τ.
    tau: f64,
}

impl<'a> ThresholdTraversal<'a> {
    /// Wrap the probes (see [`ProbedLists::new`]) for a selection at `tau`.
    pub(crate) fn new(probes: Vec<(PostingList<'a>, f64)>, tau: f64) -> Result<Self> {
        Ok(ThresholdTraversal { probed: ProbedLists::new(probes, "ThresholdBounded")?, tau })
    }

    /// Run the traversal, returning every `(tid, score)` with `score ≥ τ` in
    /// ranking order. With `limits`, the traversal charges one candidate per
    /// evaluation and stops early on exhaustion — the survivors admitted so
    /// far are the anytime answer: a subset of the exact selection, every
    /// score bit-identical to the exhaustive run's entry for that tid.
    pub(crate) fn run(self, limits: Option<&crate::limits::ExecLimits>) -> Vec<(i64, f64)> {
        self.run_with_stats(limits).0
    }

    /// [`run`](Self::run), also reporting the work counters (test/bench
    /// introspection).
    pub(crate) fn run_with_stats(
        mut self,
        limits: Option<&crate::limits::ExecLimits>,
    ) -> (Vec<(i64, f64)>, TraversalStats) {
        let tau = self.tau;
        // τ = +∞: no finite score qualifies, and the prefix/pruning
        // arithmetic degenerates (∞ − ∞ = NaN compares false, disabling
        // pruning) — short-circuit instead of scoring every candidate only
        // to reject it.
        if self.probed.len() == 0 || tau == f64::INFINITY {
            return (Vec::new(), self.probed.stats);
        }
        // The non-essential prefix under the fixed bar: computed once — τ
        // never moves, so unlike top-k it can never grow mid-traversal.
        let mut first_essential = 0;
        while first_essential < self.probed.len()
            && hopeless(self.probed.prefix_bound[first_essential], tau)
        {
            first_essential += 1;
        }
        let mut out: Vec<(i64, f64)> = Vec::new();
        if first_essential == self.probed.len() {
            return (out, self.probed.stats); // Even the sum of all bounds is below τ.
        }
        // Candidates arrive in ascending tid order from the essential
        // cursors, gated by the block-max check; each survivor consults the
        // non-essential prefix with early abandon, exactly like the top-k
        // traversal at a frozen θ.
        loop {
            // No tie-skip here: `score ≥ τ` admission means an exact tie at τ
            // must be emitted, so only ranges strictly below τ may skip.
            let tid = match self.probed.block_step(first_essential, tau, false) {
                BlockStep::Exhausted => break,
                BlockStep::Skipped => continue,
                BlockStep::Evaluate(tid) => tid,
            };
            // Budget cut point: `out` holds only exactly-scored, admitted
            // survivors, so stopping between candidates is always clean.
            if let Some(limits) = limits {
                if !limits.charge_candidate() {
                    break;
                }
            }
            crate::fault::fault_point("relq.threshold.candidate");
            let partial = self.probed.consume(tid);
            if let Some(limits) = limits {
                limits.charge_postings(self.probed.on_candidate.len() as u64);
            }
            let Some(partial) = self.probed.descend_prefix(tid, partial, first_essential, tau)
            else {
                continue; // Abandoned mid-descent: cannot reach τ.
            };
            if hopeless(partial, tau) {
                continue;
            }
            // Survivor: the exact probe-order score decides admission — no
            // slack here, so the emitted set matches the exhaustive filter
            // bit for bit.
            let exact = self.probed.exact_score(tid);
            if admits(exact, tau) {
                out.push((tid, exact));
            }
        }
        // Emit in ranking order.
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        (out, self.probed.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn weights_table(rows: &[(i64, i64, f64)]) -> Table {
        let schema = Schema::from_pairs(&[
            ("tid", DataType::Int),
            ("token", DataType::Int),
            ("weight", DataType::Float),
        ]);
        let mut t = Table::empty(schema);
        for &(tid, token, w) in rows {
            t.push_row(vec![Value::Int(tid), Value::Int(token), Value::Float(w)]).unwrap();
        }
        t
    }

    #[test]
    fn build_produces_tid_sorted_lists_with_max() {
        let t = weights_table(&[(3, 7, 0.5), (1, 7, 0.25), (2, 9, 1.5), (1, 9, 0.75)]);
        let ix = PostingIndex::build(&t, "token", "tid", Some("weight")).unwrap();
        assert_eq!(ix.num_tokens(), 2);
        assert_eq!(ix.num_postings(), 4);
        assert_eq!(ix.block_size(), DEFAULT_POSTING_BLOCK);
        let l7 = ix.list(&Value::Int(7)).unwrap();
        assert_eq!(l7.tids(), &[1, 3]);
        assert_eq!(l7.weights(), &[0.25, 0.5]);
        assert_eq!(l7.max_weight(), 0.5);
        assert_eq!(l7.weight_of(3), Some(0.5));
        assert_eq!(l7.weight_of(99), None);
        // Both lists fit one default-sized block: block max == list max.
        assert_eq!(l7.num_blocks(), 1);
        assert_eq!(l7.block_maxes(), &[0.5]);
        assert!(ix.list(&Value::Int(42)).is_none());
    }

    #[test]
    fn unit_weight_lists_and_null_rows() {
        let schema = Schema::from_pairs(&[("tid", DataType::Int), ("token", DataType::Int)]);
        let mut t = Table::empty(schema);
        t.push_row(vec![Value::Int(1), Value::Int(5)]).unwrap();
        t.push_row(vec![Value::Int(2), Value::Null]).unwrap();
        t.push_row(vec![Value::Null, Value::Int(5)]).unwrap();
        let ix = PostingIndex::build(&t, "token", "tid", None).unwrap();
        assert_eq!(ix.num_postings(), 1);
        assert_eq!(ix.list(&Value::Int(5)).unwrap().max_weight(), 1.0);
    }

    #[test]
    fn non_finite_weights_duplicates_and_zero_blocks_are_rejected() {
        let t = weights_table(&[(1, 7, f64::INFINITY)]);
        assert!(PostingIndex::build(&t, "token", "tid", Some("weight")).is_err());
        let t = weights_table(&[(1, 7, 0.5), (1, 7, 0.25)]);
        assert!(PostingIndex::build(&t, "token", "tid", Some("weight")).is_err());
        let t = weights_table(&[]);
        assert!(PostingIndex::build(&t, "nope", "tid", Some("weight")).is_err());
        let t = weights_table(&[(1, 7, 0.5)]);
        assert!(PostingIndex::build_with_block_size(&t, "token", "tid", Some("weight"), 0).is_err());
    }

    #[test]
    fn block_structure_is_laid_out_per_list() {
        // List 7: 5 postings at block size 2 -> blocks [max(.5,.25), max(1.,.75), .125].
        let t = weights_table(&[
            (1, 7, 0.5),
            (2, 7, 0.25),
            (3, 7, 1.0),
            (4, 7, 0.75),
            (5, 7, 0.125),
            (1, 9, 2.0),
        ]);
        let ix =
            PostingIndex::build_with_block_size(&t, "token", "tid", Some("weight"), 2).unwrap();
        assert_eq!(ix.block_size(), 2);
        let l7 = ix.list(&Value::Int(7)).unwrap();
        assert_eq!(l7.num_blocks(), 3);
        assert_eq!(l7.block_maxes(), &[0.5, 1.0, 0.125]);
        assert_eq!(l7.block_max_at(0), 0.5);
        assert_eq!(l7.block_max_at(3), 1.0);
        assert_eq!(l7.block_max_at(4), 0.125);
        assert_eq!(l7.next_block_start(0), 2);
        assert_eq!(l7.next_block_start(3), 4);
        assert_eq!(l7.next_block_start(4), 6);
        let l9 = ix.list(&Value::Int(9)).unwrap();
        assert_eq!(l9.block_maxes(), &[2.0]);
        // A block size beyond every list degenerates to the global max.
        let ix =
            PostingIndex::build_with_block_size(&t, "token", "tid", Some("weight"), usize::MAX)
                .unwrap();
        let l7 = ix.list(&Value::Int(7)).unwrap();
        assert_eq!(l7.block_maxes(), &[l7.max_weight()]);
        assert!(l7.next_block_start(4) >= l7.len());
    }

    #[test]
    fn block_maxes_bound_every_weight_exactly() {
        use proptest::prelude::*;
        check(48, |g| {
            let num_tokens = g.usize_in(1..6);
            let block_size = g.usize_in(1..10);
            let mut rows = Vec::new();
            for token in 0..num_tokens as i64 {
                let len = g.usize_in(1..40);
                let mut tid = 0i64;
                for _ in 0..len {
                    tid += g.int_in(1..4);
                    rows.push((tid, token, g.f64_in(0.0..2.0)));
                }
            }
            let table = weights_table(&rows);
            let ix = PostingIndex::build_with_block_size(
                &table,
                "token",
                "tid",
                Some("weight"),
                block_size,
            )
            .unwrap();
            for token in 0..num_tokens as i64 {
                let list = ix.list(&Value::Int(token)).unwrap();
                assert_eq!(list.num_blocks(), list.len().div_ceil(block_size));
                // Every block max is exactly the max of its block's weights
                // (an upper bound that is also attained).
                for (b, chunk) in list.weights().chunks(block_size).enumerate() {
                    let expect = chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    assert_eq!(list.block_maxes()[b].to_bits(), expect.to_bits());
                }
                // Position-level view: each weight is bounded by its block max
                // and the list max.
                for pos in 0..list.len() {
                    assert!(list.weights()[pos] <= list.block_max_at(pos));
                    assert!(list.block_max_at(pos) <= list.max_weight());
                }
            }
        });
    }

    #[test]
    fn galloping_seek_lands_exactly_where_binary_search_would() {
        use proptest::prelude::*;
        check(64, |g| {
            let len = g.usize_in(1..60);
            let mut tids: Vec<i64> = Vec::with_capacity(len);
            let mut tid = 0i64;
            for _ in 0..len {
                tid += g.int_in(1..6);
                tids.push(tid);
            }
            let rows: Vec<(i64, i64, f64)> = tids.iter().map(|&t| (t, 0, 1.0)).collect();
            let table = weights_table(&rows);
            let ix = PostingIndex::build_with_block_size(
                &table,
                "token",
                "tid",
                Some("weight"),
                g.usize_in(1..8),
            )
            .unwrap();
            let list = ix.list(&Value::Int(0)).unwrap();
            let max_tid = *tids.last().unwrap();
            for _ in 0..30 {
                let from = g.usize_in(0..len + 2);
                let target = g.int_in(-1..max_tid + 3);
                let expect = from.min(list.len())
                    + list.tids()[from.min(list.len())..].partition_point(|&t| t < target);
                assert_eq!(
                    list.seek(from, target),
                    expect,
                    "seek(from={from}, tid={target}) over {tids:?}"
                );
            }
            // weight_of agrees with a plain binary search at every position.
            for probe in -1..=max_tid + 1 {
                let expect = list.tids().binary_search(&probe).ok().map(|i| list.weights()[i]);
                assert_eq!(list.weight_of(probe), expect);
            }
        });
    }

    /// Exhaustive reference scorer in probe order.
    fn reference_top_k(ix: &PostingIndex, probes: &[(i64, f64)], k: usize) -> Vec<(i64, f64)> {
        let mut order: Vec<i64> = Vec::new();
        let mut scores: HashMap<i64, f64> = HashMap::new();
        for &(token, factor) in probes {
            if let Some(list) = ix.list(&Value::Int(token)) {
                for (i, &tid) in list.tids().iter().enumerate() {
                    let slot = scores.entry(tid).or_insert_with(|| {
                        order.push(tid);
                        0.0
                    });
                    *slot += factor * list.weights()[i];
                }
            }
        }
        let mut out: Vec<(i64, f64)> = order.into_iter().map(|t| (t, scores[&t])).collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    fn run_bounded(ix: &PostingIndex, probes: &[(i64, f64)], k: usize) -> Vec<(i64, f64)> {
        let probed: Vec<(PostingList, f64)> = probes
            .iter()
            .filter_map(|&(token, factor)| ix.list(&Value::Int(token)).map(|l| (l, factor)))
            .collect();
        MaxScoreTraversal::new(probed, k).unwrap().run(None)
    }

    /// A handful of adversarial block granularities: per-posting maxima,
    /// tiny/odd blocks, the default, and beyond-every-list (plain WAND).
    const BLOCK_SWEEP: [usize; 6] = [1, 2, 3, 7, DEFAULT_POSTING_BLOCK, usize::MAX];

    #[test]
    fn bounded_matches_exhaustive_reference_on_random_inputs() {
        use proptest::prelude::*;
        check(48, |g| {
            let num_tokens = g.usize_in(1..12);
            let num_tids = g.usize_in(1..40) as i64;
            let mut rows = Vec::new();
            for token in 0..num_tokens as i64 {
                let mut tids: Vec<i64> = (0..num_tids).collect();
                let keep = g.usize_in(1..(num_tids as usize + 1));
                while tids.len() > keep {
                    let drop = g.usize_in(0..tids.len());
                    tids.remove(drop);
                }
                for tid in tids {
                    rows.push((tid, token, g.f64_in(0.0..2.0)));
                }
            }
            let table = weights_table(&rows);
            let mut probes: Vec<(i64, f64)> = Vec::new();
            for t in 0..num_tokens as i64 {
                if g.bool_with(0.8) {
                    probes.push((t, g.f64_in(0.0..1.5)));
                }
            }
            for block_size in BLOCK_SWEEP {
                let ix = PostingIndex::build_with_block_size(
                    &table,
                    "token",
                    "tid",
                    Some("weight"),
                    block_size,
                )
                .unwrap();
                for k in [0, 1, 3, 10, 1000] {
                    let bounded = run_bounded(&ix, &probes, k);
                    let exhaustive = reference_top_k(&ix, &probes, k);
                    assert_eq!(
                        bounded.len(),
                        exhaustive.len(),
                        "k={k} bs={block_size} probes={probes:?} rows={rows:?}"
                    );
                    // Same score multiset; identical tids wherever scores are
                    // unique (random weights: ties are essentially
                    // impossible, so this is equality in practice).
                    for (b, e) in bounded.iter().zip(&exhaustive) {
                        assert_eq!(
                            b.1.to_bits(),
                            e.1.to_bits(),
                            "score diverged at k={k} bs={block_size}"
                        );
                    }
                    let mut bt: Vec<i64> = bounded.iter().map(|x| x.0).collect();
                    let mut et: Vec<i64> = exhaustive.iter().map(|x| x.0).collect();
                    bt.sort_unstable();
                    et.sort_unstable();
                    assert_eq!(bt, et, "tid set diverged at k={k} bs={block_size}");
                }
            }
        });
    }

    #[test]
    fn pruning_never_skips_a_tid_that_outscores_the_kth() {
        use proptest::prelude::*;
        check(48, |g| {
            let num_tokens = g.usize_in(2..10);
            let mut rows = Vec::new();
            for token in 0..num_tokens as i64 {
                let len = g.usize_in(1..25);
                let mut tid = 0i64;
                for _ in 0..len {
                    tid += g.int_in(1..5);
                    rows.push((tid, token, g.f64_in(0.0..1.0)));
                }
            }
            let table = weights_table(&rows);
            let block_size = BLOCK_SWEEP[g.usize_in(0..BLOCK_SWEEP.len())];
            let ix = PostingIndex::build_with_block_size(
                &table,
                "token",
                "tid",
                Some("weight"),
                block_size,
            )
            .unwrap();
            let probes: Vec<(i64, f64)> =
                (0..num_tokens as i64).map(|t| (t, g.f64_in(0.0..1.0))).collect();
            let k = g.usize_in(1..8);
            let bounded = run_bounded(&ix, &probes, k);
            let all = reference_top_k(&ix, &probes, usize::MAX);
            if bounded.len() < k {
                assert_eq!(bounded.len(), all.len(), "short result must mean few candidates");
            }
            if let Some(&(_, kth)) = bounded.last() {
                let returned: std::collections::HashSet<i64> =
                    bounded.iter().map(|x| x.0).collect();
                for &(tid, score) in &all {
                    assert!(
                        returned.contains(&tid) || score <= kth,
                        "skipped tid {tid} (score {score}) outscores the k-th ({kth}) \
                         at bs={block_size}"
                    );
                }
            }
        });
    }

    #[test]
    fn negative_factors_are_rejected() {
        let t = weights_table(&[(1, 7, 0.5)]);
        let ix = PostingIndex::build(&t, "token", "tid", Some("weight")).unwrap();
        let list = ix.list(&Value::Int(7)).unwrap();
        assert!(MaxScoreTraversal::new(vec![(list, -0.5)], 3).is_err());
        assert!(MaxScoreTraversal::new(vec![(list, f64::NAN)], 3).is_err());
        assert!(MaxScoreTraversal::new(vec![(list, 0.0)], 3).is_ok());
        assert!(ThresholdTraversal::new(vec![(list, -0.5)], 0.1).is_err());
        assert!(ThresholdTraversal::new(vec![(list, f64::INFINITY)], 0.1).is_err());
        assert!(ThresholdTraversal::new(vec![(list, 0.0)], 0.1).is_ok());
    }

    /// Exhaustive reference selection in probe-major accumulation order,
    /// under the relational filter's comparison semantics ([`admits`]).
    fn reference_threshold(ix: &PostingIndex, probes: &[(i64, f64)], tau: f64) -> Vec<(i64, f64)> {
        let mut all = reference_top_k(ix, probes, usize::MAX);
        all.retain(|&(_, score)| admits(score, tau));
        all
    }

    fn run_threshold(ix: &PostingIndex, probes: &[(i64, f64)], tau: f64) -> Vec<(i64, f64)> {
        let probed: Vec<(PostingList, f64)> = probes
            .iter()
            .filter_map(|&(token, factor)| ix.list(&Value::Int(token)).map(|l| (l, factor)))
            .collect();
        ThresholdTraversal::new(probed, tau).unwrap().run(None)
    }

    #[test]
    fn threshold_traversal_is_bit_identical_to_exhaustive_filter() {
        use proptest::prelude::*;
        check(48, |g| {
            let num_tokens = g.usize_in(1..12);
            let num_tids = g.usize_in(1..40) as i64;
            let mut rows = Vec::new();
            for token in 0..num_tokens as i64 {
                let mut tids: Vec<i64> = (0..num_tids).collect();
                let keep = g.usize_in(1..(num_tids as usize + 1));
                while tids.len() > keep {
                    let drop = g.usize_in(0..tids.len());
                    tids.remove(drop);
                }
                for tid in tids {
                    rows.push((tid, token, g.f64_in(0.0..2.0)));
                }
            }
            let table = weights_table(&rows);
            let mut probes: Vec<(i64, f64)> = Vec::new();
            for t in 0..num_tokens as i64 {
                if g.bool_with(0.8) {
                    probes.push((t, g.f64_in(0.0..1.5)));
                }
            }
            let reference_ix = PostingIndex::build(&table, "token", "tid", Some("weight")).unwrap();
            let all = reference_top_k(&reference_ix, &probes, usize::MAX);
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
            for block_size in BLOCK_SWEEP {
                let ix = PostingIndex::build_with_block_size(
                    &table,
                    "token",
                    "tid",
                    Some("weight"),
                    block_size,
                )
                .unwrap();
                for &tau in &taus {
                    let bounded = run_threshold(&ix, &probes, tau);
                    let exhaustive = reference_threshold(&ix, &probes, tau);
                    assert_eq!(
                        bounded.len(),
                        exhaustive.len(),
                        "tau={tau} bs={block_size} probes={probes:?}"
                    );
                    for (b, e) in bounded.iter().zip(&exhaustive) {
                        assert_eq!(b.0, e.0, "tid diverged at tau={tau} bs={block_size}");
                        assert_eq!(
                            b.1.to_bits(),
                            e.1.to_bits(),
                            "score bits diverged at tau={tau} bs={block_size}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn threshold_traversal_never_prunes_a_qualifying_tid() {
        // Adversarial shape for the prefix computation: many light lists that
        // are individually hopeless but sum across the bar.
        // 0.125 is exactly representable, so ten of them sum to exactly 1.25.
        let mut rows = Vec::new();
        for token in 0..10i64 {
            for tid in 0..20i64 {
                rows.push((tid, token, 0.125));
            }
        }
        rows.push((3, 10, 1.0)); // one heavy list lifts tid 3
        let table = weights_table(&rows);
        let probes: Vec<(i64, f64)> = (0..11).map(|t| (t, 1.0)).collect();
        for block_size in BLOCK_SWEEP {
            let ix = PostingIndex::build_with_block_size(
                &table,
                "token",
                "tid",
                Some("weight"),
                block_size,
            )
            .unwrap();
            // Every tid scores exactly 1.25 except tid 3 at 2.25.
            let selected = run_threshold(&ix, &probes, 1.25);
            assert_eq!(selected.len(), 20, "every tid reaches τ=1.25 exactly (bs={block_size})");
            assert_eq!(selected[0], (3, 2.25));
            let selected = run_threshold(&ix, &probes, 1.5);
            assert_eq!(selected, vec![(3, 2.25)]);
            let selected = run_threshold(&ix, &probes, 2.5);
            assert!(selected.is_empty());
        }
    }

    #[test]
    fn one_hot_document_defeats_global_max_but_not_block_max() {
        // The adversarial corpus of the block-max motivation: one long list
        // whose few hot documents poison its *global* bound. Every other
        // posting is featherweight, so with per-list maxima alone the list
        // stays essential and every candidate must be evaluated; per-block
        // maxima confine the damage to the hot documents' blocks and the
        // traversal skips the rest of the list block by block. The early hot
        // tids fill the top-k heap quickly, lifting θ far above any cold
        // block's bound.
        let n = 4_000i64;
        let hot = [10i64, 20, 30, 40, 50, 2_377];
        let mut rows = Vec::new();
        for tid in 0..n {
            rows.push((tid, 0, if hot.contains(&tid) { 10.0 } else { 0.01 }));
        }
        // A short companion list so the probe has more than one cursor.
        for tid in (0..n).step_by(97) {
            rows.push((tid, 1, 1.0));
        }
        let table = weights_table(&rows);
        let probes = vec![(0i64, 1.0f64), (1i64, 1.0f64)];

        let block = PostingIndex::build_with_block_size(&table, "token", "tid", Some("weight"), 64)
            .unwrap();
        let global =
            PostingIndex::build_with_block_size(&table, "token", "tid", Some("weight"), usize::MAX)
                .unwrap();

        fn gather_from<'a>(
            ix: &'a PostingIndex,
            probes: &[(i64, f64)],
        ) -> Vec<(PostingList<'a>, f64)> {
            probes
                .iter()
                .filter_map(|&(token, factor)| ix.list(&Value::Int(token)).map(|l| (l, factor)))
                .collect()
        }

        // Top-k: identical results, far fewer evaluated candidates.
        let (block_topk, block_stats) =
            MaxScoreTraversal::new(gather_from(&block, &probes), 5).unwrap().run_with_stats(None);
        let (global_topk, global_stats) =
            MaxScoreTraversal::new(gather_from(&global, &probes), 5).unwrap().run_with_stats(None);
        assert_eq!(block_topk, global_topk);
        assert_eq!(block_topk, reference_top_k(&block, &probes, 5));
        assert!(
            block_topk.iter().all(|&(tid, _)| hot.contains(&tid)),
            "the hot documents must win: {block_topk:?}"
        );
        assert!(block_stats.range_skips > 0, "block maxima must produce range skips");
        assert!(
            block_stats.evaluated * 4 < global_stats.evaluated,
            "one hot document defeats global-max pruning ({} evaluated) but not block-max \
             skipping ({} evaluated)",
            global_stats.evaluated,
            block_stats.evaluated
        );

        // Threshold at a bar only the hot document clears: same story, and
        // the fixed bar prunes from the first candidate on.
        let (block_sel, block_stats) = ThresholdTraversal::new(gather_from(&block, &probes), 5.0)
            .unwrap()
            .run_with_stats(None);
        let (global_sel, global_stats) =
            ThresholdTraversal::new(gather_from(&global, &probes), 5.0)
                .unwrap()
                .run_with_stats(None);
        assert_eq!(block_sel, global_sel);
        assert_eq!(block_sel, reference_threshold(&block, &probes, 5.0));
        assert_eq!(block_sel.len(), hot.len(), "exactly the hot documents clear τ=5");
        assert!(block_stats.range_skips > 0);
        assert!(
            block_stats.evaluated * 4 < global_stats.evaluated,
            "threshold: block-max evaluated {} vs global-max {}",
            block_stats.evaluated,
            global_stats.evaluated
        );
    }
}
