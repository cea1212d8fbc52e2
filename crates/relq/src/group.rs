//! Group-by state of the indexed aggregation paths.
//!
//! Groups get slots in first-seen order. Their keys and accumulators live in
//! two flat arenas, `width` keys and `aggregates.len()` accumulators per
//! group, so opening a group allocates nothing of its own. The lookup from a
//! row's key to its slot picks a layout from the key shape; no layout changes
//! which rows share a group (that is `Value` equality) or the order groups
//! are opened in, so every layout gives byte-identical output.

use crate::agg::{Accumulator, Aggregate};
use crate::value::Value;
use std::collections::HashMap;

/// Widest key the packed all-Int lookup holds.
const PACKED_WIDTH: usize = 4;

/// Key-to-slot lookup, chosen from the key shape.
enum Lookup {
    /// No GROUP BY: every row belongs to the one global group.
    Global,
    /// One Int column with a compact known range: a direct slot array, with
    /// NULL keys (the only other value such a column holds) in a side map.
    Dense { offset: i64, slots: Vec<u32>, other: HashMap<Value, usize> },
    /// One column of any type.
    Single(HashMap<Value, usize>),
    /// 2 to [`PACKED_WIDTH`] columns while every key seen is all-Int. The
    /// first key holding anything else moves every group to [`Lookup::Multi`].
    Packed(HashMap<[i64; PACKED_WIDTH], usize>),
    /// Any other key.
    Multi(HashMap<Vec<Value>, usize>),
}

/// Groups of one aggregation, in first-seen order.
pub(crate) struct Groups<'a> {
    aggregates: &'a [Aggregate],
    width: usize,
    len: usize,
    keys: Vec<Value>,
    accs: Vec<Accumulator>,
    lookup: Lookup,
    /// Scratch key of the [`Lookup::Multi`] probe, reused across rows.
    key_buf: Vec<Value>,
}

impl<'a> Groups<'a> {
    /// Groups keyed by `width` columns. `dense` is the `(offset, span)` of a
    /// single Int key column's value range, when a slot array is worth it.
    pub(crate) fn new(
        aggregates: &'a [Aggregate],
        width: usize,
        dense: Option<(i64, usize)>,
    ) -> Self {
        let lookup = match (width, dense) {
            (0, _) => Lookup::Global,
            (1, Some((offset, span))) => {
                Lookup::Dense { offset, slots: vec![u32::MAX; span], other: HashMap::new() }
            }
            (1, None) => Lookup::Single(HashMap::new()),
            (w, _) if w <= PACKED_WIDTH => Lookup::Packed(HashMap::new()),
            _ => Lookup::Multi(HashMap::new()),
        };
        Groups {
            aggregates,
            width,
            len: 0,
            keys: Vec::new(),
            accs: Vec::new(),
            lookup,
            key_buf: Vec::with_capacity(width),
        }
    }

    /// The accumulators of the group whose key column `i` is `key(i)`,
    /// opening the group if it is new.
    #[inline]
    pub(crate) fn accumulators<'k>(
        &mut self,
        key: impl Fn(usize) -> &'k Value,
    ) -> &mut [Accumulator] {
        let slot = self.slot(&key);
        let a = self.aggregates.len();
        &mut self.accs[slot * a..(slot + 1) * a]
    }

    #[inline]
    fn slot<'k>(&mut self, key: &impl Fn(usize) -> &'k Value) -> usize {
        let next = self.len;
        let found = match &mut self.lookup {
            Lookup::Global => (next > 0).then_some(0),
            Lookup::Dense { offset, slots, other } => match key(0) {
                Value::Int(v) => {
                    let cell = &mut slots[(*v - *offset) as usize];
                    if *cell == u32::MAX {
                        *cell = next as u32;
                        None
                    } else {
                        Some(*cell as usize)
                    }
                }
                k => Self::probe(other, k, next),
            },
            Lookup::Single(map) => Self::probe(map, key(0), next),
            Lookup::Packed(map) => match pack(self.width, key) {
                Some(packed) => Self::probe(map, &packed, next),
                None => {
                    self.lookup = Lookup::Multi(self.unpacked());
                    self.probe_multi(key, next)
                }
            },
            Lookup::Multi(_) => self.probe_multi(key, next),
        };
        found.unwrap_or_else(|| {
            self.keys.extend((0..self.width).map(|i| key(i).clone()));
            self.accs.extend(self.aggregates.iter().map(|a| Accumulator::for_func(&a.func)));
            self.len += 1;
            next
        })
    }

    /// The slot of `key` in `map`, or `None` after recording `next` as its
    /// slot.
    fn probe<K, Q>(map: &mut HashMap<K, usize>, key: &Q, next: usize) -> Option<usize>
    where
        K: std::borrow::Borrow<Q> + std::hash::Hash + Eq,
        Q: ToOwned<Owned = K> + std::hash::Hash + Eq + ?Sized,
    {
        match map.get(key) {
            Some(&s) => Some(s),
            None => {
                map.insert(key.to_owned(), next);
                None
            }
        }
    }

    /// [`Self::probe`] of the [`Lookup::Multi`] map, through the scratch key.
    fn probe_multi<'k>(&mut self, key: &impl Fn(usize) -> &'k Value, next: usize) -> Option<usize> {
        let Lookup::Multi(map) = &mut self.lookup else {
            unreachable!("probe_multi runs on the Multi lookup only")
        };
        self.key_buf.clear();
        self.key_buf.extend((0..self.width).map(|i| key(i).clone()));
        Self::probe(map, self.key_buf.as_slice(), next)
    }

    /// Every group's key as a `Vec`, for the move to [`Lookup::Multi`].
    fn unpacked(&self) -> HashMap<Vec<Value>, usize> {
        self.keys.chunks_exact(self.width).enumerate().map(|(s, k)| (k.to_vec(), s)).collect()
    }

    /// Number of groups opened.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Open the global group if no row did: a global aggregation over an
    /// empty input still produces one row of empty aggregates, as in SQL.
    pub(crate) fn ensure_global_row(&mut self) {
        if matches!(self.lookup, Lookup::Global) && self.len == 0 {
            self.slot(&|_| unreachable!("the global group has no key columns"));
        }
    }

    /// A writer of the output rows, one per call in first-seen group order:
    /// it appends the group's key values, then its finished aggregates, to
    /// the caller's arena. Called at most [`Self::len`] times.
    pub(crate) fn into_row_writer(self) -> impl FnMut(&mut Vec<Value>) {
        let (width, a) = (self.width, self.aggregates.len());
        let mut keys = self.keys.into_iter();
        let mut accs = self.accs.into_iter();
        move |cells| {
            cells.extend(keys.by_ref().take(width));
            cells.extend(accs.by_ref().take(a).map(Accumulator::finish));
        }
    }
}

/// The key as packed Ints, or `None` when a column holds anything else.
fn pack<'k>(width: usize, key: &impl Fn(usize) -> &'k Value) -> Option<[i64; PACKED_WIDTH]> {
    let mut packed = [0i64; PACKED_WIDTH];
    for (i, slot) in packed.iter_mut().enumerate().take(width) {
        match key(i) {
            Value::Int(v) => *slot = *v,
            _ => return None,
        }
    }
    Some(packed)
}
