//! A bounded heap for top-k selection under an arbitrary total order.
//!
//! [`BoundedHeap`] keeps the `k` smallest elements under a caller-supplied
//! comparator (`Ordering::Less` = ranks earlier) and returns them in
//! comparator order. Offering `n` elements costs `O(n log k)` time and
//! `O(k)` space — the replacement for "sort everything, truncate to k" that
//! [`Plan::TopK`](crate::Plan::TopK) and the predicate layer's native top-k
//! paths use. When the comparator is a total order (callers break ties with
//! a unique final key, e.g. a row id), the result is element-for-element
//! identical to a full stable sort followed by `truncate(k)`.

use std::cmp::Ordering;

/// Keeps the `cap` smallest elements under `cmp`, internally arranged as a
/// max-heap so the current worst kept element sits at the root.
pub struct BoundedHeap<T, F: Fn(&T, &T) -> Ordering> {
    cmp: F,
    cap: usize,
    data: Vec<T>,
}

impl<T, F: Fn(&T, &T) -> Ordering> BoundedHeap<T, F> {
    /// Create a heap keeping at most `cap` elements; `cmp` is the ranking
    /// order (`Less` = ranks earlier = kept in preference to `Greater`).
    pub fn new(cap: usize, cmp: F) -> Self {
        BoundedHeap { cmp, cap, data: Vec::with_capacity(cap.min(1024)) }
    }

    /// Number of elements currently kept.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been kept yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The current worst kept element (the one the next better offer evicts).
    pub fn worst(&self) -> Option<&T> {
        self.data.first()
    }

    /// Offer one element: kept when the heap has room or when it ranks
    /// strictly before the current worst kept element (which is then evicted).
    pub fn offer(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.data.len() < self.cap {
            self.data.push(item);
            self.sift_up(self.data.len() - 1);
        } else if (self.cmp)(&item, &self.data[0]) == Ordering::Less {
            self.data[0] = item;
            self.sift_down(0, self.data.len());
        }
    }

    /// Consume the heap, returning the kept elements in comparator order
    /// (best first). This is an in-place heapsort: the max-heap root (worst)
    /// swaps to the back repeatedly, leaving the vector ascending under `cmp`.
    pub fn into_sorted(mut self) -> Vec<T> {
        for end in (1..self.data.len()).rev() {
            self.data.swap(0, end);
            self.sift_down(0, end);
        }
        self.data
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if (self.cmp)(&self.data[idx], &self.data[parent]) == Ordering::Greater {
                self.data.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize, end: usize) {
        loop {
            let left = 2 * idx + 1;
            if left >= end {
                break;
            }
            let right = left + 1;
            let mut largest = idx;
            if (self.cmp)(&self.data[left], &self.data[largest]) == Ordering::Greater {
                largest = left;
            }
            if right < end
                && (self.cmp)(&self.data[right], &self.data[largest]) == Ordering::Greater
            {
                largest = right;
            }
            if largest == idx {
                break;
            }
            self.data.swap(idx, largest);
            idx = largest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random sequence (no rand dependency in relq).
    fn lcg_sequence(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 16
            })
            .collect()
    }

    fn top_k_by_sort(values: &[u64], k: usize) -> Vec<u64> {
        let mut sorted = values.to_vec();
        sorted.sort(); // stable
        sorted.truncate(k);
        sorted
    }

    #[test]
    fn matches_sort_then_truncate_for_all_k() {
        let values = lcg_sequence(42, 300);
        for k in [0, 1, 2, 7, 100, 299, 300, 500] {
            let mut heap = BoundedHeap::new(k, |a: &u64, b: &u64| a.cmp(b));
            for &v in &values {
                heap.offer(v);
            }
            assert_eq!(heap.into_sorted(), top_k_by_sort(&values, k), "k={k}");
        }
    }

    #[test]
    fn duplicate_keys_resolve_by_offer_order_with_index_tiebreak() {
        // Callers append a unique index as the final comparator key; with it,
        // the heap must equal stable-sort + truncate even under heavy ties.
        let values = [3u64, 1, 3, 1, 2, 2, 3, 1, 2];
        let indexed: Vec<(u64, usize)> = values.iter().copied().zip(0..).collect();
        let cmp = |a: &(u64, usize), b: &(u64, usize)| a.0.cmp(&b.0).then(a.1.cmp(&b.1));
        for k in 0..=values.len() {
            let mut heap = BoundedHeap::new(k, cmp);
            for &item in &indexed {
                heap.offer(item);
            }
            let mut expected = indexed.to_vec();
            expected.sort_by(cmp);
            expected.truncate(k);
            assert_eq!(heap.into_sorted(), expected, "k={k}");
        }
    }

    #[test]
    fn worst_and_len_track_the_kept_set() {
        let mut heap = BoundedHeap::new(2, |a: &i64, b: &i64| a.cmp(b));
        assert!(heap.is_empty());
        assert_eq!(heap.worst(), None);
        heap.offer(5);
        heap.offer(1);
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.worst(), Some(&5));
        heap.offer(3); // evicts 5
        assert_eq!(heap.worst(), Some(&3));
        heap.offer(9); // worse than worst: ignored
        assert_eq!(heap.into_sorted(), vec![1, 3]);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut heap = BoundedHeap::new(0, |a: &i64, b: &i64| a.cmp(b));
        heap.offer(1);
        assert!(heap.is_empty());
        assert!(heap.into_sorted().is_empty());
    }
}
