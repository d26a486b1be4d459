//! The bounded heuristic's working list (paper §3.2): row handles kept in
//! weight order, so an overflow can merge the two lightest rows.

/// End of a FIFO, and of the free list.
const NIL: usize = usize::MAX;

/// Row handles popped in ascending weight order, first in, first out
/// among equal weights: the order of a weight-sorted list with stable
/// insertion, at O(1) per push and per pop.
///
/// Each weight has a FIFO of nodes linked through a node pool. A bitmap
/// marks the weights that hold nodes, and `low` names a bitmap word below
/// which every word is zero, so a pop scans upwards from there with one
/// `trailing_zeros`. The per-weight arrays are sized once for every
/// weight up to a maximum, and popped nodes return to a free list, so
/// once the pool holds as many nodes as the queue's longest length,
/// pushes and pops allocate nothing.
#[derive(Debug)]
pub(crate) struct WeightQueue {
    /// Per weight: its oldest node, and its newest.
    first: Vec<usize>,
    last: Vec<usize>,
    /// Bit `w % 64` of word `w / 64` is set iff weight `w` holds a node.
    occupied: Vec<u64>,
    /// Every `occupied` word below this index is zero.
    low: usize,
    /// Per node: the row it holds, and the next node of its FIFO or, for
    /// a free node, of the free list.
    nodes: Vec<(usize, usize)>,
    /// The first free node.
    free: usize,
    len: usize,
}

impl WeightQueue {
    /// An empty queue for weights `0..=max_weight`.
    pub(crate) fn new(max_weight: u64) -> Self {
        let buckets = max_weight as usize + 1;
        WeightQueue {
            first: vec![NIL; buckets],
            last: vec![NIL; buckets],
            occupied: vec![0; buckets.div_ceil(64)],
            low: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Number of rows queued.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `row` at `weight`, behind every queued row of equal weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` exceeds the queue's maximum.
    pub(crate) fn push(&mut self, weight: u64, row: usize) {
        let w = weight as usize;
        let node = if self.free == NIL {
            self.nodes.push((row, NIL));
            self.nodes.len() - 1
        } else {
            let node = self.free;
            self.free = self.nodes[node].1;
            self.nodes[node] = (row, NIL);
            node
        };
        if self.first[w] == NIL {
            self.first[w] = node;
            self.occupied[w / 64] |= 1 << (w % 64);
            self.low = self.low.min(w / 64);
        } else {
            self.nodes[self.last[w]].1 = node;
        }
        self.last[w] = node;
        self.len += 1;
    }

    /// Removes the oldest row of the lowest queued weight, returning that
    /// weight and the row; `None` when the queue is empty.
    pub(crate) fn pop_min(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        while self.occupied[self.low] == 0 {
            self.low += 1;
        }
        let bit = self.occupied[self.low].trailing_zeros() as usize;
        let w = self.low * 64 + bit;
        let node = self.first[w];
        let (row, next) = self.nodes[node];
        self.first[w] = next;
        if next == NIL {
            self.occupied[self.low] &= !(1 << bit);
        }
        self.nodes[node].1 = self.free;
        self.free = node;
        self.len -= 1;
        Some((w as u64, row))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    /// The list the queue replaced: `(weight, row)` pairs kept sorted by
    /// a `partition_point` insert behind equal weights, popped from the
    /// front.
    #[derive(Default)]
    struct SortedList(VecDeque<(u64, usize)>);

    impl SortedList {
        fn push(&mut self, weight: u64, row: usize) {
            let pos = self.0.partition_point(|&(w, _)| w <= weight);
            self.0.insert(pos, (weight, row));
        }
    }

    /// splitmix64 steps: a seeded stream of test inputs.
    fn stream(seed: u64) -> impl Iterator<Item = u64> {
        let mut state = seed;
        std::iter::repeat_with(move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
    }

    /// Drives the queue and the sorted list through the same random
    /// pushes and pops, then drains both; every pop must agree.
    fn check_against_sorted_list(seed: u64, max_weight: u64, ops: usize) {
        let mut queue = WeightQueue::new(max_weight);
        let mut model = SortedList::default();
        let mut random = stream(seed);
        let mut next_row = 0;
        for _ in 0..ops {
            let draw = random.next().unwrap();
            if draw.is_multiple_of(3) {
                assert_eq!(queue.pop_min(), model.0.pop_front(), "seed {seed}");
            } else {
                // Weights cluster on the extremes and a few middle values,
                // so equal weights are common.
                let weight = match (draw >> 8) % 4 {
                    0 => 0,
                    1 => max_weight,
                    2 => ((draw >> 16) % 4).min(max_weight),
                    _ => (draw >> 16) % (max_weight + 1),
                };
                queue.push(weight, next_row);
                model.push(weight, next_row);
                next_row += 1;
            }
            assert_eq!(queue.len(), model.0.len());
        }
        let drained: Vec<_> = std::iter::from_fn(|| queue.pop_min()).collect();
        assert_eq!(drained, Vec::from(model.0), "seed {seed}: drain order");
        assert_eq!(queue.pop_min(), None);
    }

    #[test]
    fn pops_in_the_sorted_lists_order() {
        // 9·n·(n−1) for 0, 2, 4 and 18 tasks: one bucket, one bitmap
        // word, two, and the GM universe's 44.
        for max_weight in [0, 18, 108, 2754] {
            for seed in 0..50 {
                check_against_sorted_list(seed, max_weight, 400);
            }
        }
    }

    #[test]
    fn equal_weights_leave_in_arrival_order() {
        let mut queue = WeightQueue::new(9);
        for row in 0..5 {
            queue.push(4, row);
        }
        queue.push(0, 5);
        queue.push(9, 6);
        assert_eq!(queue.pop_min(), Some((0, 5)));
        for row in 0..5 {
            assert_eq!(queue.pop_min(), Some((4, row)));
        }
        // A row pushed below the scan position is still found first.
        queue.push(1, 7);
        assert_eq!(queue.pop_min(), Some((1, 7)));
        assert_eq!(queue.pop_min(), Some((9, 6)));
        assert_eq!(queue.pop_min(), None);
    }

    #[test]
    fn reuses_popped_nodes() {
        let mut queue = WeightQueue::new(100);
        for round in 0..10 {
            for row in 0..3 {
                queue.push(round * 10 + row as u64, row);
            }
            while queue.pop_min().is_some() {}
        }
        assert_eq!(queue.nodes.len(), 3);
    }
}
