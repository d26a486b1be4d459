//! A structure-of-arrays arena of packed dependency-function rows: the
//! learner's per-period hypothesis store and its batched kernels.
//!
//! A [`FunctionArena`] holds every row of a working set in **one
//! contiguous `u64` buffer** — row `i` occupies the word range
//! `[i·w, (i+1)·w)` — plus parallel columns caching each row's weight and
//! row hash. A row is the packed function words, optionally followed
//! by an `n²`-bit *pair set*: the (sender, receiver) pairs the learner
//! assumed for the current period's messages
//! ([`with_pair_sets`](FunctionArena::with_pair_sets)). Whole-set
//! operations (`⊑` sweeps, domination scans) stream over the
//! function-word prefix of adjacent rows instead of chasing one heap
//! allocation per function, and the branch-and-merge steps are row
//! kernels that append one row without allocating:
//!
//! * [`push_child`](FunctionArena::push_child) copies a parent row,
//!   joins two cells and sets one pair bit; its weight is the parent's
//!   plus the change in those two cells, and its row hash the parent's
//!   updated for the (at most three) words that changed;
//! * [`push_merge`](FunctionArena::push_merge) appends the word-wise OR
//!   of two rows' function words with the AND (or OR) of their pair sets;
//!   its weight is the first row's plus the change in the words the
//!   second one adds bits to;
//! * [`index_last`](FunctionArena::index_last) deduplicates the newest
//!   row against a hash-first index (a `HashMap<u64, u32>` head plus a
//!   per-row chain column), confirming a hit by full-row equality. Only
//!   rows passed through it are dedup keys;
//!   [`distinct_rows`](FunctionArena::distinct_rows) rebuilds the index
//!   over a whole store and lists the rows that repeat no earlier one.
//!
//! The row hash is private to the arena and never persisted: the XOR over
//! the row's words of a splitmix64 mix of each word with its position,
//! so changing one word moves it by two mixes. The index map places it
//! with one more splitmix64 round under a per-map random key. The persisted
//! [`DependencyFunction::fingerprint`] is a serial fold over every word,
//! which a child could only get by rehashing its whole row, so the arena
//! does not keep it.
//!
//! Read-only sweeps take `&self`, so the learner can wrap an arena in an
//! `Arc` and let pool workers scan or branch from disjoint index ranges
//! without locks; results cannot depend on thread interleaving.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::function::DependencyFunction;
use crate::packed::{
    encode, word_join, word_leq, word_weaken, word_weight, BITS_PER_CELL, CELLS_PER_WORD,
    CELL_MASK, CODE_DISTANCE,
};
use crate::task::TaskId;
use crate::value::DependencyValue;

/// End of a dedup chain, and the link of every row outside the index.
const NO_ROW: u32 = u32::MAX;

/// The link of a merged row whose row hash is not computed yet: the
/// learner never uses merged rows as dedup keys, so their hash is
/// deferred until the row is copied into a parent store or indexed.
const UNHASHED: u32 = u32::MAX - 1;

/// A packed structure-of-arrays store of same-universe
/// [`DependencyFunction`] rows (optionally with a pair set each): one
/// contiguous word buffer plus parallel cached-weight and row-hash
/// columns and a hash-first dedup index.
///
/// # Example
///
/// ```
/// use bbmg_lattice::{DependencyFunction, FunctionArena, TaskId};
///
/// let mut a = DependencyFunction::bottom(4);
/// a.record_message(TaskId::from_index(0), TaskId::from_index(1));
/// let b = DependencyFunction::top(4);
///
/// let mut arena = FunctionArena::new(4);
/// let ia = arena.push(&a);
/// let ib = arena.push(&b);
/// assert_eq!(arena.weight(ia), a.weight());
/// assert_eq!(arena.get(ia), a);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionArena {
    tasks: usize,
    /// Packed function words per row.
    stride: usize,
    /// Words per row: the function words, then the pair set (if any).
    row_words: usize,
    words: Vec<u64>,
    weights: Vec<u64>,
    /// Per row: its [`row_hash`], or 0 while deferred.
    hashes: Vec<u64>,
    /// Dedup index: row hash → most recently indexed row carrying it.
    heads: HashMap<u64, u32, KeyedRowHash>,
    /// Per row: the previously indexed row with the same hash ([`NO_ROW`]
    /// at the end of a chain and for unindexed rows, [`UNHASHED`] for a
    /// merged row whose hash is deferred).
    chain: Vec<u32>,
}

impl FunctionArena {
    /// An empty arena of plain function rows over a `tasks`-task universe.
    #[must_use]
    pub fn new(tasks: usize) -> Self {
        Self::with_row_words(tasks, 0)
    }

    /// An empty arena whose rows each carry an `n²`-bit pair set after the
    /// function words (bit `s·n + r` marks the pair `(s, r)`), as the
    /// learner's per-period store does for its message assumptions.
    #[must_use]
    pub fn with_pair_sets(tasks: usize) -> Self {
        Self::with_row_words(tasks, (tasks * tasks).div_ceil(64))
    }

    fn with_row_words(tasks: usize, pair_words: usize) -> Self {
        let stride = DependencyFunction::words_per_function(tasks);
        FunctionArena {
            tasks,
            stride,
            row_words: stride + pair_words,
            words: Vec::new(),
            weights: Vec::new(),
            hashes: Vec::new(),
            heads: HashMap::with_hasher(KeyedRowHash::new()),
            chain: Vec::new(),
        }
    }

    /// An empty arena with the same universe and row layout as `self`.
    #[must_use]
    pub fn empty_like(&self) -> Self {
        Self::with_row_words(self.tasks, self.row_words - self.stride)
    }

    /// Number of tasks of the shared universe.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// Packed function words per row.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the arena holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total packed *function* words stored (pair sets excluded) — the
    /// work-unit size parallel gates measure sweeps in.
    #[must_use]
    pub fn total_words(&self) -> usize {
        self.len() * self.stride
    }

    /// The whole row `i`: function words, then the pair set.
    #[inline]
    fn slot(&self, i: usize) -> &[u64] {
        &self.words[i * self.row_words..(i + 1) * self.row_words]
    }

    /// The function words of row `i`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[u64] {
        let start = i * self.row_words;
        &self.words[start..start + self.stride]
    }

    /// The pair-set words of row `i` (empty for plain rows).
    #[inline]
    #[must_use]
    pub fn pairs(&self, i: usize) -> &[u64] {
        &self.slot(i)[self.stride..]
    }

    /// Whether row `i`'s pair set holds `(sender, receiver)`.
    ///
    /// # Panics
    ///
    /// Panics if the rows carry no pair sets or a task is out of range.
    #[inline]
    #[must_use]
    pub fn has_pair(&self, i: usize, sender: TaskId, receiver: TaskId) -> bool {
        let bit = self.pair_bit(sender, receiver);
        self.pairs(i)[bit / 64] >> (bit % 64) & 1 == 1
    }

    fn pair_bit(&self, sender: TaskId, receiver: TaskId) -> usize {
        assert!(
            sender.index() < self.tasks && receiver.index() < self.tasks,
            "task index out of range"
        );
        sender.index() * self.tasks + receiver.index()
    }

    /// The cached weight of row `i`'s function (kept current by every
    /// mutation).
    #[inline]
    #[must_use]
    pub fn weight(&self, i: usize) -> u64 {
        self.weights[i]
    }

    /// Row `i`'s hash: the cached one, or computed now if it is deferred.
    #[inline]
    fn hash_of(&self, i: usize) -> u64 {
        if self.chain[i] == UNHASHED {
            row_hash(self.tasks, self.slot(i))
        } else {
            self.hashes[i]
        }
    }

    /// The first row whose cached weight, or (unless deferred) row hash,
    /// differs from a recomputation from its words; `None` when every
    /// cached column is current. A consistency check for tests and the
    /// learner's `debug-invariants` hook.
    #[must_use]
    pub fn first_stale_row(&self) -> Option<usize> {
        (0..self.len()).find(|&i| {
            let weight: u64 = self.row(i).iter().map(|&w| word_weight(w)).sum();
            weight != self.weights[i]
                || (self.chain[i] != UNHASHED
                    && self.hashes[i] != row_hash(self.tasks, self.slot(i)))
        })
    }

    /// The whole cached-weight column, index-aligned with the rows (for
    /// `partition_point` prefix computations over weight-sorted arenas).
    #[must_use]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Drops every row and the dedup index, keeping the allocations for
    /// reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.weights.clear();
        self.hashes.clear();
        self.heads.clear();
        self.chain.clear();
    }

    /// Records the row just written to the end of `words` with its
    /// weight and row hash, no dedup chain yet.
    fn seal_last(&mut self, weight: u64, hash: u64) -> usize {
        self.weights.push(weight);
        self.hashes.push(hash);
        self.chain.push(NO_ROW);
        self.weights.len() - 1
    }

    /// Appends `d` with an empty pair set, returning its index. The row
    /// is not a dedup key (see [`push_unique`](Self::push_unique)).
    ///
    /// # Panics
    ///
    /// Panics if `d` is over a different task universe.
    pub fn push(&mut self, d: &DependencyFunction) -> usize {
        assert_eq!(d.task_count(), self.tasks, "mismatched task universes");
        self.words.extend_from_slice(d.packed_words());
        self.words
            .resize(self.words.len() + self.row_words - self.stride, 0);
        let hash = row_hash(self.tasks, &self.words[self.words.len() - self.row_words..]);
        self.seal_last(d.weight(), hash)
    }

    /// Appends `d` unless an equal row is already indexed (see
    /// [`index_last`](Self::index_last)). Returns `Ok(index)` for a fresh
    /// insertion, `Err(index)` of the existing duplicate otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `d` is over a different task universe.
    pub fn push_unique(&mut self, d: &DependencyFunction) -> Result<usize, usize> {
        self.push(d);
        self.index_last()
    }

    /// Appends a copy of `other`'s row `i` with its cached weight and row
    /// hash (unindexed), returning its index. A merged row's deferred hash
    /// is computed here, so every row of a store that was filled by
    /// copying can parent children.
    ///
    /// # Panics
    ///
    /// Panics if the arenas' universes or row layouts differ.
    pub fn push_copy(&mut self, other: &FunctionArena, i: usize) -> usize {
        assert!(
            self.tasks == other.tasks && self.row_words == other.row_words,
            "mismatched arena layouts"
        );
        self.words.extend_from_slice(other.slot(i));
        self.seal_last(other.weights[i], other.hash_of(i))
    }

    /// Appends the child of `parent`'s row `i` that explains a message
    /// assumed to travel `sender → receiver`: the parent row with
    /// `forward` joined into cell `(sender, receiver)`, `backward` joined
    /// into `(receiver, sender)`, and the pair `(sender, receiver)` added
    /// to its pair set (the learner's `d1jk` step, paper §3.1). The weight
    /// is the parent's plus the change in those two cells, and the row
    /// hash is the parent's with the changed words' mixes swapped, so a
    /// child costs O(1) beyond the row copy. Returns the child's
    /// (unindexed) index.
    ///
    /// # Panics
    ///
    /// Panics if the layouts differ, the rows carry no pair sets, or
    /// `sender == receiver`.
    pub fn push_child(
        &mut self,
        parent: &FunctionArena,
        i: usize,
        sender: TaskId,
        receiver: TaskId,
        forward: DependencyValue,
        backward: DependencyValue,
    ) -> usize {
        assert!(
            self.tasks == parent.tasks && self.row_words == parent.row_words,
            "mismatched arena layouts"
        );
        assert_ne!(sender, receiver, "the diagonal stays `||`");
        let bit = self.pair_bit(sender, receiver);
        let start = self.words.len();
        self.words.extend_from_slice(parent.slot(i));
        let row = &mut self.words[start..];
        let forward_cell = bit;
        let backward_cell = receiver.index() * self.tasks + sender.index();
        let (fw, bw, pw) = (
            forward_cell / CELLS_PER_WORD,
            backward_cell / CELLS_PER_WORD,
            self.stride + bit / 64,
        );
        let (old_f, old_b, old_p) = (row[fw], row[bw], row[pw]);
        let grown = join_cell(row, forward_cell, encode(forward))
            + join_cell(row, backward_cell, encode(backward));
        row[pw] |= 1 << (bit % 64);
        // When both cells share a word, `row[fw]` already holds both joins.
        let mut hash = parent.hash_of(i) ^ rehash(fw, old_f, row[fw]) ^ rehash(pw, old_p, row[pw]);
        if bw != fw {
            hash ^= rehash(bw, old_b, row[bw]);
        }
        self.seal_last(parent.weights[i] + grown, hash)
    }

    /// Appends the bounded heuristic's merge of rows `a` and `b` (paper
    /// §3.2): the least upper bound of their functions (word-wise OR),
    /// with the intersection of their pair sets, or the union if `union`.
    /// Its weight is `a`'s plus the change in the words where `b` has a
    /// bit `a` lacks; the other words are `a`'s, so they are not
    /// re-weighed. Its row hash is deferred, as merged rows are not dedup
    /// keys in the learner (see [`push_copy`](Self::push_copy)). Returns
    /// the merged (unindexed) row's index.
    pub fn push_merge(&mut self, a: usize, b: usize, union: bool) -> usize {
        let rw = self.row_words;
        let start = self.words.len();
        self.words.extend_from_within(a * rw..(a + 1) * rw);
        let (older, row) = self.words.split_at_mut(start);
        let other = &older[b * rw..(b + 1) * rw];
        let (functions, pairs) = row.split_at_mut(self.stride);
        let mut weight = self.weights[a];
        for (x, &y) in functions.iter_mut().zip(other) {
            if y & !*x != 0 {
                let joined = word_join(*x, y);
                weight += word_weight(joined) - word_weight(*x);
                *x = joined;
            }
        }
        for (x, &y) in pairs.iter_mut().zip(&other[self.stride..]) {
            *x = if union { *x | y } else { *x & y };
        }
        self.weights.push(weight);
        self.hashes.push(0);
        self.chain.push(UNHASHED);
        self.weights.len() - 1
    }

    /// Deduplicates the newest row: if an indexed row equals it word for
    /// word (function *and* pair set), the newest row is removed and
    /// `Err(index)` of that row returned; otherwise the newest row joins
    /// the index and `Ok(index)` is returned. Lookup is hash-first: full
    /// rows are compared only along the chain of rows sharing the row
    /// hash.
    ///
    /// # Panics
    ///
    /// Panics if the arena is empty.
    pub fn index_last(&mut self) -> Result<usize, usize> {
        let last = self
            .len()
            .checked_sub(1)
            .expect("index_last on an empty arena");
        match self.index_row(last) {
            Some(existing) => {
                self.words.truncate(last * self.row_words);
                self.weights.pop();
                self.hashes.pop();
                self.chain.pop();
                Err(existing)
            }
            None => Ok(last),
        }
    }

    /// Rebuilds the dedup index over every row, in order, and lists in
    /// `out` the rows that do not repeat an earlier row word for word
    /// (function *and* pair set); only those rows are indexed. Matches are
    /// found as in [`index_last`](Self::index_last): hash-first, confirmed
    /// by full-row equality.
    pub fn distinct_rows(&mut self, out: &mut Vec<usize>) {
        self.heads.clear();
        out.clear();
        for i in 0..self.len() {
            if self.index_row(i).is_none() {
                out.push(i);
            }
        }
    }

    /// Looks row `i` up in the dedup index: returns the indexed row equal
    /// to it, or indexes row `i` (computing a deferred hash) and returns
    /// `None`. Full rows are compared only along the chain of indexed rows
    /// sharing row `i`'s hash.
    fn index_row(&mut self, i: usize) -> Option<usize> {
        let rw = self.row_words;
        self.hashes[i] = self.hash_of(i);
        match self.heads.entry(self.hashes[i]) {
            Entry::Vacant(slot) => {
                slot.insert(row_id(i));
                self.chain[i] = NO_ROW;
                None
            }
            Entry::Occupied(mut head) => {
                let row = &self.words[i * rw..][..rw];
                let mut at = *head.get();
                while at != NO_ROW && self.words[at as usize * rw..][..rw] != *row {
                    at = self.chain[at as usize];
                }
                if at == NO_ROW {
                    self.chain[i] = *head.get();
                    *head.get_mut() = row_id(i);
                    None
                } else {
                    Some(at as usize)
                }
            }
        }
    }

    /// Execution weakening of every row (see
    /// [`word_weaken`]) under a per-period
    /// cell mask of [`stride`](Self::stride) words, refreshing the weight
    /// and row-hash columns. The dedup index is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `mask` is not `stride` words long.
    pub fn weaken(&mut self, mask: &[u64]) {
        assert_eq!(mask.len(), self.stride, "mask must cover one function");
        for i in 0..self.len() {
            let start = i * self.row_words;
            for (w, &m) in self.words[start..start + self.stride].iter_mut().zip(mask) {
                *w = word_weaken(*w, m);
            }
        }
        self.refresh();
    }

    /// Empties every row's pair set, refreshing the row-hash column. The
    /// dedup index is dropped.
    pub fn clear_pairs(&mut self) {
        for i in 0..self.len() {
            let start = i * self.row_words;
            self.words[start + self.stride..start + self.row_words].fill(0);
        }
        self.refresh();
    }

    /// Recomputes both cached columns from the rows after an in-place
    /// mutation; every row leaves the (now stale) index.
    fn refresh(&mut self) {
        for i in 0..self.len() {
            let row = &self.words[i * self.row_words..(i + 1) * self.row_words];
            self.weights[i] = row[..self.stride].iter().map(|&w| word_weight(w)).sum();
            self.hashes[i] = row_hash(self.tasks, row);
        }
        self.heads.clear();
        self.chain.fill(NO_ROW);
    }

    /// Reconstructs row `i`'s function as an owned [`DependencyFunction`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> DependencyFunction {
        DependencyFunction::from_words(self.tasks, self.row(i).to_vec())
            .expect("arena rows are valid packed stores by construction")
    }

    /// Whether stored function `i` is *strictly dominated* by any of the
    /// first `prefix` entries: some `j < prefix` with `row(j) ⊑ row(i)`
    /// and a strictly lower cached weight (strict domination strictly
    /// lowers weight, so the weight test doubles as the `≠` test). This
    /// is the batched redundancy kernel: one forward stream over the
    /// function-word prefixes of `prefix` adjacent rows, early-exiting per
    /// row.
    #[must_use]
    pub fn dominated_in_prefix(&self, i: usize, prefix: usize) -> bool {
        let target = self.row(i);
        let weight = self.weights[i];
        self.weights[..prefix].iter().enumerate().any(|(j, &wj)| {
            wj < weight
                && self
                    .row(j)
                    .iter()
                    .zip(target)
                    .all(|(&a, &b)| word_leq(a, b))
        })
    }
}

/// A row index as stored in the dedup index.
fn row_id(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&id| id < UNHASHED)
        .expect("arena row indices fit below the chain sentinels")
}

/// Joins cube code `code` into flat cell `cell` of a packed row, returning
/// how much the cell's distance grew.
#[inline]
fn join_cell(row: &mut [u64], cell: usize, code: u64) -> u64 {
    let word = &mut row[cell / CELLS_PER_WORD];
    let shift = BITS_PER_CELL * (cell % CELLS_PER_WORD);
    let old = (*word >> shift) & CELL_MASK;
    *word |= code << shift;
    CODE_DISTANCE[(old | code) as usize] - CODE_DISTANCE[old as usize]
}

/// The splitmix64 finalizer: a bijection on `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The [`splitmix64`] mix of word `w` at row position `j`: a bijection
/// in `w` for each `j`, so rows that differ in one word never share a
/// [`row_hash`].
#[inline]
fn mix(j: usize, w: u64) -> u64 {
    splitmix64(w ^ (j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The dedup index's hash of a whole row: a per-universe seed XORed with
/// [`mix`] of every word at its position.
fn row_hash(tasks: usize, row: &[u64]) -> u64 {
    row.iter().enumerate().fold(
        (tasks as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        |h, (j, &w)| h ^ mix(j, w),
    )
}

/// How a [`row_hash`] moves when word `j` changes from `old` to `new`.
#[inline]
fn rehash(j: usize, old: u64, new: u64) -> u64 {
    if old == new {
        0
    } else {
        mix(j, old) ^ mix(j, new)
    }
}

/// The dedup map's hasher builder. Its keys are row hashes, already
/// well mixed, so SipHash's work is spent twice; one keyed
/// [`splitmix64`] round places them instead. The key is drawn from
/// [`RandomState`] per map, so bucket placement stays unpredictable from
/// trace input, and the map is never iterated, so no result depends on
/// the key.
#[derive(Debug, Clone)]
struct KeyedRowHash {
    key: u64,
}

impl KeyedRowHash {
    fn new() -> Self {
        KeyedRowHash {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyedRowHash {
    type Hasher = KeyedRowHasher;

    fn build_hasher(&self) -> KeyedRowHasher {
        KeyedRowHasher { state: self.key }
    }
}

/// [`KeyedRowHash`]'s hasher: each `u64` written is XORed into the state
/// and mixed by one [`splitmix64`] round.
#[derive(Debug)]
struct KeyedRowHasher {
    state: u64,
}

impl Hasher for KeyedRowHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.state = splitmix64(self.state ^ n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DependencyValue as V;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// Deterministic scrambled matrix for arena tests.
    fn scrambled(tasks: usize, seed: u64) -> DependencyFunction {
        const VALUES: [V; 7] = [
            V::Parallel,
            V::Determines,
            V::DependsOn,
            V::Mutual,
            V::MayDetermine,
            V::MayDependOn,
            V::MayMutual,
        ];
        let mut d = DependencyFunction::bottom(tasks);
        for i in 0..tasks {
            for j in 0..tasks {
                if i == j {
                    continue;
                }
                let mut x =
                    seed.wrapping_add(((i * tasks + j) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 31;
                d.set(t(i), t(j), VALUES[(x % 7) as usize]);
            }
        }
        d
    }

    #[test]
    fn push_and_get_round_trip() {
        let mut arena = FunctionArena::new(5);
        let functions: Vec<DependencyFunction> = (0..4).map(|s| scrambled(5, s)).collect();
        for d in &functions {
            arena.push(d);
        }
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_words(), 4 * arena.stride());
        for (i, d) in functions.iter().enumerate() {
            assert_eq!(&arena.get(i), d);
            assert_eq!(arena.weight(i), d.weight());
        }
    }

    #[test]
    fn push_unique_dedups_fingerprint_first() {
        let mut arena = FunctionArena::new(4);
        let a = scrambled(4, 9);
        assert_eq!(arena.push_unique(&a), Ok(0));
        assert_eq!(arena.push_unique(&a.clone()), Err(0));
        let b = scrambled(4, 10);
        assert_eq!(arena.push_unique(&b), Ok(1));
        assert_eq!(arena.len(), 2);
    }

    #[test]
    fn pair_sets_separate_otherwise_equal_rows() {
        let mut arena = FunctionArena::with_pair_sets(3);
        let root = arena.push(&DependencyFunction::bottom(3));
        assert!(arena.pairs(root).iter().all(|&w| w == 0));
        let mut next = arena.empty_like();
        let a = next.push_child(&arena, root, t(0), t(1), V::Determines, V::DependsOn);
        assert_eq!(next.index_last(), Ok(a));
        assert!(next.has_pair(a, t(0), t(1)) && !next.has_pair(a, t(1), t(0)));
        // The same function with an empty pair set is a distinct row…
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        let plain = next.push(&d);
        assert_eq!(next.row(plain), next.row(a));
        assert_eq!(next.index_last(), Ok(plain));
        // …until the pair sets are cleared, after which rows dedup by
        // function alone.
        next.clear_pairs();
        let mut unique = next.empty_like();
        unique.push_copy(&next, a);
        assert_eq!(unique.index_last(), Ok(0));
        unique.push_copy(&next, plain);
        assert_eq!(unique.index_last(), Err(0));
        assert_eq!(unique.len(), 1);
    }

    #[test]
    fn distinct_rows_skips_exact_repeats_only() {
        let mut parents = FunctionArena::with_pair_sets(3);
        let root = parents.push(&DependencyFunction::bottom(3));
        let mut rows = parents.empty_like();
        // One function under two pair sets: `‖` joins set only the bit.
        let a = rows.push_child(&parents, root, t(0), t(1), V::Parallel, V::Parallel);
        let b = rows.push_child(&parents, root, t(1), t(2), V::Parallel, V::Parallel);
        assert_eq!(rows.row(a), rows.row(b));
        let repeat_a = rows.push_copy(&rows.clone(), a);
        let c = rows.push(&scrambled(3, 4));
        let repeat_c = rows.push(&scrambled(3, 4));
        let repeat_b = rows.push_copy(&rows.clone(), b);
        let mut out = Vec::new();
        rows.distinct_rows(&mut out);
        assert_eq!(out, [a, b, c]);
        for (repeat, first) in [(repeat_a, a), (repeat_b, b), (repeat_c, c)] {
            rows.push_copy(&rows.clone(), repeat);
            assert_eq!(rows.index_last(), Err(first));
        }
    }

    #[test]
    fn every_single_cell_change_moves_the_row_hash() {
        // 7 tasks: three function words (49 live lanes of 63) and one
        // pair-set word. Every code change in every lane, padding lanes
        // included, moves the hash, and by exactly `rehash`.
        let mut arena = FunctionArena::with_pair_sets(7);
        arena.push(&scrambled(7, 3));
        let base = arena.slot(0).to_vec();
        assert_eq!(arena.hashes[0], row_hash(7, &base));
        for j in 0..arena.stride() {
            for lane in 0..CELLS_PER_WORD {
                let shift = BITS_PER_CELL * lane;
                for old in 0..=CELL_MASK {
                    let mut before = base.clone();
                    before[j] = (before[j] & !(CELL_MASK << shift)) | (old << shift);
                    let hash = row_hash(7, &before);
                    for new in (0..=CELL_MASK).filter(|&new| new != old) {
                        let mut after = before.clone();
                        after[j] ^= (old ^ new) << shift;
                        let moved = row_hash(7, &after);
                        assert_ne!(moved, hash, "word {j} lane {lane}: {old:03b} -> {new:03b}");
                        assert_eq!(moved, hash ^ rehash(j, before[j], after[j]));
                    }
                }
            }
        }
        for bit in 0..49 {
            let mut after = base.clone();
            after[arena.stride()] ^= 1 << bit;
            assert_ne!(row_hash(7, &after), row_hash(7, &base), "pair bit {bit}");
        }
    }

    #[test]
    fn weaken_refreshes_cached_columns() {
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        let mut arena = FunctionArena::new(3);
        arena.push(&d);
        let executed = crate::TaskSet::from_ids(3, [t(0)]);
        arena.weaken(&crate::packed::weakening_mask(&executed));
        let weakened = arena.get(0);
        assert_eq!(weakened.value(t(0), t(1)), V::MayDetermine);
        assert_eq!(weakened.value(t(1), t(0)), V::DependsOn);
        assert_eq!(arena.weight(0), weakened.weight());
    }

    #[test]
    fn dominated_in_prefix_finds_strict_dominators_only() {
        let mut below = DependencyFunction::bottom(4);
        below.record_message(t(0), t(1));
        let mut above = below.clone();
        above.join_value(t(2), t(3), V::MayDetermine);
        // Weight-sorted order: below, above, then an equal copy of above.
        let mut arena = FunctionArena::new(4);
        for d in [&below, &above, &above] {
            arena.push(d);
        }
        assert!(!arena.dominated_in_prefix(0, 0), "no prefix, no dominator");
        assert!(arena.dominated_in_prefix(1, 1), "below ⊑ above strictly");
        // An equal entry is not a *strict* dominator, but the earlier
        // strict one still is.
        assert!(arena.dominated_in_prefix(2, 2));
        let mut arena_eq = FunctionArena::new(4);
        arena_eq.push(&above);
        arena_eq.push(&above);
        assert!(
            !arena_eq.dominated_in_prefix(1, 1),
            "equal weight cannot strictly dominate"
        );
    }

    #[test]
    #[should_panic(expected = "mismatched task universes")]
    fn push_refuses_wrong_universe() {
        let mut arena = FunctionArena::new(4);
        arena.push(&DependencyFunction::bottom(5));
    }
}
