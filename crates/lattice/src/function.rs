//! Dependency functions `d : T × T → V` (paper Definition 5) and the
//! pointwise lattice `⟨D, ⊑_D⟩` over them.

use std::fmt;

use crate::packed::{
    decode, encode, word_join, word_lattice_distance, word_leq, word_meet, word_weight,
    BITS_PER_CELL, CELLS_PER_WORD, CELL_MASK,
};
use crate::task::{TaskId, TaskUniverse};
use crate::value::{DependencyValue, ValueParseError};

/// One hypothesis: a total dependency function over a fixed task universe,
/// stored as a dense `n × n` matrix of [`DependencyValue`]s bit-packed into
/// `u64` words (3 bits per cell, 21 cells per word; see [`crate::packed`]).
/// The pointwise lattice operations — [`leq`](Self::leq),
/// [`join`](Self::join), [`meet`](Self::meet), [`weight`](Self::weight) —
/// run word-parallel over the packed store, 21 cells per instruction.
///
/// # Invariants
///
/// * The diagonal is always `‖` (a task has no dependency with itself).
/// * Unused bits (trailing cells past `n²`, and bit 63 of each word) are
///   always zero, so derived `Eq`/`Hash` agree with cell-wise equality.
///
/// The two directions of a pair are *independent* assertions: `d(t1, t2)`
/// constrains what must happen in a period where `t1` executes, and
/// `d(t2, t1)` constrains periods where `t2` executes. The paper's table
/// `d81` shows e.g. `d(t1, t2) = →?` alongside `d(t2, t1) = ←`: when `t2`
/// runs it always depends on `t1`, yet `t1` running only *may* determine
/// `t2`. Observing a message `s → r` therefore joins `→` into `d(s, r)`
/// **and** `←` into `d(r, s)` (see [`record_message`]), after which the
/// entries evolve separately under weakening.
///
/// [`record_message`]: DependencyFunction::record_message
///
/// # Example
///
/// ```
/// use bbmg_lattice::{DependencyFunction, DependencyValue as V, TaskId};
///
/// let t0 = TaskId::from_index(0);
/// let t1 = TaskId::from_index(1);
/// let mut d = DependencyFunction::bottom(2);
/// d.record_message(t0, t1);
/// assert_eq!(d.value(t0, t1), V::Determines);
/// assert_eq!(d.value(t1, t0), V::DependsOn);
/// assert_eq!(d.weight(), 2); // 1 for ->, 1 for <-
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DependencyFunction {
    tasks: usize,
    words: Vec<u64>,
}

/// Words needed for an `n × n` matrix at 21 cells per word.
fn words_for(tasks: usize) -> usize {
    (tasks * tasks).div_ceil(CELLS_PER_WORD)
}

/// splitmix64-style mixing folded over `words`, seeded with the dimension
/// so bottoms of different sizes differ: the fingerprint of a packed store
/// and, pair set included, of a [`FunctionArena`](crate::FunctionArena)
/// row.
fn fingerprint_words(tasks: usize, words: &[u64]) -> u64 {
    let mut h = (tasks as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Why a serialized packed store was rejected by
/// [`DependencyFunction::from_words`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FunctionDecodeError {
    /// The word vector has the wrong length for the claimed task count.
    WordCount {
        /// The claimed task count.
        tasks: usize,
        /// Words required for that task count.
        expected: usize,
        /// Words actually supplied.
        actual: usize,
    },
    /// A cell holds the invalid cube code `100` (lone `Q` bit).
    InvalidCell {
        /// Flat row-major cell index.
        index: usize,
    },
    /// A diagonal cell is not `‖`.
    DiagonalNotParallel {
        /// The task whose self-cell is wrong.
        task: usize,
    },
    /// Bits outside the `n²` cells (trailing lanes or bit 63) are set —
    /// the store was produced by a different lattice shape or corrupted.
    DirtyPadding {
        /// Index of the offending word.
        word: usize,
    },
}

impl fmt::Display for FunctionDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionDecodeError::WordCount {
                tasks,
                expected,
                actual,
            } => write!(
                f,
                "packed store has {actual} word(s); {tasks} task(s) need {expected}"
            ),
            FunctionDecodeError::InvalidCell { index } => {
                write!(f, "cell {index} holds the invalid lattice code 100")
            }
            FunctionDecodeError::DiagonalNotParallel { task } => {
                write!(f, "diagonal cell of task {task} is not `||`")
            }
            FunctionDecodeError::DirtyPadding { word } => {
                write!(f, "word {word} has bits set outside the matrix cells")
            }
        }
    }
}

impl std::error::Error for FunctionDecodeError {}

impl DependencyFunction {
    /// The globally most specific hypothesis `d⊥`: all pairs `‖`.
    #[must_use]
    pub fn bottom(tasks: usize) -> Self {
        DependencyFunction {
            tasks,
            words: vec![0; words_for(tasks)],
        }
    }

    /// The least specific hypothesis `d⊤`: all off-diagonal pairs `↔?`.
    #[must_use]
    pub fn top(tasks: usize) -> Self {
        let mut d = Self::bottom(tasks);
        for i in 0..tasks {
            for j in 0..tasks {
                if i != j {
                    d.set_cell(i * tasks + j, DependencyValue::MayMutual);
                }
            }
        }
        d
    }

    /// The value of flat cell `idx` (row-major).
    #[inline]
    fn cell(&self, idx: usize) -> DependencyValue {
        decode(self.words[idx / CELLS_PER_WORD] >> (BITS_PER_CELL * (idx % CELLS_PER_WORD)))
    }

    /// Overwrites flat cell `idx` (row-major) with `v`.
    #[inline]
    fn set_cell(&mut self, idx: usize, v: DependencyValue) {
        let shift = BITS_PER_CELL * (idx % CELLS_PER_WORD);
        let word = &mut self.words[idx / CELLS_PER_WORD];
        *word = (*word & !(CELL_MASK << shift)) | (encode(v) << shift);
    }

    /// Builds a function from rows of ASCII/Unicode symbols, as printed in
    /// the paper's hypothesis tables. Row `i`, column `j` gives
    /// `d(t_i, t_j)`.
    ///
    /// # Errors
    ///
    /// Returns an error if a symbol fails to parse.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not form a square matrix with `‖` on the
    /// diagonal.
    ///
    /// ```
    /// use bbmg_lattice::DependencyFunction;
    ///
    /// // Paper hypothesis d11 (4 tasks): t1 -> t2.
    /// let d = DependencyFunction::from_rows(&[
    ///     &["||", "->", "||", "||"],
    ///     &["<-", "||", "||", "||"],
    ///     &["||", "||", "||", "||"],
    ///     &["||", "||", "||", "||"],
    /// ]).unwrap();
    /// assert_eq!(d.weight(), 2);
    /// ```
    pub fn from_rows(rows: &[&[&str]]) -> Result<Self, ValueParseError> {
        let n = rows.len();
        let mut d = Self::bottom(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, sym) in row.iter().enumerate() {
                let v: DependencyValue = sym.parse()?;
                if i == j {
                    assert_eq!(
                        v,
                        DependencyValue::Parallel,
                        "diagonal entry ({i},{j}) must be `||`"
                    );
                }
                d.set_cell(i * n + j, v);
            }
        }
        Ok(d)
    }

    /// Number of tasks `|T|` this function is defined over.
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.tasks
    }

    /// The packed words of an `n`-task matrix: the lattice shape a
    /// checkpoint or parallel-gate sizing computation must agree on.
    #[must_use]
    pub fn words_per_function(tasks: usize) -> usize {
        words_for(tasks)
    }

    /// The raw packed store, 21 cells per word in row-major cell order.
    /// Together with [`task_count`](Self::task_count) this is a complete,
    /// stable serialization of the function; feed it back through
    /// [`from_words`](Self::from_words) to reconstruct it.
    #[must_use]
    pub fn packed_words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs a function from its serialized packed store,
    /// re-validating every invariant: word count matches the task count,
    /// every cell is one of the seven valid codes, the diagonal is `‖`,
    /// and no padding bit is set. A store written for a different lattice
    /// shape — or corrupted in transit — is refused, never reinterpreted.
    ///
    /// # Errors
    ///
    /// Returns a [`FunctionDecodeError`] naming the first violated
    /// invariant.
    pub fn from_words(tasks: usize, words: Vec<u64>) -> Result<Self, FunctionDecodeError> {
        crate::invariant::check_packed_store(tasks, &words)?;
        Ok(DependencyFunction { tasks, words })
    }

    /// The value `d(t1, t2)`.
    ///
    /// # Panics
    ///
    /// Panics if either task index is out of range.
    #[must_use]
    pub fn value(&self, t1: TaskId, t2: TaskId) -> DependencyValue {
        assert!(
            t1.index() < self.tasks && t2.index() < self.tasks,
            "task index out of range"
        );
        self.cell(t1.index() * self.tasks + t2.index())
    }

    /// Sets the single entry `d(t1, t2) = v`. The converse entry
    /// `d(t2, t1)` is *not* touched — the two directions are independent
    /// assertions (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `t1 == t2` and `v != ‖`, or if an index is out of range.
    pub fn set(&mut self, t1: TaskId, t2: TaskId, v: DependencyValue) {
        if t1 == t2 {
            assert_eq!(v, DependencyValue::Parallel, "diagonal must stay `||`");
            return;
        }
        assert!(
            t1.index() < self.tasks && t2.index() < self.tasks,
            "task index out of range"
        );
        self.set_cell(t1.index() * self.tasks + t2.index(), v);
    }

    /// Joins `v` into the single entry `d(t1, t2)`: the minimal
    /// generalization making `d(t1, t2) ⊒ v`.
    ///
    /// Returns `true` if the entry changed.
    pub fn join_value(&mut self, t1: TaskId, t2: TaskId, v: DependencyValue) -> bool {
        let old = self.value(t1, t2);
        let new = old.join(v);
        if new == old {
            false
        } else {
            self.set(t1, t2, new);
            true
        }
    }

    /// Records an observed/assumed message `sender → receiver`: the minimal
    /// generalization admitting it, joining `→` into `d(sender, receiver)`
    /// and `←` into `d(receiver, sender)` (paper §3.1's construction of
    /// `d1i` from `d⊥`).
    ///
    /// Returns `true` if either entry changed.
    pub fn record_message(&mut self, sender: TaskId, receiver: TaskId) -> bool {
        let a = self.join_value(sender, receiver, DependencyValue::Determines);
        let b = self.join_value(receiver, sender, DependencyValue::DependsOn);
        a || b
    }

    /// Pointwise order: `self ⊑_D other` iff every entry of `self` is below
    /// or equal to the corresponding entry of `other` (paper §2.3).
    ///
    /// Word-parallel: one AND-NOT per 21 cells (see [`crate::packed`]).
    #[must_use]
    pub fn leq(&self, other: &DependencyFunction) -> bool {
        assert_eq!(self.tasks, other.tasks, "mismatched task universes");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(&a, &b)| word_leq(a, b))
    }

    /// Pointwise least upper bound `self ⊔ other` (used by the heuristic
    /// merge and by the `d_LUB` summary of §3.3).
    #[must_use]
    pub fn join(&self, other: &DependencyFunction) -> DependencyFunction {
        assert_eq!(self.tasks, other.tasks, "mismatched task universes");
        DependencyFunction {
            tasks: self.tasks,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| word_join(a, b))
                .collect(),
        }
    }

    /// Pointwise least upper bound folded into `self` in place — the
    /// allocation-free form of [`join`](Self::join) for accumulator
    /// loops (`d_LUB` summaries, convergence sweeps, arena folds) that
    /// would otherwise allocate a fresh word vector per step.
    ///
    /// # Panics
    ///
    /// Panics if the functions are over different task universes.
    pub fn join_in_place(&mut self, other: &DependencyFunction) {
        assert_eq!(self.tasks, other.tasks, "mismatched task universes");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a = word_join(*a, b);
        }
    }

    /// Pointwise greatest lower bound `self ⊓ other`.
    #[must_use]
    pub fn meet(&self, other: &DependencyFunction) -> DependencyFunction {
        assert_eq!(self.tasks, other.tasks, "mismatched task universes");
        DependencyFunction {
            tasks: self.tasks,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| word_meet(a, b))
                .collect(),
        }
    }

    /// The weight `Σ distance(d(t1,t2))` over all ordered pairs (paper
    /// Definition 8). Lower weight means more specific.
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.words.iter().map(|&w| word_weight(w)).sum()
    }

    /// A cheap 64-bit fingerprint of the packed store, for hash-first
    /// deduplication: equal functions have equal fingerprints, and distinct
    /// functions collide with probability ≈ 2⁻⁶⁴. Unlike `Hash`, it does
    /// not depend on a hasher's internal state, so it is stable across
    /// collections and threads within one process run.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint_words(self.tasks, &self.words)
    }

    /// Pointwise lattice distance between two functions:
    /// `Σ distance(a ⊔ b) − distance(a ⊓ b)` over all ordered pairs — the
    /// valuation metric induced by [`weight`](Self::weight) (weight is
    /// a valuation: `w(a ⊔ b) + w(a ⊓ b) = w(a) + w(b)` pointwise). Zero
    /// iff the functions are equal; the convergence timeline uses it to
    /// chart how far each period's `d_LUB` sits from the final model.
    ///
    /// # Panics
    ///
    /// If the functions are over different task universes.
    #[must_use]
    pub fn lattice_distance(&self, other: &DependencyFunction) -> u64 {
        assert_eq!(self.tasks, other.tasks, "mismatched task universes");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| word_lattice_distance(a, b))
            .sum()
    }

    /// Whether this is the bottom hypothesis `d⊥` (all `‖`).
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over all ordered pairs `(t1, t2, d(t1, t2))`, including the
    /// diagonal.
    #[must_use]
    pub fn ordered_pairs(&self) -> PairIter<'_> {
        PairIter {
            function: self,
            next: 0,
        }
    }

    /// Iterates over off-diagonal entries that differ from `‖`.
    pub fn nontrivial_pairs(&self) -> impl Iterator<Item = (TaskId, TaskId, DependencyValue)> + '_ {
        self.ordered_pairs()
            .filter(|&(a, b, v)| a != b && v != DependencyValue::Parallel)
    }

    /// Renders the function as the paper's table format, with task names
    /// from `universe` labelling rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if `universe` has a different task count.
    #[must_use]
    pub fn to_table(&self, universe: &TaskUniverse) -> String {
        assert_eq!(universe.len(), self.tasks, "mismatched task universe");
        let names: Vec<&str> = universe.iter().map(|(_, n)| n).collect();
        let width = names
            .iter()
            .map(|n| n.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4)
            + 1;
        let mut out = String::new();
        out.push_str(&" ".repeat(width));
        for n in &names {
            out.push_str(&format!("{n:>width$}"));
        }
        out.push('\n');
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{n:>width$}"));
            for j in 0..self.tasks {
                let v = self.cell(i * self.tasks + j);
                out.push_str(&format!("{:>width$}", v.symbol()));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Debug for DependencyFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DependencyFunction({} tasks)", self.tasks)?;
        for i in 0..self.tasks {
            for j in 0..self.tasks {
                write!(f, "{:>6}", self.cell(i * self.tasks + j).symbol())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Iterator over the ordered pairs of a [`DependencyFunction`], created by
/// [`DependencyFunction::ordered_pairs`].
#[derive(Debug)]
pub struct PairIter<'a> {
    function: &'a DependencyFunction,
    next: usize,
}

impl Iterator for PairIter<'_> {
    type Item = (TaskId, TaskId, DependencyValue);

    fn next(&mut self) -> Option<Self::Item> {
        let n = self.function.tasks;
        if self.next >= n * n {
            return None;
        }
        let i = self.next / n;
        let j = self.next % n;
        let v = self.function.cell(self.next);
        self.next += 1;
        Some((TaskId::from_index(i), TaskId::from_index(j), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.function.tasks * self.function.tasks - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PairIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DependencyValue as V;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn bottom_is_bottom() {
        let d = DependencyFunction::bottom(3);
        assert!(d.is_bottom());
        assert_eq!(d.weight(), 0);
        for (_, _, v) in d.ordered_pairs() {
            assert_eq!(v, V::Parallel);
        }
    }

    #[test]
    fn top_is_top_and_everything_is_between() {
        let bot = DependencyFunction::bottom(4);
        let top = DependencyFunction::top(4);
        assert!(bot.leq(&top));
        let mut mid = DependencyFunction::bottom(4);
        mid.record_message(t(0), t(1));
        assert!(bot.leq(&mid) && mid.leq(&top));
        assert_eq!(top.weight(), 9 * 12);
    }

    #[test]
    fn set_touches_only_one_direction() {
        let mut d = DependencyFunction::bottom(3);
        d.set(t(0), t(2), V::MayDetermine);
        assert_eq!(d.value(t(0), t(2)), V::MayDetermine);
        assert_eq!(d.value(t(2), t(0)), V::Parallel);
    }

    #[test]
    fn join_value_reports_change() {
        let mut d = DependencyFunction::bottom(2);
        assert!(d.join_value(t(0), t(1), V::Determines));
        assert!(!d.join_value(t(0), t(1), V::Determines));
        assert!(d.join_value(t(0), t(1), V::DependsOn)); // joins to Mutual
        assert_eq!(d.value(t(0), t(1)), V::Mutual);
        assert_eq!(d.value(t(1), t(0)), V::Parallel);
    }

    #[test]
    fn record_message_sets_both_directions() {
        let mut d = DependencyFunction::bottom(2);
        assert!(d.record_message(t(0), t(1)));
        assert_eq!(d.value(t(0), t(1)), V::Determines);
        assert_eq!(d.value(t(1), t(0)), V::DependsOn);
        assert!(!d.record_message(t(0), t(1)));
        // The paper's d81 shape is representable: ->? one way, <- the other.
        d.set(t(0), t(1), V::MayDetermine);
        assert_eq!(d.value(t(0), t(1)), V::MayDetermine);
        assert_eq!(d.value(t(1), t(0)), V::DependsOn);
    }

    #[test]
    #[should_panic(expected = "diagonal must stay")]
    fn diagonal_cannot_be_set() {
        let mut d = DependencyFunction::bottom(2);
        d.set(t(1), t(1), V::Determines);
    }

    #[test]
    fn pointwise_join_is_lub() {
        let mut a = DependencyFunction::bottom(3);
        a.record_message(t(0), t(1));
        let mut b = DependencyFunction::bottom(3);
        b.record_message(t(1), t(2));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.value(t(0), t(1)), V::Determines);
        assert_eq!(j.value(t(1), t(2)), V::Determines);
        assert_eq!(j.value(t(2), t(1)), V::DependsOn);
    }

    #[test]
    fn pointwise_meet_is_glb() {
        let mut a = DependencyFunction::bottom(2);
        a.join_value(t(0), t(1), V::MayDetermine);
        let mut b = DependencyFunction::bottom(2);
        b.join_value(t(0), t(1), V::Mutual);
        let m = a.meet(&b);
        assert_eq!(m.value(t(0), t(1)), V::Determines);
        assert!(m.leq(&a) && m.leq(&b));
    }

    #[test]
    fn weight_counts_both_directions() {
        let mut d = DependencyFunction::bottom(4);
        d.record_message(t(0), t(1)); // 1 + 1
        d.join_value(t(2), t(3), V::MayDetermine); // 4
        d.join_value(t(3), t(2), V::MayDependOn); // 4
        assert_eq!(d.weight(), 10);
    }

    #[test]
    fn from_rows_round_trips_paper_table() {
        // Paper hypothesis d21.
        let d = DependencyFunction::from_rows(&[
            &["||", "->", "||", "->"],
            &["<-", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["<-", "||", "||", "||"],
        ])
        .unwrap();
        assert_eq!(d.value(t(0), t(1)), V::Determines);
        assert_eq!(d.value(t(0), t(3)), V::Determines);
        assert_eq!(d.value(t(3), t(0)), V::DependsOn);
        assert_eq!(d.weight(), 4);
    }

    #[test]
    fn from_rows_accepts_asymmetric_tables() {
        // d81-style asymmetry: ->? forward, <- backward.
        let d = DependencyFunction::from_rows(&[&["||", "->?"], &["<-", "||"]]).unwrap();
        assert_eq!(d.value(t(0), t(1)), V::MayDetermine);
        assert_eq!(d.value(t(1), t(0)), V::DependsOn);
    }

    #[test]
    fn nontrivial_pairs_skips_parallel_and_diagonal() {
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(2));
        let pairs: Vec<_> = d.nontrivial_pairs().collect();
        assert_eq!(pairs.len(), 2); // (0,2,->) and (2,0,<-)
    }

    #[test]
    fn table_rendering_contains_names_and_symbols() {
        let u = TaskUniverse::from_names(["t1", "t2"]);
        let mut d = DependencyFunction::bottom(2);
        d.record_message(t(0), t(1));
        let table = d.to_table(&u);
        assert!(table.contains("t1"));
        assert!(table.contains("->"));
        assert!(table.contains("<-"));
    }

    #[test]
    fn pair_iter_is_exact_size() {
        let d = DependencyFunction::bottom(3);
        let it = d.ordered_pairs();
        assert_eq!(it.len(), 9);
        assert_eq!(it.count(), 9);
    }

    #[test]
    fn lattice_distance_is_a_metric_on_examples() {
        let mut a = DependencyFunction::bottom(3);
        a.record_message(t(0), t(1));
        let mut b = DependencyFunction::bottom(3);
        b.record_message(t(1), t(2));

        // Identity of indiscernibles and symmetry.
        assert_eq!(a.lattice_distance(&a), 0);
        assert_eq!(a.lattice_distance(&b), b.lattice_distance(&a));
        assert!(a.lattice_distance(&b) > 0);

        // Disjoint single-message functions differ in 4 entries of
        // distance 1 each: join adds both messages, meet keeps neither.
        assert_eq!(a.lattice_distance(&b), 4);

        // Distance to bottom is the weight (join = a, meet = bottom).
        let bottom = DependencyFunction::bottom(3);
        assert_eq!(a.lattice_distance(&bottom), a.weight());

        // Comparable pair: distance is the weight difference.
        let joined = a.join(&b);
        assert_eq!(a.lattice_distance(&joined), joined.weight() - a.weight());
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let mut a = DependencyFunction::bottom(5);
        a.record_message(t(0), t(3));
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.join_value(t(2), t(4), V::MayDetermine);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Different dimensions fingerprint differently even when both are
        // bottom.
        assert_ne!(
            DependencyFunction::bottom(3).fingerprint(),
            DependencyFunction::bottom(4).fingerprint()
        );
    }

    #[test]
    fn words_round_trip_through_from_words() {
        let mut d = DependencyFunction::bottom(5);
        d.record_message(t(0), t(3));
        d.join_value(t(2), t(4), V::MayDetermine);
        let rebuilt =
            DependencyFunction::from_words(5, d.packed_words().to_vec()).expect("valid store");
        assert_eq!(rebuilt, d);
        assert_eq!(rebuilt.fingerprint(), d.fingerprint());
    }

    #[test]
    fn from_words_refuses_wrong_shape() {
        let d = DependencyFunction::bottom(5);
        // 5 tasks need 2 words; claim 4 tasks (1 word) with the same store.
        let err = DependencyFunction::from_words(4, d.packed_words().to_vec()).unwrap_err();
        assert!(matches!(
            err,
            FunctionDecodeError::WordCount {
                tasks: 4,
                expected: 1,
                actual: 2
            }
        ));
    }

    #[test]
    fn from_words_refuses_corruption() {
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        let mut words = d.packed_words().to_vec();

        // Invalid cube code 100 in an off-diagonal cell (cell 2).
        words[0] |= 0b100 << (BITS_PER_CELL * 2);
        assert!(matches!(
            DependencyFunction::from_words(3, words.clone()).unwrap_err(),
            FunctionDecodeError::InvalidCell { index: 2 }
        ));

        // Non-parallel diagonal (cell 4 is (1,1)).
        let mut words = d.packed_words().to_vec();
        words[0] |= 0b011 << (BITS_PER_CELL * 4);
        assert!(matches!(
            DependencyFunction::from_words(3, words.clone()).unwrap_err(),
            FunctionDecodeError::DiagonalNotParallel { task: 1 }
        ));

        // Padding bit past the 9 cells of a 3-task matrix.
        let mut words = d.packed_words().to_vec();
        words[0] |= 1 << (BITS_PER_CELL * 10);
        assert!(matches!(
            DependencyFunction::from_words(3, words).unwrap_err(),
            FunctionDecodeError::DirtyPadding { word: 0 }
        ));
    }

    #[test]
    fn decode_errors_display() {
        let err = FunctionDecodeError::WordCount {
            tasks: 4,
            expected: 1,
            actual: 2,
        };
        assert!(err.to_string().contains("4 task(s) need 1"));
        assert!(FunctionDecodeError::InvalidCell { index: 7 }
            .to_string()
            .contains("cell 7"));
    }

    #[test]
    fn packed_store_spans_word_boundaries_cleanly() {
        // 5 tasks → 25 cells → crosses the 21-cell word boundary; write and
        // read back every cell with a rotating pattern.
        use crate::value::ALL_VALUES;
        let n = 5;
        let mut d = DependencyFunction::bottom(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d.set(t(i), t(j), ALL_VALUES[(i * n + j) % ALL_VALUES.len()]);
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j {
                    V::Parallel
                } else {
                    ALL_VALUES[(i * n + j) % ALL_VALUES.len()]
                };
                assert_eq!(d.value(t(i), t(j)), expect, "cell ({i},{j})");
            }
        }
        // Weight agrees with a scalar accumulation over the same cells.
        let scalar: u64 = d.ordered_pairs().map(|(_, _, v)| v.distance()).sum();
        assert_eq!(d.weight(), scalar);
    }
}
