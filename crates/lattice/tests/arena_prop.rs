//! Property-based equivalence of the [`FunctionArena`] batched kernels
//! against the per-hypothesis packed kernels.
//!
//! The arena packs whole sets of dependency functions into one contiguous
//! word buffer with cached weight/row-hash columns, and answers
//! set-level queries (`leq`, `dominated_in_prefix`, `push_unique`) as
//! batched sweeps over adjacent words. Each batched kernel must agree
//! exactly with the per-function packed operations on individually held
//! [`DependencyFunction`]s — over random sets sized to
//! straddle word boundaries (n = 3 → 9 cells, n = 5 → 25, n = 9 → 81)
//! and random set cardinalities.
//!
//! The learner's row kernels are pinned the same way: the per-row pair
//! set (assume, test, union, intersection, clear) against a `BTreeSet`
//! model at 7, 8 and 9 tasks (49, 64 and 81 bits straddle a word), a
//! child row against `join_value` on the parent function with its
//! incrementally updated weight against a recomputed `weight()`, and a
//! merge row against `join`, including its fingerprint and deferred
//! row hash. A merge's weight is its first row's plus the change in the
//! words the second row adds bits to, so merges that change no word and
//! merges that change every word are checked on their own, and
//! `distinct_rows` is checked against a linear first-occurrence scan.
//!
//! The row hash the dedup index keys on is pinned through
//! [`FunctionArena::first_stale_row`], which recomputes every cached
//! weight and row hash from the words: children derive theirs from the
//! parent in O(1) at 7, 8, 9 and 18 tasks (pair sets included, shared
//! cell words and unchanged words among them), copied merges and
//! weakened or cleared rows carry current ones, and equal rows built by
//! different paths dedup against each other, so they hash equal. The
//! exhaustive single-cell sweep at 7 tasks sits beside the private hash
//! in `arena.rs`.

use std::collections::BTreeSet;

use bbmg_lattice::packed::weakening_mask;
use bbmg_lattice::{
    DependencyFunction, DependencyValue, FunctionArena, TaskId, TaskSet, ALL_VALUES,
};
use proptest::prelude::*;

fn t(i: usize) -> TaskId {
    TaskId::from_index(i)
}

fn value_strategy() -> impl Strategy<Value = DependencyValue> {
    prop::sample::select(ALL_VALUES.to_vec())
}

/// A random dependency function over `n` tasks.
fn function_strategy(n: usize) -> impl Strategy<Value = DependencyFunction> {
    prop::collection::vec(value_strategy(), n * n).prop_map(move |values| {
        let mut d = DependencyFunction::bottom(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    d.set(
                        TaskId::from_index(i),
                        TaskId::from_index(j),
                        values[i * n + j],
                    );
                }
            }
        }
        d
    })
}

/// A random same-universe set of 1–8 functions, universe sized to
/// straddle word boundaries.
fn function_sets() -> impl Strategy<Value = Vec<DependencyFunction>> {
    prop::sample::select(vec![3usize, 5, 9])
        .prop_flat_map(|n| prop::collection::vec(function_strategy(n), 1..=8))
}

/// Ordered `(sender, receiver)` task-index pairs.
type Pairs = Vec<(usize, usize)>;

/// Random ordered pairs of distinct tasks over `n` tasks.
fn pair_lists(n: usize) -> impl Strategy<Value = Pairs> {
    prop::collection::vec((0..n, 1..n), 0..=12)
        .prop_map(move |pairs| pairs.into_iter().map(|(s, k)| (s, (s + k) % n)).collect())
}

/// A universe of 7, 8 or 9 tasks and two random pair lists over it.
fn pair_list_pairs() -> impl Strategy<Value = (usize, Pairs, Pairs)> {
    prop::sample::select(vec![7usize, 8, 9])
        .prop_flat_map(|n| (Just(n), pair_lists(n), pair_lists(n)))
}

/// A message's joins: `→` forward and `←` backward.
const MESSAGE: (DependencyValue, DependencyValue) =
    (DependencyValue::Determines, DependencyValue::DependsOn);

/// `‖` joins, which set a pair bit and leave the function as it is.
const PAIR_ONLY: (DependencyValue, DependencyValue) =
    (DependencyValue::Parallel, DependencyValue::Parallel);

/// Pushes `root` and chains children from it, one per pair, each joining
/// `(forward, backward)`; returns the last row (the root if `pairs` is
/// empty).
fn assume_all(
    arena: &mut FunctionArena,
    root: &DependencyFunction,
    pairs: &[(usize, usize)],
    (forward, backward): (DependencyValue, DependencyValue),
) -> usize {
    let mut row = arena.push(root);
    for &(s, r) in pairs {
        let parent = arena.clone();
        row = arena.push_child(&parent, row, t(s), t(r), forward, backward);
    }
    row
}

/// Every `(s, r)` pair's membership in row `row`'s pair set.
fn members(arena: &FunctionArena, row: usize) -> BTreeSet<(usize, usize)> {
    let n = arena.task_count();
    (0..n)
        .flat_map(|s| (0..n).map(move |r| (s, r)))
        .filter(|&(s, r)| arena.has_pair(row, TaskId::from_index(s), TaskId::from_index(r)))
        .collect()
}

/// A parent function, an off-diagonal `(sender, receiver)` cell, and the
/// forward and backward values to join in.
type ChildCase = (
    DependencyFunction,
    (usize, usize),
    DependencyValue,
    DependencyValue,
);

/// A random function over `n` tasks with a random off-diagonal cell and
/// two random join values.
fn child_case(n: usize) -> impl Strategy<Value = ChildCase> {
    (
        function_strategy(n),
        (0..n, 1..n).prop_map(move |(s, k)| (s, (s + k) % n)),
        value_strategy(),
        value_strategy(),
    )
}

/// [`child_case`] over 3, 5, 7 or 9 tasks.
fn function_and_cell() -> impl Strategy<Value = ChildCase> {
    prop::sample::select(vec![3usize, 5, 7, 9]).prop_flat_map(child_case)
}

/// [`child_case`] over 7, 8, 9 or 18 tasks (pair sets of 49, 64, 81 and
/// 324 bits), plus the pairs the parent row has already assumed.
fn hash_case() -> impl Strategy<Value = (ChildCase, Pairs)> {
    prop::sample::select(vec![7usize, 8, 9, 18]).prop_flat_map(|n| (child_case(n), pair_lists(n)))
}

/// Two random functions over 7, 8, 9 or 18 tasks, the pairs each row has
/// assumed, and which tasks executed.
fn merge_case() -> impl Strategy<
    Value = (
        DependencyFunction,
        DependencyFunction,
        Pairs,
        Pairs,
        Vec<bool>,
    ),
> {
    prop::sample::select(vec![7usize, 8, 9, 18]).prop_flat_map(|n| {
        (
            function_strategy(n),
            function_strategy(n),
            pair_lists(n),
            pair_lists(n),
            prop::collection::vec(any::<bool>(), n),
        )
    })
}

/// Two functions over 3, 5, 7, 9 or 18 tasks such that the second one has
/// a bit the first lacks in every function word that holds an
/// off-diagonal cell: one such cell per word is `‖` in the first and `→`
/// in the second.
fn every_word_differs() -> impl Strategy<Value = (DependencyFunction, DependencyFunction)> {
    prop::sample::select(vec![3usize, 5, 7, 9, 18])
        .prop_flat_map(|n| (function_strategy(n), function_strategy(n)))
        .prop_map(|(mut a, mut b)| {
            let n = a.task_count();
            for cell in first_off_diagonal_cell_per_word(n) {
                let (s, r) = (t(cell / n), t(cell % n));
                a.set(s, r, DependencyValue::Parallel);
                b.set(s, r, DependencyValue::Determines);
            }
            (a, b)
        })
}

/// The first off-diagonal cell of each packed word that has one.
fn first_off_diagonal_cell_per_word(n: usize) -> Vec<usize> {
    (0..DependencyFunction::words_per_function(n))
        .filter_map(|word| (word * 21..((word + 1) * 21).min(n * n)).find(|c| c / n != c % n))
        .collect()
}

/// A plain arena holding every function of `set`, in order.
fn arena_of(set: &[DependencyFunction]) -> FunctionArena {
    let mut arena = FunctionArena::new(set[0].task_count());
    for d in set {
        arena.push(d);
    }
    arena
}

/// A linear-scan model of [`FunctionArena::distinct_rows`]: the rows
/// whose function words and pair set equal no earlier row's.
fn first_occurrences(arena: &FunctionArena) -> Vec<usize> {
    let whole = |i: usize| (arena.row(i).to_vec(), arena.pairs(i).to_vec());
    (0..arena.len())
        .filter(|&i| (0..i).all(|j| whole(j) != whole(i)))
        .collect()
}

proptest! {
    #[test]
    fn merges_that_change_no_word_keep_the_first_rows_weight(
        (c, d, left, right, _) in merge_case(),
        union in any::<bool>(),
    ) {
        // b ⊑ a word-wise: the merge is a's function, and no word is
        // re-weighed.
        let a = c.join(&d);
        let mut arena = FunctionArena::with_pair_sets(a.task_count());
        let ia = assume_all(&mut arena, &a, &left, PAIR_ONLY);
        let ib = assume_all(&mut arena, &c, &right, PAIR_ONLY);
        let merged = arena.push_merge(ia, ib, union);
        prop_assert_eq!(arena.row(merged), a.packed_words());
        prop_assert_eq!(arena.weight(merged), a.weight());
        prop_assert_eq!(arena.first_stale_row(), None);
    }

    #[test]
    fn merges_that_change_every_word_reweigh_each_one(
        (a, b) in every_word_differs(),
        union in any::<bool>(),
    ) {
        let mut arena = FunctionArena::with_pair_sets(a.task_count());
        let ia = arena.push(&a);
        let ib = arena.push(&b);
        let merged = arena.push_merge(ia, ib, union);
        let expected = a.join(&b);
        for word in first_off_diagonal_cell_per_word(a.task_count()).iter().map(|c| c / 21) {
            prop_assert_ne!(arena.row(merged)[word], a.packed_words()[word], "word {}", word);
        }
        prop_assert_eq!(&arena.get(merged), &expected);
        prop_assert_eq!(arena.weight(merged), expected.weight());
        prop_assert_eq!(arena.first_stale_row(), None);
    }

    #[test]
    fn distinct_rows_keeps_first_occurrences(
        (n, left, right) in pair_list_pairs(),
        picks in prop::collection::vec((0..4usize, any::<bool>()), 1..=16),
    ) {
        // Rows drawn from two functions and two pair lists, so exact
        // repeats are common and equal functions with different pair
        // sets are too.
        let mut c = DependencyFunction::bottom(n);
        c.set(t(0), t(1), DependencyValue::Determines);
        let functions = [DependencyFunction::bottom(n), c];
        let mut source = FunctionArena::with_pair_sets(n);
        let built: Vec<usize> = (0..4)
            .map(|k| {
                let pairs = if k % 2 == 0 { &left } else { &right };
                assume_all(&mut source, &functions[k / 2], pairs, PAIR_ONLY)
            })
            .collect();
        let mut arena = source.empty_like();
        for &(k, merged) in &picks {
            if merged {
                // A self-merge carries a deferred row hash into the store.
                let row = source.push_merge(built[k], built[k], false);
                arena.push_copy(&source, row);
            } else {
                arena.push_copy(&source, built[k]);
            }
        }
        let mut distinct = vec![usize::MAX];
        arena.distinct_rows(&mut distinct);
        prop_assert_eq!(&distinct, &first_occurrences(&arena));
        // The listed rows are now the dedup index: every row finds its
        // first occurrence.
        for i in 0..arena.len() {
            let first = first_occurrences(&arena).into_iter().find(|&j| {
                arena.row(j) == arena.row(i) && arena.pairs(j) == arena.pairs(i)
            });
            arena.push_copy(&arena.clone(), i);
            prop_assert_eq!(arena.index_last().err(), first);
        }
        // A second call rebuilds the same index.
        arena.distinct_rows(&mut distinct);
        prop_assert_eq!(&distinct, &first_occurrences(&arena));
    }

    #[test]
    fn pair_sets_match_a_btreeset_model(
        (n, left, right) in pair_list_pairs()
    ) {
        let mut arena = FunctionArena::with_pair_sets(n);
        let bottom = DependencyFunction::bottom(n);
        let a = assume_all(&mut arena, &bottom, &left, MESSAGE);
        let b = assume_all(&mut arena, &bottom, &right, MESSAGE);
        let model_a: BTreeSet<(usize, usize)> = left.iter().copied().collect();
        let model_b: BTreeSet<(usize, usize)> = right.iter().copied().collect();
        prop_assert_eq!(&members(&arena, a), &model_a);
        prop_assert_eq!(&members(&arena, b), &model_b);

        let meet = arena.push_merge(a, b, false);
        let join = arena.push_merge(a, b, true);
        prop_assert_eq!(
            members(&arena, meet),
            model_a.intersection(&model_b).copied().collect::<BTreeSet<_>>()
        );
        prop_assert_eq!(
            members(&arena, join),
            model_a.union(&model_b).copied().collect::<BTreeSet<_>>()
        );

        let functions: Vec<DependencyFunction> = (0..arena.len()).map(|i| arena.get(i)).collect();
        arena.clear_pairs();
        for (i, d) in functions.iter().enumerate() {
            prop_assert!(members(&arena, i).is_empty(), "row {} still has pairs", i);
            prop_assert_eq!(&arena.get(i), d, "clearing pairs kept row {}'s function", i);
        }
    }

    #[test]
    fn child_rows_match_join_value_and_weight(
        (d, (s, r), forward, backward) in function_and_cell()
    ) {
        let (sender, receiver) = (TaskId::from_index(s), TaskId::from_index(r));
        let mut parents = FunctionArena::with_pair_sets(d.task_count());
        let parent = parents.push(&d);
        let mut children = parents.empty_like();
        let child = children.push_child(&parents, parent, sender, receiver, forward, backward);

        let mut expected = d.clone();
        expected.join_value(sender, receiver, forward);
        expected.join_value(receiver, sender, backward);
        prop_assert_eq!(&children.get(child), &expected);
        prop_assert_eq!(children.weight(child), expected.weight());
        prop_assert!(children.has_pair(child, sender, receiver));
        prop_assert_eq!(children.pairs(child).iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn merge_rows_match_join(
        (a, b) in prop::sample::select(vec![3usize, 5, 9])
            .prop_flat_map(|n| (function_strategy(n), function_strategy(n)))
    ) {
        for mut arena in [
            FunctionArena::new(a.task_count()),
            FunctionArena::with_pair_sets(a.task_count()),
        ] {
            let ia = arena.push(&a);
            let ib = arena.push(&b);
            let merged = arena.push_merge(ia, ib, false);
            let expected = a.join(&b);
            prop_assert_eq!(&arena.get(merged), &expected);
            prop_assert_eq!(arena.weight(merged), expected.weight());

            // Once indexed, which computes its deferred row hash, the
            // merged row catches an equal pushed row.
            prop_assert_eq!(arena.index_last(), Ok(merged));
            prop_assert_eq!(arena.push_unique(&expected), Err(merged));
        }
    }

    #[test]
    fn arena_round_trips_functions_and_weights(
        set in function_sets()
    ) {
        let arena = arena_of(&set);
        prop_assert_eq!(arena.len(), set.len());
        prop_assert_eq!(arena.total_words(), set.len() * set[0].packed_words().len());
        for (i, d) in set.iter().enumerate() {
            prop_assert_eq!(&arena.get(i), d, "row {} round trip", i);
            prop_assert_eq!(arena.row(i), d.packed_words(), "row {} words", i);
            prop_assert_eq!(arena.weight(i), d.weight(), "row {} cached weight", i);
        }
    }

    #[test]
    fn batched_domination_matches_scalar_prefix_scan(
        set in function_sets()
    ) {
        // The learner's usage pattern: weight-sorted set, each entry
        // probed against its strictly-lighter prefix.
        let mut sorted = set;
        sorted.sort_by_key(DependencyFunction::weight);
        let arena = arena_of(&sorted);
        let weights: Vec<u64> = sorted.iter().map(DependencyFunction::weight).collect();
        for i in 0..sorted.len() {
            let prefix = weights.partition_point(|&w| w < weights[i]);
            let scalar = sorted[..prefix].iter().any(|other| other.leq(&sorted[i]));
            prop_assert_eq!(
                arena.dominated_in_prefix(i, prefix),
                scalar,
                "dominated_in_prefix({}, {})", i, prefix
            );
        }
    }

    #[test]
    fn push_unique_matches_linear_scan_dedup(
        set in function_sets()
    ) {
        let tasks = set[0].task_count();
        let mut arena = FunctionArena::new(tasks);
        let mut reference: Vec<DependencyFunction> = Vec::new();
        for d in &set {
            let scalar = reference.iter().position(|seen| seen == d);
            match (arena.push_unique(d), scalar) {
                (Ok(idx), None) => {
                    prop_assert_eq!(idx, reference.len(), "fresh row lands at the end");
                    reference.push(d.clone());
                }
                (Err(existing), Some(at)) => {
                    prop_assert_eq!(existing, at, "duplicate maps to first occurrence");
                }
                (got, want) => {
                    prop_assert!(
                        false,
                        "push_unique disagreed with linear scan: {:?} vs {:?}",
                        got,
                        want
                    );
                }
            }
        }
        prop_assert_eq!(arena.len(), reference.len());
    }

    #[test]
    fn child_rows_carry_the_recomputed_row_hash(
        ((d, (s, r), forward, backward), pairs) in hash_case()
    ) {
        let mut parents = FunctionArena::with_pair_sets(d.task_count());
        let parent = assume_all(&mut parents, &d, &pairs, PAIR_ONLY);
        prop_assert_eq!(parents.first_stale_row(), None);

        let mut children = parents.empty_like();
        let child = children.push_child(&parents, parent, t(s), t(r), forward, backward);
        // Re-joining the parent's own values leaves both cell words as
        // they are; only the pair word can move.
        let (own_forward, own_backward) = (d.value(t(s), t(r)), d.value(t(r), t(s)));
        children.push_child(&parents, parent, t(s), t(r), own_forward, own_backward);
        prop_assert_eq!(children.first_stale_row(), None);

        // A grandchild derives its hash from a derived hash.
        let mut grandchildren = children.empty_like();
        grandchildren.push_child(&children, child, t(r), t(s), backward, forward);
        prop_assert_eq!(grandchildren.first_stale_row(), None);
    }

    #[test]
    fn merged_copies_and_refreshed_rows_carry_current_hashes(
        (a, b, left, right, executed) in merge_case(),
        union in any::<bool>(),
    ) {
        let n = a.task_count();
        let mut arena = FunctionArena::with_pair_sets(n);
        let ia = assume_all(&mut arena, &a, &left, PAIR_ONLY);
        let ib = assume_all(&mut arena, &b, &right, PAIR_ONLY);
        let merged = arena.push_merge(ia, ib, union);

        let mut next = arena.empty_like();
        let copy = next.push_copy(&arena, merged);
        prop_assert_eq!(next.first_stale_row(), None);
        prop_assert_eq!(next.get(copy), a.join(&b));

        let executed = TaskSet::from_ids(n, (0..n).filter(|&i| executed[i]).map(t));
        arena.weaken(&weakening_mask(&executed));
        prop_assert_eq!(arena.first_stale_row(), None);
        arena.clear_pairs();
        prop_assert_eq!(arena.first_stale_row(), None);
    }

    #[test]
    fn equal_rows_built_by_different_paths_hash_equal(
        ((d, (s, r), forward, backward), pairs) in hash_case()
    ) {
        let mut parents = FunctionArena::with_pair_sets(d.task_count());
        let parent = assume_all(&mut parents, &d, &pairs, PAIR_ONLY);
        let mut rows = parents.empty_like();
        let child = rows.push_child(&parents, parent, t(s), t(r), forward, backward);
        prop_assert_eq!(rows.index_last(), Ok(child));

        // The same function and pair set from a plain push; the index is
        // hash-first, so finding the child means the hashes agree.
        let mut all_pairs = pairs;
        all_pairs.push((s, r));
        let mut rebuilt = parents.empty_like();
        let pushed = assume_all(&mut rebuilt, &rows.get(child), &all_pairs, PAIR_ONLY);
        rows.push_copy(&rebuilt, pushed);
        prop_assert_eq!(rows.index_last(), Err(child));

        // And from a merge of that row with itself, hashed on copy.
        let merged = rebuilt.push_merge(pushed, pushed, false);
        rows.push_copy(&rebuilt, merged);
        prop_assert_eq!(rows.index_last(), Err(child));
    }
}

/// Every off-diagonal cell of a 7-task row, under every pair of join
/// values: forward and backward cells share a word for the pairs inside
/// one 21-cell block, and `‖` joins leave the cell words unchanged.
#[test]
fn every_seven_task_child_carries_the_recomputed_row_hash() {
    let mut d = DependencyFunction::bottom(7);
    for s in 0..7 {
        for r in 0..7 {
            if s != r && (s + 2 * r) % 3 == 0 {
                d.set(t(s), t(r), ALL_VALUES[(s * 7 + r) % ALL_VALUES.len()]);
            }
        }
    }
    let mut parents = FunctionArena::with_pair_sets(7);
    let parent = assume_all(&mut parents, &d, &[(2, 5), (6, 0)], PAIR_ONLY);
    let mut children = parents.empty_like();
    for s in 0..7 {
        for r in (0..7).filter(|&r| r != s) {
            for forward in ALL_VALUES {
                for backward in ALL_VALUES {
                    children.clear();
                    children.push_child(&parents, parent, t(s), t(r), forward, backward);
                    assert_eq!(
                        children.first_stale_row(),
                        None,
                        "({s}, {r}) joining {forward} / {backward}"
                    );
                }
            }
        }
    }
}
