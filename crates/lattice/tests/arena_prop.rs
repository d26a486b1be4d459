//! Property-based equivalence of the [`FunctionArena`] batched kernels
//! against the per-hypothesis packed kernels.
//!
//! The arena packs whole sets of dependency functions into one contiguous
//! word buffer with cached weight/fingerprint columns, and answers
//! set-level queries (`leq`, `dominated_in_prefix`, `join_all`,
//! `push_unique`) as batched sweeps over adjacent words. Each batched
//! kernel must agree exactly with the per-function packed operations on
//! individually held [`DependencyFunction`]s — over random sets sized to
//! straddle word boundaries (n = 3 → 9 cells, n = 5 → 25, n = 9 → 81)
//! and random set cardinalities.
//!
//! The learner's row kernels are pinned the same way: the per-row pair
//! set (assume, test, union, intersection, clear) against a `BTreeSet`
//! model at 7, 8 and 9 tasks (49, 64 and 81 bits straddle a word), a
//! child row against `join_value` on the parent function with its
//! incrementally updated weight against a recomputed `weight()`, and a
//! merge row against `join`, including its deferred fingerprint.

use std::collections::BTreeSet;

use bbmg_lattice::{DependencyFunction, DependencyValue, FunctionArena, TaskId, ALL_VALUES};
use proptest::prelude::*;

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

/// Chains children from a bottom root, one per pair, returning the last
/// row (the root if `pairs` is empty).
fn assume_all(arena: &mut FunctionArena, pairs: &[(usize, usize)]) -> usize {
    let mut row = arena.push(&DependencyFunction::bottom(arena.task_count()));
    for &(s, r) in pairs {
        let parent = arena.clone();
        row = arena.push_child(
            &parent,
            row,
            TaskId::from_index(s),
            TaskId::from_index(r),
            DependencyValue::Determines,
            DependencyValue::DependsOn,
        );
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
fn function_and_cell() -> impl Strategy<Value = ChildCase> {
    prop::sample::select(vec![3usize, 5, 7, 9]).prop_flat_map(|n| {
        (
            function_strategy(n),
            (0..n, 1..n).prop_map(move |(s, k)| (s, (s + k) % n)),
            value_strategy(),
            value_strategy(),
        )
    })
}

proptest! {
    #[test]
    fn pair_sets_match_a_btreeset_model(
        (n, left, right) in pair_list_pairs()
    ) {
        let mut arena = FunctionArena::with_pair_sets(n);
        let a = assume_all(&mut arena, &left);
        let b = assume_all(&mut arena, &right);
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

            // The merged row's deferred fingerprint is the one an equal
            // pushed row gets, and once indexed it catches that row.
            let mut fresh = arena.empty_like();
            let same = fresh.push(&expected);
            prop_assert_eq!(arena.fingerprint(merged), fresh.fingerprint(same));
            prop_assert_eq!(arena.index_last(), Ok(merged));
            prop_assert_eq!(arena.push_unique(&expected), Err(merged));
        }
    }

    #[test]
    fn arena_round_trips_functions_weights_and_fingerprints(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        prop_assert_eq!(arena.len(), set.len());
        prop_assert_eq!(arena.total_words(), set.len() * set[0].packed_words().len());
        for (i, d) in set.iter().enumerate() {
            prop_assert_eq!(&arena.get(i), d, "row {} round trip", i);
            prop_assert_eq!(arena.row(i), d.packed_words(), "row {} words", i);
            prop_assert_eq!(arena.weight(i), d.weight(), "row {} cached weight", i);
            prop_assert_eq!(arena.fingerprint(i), d.fingerprint(), "row {} fingerprint", i);
        }
        prop_assert_eq!(
            arena.total_weight(),
            set.iter().map(DependencyFunction::weight).sum::<u64>()
        );
    }

    #[test]
    fn batched_leq_matches_per_function_leq(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        for i in 0..set.len() {
            for j in 0..set.len() {
                prop_assert_eq!(
                    arena.leq(i, j),
                    set[i].leq(&set[j]),
                    "leq({}, {})", i, j
                );
            }
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
        let arena = FunctionArena::from_functions(sorted[0].task_count(), sorted.iter());
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
    fn batched_join_all_matches_fold_of_joins(
        set in function_sets()
    ) {
        let arena = FunctionArena::from_functions(set[0].task_count(), set.iter());
        let mut iter = set.iter();
        let first = iter.next().expect("sets are nonempty").clone();
        let scalar = iter.fold(first, |acc, d| acc.join(d));
        prop_assert_eq!(arena.join_all(), Some(scalar));
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
}
