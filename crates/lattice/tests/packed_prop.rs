//! Property-based equivalence of the packed word-parallel kernels against
//! the scalar [`DependencyValue`] table operations.
//!
//! [`DependencyFunction`] now stores 3-bit cells packed into `u64` words
//! and implements `leq`/`join`/`meet`/`weight`/`lattice_distance` as word
//! kernels (`bbmg_lattice::packed`). These tests pin each matrix-level
//! operation to a scalar reference computed cell by cell with the original
//! table-driven `DependencyValue` operations, over random matrices sized to
//! straddle word boundaries (n = 3 → 9 cells, n = 5 → 25, n = 9 → 81). The
//! execution-weakening kernel is pinned to the learner's original scalar
//! per-cell rule the same way.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bbmg_lattice::{packed, DependencyFunction, DependencyValue, TaskId, TaskSet, ALL_VALUES};
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

/// Scalar reference: cell-wise comparison through the public accessors.
fn scalar_leq(a: &DependencyFunction, b: &DependencyFunction) -> bool {
    a.ordered_pairs()
        .zip(b.ordered_pairs())
        .all(|((_, _, va), (_, _, vb))| va.leq(vb))
}

fn scalar_weight(a: &DependencyFunction) -> u64 {
    a.ordered_pairs().map(|(_, _, v)| v.distance()).sum()
}

fn hash_of(d: &DependencyFunction) -> u64 {
    let mut h = DefaultHasher::new();
    d.hash(&mut h);
    h.finish()
}

/// The scalar execution-weakening rule: for every executed `t1` and
/// non-executed `t2 ≠ t1`, an unconditional claim `d(t1, t2)` weakens one
/// step (`→` to `→?`, `←` to `←?`, `↔` to `↔?`).
fn scalar_weaken(d: &DependencyFunction, executed: &TaskSet) -> DependencyFunction {
    let n = d.task_count();
    let mut out = d.clone();
    for i in 0..n {
        let t1 = TaskId::from_index(i);
        if !executed.contains(t1) {
            continue;
        }
        for j in 0..n {
            let t2 = TaskId::from_index(j);
            if i == j || executed.contains(t2) {
                continue;
            }
            let weakened = match out.value(t1, t2) {
                DependencyValue::Determines => DependencyValue::MayDetermine,
                DependencyValue::DependsOn => DependencyValue::MayDependOn,
                DependencyValue::Mutual => DependencyValue::MayMutual,
                other => other,
            };
            out.set(t1, t2, weakened);
        }
    }
    out
}

/// A random function plus a random executed subset of its universe.
fn function_and_executed() -> impl Strategy<Value = (DependencyFunction, TaskSet)> {
    prop::sample::select(vec![3usize, 5, 9]).prop_flat_map(|n| {
        (
            function_strategy(n),
            prop::collection::vec(any::<bool>(), n).prop_map(move |ran| {
                TaskSet::from_ids(n, (0..n).filter(|&i| ran[i]).map(TaskId::from_index))
            }),
        )
    })
}

/// A same-size pair of random functions, sized to straddle word
/// boundaries (9, 25, or 81 cells).
fn function_pairs() -> impl Strategy<Value = (DependencyFunction, DependencyFunction)> {
    prop::sample::select(vec![3usize, 5, 9])
        .prop_flat_map(|n| (function_strategy(n), function_strategy(n)))
}

proptest! {
    #[test]
    fn packed_leq_matches_scalar(
        (a, b) in function_pairs()
    ) {
        prop_assert_eq!(a.leq(&b), scalar_leq(&a, &b));
        prop_assert_eq!(b.leq(&a), scalar_leq(&b, &a));
        prop_assert!(a.leq(&a));
    }

    #[test]
    fn packed_join_meet_match_scalar(
        (a, b) in function_pairs()
    ) {
        let join = a.join(&b);
        let meet = a.meet(&b);
        for ((t1, t2, va), (_, _, vb)) in a.ordered_pairs().zip(b.ordered_pairs()) {
            prop_assert_eq!(join.value(t1, t2), va.join(vb), "join at ({:?},{:?})", t1, t2);
            prop_assert_eq!(meet.value(t1, t2), va.meet(vb), "meet at ({:?},{:?})", t1, t2);
        }
    }

    #[test]
    fn packed_weight_and_distance_match_scalar(
        (a, b) in function_pairs()
    ) {
        prop_assert_eq!(a.weight(), scalar_weight(&a));
        let scalar_distance: u64 = a
            .ordered_pairs()
            .zip(b.ordered_pairs())
            .map(|((_, _, va), (_, _, vb))| va.join(vb).distance() - va.meet(vb).distance())
            .sum();
        prop_assert_eq!(a.lattice_distance(&b), scalar_distance);
    }

    #[test]
    fn eq_hash_fingerprint_cohere(
        (a, b) in function_pairs()
    ) {
        // Equality is cell-wise equality…
        let cells_equal = a
            .ordered_pairs()
            .zip(b.ordered_pairs())
            .all(|((_, _, va), (_, _, vb))| va == vb);
        prop_assert_eq!(a == b, cells_equal);
        // …and Hash/fingerprint respect it (a rebuilt copy hashes the same;
        // inequality implies distinct fingerprints in practice — the
        // strategy space is far too small to hit a 2⁻⁶⁴ collision).
        let rebuilt = a.clone();
        prop_assert_eq!(hash_of(&a), hash_of(&rebuilt));
        prop_assert_eq!(a.fingerprint(), rebuilt.fingerprint());
        if a != b {
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        } else {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }

    #[test]
    fn weaken_kernel_matches_scalar_rule(
        (d, executed) in function_and_executed()
    ) {
        let mask = packed::weakening_mask(&executed);
        let words: Vec<u64> = d
            .packed_words()
            .iter()
            .zip(&mask)
            .map(|(&w, &m)| packed::word_weaken(w, m))
            .collect();
        let weakened = DependencyFunction::from_words(d.task_count(), words)
            .expect("weakening keeps the store valid");
        prop_assert_eq!(weakened, scalar_weaken(&d, &executed));
    }

    #[test]
    fn word_kernels_match_tables_on_random_words(
        cells_a in prop::collection::vec(value_strategy(), packed::CELLS_PER_WORD),
        cells_b in prop::collection::vec(value_strategy(), packed::CELLS_PER_WORD),
    ) {
        let pack = |cells: &[DependencyValue]| -> u64 {
            cells
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &v)| w | (packed::encode(v) << (packed::BITS_PER_CELL * i)))
        };
        let wa = pack(&cells_a);
        let wb = pack(&cells_b);
        let scalar_leq_all = cells_a.iter().zip(&cells_b).all(|(&x, &y)| x.leq(y));
        prop_assert_eq!(packed::word_leq(wa, wb), scalar_leq_all);
        for (i, (&x, &y)) in cells_a.iter().zip(&cells_b).enumerate() {
            let shift = packed::BITS_PER_CELL * i;
            prop_assert_eq!(packed::decode(packed::word_join(wa, wb) >> shift), x.join(y));
            prop_assert_eq!(packed::decode(packed::word_meet(wa, wb) >> shift), x.meet(y));
        }
        let scalar_w: u64 = cells_a.iter().map(|v| v.distance()).sum();
        prop_assert_eq!(packed::word_weight(wa), scalar_w);
    }
}
