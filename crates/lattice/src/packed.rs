//! Word-parallel kernels for the packed dependency-matrix representation.
//!
//! [`DependencyFunction`](crate::DependencyFunction) stores its `n × n`
//! matrix as a flat bit array of 3-bit cells packed 21 to a `u64` word
//! (63 bits used, the top bit always zero). The cell encoding is chosen so
//! the seven-value lattice embeds into the Boolean cube `2³` ordered by
//! bit inclusion:
//!
//! ```text
//! bit 0 (F): an unconditional or conditional *forward* claim (→ present)
//! bit 1 (B): an unconditional or conditional *backward* claim (← present)
//! bit 2 (Q): the claim is conditional ("may", the ? variants)
//!
//!   ‖ = 000   → = 001   ← = 010   ↔ = 011
//!             →? = 101  ←? = 110  ↔? = 111     (100 is unused)
//! ```
//!
//! Under this encoding the Figure 3 Hasse diagram is exactly the subset
//! order on `{F, B, Q}` restricted to the seven valid codes (`Q` alone is
//! not a value), which turns the per-cell lattice operations the learner
//! hammers into single-instruction word operations:
//!
//! * `a ⊑ b` per cell ⟺ `a & !b == 0` over the word,
//! * `a ⊔ b` = bitwise `a | b` (the OR of two valid codes is valid),
//! * `a ⊓ b` = bitwise `a & b`, followed by clearing `Q` in cells whose
//!   `F` and `B` both cleared (the one invalid code `100` normalizes to
//!   `‖`, which is the correct meet),
//! * `distance(v) = (F + B + Q)²` (0/1/4/9 per paper Definition 7), so a
//!   word's total weight is two popcounts (see [`word_weight`]),
//! * execution weakening (`→` to `→?`, `←` to `←?`, `↔` to `↔?` on the
//!   cells a period selects) sets `Q` wherever `F` or `B` is set under a
//!   per-period cell mask.
//!
//! Every kernel is validated against the scalar [`DependencyValue`] table
//! code by the unit tests below (exhaustive over all 7×7 cell pairs) and
//! by the `packed_prop` property suite at the crate root.

use crate::task::TaskId;
use crate::taskset::TaskSet;
use crate::value::DependencyValue;

/// Bits per matrix cell.
pub const BITS_PER_CELL: usize = 3;

/// Cells per 64-bit word (the top bit stays zero).
pub const CELLS_PER_WORD: usize = 21;

/// Mask selecting one cell's three bits at shift 0.
pub const CELL_MASK: u64 = 0b111;

/// Every cell's `F` (forward) bit: bit 0 of each 3-bit lane.
pub const FORWARD_PLANE: u64 = {
    let mut mask = 0u64;
    let mut i = 0;
    while i < CELLS_PER_WORD {
        mask |= 1 << (BITS_PER_CELL * i);
        i += 1;
    }
    mask
};

/// Every cell's `B` (backward) bit.
pub const BACKWARD_PLANE: u64 = FORWARD_PLANE << 1;

/// Every cell's `Q` ("may") bit.
pub const MAYBE_PLANE: u64 = FORWARD_PLANE << 2;

/// 3-bit cube codes indexed by [`DependencyValue`] discriminant.
const ENCODE: [u64; 7] = [
    0b000, // Parallel
    0b001, // Determines
    0b010, // DependsOn
    0b011, // Mutual
    0b101, // MayDetermine
    0b110, // MayDependOn
    0b111, // MayMutual
];

/// Values indexed by cube code; the unused code `100` maps to `‖` (it
/// never occurs in a well-formed store).
const DECODE: [DependencyValue; 8] = [
    DependencyValue::Parallel,
    DependencyValue::Determines,
    DependencyValue::DependsOn,
    DependencyValue::Mutual,
    DependencyValue::Parallel, // 100: unused
    DependencyValue::MayDetermine,
    DependencyValue::MayDependOn,
    DependencyValue::MayMutual,
];

/// The 3-bit cube code of a lattice value.
#[inline]
#[must_use]
pub fn encode(v: DependencyValue) -> u64 {
    ENCODE[v as usize]
}

/// The lattice value of a 3-bit cube code (low three bits of `code`).
#[inline]
#[must_use]
pub fn decode(code: u64) -> DependencyValue {
    DECODE[(code & CELL_MASK) as usize]
}

/// Whether every cell of `a` is `⊑` the corresponding cell of `b`.
///
/// Bit-inclusion per lane is exactly the lattice order (see the module
/// docs), so one AND-NOT decides 21 cells.
#[inline]
#[must_use]
pub fn word_leq(a: u64, b: u64) -> bool {
    a & !b == 0
}

/// Cell-wise least upper bound of two words.
#[inline]
#[must_use]
pub fn word_join(a: u64, b: u64) -> u64 {
    a | b
}

/// Cell-wise greatest lower bound of two words.
///
/// AND can leave the invalid lone-`Q` code `100` (e.g. `→? ⊓ ←?`); those
/// cells normalize to `‖`, which is the correct meet.
#[inline]
#[must_use]
pub fn word_meet(a: u64, b: u64) -> u64 {
    let m = a & b;
    // `F | B` of each cell, in the F position; a cell may keep its Q bit
    // only if at least one directional bit survived.
    let directional = (m | (m >> 1)) & FORWARD_PLANE;
    m & (!MAYBE_PLANE | (directional << 2))
}

/// Sum of per-cell distances (paper Definition 7) over one word.
///
/// With `s = F + B + Q` bits set in a cell, the distance is `s²`
/// (`‖`→0, `→`/`←`→1, `↔`/`→?`/`←?`→4, `↔?`→9), and
/// `s² = s + 2(FB + FQ + BQ)`. The singles are one popcount of the whole
/// word. With the three planes shifted into the `F` lane, the pair terms
/// `FB`, `FQ << 1` and `BQ << 2` land in disjoint lanes, so one more
/// popcount counts all three.
#[inline]
#[must_use]
pub fn word_weight(w: u64) -> u64 {
    let f = w & FORWARD_PLANE;
    let b = (w >> 1) & FORWARD_PLANE;
    let q = (w >> 2) & FORWARD_PLANE;
    let pairs = (f & b) | ((f & q) << 1) | ((b & q) << 2);
    u64::from(w.count_ones()) + 2 * u64::from(pairs.count_ones())
}

/// [`DependencyValue::distance`] indexed by cube code: `(F + B + Q)²`,
/// the per-cell term of [`word_weight`] (the unused code `100` reads 1,
/// as it does there).
pub(crate) const CODE_DISTANCE: [u64; 8] = [0, 1, 1, 4, 1, 4, 4, 9];

/// `Σ distance(a ⊔ b) − distance(a ⊓ b)` over one word's cells — the
/// per-word contribution to
/// [`DependencyFunction::lattice_distance`](crate::DependencyFunction::lattice_distance).
/// Never underflows: the meet is `⊑` the join cell-wise and distance is
/// monotone.
#[inline]
#[must_use]
pub fn word_lattice_distance(a: u64, b: u64) -> u64 {
    word_weight(word_join(a, b)) - word_weight(word_meet(a, b))
}

/// Execution weakening of one word: every cell whose `F` bit is set in
/// `mask` and that holds a directional claim (`F` or `B` set) gains `Q`,
/// turning `→`, `←`, `↔` into `→?`, `←?`, `↔?`. `‖` and the conditional
/// values are fixed points, so the kernel is idempotent.
#[inline]
#[must_use]
pub fn word_weaken(w: u64, mask: u64) -> u64 {
    w | (((w | (w >> 1)) & FORWARD_PLANE & mask) << 2)
}

/// The per-period cell mask for [`word_weaken`] over the packed `n × n`
/// matrix of `executed`'s universe: the `F` bit of every cell `(a, b)`
/// with `a` executed and `b` not. The diagonal is never selected.
#[must_use]
pub fn weakening_mask(executed: &TaskSet) -> Vec<u64> {
    let n = executed.universe();
    let mut mask = vec![0u64; (n * n).div_ceil(CELLS_PER_WORD)];
    for a in executed.iter() {
        for b in 0..n {
            if !executed.contains(TaskId::from_index(b)) {
                let cell = a.index() * n + b;
                mask[cell / CELLS_PER_WORD] |= 1 << (BITS_PER_CELL * (cell % CELLS_PER_WORD));
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ALL_VALUES;

    #[test]
    fn weaken_matches_the_scalar_rule_on_every_value() {
        use DependencyValue as V;
        for v in ALL_VALUES {
            let weakened = match v {
                V::Determines => V::MayDetermine,
                V::DependsOn => V::MayDependOn,
                V::Mutual => V::MayMutual,
                other => other,
            };
            assert_eq!(
                decode(word_weaken(encode(v), FORWARD_PLANE)),
                weakened,
                "{v}"
            );
            assert_eq!(decode(word_weaken(encode(v), 0)), v, "{v} unmasked");
        }
        // Lane independence: only the masked lane moves.
        let both = encode(V::Determines) | (encode(V::Mutual) << BITS_PER_CELL);
        let w = word_weaken(both, 1 << BITS_PER_CELL);
        assert_eq!(decode(w), V::Determines);
        assert_eq!(decode(w >> BITS_PER_CELL), V::MayMutual);
    }

    #[test]
    fn weakening_mask_selects_executed_rows_and_absent_columns() {
        let executed = TaskSet::from_ids(3, [TaskId::from_index(0), TaskId::from_index(2)]);
        let mask = weakening_mask(&executed);
        // Only (0,1) and (2,1): cells 1 and 7.
        assert_eq!(mask, vec![(1 << 3) | (1 << 21)]);
        assert_eq!(weakening_mask(&TaskSet::full(3)), vec![0]);
    }

    #[test]
    fn encode_decode_round_trip() {
        for v in ALL_VALUES {
            assert_eq!(decode(encode(v)), v, "{v}");
            assert!(encode(v) <= CELL_MASK);
        }
        // The one invalid code normalizes to bottom.
        assert_eq!(decode(0b100), DependencyValue::Parallel);
    }

    #[test]
    fn encoding_is_the_cube_order() {
        for a in ALL_VALUES {
            for b in ALL_VALUES {
                let subset = encode(a) & !encode(b) == 0;
                assert_eq!(subset, a.leq(b), "leq({a}, {b})");
            }
        }
    }

    #[test]
    fn word_ops_match_scalar_tables_on_every_cell_pair() {
        // Pack each (a, b) pair into its own lane of one word pair and
        // check all 49 combinations in one go, plus per-pair words.
        for a in ALL_VALUES {
            for b in ALL_VALUES {
                let wa = encode(a);
                let wb = encode(b);
                assert_eq!(word_leq(wa, wb), a.leq(b), "leq({a}, {b})");
                assert_eq!(decode(word_join(wa, wb)), a.join(b), "join({a}, {b})");
                assert_eq!(decode(word_meet(wa, wb)), a.meet(b), "meet({a}, {b})");
                assert_eq!(word_weight(wa), a.distance(), "distance({a})");
            }
        }
    }

    #[test]
    fn word_ops_are_lane_independent() {
        // Fill all 21 lanes with a rotating pattern and compare against
        // the scalar ops lane by lane.
        let pattern = |offset: usize| -> u64 {
            let mut w = 0u64;
            for lane in 0..CELLS_PER_WORD {
                let v = ALL_VALUES[(lane + offset) % ALL_VALUES.len()];
                w |= encode(v) << (BITS_PER_CELL * lane);
            }
            w
        };
        let wa = pattern(0);
        let wb = pattern(3);
        let mut expect_weight = 0;
        for lane in 0..CELLS_PER_WORD {
            let shift = BITS_PER_CELL * lane;
            let a = decode(wa >> shift);
            let b = decode(wb >> shift);
            assert_eq!(decode(word_join(wa, wb) >> shift), a.join(b));
            assert_eq!(decode(word_meet(wa, wb) >> shift), a.meet(b));
            expect_weight += a.distance();
        }
        assert_eq!(word_weight(wa), expect_weight);
        assert!(word_leq(wa, wa));
        assert_eq!(
            word_lattice_distance(wa, wb),
            word_weight(word_join(wa, wb)) - word_weight(word_meet(wa, wb))
        );
    }

    #[test]
    fn code_distance_is_the_weight_of_every_code() {
        for (code, &distance) in CODE_DISTANCE.iter().enumerate() {
            assert_eq!(distance, word_weight(code as u64), "code {code:03b}");
        }
    }

    #[test]
    fn planes_tile_the_word() {
        assert_eq!(FORWARD_PLANE | BACKWARD_PLANE | MAYBE_PLANE, (1 << 63) - 1);
        assert_eq!(FORWARD_PLANE & BACKWARD_PLANE, 0);
        assert_eq!(FORWARD_PLANE.count_ones() as usize, CELLS_PER_WORD);
    }
}
