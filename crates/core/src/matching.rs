//! The declarative matching function `M : H × I → bool` (paper
//! Definition 3).
//!
//! The incremental learner's per-message branching *constructs* matching
//! hypotheses instead of checking them; the declarative form is what the
//! paper's correctness theorem quantifies over and what the test suite
//! validates Theorems 2 and 3 with.
//!
//! For a fixed `d`, strict `M` is a bipartite matching of the period's
//! messages to admissible sender/receiver pairs, so [`explain_period`]
//! decides it by augmenting paths in polynomial time. Theorem 1's
//! NP-hardness is about learning, not about checking `M`.

use bbmg_lattice::{DependencyFunction, DependencyValue, TaskId};
use bbmg_trace::{MessageWindow, Period, Trace};

use crate::witness::Attribution;

/// Whether `d` is consistent with the execution set of `period`: no task
/// that executed makes an unconditional claim (`→`, `←`, `↔`) about a task
/// that did not execute.
#[must_use]
pub fn execution_consistent(d: &DependencyFunction, period: &Period) -> bool {
    let executed = period.executed_tasks();
    let n = d.task_count();
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
            if matches!(
                d.value(t1, t2),
                DependencyValue::Determines | DependencyValue::DependsOn | DependencyValue::Mutual
            ) {
                return false;
            }
        }
    }
    true
}

/// Whether `d` admits a message from `sender` to `receiver`: the implied
/// dependency holds in both directions (`→ ⊑ d(s, r)` and `← ⊑ d(r, s)`).
fn admits(d: &DependencyFunction, sender: TaskId, receiver: TaskId) -> bool {
    d.value(sender, receiver).admits_forward()
        && DependencyValue::DependsOn.leq(d.value(receiver, sender))
}

/// The timing-feasible sender/receiver pairs of `message` that `d`
/// admits, in [`Period::candidate_pairs`] order.
pub(crate) fn admissible_pairs(
    d: &DependencyFunction,
    period: &Period,
    message: &MessageWindow,
) -> Vec<(TaskId, TaskId)> {
    period
        .candidate_pairs(message)
        .into_iter()
        .filter(|&(s, r)| admits(d, s, r))
        .collect()
}

/// Reconstructs one injective witness assignment for every message of
/// `period` under `d`, in message order: each message gets a
/// timing-feasible pair that `d` admits, and no pair is used twice (at
/// most one message per pair per period). `None` if there is none; the
/// function then fails the strict matching function.
///
/// This is the existential witness inside `M`, found by augmenting paths
/// (Kuhn's algorithm): each message in turn takes a free admissible pair
/// or moves the holder of one to another pair along an alternating path.
/// One message's search descends through each pair at most once, so the
/// whole check costs O(messages × admissible message–pair edges).
#[must_use]
pub fn explain_period(d: &DependencyFunction, period: &Period) -> Option<Vec<Attribution>> {
    let messages = period.messages();
    let n = d.task_count();
    // Each message's admissible pairs `(s, r)` as cells `s * n + r`.
    let cells: Vec<Vec<usize>> = messages
        .iter()
        .map(|m| {
            admissible_pairs(d, period, m)
                .into_iter()
                .map(|(s, r)| s.index() * n + r.index())
                .collect()
        })
        .collect();
    // holder[cell]: the message currently assigned the pair.
    let mut holder = vec![None; n * n];
    let mut seen = vec![false; n * n];
    for message in 0..messages.len() {
        seen.fill(false);
        if !augment(message, &cells, &mut holder, &mut seen) {
            return None;
        }
    }
    let mut witness = vec![None; messages.len()];
    for (cell, holder) in holder.into_iter().enumerate() {
        if let Some(i) = holder {
            witness[i] = Some(Attribution {
                message: messages[i].id,
                sender: TaskId::from_index(cell / n),
                receiver: TaskId::from_index(cell % n),
            });
        }
    }
    witness.into_iter().collect()
}

/// Finds `message` a pair: the first free one, else one not yet `seen` in
/// this search whose holder can move on to another (an augmenting path).
/// Taking a free pair first moves no other message, so a period that
/// first-fit explains gets the first-fit witness.
fn augment(
    message: usize,
    cells: &[Vec<usize>],
    holder: &mut [Option<usize>],
    seen: &mut [bool],
) -> bool {
    if let Some(&cell) = cells[message].iter().find(|&&cell| holder[cell].is_none()) {
        holder[cell] = Some(message);
        return true;
    }
    for &cell in &cells[message] {
        if seen[cell] {
            continue;
        }
        seen[cell] = true;
        if holder[cell].is_some_and(|other| augment(other, cells, holder, seen)) {
            holder[cell] = Some(message);
            return true;
        }
    }
    false
}

/// The matching function `M(d, i)`: `d` matches `period` iff it is
/// execution-consistent and every message is explained by an injective
/// assignment of admissible pairs ([`explain_period`]).
#[must_use]
pub fn matches_period(d: &DependencyFunction, period: &Period) -> bool {
    execution_consistent(d, period) && explain_period(d, period).is_some()
}

/// The relaxed matching function: execution consistency plus *per-message*
/// explainability, without the injectivity ("at most one message per
/// sender/receiver pair per period") constraint across messages.
///
/// The paper's prose defines matching per message; the one-message-per-pair
/// rule enters the algorithm as assumption-based pruning. The exact
/// algorithm's output satisfies the strict injective [`matches_period`];
/// the bounded heuristic's merges intentionally summarize several
/// assignment families into one function and can lose the injective
/// witness, so its guarantee is this relaxed form (DESIGN.md §4).
#[must_use]
pub fn matches_period_relaxed(d: &DependencyFunction, period: &Period) -> bool {
    execution_consistent(d, period)
        && period.messages().iter().all(|m| {
            period
                .candidate_pairs(m)
                .into_iter()
                .any(|(s, r)| admits(d, s, r))
        })
}

/// `M(d, I)` for a whole trace: matches every period (paper's lifting of
/// `M` to `P(I)`).
#[must_use]
pub fn matches_trace(d: &DependencyFunction, trace: &Trace) -> bool {
    trace.periods().iter().all(|p| matches_period(d, p))
}

/// Relaxed [`matches_trace`]; see [`matches_period_relaxed`].
#[must_use]
pub fn matches_trace_relaxed(d: &DependencyFunction, trace: &Trace) -> bool {
    trace.periods().iter().all(|p| matches_period_relaxed(d, p))
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::{DependencyValue as V, TaskUniverse};
    use bbmg_trace::{EventKind, Timestamp, TraceBuilder};

    use super::*;

    /// Trace with one period: a [m] b, plus c never executing.
    fn simple_trace() -> Trace {
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let _c = u.intern("c");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        builder.finish()
    }

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn bottom_does_not_match_a_period_with_messages() {
        let trace = simple_trace();
        let d = DependencyFunction::bottom(3);
        // Execution-consistent (no claims at all)…
        assert!(execution_consistent(&d, &trace.periods()[0]));
        // …but cannot explain the message.
        assert!(!matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn correct_hypothesis_matches() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        assert!(matches_period(&d, &trace.periods()[0]));
        assert!(matches_trace(&d, &trace));
    }

    #[test]
    fn top_matches_everything() {
        let trace = simple_trace();
        assert!(matches_trace(&DependencyFunction::top(3), &trace));
    }

    #[test]
    fn unconditional_claim_about_absent_task_fails() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        // Claim: whenever a runs, c runs. c did not run.
        d.set(t(0), t(2), V::Determines);
        assert!(!execution_consistent(&d, &trace.periods()[0]));
        assert!(!matches_period(&d, &trace.periods()[0]));
        // The may-variant is fine.
        d.set(t(0), t(2), V::MayDetermine);
        assert!(matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn claims_by_absent_tasks_are_unconstrained() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        // c (absent) claims it always depends on a: not contradicted.
        d.set(t(2), t(0), V::DependsOn);
        assert!(matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn distinct_pair_constraint_blocks_reuse() {
        // Two messages both only explainable as a -> b: d matching requires
        // two distinct pairs, so it must fail.
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .message(Timestamp::new(15), Timestamp::new(17))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        let trace = builder.finish();
        let d = DependencyFunction::top(2);
        assert!(!matches_period(&d, &trace.periods()[0]));
    }

    #[test]
    fn an_earlier_message_moves_to_free_a_later_ones_only_pair() {
        // m0 can be a -> b or a -> c, m1 only a -> b (c starts before m1
        // falls and ends after it rises): first fit gives m0 a -> b and
        // strands m1, so the matcher must move m0 to a -> c.
        let u = TaskUniverse::from_names(["a", "b", "c"]);
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(t(0), Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .event(Timestamp::new(15), EventKind::TaskStart(t(2)))
            .unwrap();
        builder
            .message(Timestamp::new(21), Timestamp::new(23))
            .unwrap();
        builder
            .task(t(1), Timestamp::new(25), Timestamp::new(35))
            .unwrap();
        builder
            .event(Timestamp::new(40), EventKind::TaskEnd(t(2)))
            .unwrap();
        builder.end_period().unwrap();
        let trace = builder.finish();
        let period = &trace.periods()[0];
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        d.record_message(t(0), t(2));
        let witness: Vec<_> = explain_period(&d, period)
            .expect("m0 takes a -> c, m1 a -> b")
            .iter()
            .map(|a| (a.sender, a.receiver))
            .collect();
        assert_eq!(witness, [(t(0), t(2)), (t(0), t(1))]);
        assert!(matches_period(&d, period));
    }

    #[test]
    fn relaxed_matching_ignores_injectivity() {
        // Two messages, both only explainable as a -> b: strict M fails,
        // relaxed M succeeds.
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let mut builder = TraceBuilder::new(u);
        builder.begin_period();
        builder
            .task(a, Timestamp::new(0), Timestamp::new(10))
            .unwrap();
        builder
            .message(Timestamp::new(12), Timestamp::new(14))
            .unwrap();
        builder
            .message(Timestamp::new(15), Timestamp::new(17))
            .unwrap();
        builder
            .task(b, Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        builder.end_period().unwrap();
        let trace = builder.finish();
        let mut d = DependencyFunction::bottom(2);
        d.record_message(t(0), t(1));
        assert!(!matches_trace(&d, &trace));
        assert!(matches_trace_relaxed(&d, &trace));
    }

    #[test]
    fn strict_matching_implies_relaxed() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        d.record_message(t(0), t(1));
        assert!(matches_period(&d, &trace.periods()[0]));
        assert!(matches_period_relaxed(&d, &trace.periods()[0]));
    }

    #[test]
    fn backward_direction_must_admit_too() {
        let trace = simple_trace();
        let mut d = DependencyFunction::bottom(3);
        // Forward admits but backward stays parallel: unexplained.
        d.set(t(0), t(1), V::Determines);
        assert!(!matches_period(&d, &trace.periods()[0]));
        d.set(t(1), t(0), V::DependsOn);
        assert!(matches_period(&d, &trace.periods()[0]));
    }
}
