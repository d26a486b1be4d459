//! Differential test of the strict matching function `M` (paper
//! Definition 3): [`explain_period`]'s augmenting-path search against the
//! backtracking search it replaced, kept here unchanged as the reference.
//!
//! * Every function over the touched cells of small seeded periods gets
//!   the reference's verdict, and every witness is valid.
//! * The pigeonhole construction on the GM case study — a function that
//!   admits one witness assignment's pairs minus one — is rejected in
//!   every period, though the relaxed matcher accepts it. The reference
//!   backtracks for seconds to reject it in periods 1 and 6, so it checks
//!   only the periods it rejects in milliseconds.

use std::collections::BTreeSet;

use bbmg::core::{
    execution_consistent, explain_period, matches_period, matches_period_relaxed, Attribution,
};
use bbmg::lattice::{DependencyFunction, DependencyValue, TaskId, ALL_VALUES};
use bbmg::trace::Period;
use bbmg::workloads::gm;
use bbmg::workloads::random::{random_trace, RandomModelConfig};

/// Whether every message of `period` can be explained by `d` with
/// distinct pairs: the backtracking search `M` was decided by before the
/// augmenting-path matcher. Exponential when the answer is no.
fn messages_explainable(d: &DependencyFunction, period: &Period) -> bool {
    let candidate_sets: Vec<Vec<(TaskId, TaskId)>> = period
        .messages()
        .iter()
        .map(|m| {
            period
                .candidate_pairs(m)
                .into_iter()
                .filter(|&(s, r)| {
                    d.value(s, r).admits_forward() && DependencyValue::DependsOn.leq(d.value(r, s))
                })
                .collect()
        })
        .collect();
    // Backtracking assignment with the "distinct pairs" constraint.
    fn assign(
        sets: &[Vec<(TaskId, TaskId)>],
        used: &mut Vec<(TaskId, TaskId)>,
        index: usize,
    ) -> bool {
        if index == sets.len() {
            return true;
        }
        for &pair in &sets[index] {
            if !used.contains(&pair) {
                used.push(pair);
                if assign(sets, used, index + 1) {
                    return true;
                }
                used.pop();
            }
        }
        false
    }
    assign(&candidate_sets, &mut Vec::new(), 0)
}

/// Asserts that `witness` explains `period` under `d`: one attribution
/// per message in message order, each pair timing-feasible and admitted
/// in both directions, no pair twice.
fn assert_valid_witness(d: &DependencyFunction, period: &Period, witness: &[Attribution]) {
    let messages = period.messages();
    assert_eq!(witness.len(), messages.len(), "one attribution per message");
    let mut used = BTreeSet::new();
    for (a, m) in witness.iter().zip(messages) {
        let pair = (a.sender, a.receiver);
        assert_eq!(a.message, m.id, "message order");
        assert!(
            period.candidate_pairs(m).contains(&pair),
            "{pair:?} is timing-feasible"
        );
        assert!(
            d.value(a.sender, a.receiver).admits_forward()
                && DependencyValue::DependsOn.leq(d.value(a.receiver, a.sender)),
            "{pair:?} is admitted both ways"
        );
        assert!(used.insert(pair), "{pair:?} is used twice");
    }
}

/// The reference verdict for `d` on `period`, after checking that the
/// matcher agrees with it and that any witness is valid.
fn check_against_reference(d: &DependencyFunction, period: &Period) -> bool {
    let expected = messages_explainable(d, period);
    let witness = explain_period(d, period);
    assert_eq!(witness.is_some(), expected, "verdict on {d:?}");
    assert_eq!(
        matches_period(d, period),
        expected && execution_consistent(d, period),
        "M on {d:?}"
    );
    if let Some(witness) = witness {
        assert_valid_witness(d, period, &witness);
    }
    expected
}

/// The cells `d(s, r)` and `d(r, s)` of every timing-feasible candidate
/// `(s, r)` of `period`: the only cells the message check reads.
fn touched_cells(period: &Period) -> BTreeSet<(TaskId, TaskId)> {
    period
        .messages()
        .iter()
        .flat_map(|m| period.candidate_pairs(m))
        .flat_map(|(s, r)| [(s, r), (r, s)])
        .collect()
}

/// Calls `f` on every function over `tasks` tasks that is `‖` outside
/// `cells`: all 7^|cells| of them.
fn for_each_function(
    tasks: usize,
    cells: &[(TaskId, TaskId)],
    mut f: impl FnMut(&DependencyFunction),
) {
    let mut d = DependencyFunction::bottom(tasks);
    let mut digits = vec![0; cells.len()];
    loop {
        f(&d);
        // Odometer step: the first cell that does not wrap advances.
        let mut i = 0;
        loop {
            let Some(&(s, r)) = cells.get(i) else {
                return;
            };
            digits[i] = (digits[i] + 1) % ALL_VALUES.len();
            d.set(s, r, ALL_VALUES[digits[i]]);
            if digits[i] != 0 {
                break;
            }
            i += 1;
        }
    }
}

/// Runs the exhaustive comparison on `period` over its touched cells (all
/// off-diagonal cells when `all_cells`), returning how many functions were
/// accepted, how many rejected, and how many of the rejected ones explain
/// each message on its own (so only injectivity rejects them).
fn sweep(period: &Period, all_cells: bool) -> (usize, usize, usize) {
    let tasks = period.universe();
    let cells: Vec<(TaskId, TaskId)> = if all_cells {
        (0..tasks)
            .flat_map(|s| (0..tasks).map(move |r| (s, r)))
            .filter(|(s, r)| s != r)
            .map(|(s, r)| (TaskId::from_index(s), TaskId::from_index(r)))
            .collect()
    } else {
        touched_cells(period).into_iter().collect()
    };
    let (mut accepted, mut rejected, mut injectivity) = (0, 0, 0);
    for_each_function(tasks, &cells, |d| {
        if check_against_reference(d, period) {
            accepted += 1;
        } else {
            rejected += 1;
            if matches_period_relaxed(d, period) {
                injectivity += 1;
            }
        }
    });
    assert_eq!(
        accepted + rejected,
        ALL_VALUES.len().pow(cells.len() as u32),
        "every function enumerated"
    );
    (accepted, rejected, injectivity)
}

/// The first period with at least two messages of each seeded random
/// `tasks`-task design, in seed order.
fn seeded_periods(tasks: usize) -> impl Iterator<Item = Period> {
    (0..).filter_map(move |seed| {
        let config = RandomModelConfig {
            tasks,
            edge_probability: 0.6,
            max_in_degree: 2,
            disjunction_probability: 0.5,
            seed,
        };
        random_trace(&config, 6, seed)
            .expect("simulation succeeds")
            .trace
            .periods()
            .iter()
            .find(|p| p.messages().len() >= 2)
            .cloned()
    })
}

#[test]
fn every_3_task_function_gets_the_reference_verdict() {
    let mut injectivity_rejections = 0;
    for period in seeded_periods(3).take(3) {
        let (accepted, rejected, injectivity) = sweep(&period, true);
        assert!(accepted > 0 && rejected > 0, "both verdicts occur");
        injectivity_rejections += injectivity;
    }
    assert!(
        injectivity_rejections > 0,
        "injectivity alone rejects some functions"
    );
}

/// The 4-task sweep: every function over the touched cells of seeded
/// periods with at most 7 touched cells (at most 7^7 = 823,543 each).
#[test]
#[ignore = "exhaustive 4-task sweep; run with --release -- --ignored"]
fn every_4_task_function_on_small_periods_gets_the_reference_verdict() {
    let mut injectivity_rejections = 0;
    for period in seeded_periods(4)
        .filter(|p| touched_cells(p).len() <= 7)
        .take(32)
    {
        let (accepted, rejected, injectivity) = sweep(&period, false);
        assert!(accepted > 0 && rejected > 0, "both verdicts occur");
        injectivity_rejections += injectivity;
    }
    assert!(
        injectivity_rejections > 0,
        "injectivity alone rejects some functions"
    );
}

/// A function admitting exactly the pairs of one witness assignment minus
/// its last has one admissible pair fewer than the period has messages, so
/// strict `M` must reject it by pigeonhole, while every message on its own
/// still has an admitted pair.
#[test]
fn gm_witness_minus_one_pair_is_rejected_in_every_period() {
    let trace = gm::gm_trace(2007).expect("GM simulation succeeds").trace;
    let tasks = trace.task_count();
    for period in &trace.periods()[..8] {
        let top = DependencyFunction::top(tasks);
        let witness = explain_period(&top, period).expect("top explains every period");
        assert_valid_witness(&top, period, &witness);
        let (_, kept) = witness.split_last().expect("GM periods have messages");
        let mut d = DependencyFunction::bottom(tasks);
        for a in kept {
            d.record_message(a.sender, a.receiver);
        }
        let p = period.index();
        assert!(
            explain_period(&d, period).is_none(),
            "period {p}: no witness"
        );
        assert!(!matches_period(&d, period), "period {p}: strict M rejects");
        assert!(
            matches_period_relaxed(&d, period),
            "period {p}: relaxed M accepts"
        );
        // The reference backtracks for seconds on periods 1 and 6 and for
        // tens of milliseconds on period 5.
        if [0, 2, 3, 4, 7].contains(&p) {
            assert!(
                !messages_explainable(&d, period),
                "period {p}: reference rejects"
            );
        }
    }
}
