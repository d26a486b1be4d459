//! Experiment E7: state-space reduction for reachability analysis
//! (paper §3.4).

use bbmg::analysis::reachability;
use bbmg::core::{learn, LearnOptions};
use bbmg::workloads::{gm, simple};

#[test]
fn worked_example_state_space_shrinks() {
    let result = learn(&simple::figure_2_trace(), LearnOptions::exact()).unwrap();
    let d = result.lub().unwrap();
    let space = reachability::measure_state_space(&d);
    assert_eq!(space.unconstrained, 16);
    // d_LUB proves t2, t3, t4 all depend on t1: 9 states remain.
    assert_eq!(space.constrained, 9);
}

#[test]
fn case_study_state_space_shrinks_by_orders_of_magnitude() {
    let trace = gm::gm_trace(2007).unwrap().trace;
    let result = learn(&trace, LearnOptions::bounded(64)).unwrap();
    let d = result.lub().unwrap();
    let space = reachability::measure_state_space(&d);
    assert_eq!(space.unconstrained, 1 << 18);
    assert!(
        space.reduction_factor() > 100.0,
        "expected orders-of-magnitude reduction, got {space:?}"
    );
}

#[test]
fn constrained_space_never_exceeds_unconstrained() {
    for seed in [1u64, 2, 3] {
        let trace = gm::gm_trace(seed).unwrap().trace;
        let result = learn(&trace, LearnOptions::bounded(16)).unwrap();
        let d = result.lub().unwrap();
        let space = reachability::measure_state_space(&d);
        assert!(u128::from(space.constrained) <= space.unconstrained);
        assert!(
            space.constrained >= 1,
            "the empty state is always reachable"
        );
    }
}

#[test]
fn more_observation_never_grows_the_state_space_claims() {
    // Must-precedences only accumulate as weakening can only remove them;
    // but the *set of proven* precedences from the LUB may both grow (new
    // attributions) and shrink (weakened ones). The reachable state count
    // must stay below the unconstrained bound throughout.
    let trace = gm::gm_trace(2007).unwrap().trace;
    for periods in [3usize, 9, 27] {
        let result = learn(&trace.truncated(periods), LearnOptions::bounded(16)).unwrap();
        let d = result.lub().unwrap();
        let space = reachability::measure_state_space(&d);
        assert!(space.constrained < 1 << 18, "{periods} periods: {space:?}");
    }
}
