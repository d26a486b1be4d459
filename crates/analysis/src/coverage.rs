//! Trace-coverage analysis: how much of a model's behaviour has a trace
//! actually exhibited?
//!
//! The paper's proofs assume "that the trace is exhaustive so that it
//! exhibits all allowable behavior of the model in the specific execution
//! environment" (§3.4) and warns that schedulers may mask behaviour
//! (footnote 3). When the design model *is* available (testing, or
//! regression against a reference), this module quantifies that
//! assumption; for black-box settings,
//! [`bbmg_core::convergence_timeline`] tracks the observable proxy — how
//! the hypothesis set evolves with more periods.

use std::collections::BTreeSet;

use bbmg_lattice::TaskId;
use bbmg_moc::{Behavior, DesignModel};
use bbmg_trace::Trace;

/// How much of a model's behaviour space a trace exhibited.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Total behaviours of the model.
    pub total_behaviors: usize,
    /// Distinct behaviours observed in the trace.
    pub observed_behaviors: usize,
    /// Behaviours never observed (the scheduler/environment masked them).
    pub missed: Vec<Behavior>,
}

impl Coverage {
    /// Observed fraction (1.0 = exhaustive trace).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total_behaviors == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.observed_behaviors as f64 / self.total_behaviors as f64
            }
        }
    }

    /// Whether the trace was exhaustive.
    #[must_use]
    pub fn is_exhaustive(&self) -> bool {
        self.observed_behaviors == self.total_behaviors
    }
}

/// Matches each trace period to the model behaviour it realizes (by
/// executed-task set and message count) and reports behaviour coverage.
///
/// # Panics
///
/// Panics if the trace universe size differs from the model's, or if
/// behaviour enumeration exceeds the default limit.
#[must_use]
pub fn behavior_coverage(model: &DesignModel, trace: &Trace) -> Coverage {
    assert_eq!(
        model.task_count(),
        trace.task_count(),
        "universe mismatch between model and trace"
    );
    let behaviors = model.enumerate_behaviors();
    let mut observed: BTreeSet<usize> = BTreeSet::new();
    for period in trace.periods() {
        let executed: Vec<TaskId> = period.executed_tasks().iter().collect();
        let messages = period.messages().len();
        if let Some(index) = behaviors
            .iter()
            .position(|b| b.executed() == executed && b.activated().len() == messages)
        {
            observed.insert(index);
        }
    }
    let missed = behaviors
        .iter()
        .enumerate()
        .filter(|(i, _)| !observed.contains(i))
        .map(|(_, b)| b.clone())
        .collect();
    Coverage {
        total_behaviors: behaviors.len(),
        observed_behaviors: observed.len(),
        missed,
    }
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::TaskUniverse;
    use bbmg_moc::{append_canonical_period, CanonicalTiming};
    use bbmg_trace::{Timestamp, TraceBuilder};

    use super::*;

    fn figure_1() -> DesignModel {
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let t = |i: usize| TaskId::from_index(i);
        DesignModel::builder(u)
            .edge(t(0), t(1))
            .edge(t(0), t(2))
            .edge(t(1), t(3))
            .edge(t(2), t(3))
            .disjunction(t(0))
            .build()
            .unwrap()
    }

    fn trace_of(model: &DesignModel, behaviors: &[Behavior]) -> Trace {
        let mut builder = TraceBuilder::new(model.universe().clone());
        let mut clock = Timestamp::ZERO;
        for b in behaviors {
            builder.begin_period();
            clock =
                append_canonical_period(model, b, CanonicalTiming::default(), &mut builder, clock)
                    .unwrap();
            builder.end_period().unwrap();
            clock = clock + 10;
        }
        builder.finish()
    }

    #[test]
    fn exhaustive_trace_has_full_coverage() {
        let model = figure_1();
        let behaviors = model.enumerate_behaviors();
        let trace = trace_of(&model, &behaviors);
        let coverage = behavior_coverage(&model, &trace);
        assert!(coverage.is_exhaustive());
        assert_eq!(coverage.fraction(), 1.0);
        assert!(coverage.missed.is_empty());
    }

    #[test]
    fn partial_trace_reports_missing_behaviors() {
        let model = figure_1();
        let behaviors = model.enumerate_behaviors();
        let trace = trace_of(&model, &behaviors[..1]);
        let coverage = behavior_coverage(&model, &trace);
        assert_eq!(coverage.total_behaviors, 3);
        assert_eq!(coverage.observed_behaviors, 1);
        assert_eq!(coverage.missed.len(), 2);
        assert!(!coverage.is_exhaustive());
    }
}
