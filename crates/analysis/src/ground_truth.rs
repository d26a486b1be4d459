//! The reference dependency function of a known design model.
//!
//! The paper evaluates its learner by checking that "the deduced system
//! model accurately reflects dependencies between tasks in the original
//! design". With a known [`DesignModel`] we can do that rigorously:
//! [`semantic_ground_truth`] derives the reference from the model's
//! structure and behaviours. The tests also learn it back from an
//! *exhaustive* trace (one canonical period per enumerated behaviour) and
//! check that the learned reference never contradicts the semantic one
//! (paper footnote 3).

use bbmg_lattice::{DependencyFunction, DependencyValue, TaskId};
use bbmg_moc::DesignModel;

/// The semantic ground truth of `model`, derived from its structure and
/// behaviour rather than from traces.
///
/// For an ordered pair `(t1, t2)`:
///
/// * the *forward* component is `→` when `t1` can causally influence `t2`
///   (a channel path `t1 ⇝ t2` exists) and every behaviour executing `t1`
///   also executes `t2`; `→?` when the influence exists but co-execution
///   is conditional; absent otherwise;
/// * the *backward* component mirrors it for `t2 ⇝ t1` influence (`←`,
///   `←?`);
/// * the pair's value is the join of the components (`‖` when neither
///   influence exists — e.g. the worked example's independent `t2`/`t3`).
#[must_use]
#[allow(clippy::needless_range_loop)] // index loops mirror the matrix math
pub fn semantic_ground_truth(model: &DesignModel) -> DependencyFunction {
    let n = model.task_count();
    let reach = model.as_digraph().transitive_closure();
    let behaviors = model.enumerate_behaviors();
    let mut d = DependencyFunction::bottom(n);
    for i in 0..n {
        let t1 = TaskId::from_index(i);
        let with_t1: Vec<_> = behaviors.iter().filter(|b| b.executes(t1)).collect();
        if with_t1.is_empty() {
            continue;
        }
        for j in 0..n {
            if i == j {
                continue;
            }
            let t2 = TaskId::from_index(j);
            let always = with_t1.iter().all(|b| b.executes(t2));
            let sometimes = with_t1.iter().any(|b| b.executes(t2));
            if reach[i][j] && sometimes {
                d.join_value(
                    t1,
                    t2,
                    if always {
                        DependencyValue::Determines
                    } else {
                        DependencyValue::MayDetermine
                    },
                );
            }
            if reach[j][i] && sometimes {
                d.join_value(
                    t1,
                    t2,
                    if always {
                        DependencyValue::DependsOn
                    } else {
                        DependencyValue::MayDependOn
                    },
                );
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use bbmg_core::{learn, LearnOptions};
    use bbmg_lattice::{DependencyValue, TaskId, TaskUniverse};
    use bbmg_moc::{append_canonical_period, CanonicalTiming, DesignModel};
    use bbmg_trace::{Timestamp, Trace, TraceBuilder};

    use super::*;

    /// One canonical sequential period per enumerated behaviour of
    /// `model`: a trace exhibiting all allowable behaviour.
    fn exhaustive_trace(model: &DesignModel) -> Trace {
        let mut builder = TraceBuilder::new(model.universe().clone());
        let mut clock = Timestamp::ZERO;
        for behavior in model.enumerate_behaviors() {
            builder.begin_period();
            clock = append_canonical_period(
                model,
                &behavior,
                CanonicalTiming::default(),
                &mut builder,
                clock,
            )
            .unwrap();
            builder.end_period().unwrap();
            clock = clock + 10;
        }
        builder.finish()
    }

    /// The LUB of the exact learner's hypotheses on the exhaustive trace:
    /// what a perfect observation campaign can learn. It may be more
    /// general than [`semantic_ground_truth`] where message attribution
    /// stays ambiguous even with every behaviour observed.
    fn learned_reference(model: &DesignModel) -> DependencyFunction {
        let result = learn(&exhaustive_trace(model), LearnOptions::exact()).unwrap();
        result.lub().unwrap()
    }

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    fn figure_1() -> DesignModel {
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        DesignModel::builder(u)
            .edge(t(0), t(1))
            .edge(t(0), t(2))
            .edge(t(1), t(3))
            .edge(t(2), t(3))
            .disjunction(t(0))
            .build()
            .unwrap()
    }

    #[test]
    fn exhaustive_trace_covers_all_behaviors() {
        let model = figure_1();
        let trace = exhaustive_trace(&model);
        assert_eq!(trace.periods().len(), 3);
    }

    #[test]
    fn semantic_ground_truth_of_figure_1_matches_paper_conclusions() {
        let model = figure_1();
        let d = semantic_ground_truth(&model);
        // t1 always determines t4, even with no direct message (§3.3).
        assert_eq!(d.value(t(0), t(3)), DependencyValue::Determines);
        // t1 conditionally determines t2 and t3.
        assert_eq!(d.value(t(0), t(1)), DependencyValue::MayDetermine);
        assert_eq!(d.value(t(0), t(2)), DependencyValue::MayDetermine);
        // t2 and t3 always depend on t1.
        assert_eq!(d.value(t(1), t(0)), DependencyValue::DependsOn);
        assert_eq!(d.value(t(2), t(0)), DependencyValue::DependsOn);
        // t2/t3 never both required: parallel between them.
        assert_eq!(d.value(t(1), t(2)), DependencyValue::Parallel);
    }

    #[test]
    fn chain_references_agree_and_are_total_orders() {
        let u = TaskUniverse::from_names(["a", "b", "c"]);
        let model = DesignModel::builder(u)
            .edge(t(0), t(1))
            .edge(t(1), t(2))
            .build()
            .unwrap();
        // A deterministic chain is unambiguous: both references coincide.
        let semantic = semantic_ground_truth(&model);
        let learned = learned_reference(&model);
        assert_eq!(semantic, learned);
        assert_eq!(semantic.value(t(0), t(1)), DependencyValue::Determines);
        assert_eq!(semantic.value(t(1), t(2)), DependencyValue::Determines);
        assert_eq!(semantic.value(t(2), t(0)), DependencyValue::DependsOn);
    }

    #[test]
    fn learned_reference_generalizes_semantic_truth() {
        // Bus-level attribution ambiguity only ever makes the learned
        // reference more general, never contradictory.
        let model = figure_1();
        let semantic = semantic_ground_truth(&model);
        let learned = learned_reference(&model);
        assert!(semantic.leq(&learned));
    }
}
