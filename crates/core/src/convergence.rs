//! Convergence timelines (paper §4).
//!
//! The paper's evaluation tracks how the learner closes in on the final
//! model as periods accumulate: "after 27 periods the set stabilizes".
//! [`convergence_timeline`] reproduces that chart for any trace: it runs
//! the [`IncrementalLearner`], snapshots the hypothesis count and the `d_LUB`
//! summary after every accepted period, and — once the final model is
//! known — reports each snapshot's pointwise lattice distance
//! ([`DependencyFunction::lattice_distance`]) to it. A timeline whose
//! distance column reaches 0 early shows the model was already learned;
//! the hypothesis-count column shows how much ambiguity remained.

use bbmg_lattice::DependencyFunction;
use bbmg_obs::{Event, NoopObserver, Observer};
use bbmg_trace::Trace;

use crate::error::LearnError;
use crate::incremental::{IncrementalLearner, Observed};
use crate::options::LearnOptions;

/// One sample of a convergence timeline: the learner's state after an
/// accepted period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergencePoint {
    /// Index of the accepted period.
    pub period: usize,
    /// Hypothesis-set size after the period.
    pub hypotheses: usize,
    /// Weight of the `d_LUB` summary after the period.
    pub lub_weight: u64,
    /// Pointwise lattice distance from this period's `d_LUB` to the final
    /// run's `d_LUB` (0 once the summary has stabilized).
    pub distance_to_final: u64,
}

/// Computes the convergence timeline of a learn run over `trace`.
///
/// The run is [`IncrementalLearner::drive`]'s, so it degrades exactly as
/// [`learn`](crate::learn) does. Quarantined periods (under
/// [`OnInconsistent::SkipPeriod`]) produce no sample; a budget stop ends
/// the timeline early. The returned timeline is empty only for an empty
/// trace.
///
/// [`OnInconsistent::SkipPeriod`]: crate::OnInconsistent::SkipPeriod
///
/// # Errors
///
/// Propagates [`LearnError`] exactly as
/// [`IncrementalLearner::push_period`] does.
pub fn convergence_timeline(
    trace: &Trace,
    options: LearnOptions,
) -> Result<Vec<ConvergencePoint>, LearnError> {
    convergence_timeline_with(trace, options, &mut NoopObserver)
}

/// [`convergence_timeline`] that also emits the run's learner events into
/// `observer` while learning, followed by one `convergence` event per
/// timeline sample (the distances are only known once the run finishes,
/// so the convergence events trail the stream).
///
/// # Errors
///
/// As [`convergence_timeline`].
pub fn convergence_timeline_with<O: Observer + ?Sized>(
    trace: &Trace,
    options: LearnOptions,
    observer: &mut O,
) -> Result<Vec<ConvergencePoint>, LearnError> {
    let mut learner = IncrementalLearner::new(trace.task_count(), options);
    let mut snapshots: Vec<(usize, usize, DependencyFunction)> = Vec::new();
    learner.drive(trace.periods(), observer, |learner, period, observed, _| {
        if *observed == Observed::Accepted {
            if let Some(lub) = lub_of(learner) {
                snapshots.push((period.index(), learner.len(), lub));
            }
        }
        Ok::<_, LearnError>(())
    })?;
    let final_lub = match snapshots.last() {
        Some((_, _, lub)) => lub.clone(),
        None => return Ok(Vec::new()),
    };
    let timeline: Vec<ConvergencePoint> = snapshots
        .into_iter()
        .map(|(period, hypotheses, lub)| ConvergencePoint {
            period,
            hypotheses,
            lub_weight: lub.weight(),
            distance_to_final: lub.lattice_distance(&final_lub),
        })
        .collect();
    for point in &timeline {
        observer.record(Event::Convergence {
            period: point.period,
            hypotheses: point.hypotheses,
            lub_weight: point.lub_weight,
            distance_to_final: point.distance_to_final,
        });
    }
    Ok(timeline)
}

/// Least upper bound of the learner's current hypothesis set.
fn lub_of(learner: &IncrementalLearner) -> Option<DependencyFunction> {
    let mut hypotheses = learner.hypotheses().into_iter();
    let mut acc = hypotheses.next()?.clone();
    for d in hypotheses {
        // One accumulator allocation per snapshot, not one per join.
        acc.join_in_place(d);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::TaskUniverse;
    use bbmg_obs::Recorder;
    use bbmg_trace::{Timestamp, Trace, TraceBuilder};

    use super::*;

    /// Two identical periods: t1 [m] t2. The model is learned after the
    /// first period; the second changes nothing.
    fn stable_trace() -> Trace {
        let u = TaskUniverse::from_names(["t1", "t2"]);
        let t1 = u.lookup("t1").unwrap();
        let t2 = u.lookup("t2").unwrap();
        let mut b = TraceBuilder::new(u);
        for p in 0..2u64 {
            let base = p * 100;
            b.begin_period();
            b.task(t1, Timestamp::new(base), Timestamp::new(base + 10))
                .unwrap();
            b.message(Timestamp::new(base + 11), Timestamp::new(base + 13))
                .unwrap();
            b.task(t2, Timestamp::new(base + 15), Timestamp::new(base + 25))
                .unwrap();
            b.end_period().unwrap();
        }
        b.finish()
    }

    #[test]
    fn stable_trace_has_zero_distance_throughout() {
        let timeline = convergence_timeline(&stable_trace(), LearnOptions::exact()).unwrap();
        assert_eq!(timeline.len(), 2);
        assert!(timeline.iter().all(|p| p.distance_to_final == 0));
        assert_eq!(timeline[0].hypotheses, 1);
        assert_eq!(timeline[0].lub_weight, timeline[1].lub_weight);
        assert_eq!(timeline.last().unwrap().period, 1);
    }

    /// The paper's Figure 1 design exercised exhaustively: one canonical
    /// period per behaviour, three in all.
    #[test]
    fn figure_1_timeline_only_generalizes() {
        use bbmg_moc::{append_canonical_period, CanonicalTiming};

        let model = bbmg_workloads::simple::figure_1_model();
        let mut builder = TraceBuilder::new(model.universe().clone());
        let mut clock = Timestamp::ZERO;
        for behavior in &model.enumerate_behaviors() {
            builder.begin_period();
            clock = append_canonical_period(
                &model,
                behavior,
                CanonicalTiming::default(),
                &mut builder,
                clock,
            )
            .unwrap();
            builder.end_period().unwrap();
            clock = clock + 10;
        }
        let timeline = convergence_timeline(&builder.finish(), LearnOptions::exact()).unwrap();
        assert_eq!(timeline.len(), 3);
        assert!(timeline.iter().all(|p| p.hypotheses >= 1));
        // More observation only generalizes the LUB of this trace.
        assert!(timeline
            .windows(2)
            .all(|w| w[0].lub_weight <= w[1].lub_weight));
        assert_eq!(timeline.last().unwrap().period, 2);
    }

    #[test]
    fn last_point_always_has_zero_distance() {
        let timeline = convergence_timeline(&stable_trace(), LearnOptions::bounded(4)).unwrap();
        assert_eq!(timeline.last().unwrap().distance_to_final, 0);
    }

    #[test]
    fn empty_trace_yields_empty_timeline() {
        let u = TaskUniverse::from_names(["a"]);
        let trace = TraceBuilder::new(u).finish();
        let timeline = convergence_timeline(&trace, LearnOptions::exact()).unwrap();
        assert!(timeline.is_empty());
    }

    #[test]
    fn convergence_events_trail_the_stream() {
        let mut recorder = Recorder::new();
        let timeline =
            convergence_timeline_with(&stable_trace(), LearnOptions::exact(), &mut recorder)
                .unwrap();
        let convergence_events: Vec<_> = recorder
            .events()
            .iter()
            .filter(|e| e.event.name() == "convergence")
            .collect();
        assert_eq!(convergence_events.len(), timeline.len());
        // They come after every learner event.
        let first_convergence = recorder
            .events()
            .iter()
            .position(|e| e.event.name() == "convergence")
            .unwrap();
        assert!(recorder.events()[first_convergence..]
            .iter()
            .all(|e| e.event.name() == "convergence"));
    }
}
