//! The learning engine: push periods one at a time under a graceful
//! degradation policy, snapshot to a [`Checkpoint`] at any boundary, and
//! resume later — byte-identically. [`IncrementalLearner`] documents the
//! degradation ladder; [`IncrementalLearner::drive`] is the one loop that
//! walks a trace through it, and [`learn`] drives it over a whole trace.
//!
//! A fallback seeds the bounded learner from the current antichain
//! instead of replaying the trace, which keeps the learner's full state
//! equal to (antichain, history bitmap, options, stats, counters) —
//! `O(model)`, not `O(trace)` — and that is precisely what [`Checkpoint`]
//! captures. Every entry point ([`learn`], `learn
//! --checkpoint`/`resume`, the [`ModelCache`](crate::ModelCache), serve
//! shards) runs this one engine. The defining invariant, enforced by the
//! `checkpoint_roundtrip` proptest and the kill-and-resume chaos test:
//!
//! > For any split point k: `push(p_1..p_k); resume(checkpoint());
//! > push(p_k+1..p_n)` produces the same hypotheses, the same stats, and
//! > the same observer event stream as `push(p_1..p_n)` uninterrupted.

use std::num::NonZeroUsize;

use bbmg_lattice::DependencyFunction;
use bbmg_obs::{Event, NoopObserver, Observer};
use bbmg_trace::{Period, Trace};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::error::LearnError;
use crate::history::ExecutionHistory;
use crate::learner::{LearnResult, Learner};
use crate::options::{LearnOptions, OnInconsistent};
use crate::stats::{LearnStats, SkipCause, SkippedPeriod};

/// Default bound used when falling back from the exact algorithm.
pub const DEFAULT_FALLBACK_BOUND: usize = 64;

/// What [`IncrementalLearner::push_period`] did with a period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    /// The period was learned from.
    Accepted,
    /// The period was quarantined; the learner state is as if it had never
    /// been seen.
    Skipped(SkippedPeriod),
    /// Under [`OnInconsistent::SkipPeriod`], the budget ran out in bounded
    /// mode; the period was not processed and the caller should stop
    /// feeding, as [`IncrementalLearner::drive`] does. The partial result
    /// remains valid.
    BudgetStopped {
        /// Index of the unprocessed period.
        period: usize,
    },
}

/// A checkpointable period-at-a-time learner with graceful degradation.
///
/// Under [`OnInconsistent::Abort`] (the default) it never degrades: an
/// inconsistent period, a set-limit trip and a budget trip are each a
/// typed [`LearnError`], with the push rolled back. That is correct for
/// trusted traces, but a field capture from a real bus logger *will*
/// contain periods the model of computation cannot explain.
/// [`OnInconsistent::SkipPeriod`] trades completeness for survival, under
/// three rules:
///
/// * **Quarantine** — a period that would empty the hypothesis set is
///   rolled back (snapshot/restore) and recorded in
///   [`LearnStats::skipped_periods`] with the killing message.
/// * **Fallback** — if the exact algorithm trips its
///   [`set_limit`](crate::LearnOptions::set_limit) or
///   [`Budget`](crate::Budget), the run switches to the bounded heuristic
///   in place: the bounded learner is **seeded** with the current exact
///   antichain and re-observes only the period that tripped the limit.
///   This is sound — the exact antichain is a complete summary of
///   everything accepted so far (Theorem 2), and bounded-mode merging only
///   ever generalizes. Counters, history, quarantine records and the
///   budget clock carry over: the engine changed, the run did not restart.
/// * **Early stop** — if the budget runs out in bounded mode there is
///   nothing cheaper to fall back to; the run keeps its partial result and
///   [`drive`](Self::drive) reports the unprocessed periods as skipped.
///
/// An explicit [`degrade`](Self::degrade) falls back under either policy.
///
/// All three degradations are *sound* for the learned model: dropping
/// observations can only leave the result less constrained (closer to
/// `d⊥`-unknowns) than the fully-informed one — never in contradiction
/// with the observations that were kept. See DESIGN.md § Fault model and
/// degradation policy.
///
/// # Example — checkpoint mid-stream, resume, finish
///
/// ```
/// use bbmg_core::{Checkpoint, IncrementalLearner, LearnOptions};
/// use bbmg_trace::{Timestamp, TraceBuilder};
/// use bbmg_lattice::TaskUniverse;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut universe = TaskUniverse::new();
/// let t1 = universe.intern("t1");
/// let t2 = universe.intern("t2");
/// let mut builder = TraceBuilder::new(universe);
/// for base in [0u64, 100] {
///     builder.begin_period();
///     builder.task(t1, Timestamp::new(base), Timestamp::new(base + 10))?;
///     builder.message(Timestamp::new(base + 11), Timestamp::new(base + 13))?;
///     builder.task(t2, Timestamp::new(base + 15), Timestamp::new(base + 25))?;
///     builder.end_period()?;
/// }
/// let trace = builder.finish();
///
/// let mut learner = IncrementalLearner::new(2, LearnOptions::exact());
/// learner.push_period(&trace.periods()[0])?;
/// let saved = learner.checkpoint().to_json();
///
/// // ... the process dies here; later, a new one picks up:
/// let restored = Checkpoint::parse_json(&saved)?;
/// let mut learner = IncrementalLearner::resume(restored)?;
/// assert_eq!(learner.pushed_periods(), 1);
/// learner.push_period(&trace.periods()[1])?;
/// assert!(learner.finish().converged());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalLearner {
    learner: Learner,
    tasks: usize,
    fallback_bound: NonZeroUsize,
    /// Periods consumed (accepted + quarantined): the stream position at
    /// which a resumed run continues.
    pushed_periods: usize,
}

impl IncrementalLearner {
    /// Creates an incremental learner over a universe of `tasks` tasks.
    #[must_use]
    pub fn new(tasks: usize, options: LearnOptions) -> Self {
        IncrementalLearner {
            learner: Learner::new(tasks, options),
            tasks,
            fallback_bound: NonZeroUsize::new(DEFAULT_FALLBACK_BOUND)
                .expect("default bound is nonzero"),
            pushed_periods: 0,
        }
    }

    /// Returns `self` with a different bound for the exact-to-bounded
    /// fallback (default [`DEFAULT_FALLBACK_BOUND`]).
    #[must_use]
    pub fn with_fallback_bound(mut self, bound: NonZeroUsize) -> Self {
        self.fallback_bound = bound;
        self
    }

    /// Task-universe size.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Periods consumed so far (accepted + quarantined).
    #[must_use]
    pub fn pushed_periods(&self) -> usize {
        self.pushed_periods
    }

    /// The wrapped learner's options (reflects the fallback once engaged).
    #[must_use]
    pub fn options(&self) -> &LearnOptions {
        self.learner.options()
    }

    /// Statistics so far, including skips and fallbacks.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        self.learner.stats()
    }

    /// Number of hypotheses currently maintained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.learner.len()
    }

    /// Whether the hypothesis set is empty (never after a skip).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.learner.is_empty()
    }

    /// Whether the learner has converged to a unique hypothesis.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.learner.converged()
    }

    /// The current hypothesis set (see [`Learner::hypotheses`]).
    #[must_use]
    pub fn hypotheses(&self) -> Vec<&DependencyFunction> {
        self.learner.hypotheses()
    }

    /// The current antichain fingerprint (the identity stamped into
    /// checkpoints and `checkpoint` events).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let functions: Vec<DependencyFunction> =
            self.learner.hypotheses().into_iter().cloned().collect();
        crate::checkpoint::antichain_fingerprint(&functions)
    }

    /// Processes one period under the degradation policy (see
    /// [`IncrementalLearner`] for the ladder).
    ///
    /// The call is transactional: on any `Err` the learner is exactly as
    /// it was before the period, so a supervisor can keep serving the last
    /// good model after a failure.
    ///
    /// # Errors
    ///
    /// Inconsistency, set-limit and budget errors only under
    /// [`OnInconsistent::Abort`]; [`LearnError::UniverseMismatch`] always.
    pub fn push_period(&mut self, period: &Period) -> Result<Observed, LearnError> {
        self.push_inner(period, true, &mut NoopObserver)
    }

    /// [`push_period`](Self::push_period) with instrumentation: besides
    /// the wrapped learner's events, quarantines and fallbacks are
    /// reported to `observer`.
    ///
    /// # Errors
    ///
    /// As [`push_period`](Self::push_period).
    pub fn push_period_with<O: Observer + ?Sized>(
        &mut self,
        period: &Period,
        observer: &mut O,
    ) -> Result<Observed, LearnError> {
        self.push_inner(period, true, observer)
    }

    /// Pushes `periods` in order: the one loop every whole-trace entry
    /// point runs. After each consumed (accepted or quarantined) period,
    /// `each` sees the learner, the period and its [`Observed`]. On
    /// [`Observed::BudgetStopped`] the stopping period and every later one
    /// are recorded as [`SkipCause::BudgetExhausted`] and the run ends.
    /// Returns whether every period was consumed.
    ///
    /// # Errors
    ///
    /// The first error of [`push_period_with`](Self::push_period_with) or
    /// of `each`.
    pub fn drive<'p, O, E>(
        &mut self,
        periods: impl IntoIterator<Item = &'p Period>,
        observer: &mut O,
        mut each: impl FnMut(&mut Self, &Period, &Observed, &mut O) -> Result<(), E>,
    ) -> Result<bool, E>
    where
        O: Observer + ?Sized,
        E: From<LearnError>,
    {
        let mut periods = periods.into_iter();
        while let Some(period) = periods.next() {
            let observed = self.push_period_with(period, observer)?;
            if let Observed::BudgetStopped { .. } = observed {
                for unprocessed in std::iter::once(period).chain(periods) {
                    self.mark_unprocessed(unprocessed.index());
                }
                return Ok(false);
            }
            each(self, period, &observed, observer)?;
        }
        Ok(true)
    }

    /// Records `period` as left unprocessed by a budget stop.
    fn mark_unprocessed(&mut self, period: usize) {
        let skip = SkippedPeriod {
            period,
            cause: SkipCause::BudgetExhausted,
        };
        self.learner.stats_mut().skipped_periods.push(skip);
    }

    /// Forces the exact→bounded degradation now (used by the serve layer
    /// when a shard crosses its memory watermark). Returns `false` — and
    /// does nothing — if the learner is already bounded.
    pub fn degrade(&mut self) -> bool {
        self.degrade_with(&mut NoopObserver)
    }

    /// [`degrade`](Self::degrade), reporting the fallback to `observer`.
    pub fn degrade_with<O: Observer + ?Sized>(&mut self, observer: &mut O) -> bool {
        if self.learner.options().bound.is_some() {
            return false;
        }
        self.fall_back(observer);
        true
    }

    /// Verifies the learner's structural invariants in-process using the
    /// same pass kernels `bbmg-audit` runs offline
    /// ([`bbmg_lattice::invariant`]): every hypothesis's packed store is
    /// canonical for this universe, the hypothesis set is an antichain,
    /// and the history bitmap has the right shape. Compiled to a no-op
    /// unless the `debug-invariants` cargo feature is enabled; with it on,
    /// the learner calls this itself at `push_period`/`finish`/`resume`
    /// boundaries and a violation panics naming `context`.
    ///
    /// # Panics
    ///
    /// With `debug-invariants` enabled, panics on the first violated
    /// invariant.
    #[inline]
    pub fn debug_validate(&self, context: &str) {
        #[cfg(not(feature = "debug-invariants"))]
        let _ = context;
        #[cfg(feature = "debug-invariants")]
        {
            use bbmg_lattice::invariant;
            let hypotheses = self.learner.hypotheses();
            for (i, h) in hypotheses.iter().enumerate() {
                assert_eq!(
                    h.task_count(),
                    self.tasks,
                    "debug-invariants[{context}]: hypothesis {i} is over {} tasks, learner over {}",
                    h.task_count(),
                    self.tasks
                );
                if let Err(err) = invariant::check_function(h) {
                    panic!("debug-invariants[{context}]: hypothesis {i} packed store: {err}");
                }
            }
            if let Some(violation) = invariant::antichain_violation(&hypotheses) {
                panic!("debug-invariants[{context}]: {violation}");
            }
            assert_eq!(
                self.learner.history().bits().len(),
                self.tasks * self.tasks,
                "debug-invariants[{context}]: history bitmap shape"
            );
        }
    }

    /// Snapshots the complete learner state. Only meaningful at a period
    /// boundary (which is the only time callers can run, since
    /// [`push_period`](Self::push_period) takes `&mut self`).
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            tasks: self.tasks,
            pushed_periods: self.pushed_periods,
            options: *self.learner.options(),
            fallback_bound: self.fallback_bound,
            elapsed: self.learner.budget_elapsed(),
            hypotheses: self.learner.hypotheses().into_iter().cloned().collect(),
            ran_without: self.learner.history().bits().to_vec(),
            stats: self.learner.stats().clone(),
        }
    }

    /// Reconstructs a learner from a checkpoint, continuing exactly where
    /// [`checkpoint`](Self::checkpoint) left off. Checkpoints that came
    /// through [`Checkpoint::parse_json`] are already fully validated;
    /// hand-built ones are re-checked for shape here.
    ///
    /// [`SkipCause::BudgetExhausted`] records are dropped: they say where
    /// a run ended, not what it learned, and a checkpoint saved after a
    /// budget stop resumes at the stopping period. A resumed run that
    /// stops again records them anew.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] if the history bitmap or any
    /// hypothesis disagrees with the claimed task count — resuming onto a
    /// mismatched lattice shape is refused, never coerced.
    pub fn resume(checkpoint: Checkpoint) -> Result<Self, CheckpointError> {
        let Checkpoint {
            tasks,
            pushed_periods,
            options,
            fallback_bound,
            elapsed,
            hypotheses,
            ran_without,
            mut stats,
        } = checkpoint;
        if ran_without.len() != tasks * tasks {
            return Err(CheckpointError::Malformed {
                context: "checkpoint",
                message: format!(
                    "history bitmap has {} bits, expected {} for {tasks} tasks",
                    ran_without.len(),
                    tasks * tasks
                ),
            });
        }
        if let Some(f) = hypotheses.iter().find(|f| f.task_count() != tasks) {
            return Err(CheckpointError::Malformed {
                context: "checkpoint",
                message: format!(
                    "hypothesis is over {} tasks, checkpoint claims {tasks}",
                    f.task_count()
                ),
            });
        }
        stats
            .skipped_periods
            .retain(|s| s.cause != SkipCause::BudgetExhausted);
        let history = ExecutionHistory::from_bits(tasks, ran_without);
        let learner = Learner::from_state(tasks, options, hypotheses, history, stats, elapsed);
        let learner = IncrementalLearner {
            learner,
            tasks,
            fallback_bound,
            pushed_periods,
        };
        learner.debug_validate("resume");
        Ok(learner)
    }

    /// Finishes the run, producing a [`LearnResult`] whose stats carry the
    /// quarantine and fallback record.
    #[must_use]
    pub fn finish(self) -> LearnResult {
        self.debug_validate("finish");
        self.learner.into_result()
    }

    fn push_inner<O: Observer + ?Sized>(
        &mut self,
        period: &Period,
        allow_fallback: bool,
        observer: &mut O,
    ) -> Result<Observed, LearnError> {
        let snapshot = self.learner.clone();
        // Abort never degrades: each trip falls through to the last arm.
        let skip = self.learner.options().on_inconsistent == OnInconsistent::SkipPeriod;
        match self.learner.observe_with(period, observer) {
            Ok(()) => {
                self.pushed_periods += 1;
                self.debug_validate("push_period");
                Ok(Observed::Accepted)
            }
            Err(LearnError::Inconsistent { period: p, message }) if skip => {
                self.learner = snapshot;
                let skip = SkippedPeriod {
                    period: p,
                    cause: SkipCause::Inconsistent { message },
                };
                self.learner.stats_mut().skipped_periods.push(skip.clone());
                observer.quarantine(p, skip.cause.to_string());
                self.pushed_periods += 1;
                Ok(Observed::Skipped(skip))
            }
            Err(LearnError::SetLimitExceeded { .. } | LearnError::BudgetExhausted { .. })
                if skip && allow_fallback && self.learner.options().bound.is_none() =>
            {
                self.learner = snapshot;
                self.fall_back(observer);
                self.push_inner(period, false, observer)
            }
            Err(LearnError::BudgetExhausted { period: p, .. }) if skip => {
                // The sampled budget guard can trip mid-period; roll back
                // so the partial result only reflects full periods.
                self.learner = snapshot;
                Ok(Observed::BudgetStopped { period: p })
            }
            Err(err) => {
                // Keep `push_period` transactional: even a propagated error
                // leaves the learner exactly as it was before the period.
                self.learner = snapshot;
                Err(err)
            }
        }
    }

    /// Switches to the bounded heuristic *in place*: the bounded learner
    /// starts from the current exact antichain (a complete summary of all
    /// accepted periods) rather than replaying the trace. Counter
    /// statistics, history, quarantine records and the budget clock all
    /// carry over — the engine changed, the run did not restart.
    fn fall_back<O: Observer + ?Sized>(&mut self, observer: &mut O) {
        let mut options = *self.learner.options();
        options.bound = Some(self.fallback_bound);
        options.set_limit = None;
        let mut stats = self.learner.stats().clone();
        stats.fallbacks += 1;
        let functions: Vec<DependencyFunction> =
            self.learner.hypotheses().into_iter().cloned().collect();
        let history = self.learner.history().clone();
        let elapsed = self.learner.budget_elapsed();
        self.learner = Learner::from_state(self.tasks, options, functions, history, stats, elapsed);
        observer.record(Event::Fallback {
            bound: self.fallback_bound.get(),
        });
    }
}

/// Runs the [`IncrementalLearner`] over every period of `trace` (see
/// [`IncrementalLearner::drive`]).
///
/// # Errors
///
/// See [`IncrementalLearner::push_period`].
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn learn(trace: &Trace, options: LearnOptions) -> Result<LearnResult, LearnError> {
    learn_with(trace, options, &mut NoopObserver)
}

/// [`learn`] with instrumentation (see
/// [`IncrementalLearner::push_period_with`]).
///
/// # Errors
///
/// See [`IncrementalLearner::push_period`].
pub fn learn_with<O: Observer + ?Sized>(
    trace: &Trace,
    options: LearnOptions,
    observer: &mut O,
) -> Result<LearnResult, LearnError> {
    let mut learner = IncrementalLearner::new(trace.task_count(), options);
    learner.drive(trace.periods(), observer, |_, _, _, _| {
        Ok::<_, LearnError>(())
    })?;
    Ok(learner.finish())
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use bbmg_lattice::{TaskId, TaskUniverse};
    use bbmg_trace::{EventKind, Timestamp, Trace, TraceBuilder};

    use super::*;
    use crate::options::Budget;
    use crate::robust_learn;

    fn universe3() -> TaskUniverse {
        TaskUniverse::from_names(["a", "b", "c"])
    }

    /// One period in which every sender ends before the messages and
    /// every receiver starts after them, so each message can pair any
    /// sender with any receiver.
    fn fan_period(
        builder: &mut TraceBuilder,
        base: u64,
        senders: &[TaskId],
        receivers: &[TaskId],
        messages: usize,
    ) {
        builder.begin_period();
        for (i, &s) in (0..).zip(senders) {
            builder
                .event(Timestamp::new(base + i), EventKind::TaskStart(s))
                .unwrap();
        }
        for (i, &s) in (0..).zip(senders) {
            builder
                .event(Timestamp::new(base + 10 + i), EventKind::TaskEnd(s))
                .unwrap();
        }
        for m in 0..messages {
            let at = base + 20 + 2 * m as u64;
            builder
                .message(Timestamp::new(at), Timestamp::new(at + 1))
                .unwrap();
        }
        for (i, &r) in (0..).zip(receivers) {
            builder
                .event(Timestamp::new(base + 60 + i), EventKind::TaskStart(r))
                .unwrap();
        }
        for (i, &r) in (0..).zip(receivers) {
            builder
                .event(Timestamp::new(base + 70 + i), EventKind::TaskEnd(r))
                .unwrap();
        }
        builder.end_period().unwrap();
    }

    /// a and b end before the messages, c starts after them.
    fn consistent_period(builder: &mut TraceBuilder, base: u64, messages: usize) {
        let u = universe3();
        let [a, b, c] = ["a", "b", "c"].map(|n| u.lookup(n).unwrap());
        fan_period(builder, base, &[a, b], &[c], messages);
    }

    fn inconsistent_period(builder: &mut TraceBuilder, base: u64) {
        let u = universe3();
        let c = u.lookup("c").unwrap();
        builder.begin_period();
        builder
            .message(Timestamp::new(base + 1), Timestamp::new(base + 2))
            .unwrap();
        builder
            .task(c, Timestamp::new(base + 10), Timestamp::new(base + 20))
            .unwrap();
        builder.end_period().unwrap();
    }

    fn trace(periods: usize) -> Trace {
        let mut builder = TraceBuilder::new(universe3());
        for p in 0..periods {
            consistent_period(&mut builder, p as u64 * 1000, 1 + p % 2);
        }
        builder.finish()
    }

    /// Consistent, inconsistent, consistent.
    fn mixed_trace() -> Trace {
        let mut builder = TraceBuilder::new(universe3());
        consistent_period(&mut builder, 0, 1);
        inconsistent_period(&mut builder, 1000);
        consistent_period(&mut builder, 2000, 1);
        builder.finish()
    }

    fn run_all(learner: &mut IncrementalLearner, trace: &Trace, from: usize) {
        for period in &trace.periods()[from..] {
            learner.push_period(period).unwrap();
        }
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run_at_every_split() {
        let trace = trace(5);
        let options = LearnOptions::exact();

        let mut straight = IncrementalLearner::new(3, options);
        run_all(&mut straight, &trace, 0);
        let expected = straight.finish();

        for split in 0..=trace.periods().len() {
            let mut prefix = IncrementalLearner::new(3, options);
            for period in &trace.periods()[..split] {
                prefix.push_period(period).unwrap();
            }
            let saved = prefix.checkpoint();
            let json = saved.to_json();
            let restored = Checkpoint::parse_json(&json).unwrap();
            // The serialized budget clock is microsecond-granular.
            let mut expected_ckpt = saved.clone();
            expected_ckpt.elapsed =
                std::time::Duration::from_micros(u64::try_from(saved.elapsed.as_micros()).unwrap());
            assert_eq!(restored, expected_ckpt, "split {split}");
            let mut resumed = IncrementalLearner::resume(restored).unwrap();
            assert_eq!(resumed.pushed_periods(), split);
            run_all(&mut resumed, &trace, split);
            let result = resumed.finish();
            assert_eq!(result.hypotheses(), expected.hypotheses(), "split {split}");
            assert_eq!(result.stats(), expected.stats(), "split {split}");
        }
    }

    #[test]
    fn quarantine_rolls_back_and_counts() {
        let trace = mixed_trace();
        let options = LearnOptions::exact().with_on_inconsistent(OnInconsistent::SkipPeriod);
        let mut learner = IncrementalLearner::new(3, options);
        assert_eq!(
            learner.push_period(&trace.periods()[0]).unwrap(),
            Observed::Accepted
        );
        let before = learner.fingerprint();
        assert!(matches!(
            learner.push_period(&trace.periods()[1]).unwrap(),
            Observed::Skipped(_)
        ));
        assert_eq!(learner.fingerprint(), before, "skip restores state");
        assert_eq!(learner.pushed_periods(), 2, "skips advance the stream");
        learner.push_period(&trace.periods()[2]).unwrap();
        let result = learner.finish();
        assert_eq!(result.stats().periods, 2);
        assert_eq!(result.stats().skipped_periods.len(), 1);
    }

    #[test]
    fn set_limit_trip_falls_back_without_replay() {
        let u = TaskUniverse::from_names(["a", "b", "c", "d", "e"]);
        let senders = ["a", "b", "c"].map(|n| u.lookup(n).unwrap());
        let receivers = ["d", "e"].map(|n| u.lookup(n).unwrap());
        let mut builder = TraceBuilder::new(u);
        for p in 0..3 {
            fan_period(&mut builder, p * 1000, &senders, &receivers, 2);
        }
        let trace = builder.finish();
        let options = LearnOptions::exact().with_set_limit(2);
        // Under the default abort policy the trip is an error...
        assert!(matches!(
            learn(&trace, options),
            Err(LearnError::SetLimitExceeded { .. })
        ));
        // ...under the skip policy the engine switches to the bounded
        // heuristic and finishes.
        let options = options.with_on_inconsistent(OnInconsistent::SkipPeriod);
        let result = robust_learn(&trace, options).unwrap();
        let stats = result.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.periods, 3);
        assert!(stats.skipped_periods.is_empty());
        assert!(!result.hypotheses().is_empty());
        // The fallback survives a checkpoint: the restored learner is
        // still bounded and its options round-trip.
        let mut learner = IncrementalLearner::new(5, options);
        learner.push_period(&trace.periods()[0]).unwrap();
        assert!(
            learner.options().bound.is_some(),
            "fell back during period 0"
        );
        let restored = IncrementalLearner::resume(
            Checkpoint::parse_json(&learner.checkpoint().to_json()).unwrap(),
        )
        .unwrap();
        assert_eq!(restored.options(), learner.options());
    }

    /// The learner's state with the budget clock zeroed: the one field
    /// that moves while nothing is learned.
    fn state(learner: &IncrementalLearner) -> String {
        let mut checkpoint = learner.checkpoint();
        checkpoint.elapsed = Duration::ZERO;
        checkpoint.to_json()
    }

    #[test]
    fn abort_policy_turns_resource_trips_into_errors() {
        let u = TaskUniverse::from_names(["a", "b", "c", "d", "e"]);
        let senders = ["a", "b", "c"].map(|n| u.lookup(n).unwrap());
        let receivers = ["d", "e"].map(|n| u.lookup(n).unwrap());
        let mut builder = TraceBuilder::new(u);
        for p in 0..3 {
            fan_period(&mut builder, p * 1000, &senders, &receivers, 2);
        }
        let trace = builder.finish();
        let dir = std::env::temp_dir().join(format!("bbmg-abort-trips-{}", std::process::id()));
        for (options, trip) in [
            (LearnOptions::exact().with_set_limit(2), "set limit"),
            (
                LearnOptions::exact().with_budget(Budget::unlimited().with_max_steps(3)),
                "step budget",
            ),
        ] {
            let mut learner = IncrementalLearner::new(5, options);
            let mut recorder = bbmg_obs::Recorder::new();
            let error = trace
                .periods()
                .iter()
                .find_map(|period| {
                    let before = state(&learner);
                    let error = learner.push_period_with(period, &mut recorder).err()?;
                    assert_eq!(state(&learner), before, "{trip}: the push rolls back");
                    Some(error)
                })
                .unwrap_or_else(|| panic!("{trip}: the trace trips it"));
            assert!(
                matches!(
                    error,
                    LearnError::SetLimitExceeded { .. } | LearnError::BudgetExhausted { .. }
                ),
                "{trip}: {error:?}"
            );
            assert_eq!(learner.stats().fallbacks, 0, "{trip}: no fallback");
            assert!(learner.stats().skipped_periods.is_empty(), "{trip}");
            assert!(
                !recorder
                    .events()
                    .iter()
                    .any(|e| matches!(e.event, Event::Fallback { .. } | Event::Quarantine { .. })),
                "{trip}: nothing degrades"
            );

            assert_eq!(learn(&trace, options).unwrap_err(), error, "{trip}: learn");
            assert_eq!(
                crate::convergence_timeline(&trace, options).unwrap_err(),
                error,
                "{trip}: convergence_timeline"
            );
            let _ = std::fs::remove_dir_all(&dir);
            let mut cache = crate::ModelCache::open(&dir, NonZeroUsize::new(4).unwrap()).unwrap();
            match cache.learn(&trace, options) {
                Err(crate::CacheError::Learn(cached)) => {
                    assert_eq!(cached, error, "{trip}: ModelCache::learn");
                }
                other => panic!("{trip}: ModelCache::learn gave {other:?}"),
            }
            assert!(cache.is_empty(), "{trip}: nothing is cached");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_degradation_switches_to_bounded_once() {
        let trace = trace(2);
        let mut learner = IncrementalLearner::new(3, LearnOptions::exact())
            .with_fallback_bound(NonZeroUsize::new(8).unwrap());
        learner.push_period(&trace.periods()[0]).unwrap();
        assert!(learner.degrade());
        assert_eq!(learner.options().bound.unwrap().get(), 8);
        assert_eq!(learner.stats().fallbacks, 1);
        assert!(!learner.degrade(), "already bounded");
        learner.push_period(&trace.periods()[1]).unwrap();
        assert!(!learner.finish().hypotheses().is_empty());
    }

    #[test]
    fn budget_stop_keeps_partial_result_and_resumes() {
        let trace = trace(4);
        let options = LearnOptions::bounded(8)
            .with_budget(Budget::unlimited().with_max_steps(3))
            .with_on_inconsistent(OnInconsistent::SkipPeriod);
        let mut learner = IncrementalLearner::new(3, options);
        let mut stopped_at = None;
        for period in trace.periods() {
            match learner.push_period(period).unwrap() {
                Observed::Accepted | Observed::Skipped(_) => {}
                Observed::BudgetStopped { period: p } => {
                    stopped_at = Some(p);
                    break;
                }
            }
        }
        let p = stopped_at.expect("budget trips");
        learner.mark_unprocessed(p);
        let result = learner.finish();
        assert!(!result.hypotheses().is_empty());
        assert!(result
            .stats()
            .skipped_periods
            .iter()
            .any(|s| s.cause == SkipCause::BudgetExhausted));
    }

    #[test]
    fn resume_refuses_mismatched_shapes() {
        let mut ckpt = IncrementalLearner::new(3, LearnOptions::exact()).checkpoint();
        ckpt.ran_without.push(true);
        assert!(matches!(
            IncrementalLearner::resume(ckpt),
            Err(CheckpointError::Malformed { .. })
        ));
        let mut ckpt = IncrementalLearner::new(3, LearnOptions::exact()).checkpoint();
        ckpt.hypotheses = vec![DependencyFunction::bottom(4)];
        assert!(matches!(
            IncrementalLearner::resume(ckpt),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn abort_policy_propagates_inconsistency() {
        let err = robust_learn(&mixed_trace(), LearnOptions::exact()).unwrap_err();
        assert!(matches!(
            err,
            LearnError::Inconsistent {
                period: 1,
                message: Some(_)
            }
        ));
    }

    #[test]
    fn skip_policy_quarantines_and_continues() {
        let options = LearnOptions::exact().with_on_inconsistent(OnInconsistent::SkipPeriod);
        let result = robust_learn(&mixed_trace(), options).unwrap();
        let stats = result.stats();
        assert_eq!(stats.periods, 2, "both good periods learned");
        assert_eq!(stats.skipped_periods.len(), 1);
        let skip = &stats.skipped_periods[0];
        assert_eq!(skip.period, 1);
        assert!(matches!(
            skip.cause,
            SkipCause::Inconsistent { message: Some(_) }
        ));
        assert!(!result.hypotheses().is_empty());
    }

    #[test]
    fn step_budget_trip_in_exact_mode_falls_back() {
        let mut builder = TraceBuilder::new(universe3());
        for p in 0..4 {
            consistent_period(&mut builder, p * 1000, 2);
        }
        let trace = builder.finish();
        let options = LearnOptions::exact()
            .with_budget(Budget::unlimited().with_max_steps(3))
            .with_on_inconsistent(OnInconsistent::SkipPeriod);
        let result = robust_learn(&trace, options).unwrap();
        let stats = result.stats();
        assert_eq!(stats.fallbacks, 1);
        assert!(!result.hypotheses().is_empty());
        // The budget clock carries over the fallback: the exact phase
        // spent the steps, so the bounded learner stops at once and the
        // tail is accounted for as unprocessed.
        assert_eq!(stats.periods, 1);
        let unprocessed: Vec<usize> = stats
            .skipped_periods
            .iter()
            .filter(|s| s.cause == SkipCause::BudgetExhausted)
            .map(|s| s.period)
            .collect();
        assert_eq!(unprocessed, [1, 2, 3]);
    }

    /// A 16-task trace: one cheap period (a single unambiguous message),
    /// then — when `with_blowup` — a period whose two messages each have
    /// 8x8 feasible sender/receiver pairs, generating enough hypotheses to
    /// cross the sampled budget guard mid-period.
    fn cheap_then_blowup(with_blowup: bool) -> Trace {
        let names: Vec<String> = (0..8)
            .map(|i| format!("s{i}"))
            .chain((0..8).map(|i| format!("r{i}")))
            .collect();
        let u = TaskUniverse::from_names(names);
        let senders: Vec<_> = (0..8)
            .map(|i| u.lookup(&format!("s{i}")).unwrap())
            .collect();
        let receivers: Vec<_> = (0..8)
            .map(|i| u.lookup(&format!("r{i}")).unwrap())
            .collect();
        let mut b = TraceBuilder::new(u);
        // Cheap period: only s0 and r0 run, so the message has exactly one
        // feasible pair.
        fan_period(&mut b, 0, &senders[..1], &receivers[..1], 1);
        if with_blowup {
            fan_period(&mut b, 1000, &senders, &receivers, 2);
        }
        b.finish()
    }

    #[test]
    fn mid_period_budget_trip_rolls_back_to_the_last_full_period() {
        // The boundary check before the blow-up period passes (only a
        // handful of steps consumed), so the trip happens *mid-period*,
        // via the sampled guard. The partial branching work must be rolled
        // back: the result has to be byte-identical to learning a trace
        // that simply ends after the cheap period.
        let options = LearnOptions::bounded(16)
            .with_budget(Budget::unlimited().with_max_steps(1024))
            .with_on_inconsistent(OnInconsistent::SkipPeriod);
        let stopped = robust_learn(&cheap_then_blowup(true), options).unwrap();
        let clean = robust_learn(&cheap_then_blowup(false), options).unwrap();

        assert_eq!(stopped.stats().periods, 1, "only the cheap period counts");
        assert_eq!(
            stopped.stats().skipped_periods,
            [SkippedPeriod {
                period: 1,
                cause: SkipCause::BudgetExhausted
            }]
        );
        assert_eq!(
            stopped.hypotheses(),
            clean.hypotheses(),
            "no partial branching from the aborted period may leak through"
        );
    }

    #[test]
    fn wall_clock_budget_trips() {
        let trace = mixed_trace();
        let options = LearnOptions::bounded(8)
            .with_budget(Budget::unlimited().with_max_wall_clock(Duration::ZERO))
            .with_on_inconsistent(OnInconsistent::SkipPeriod);
        let result = robust_learn(&trace, options).unwrap();
        assert_eq!(result.stats().periods, 0);
        assert_eq!(result.stats().skipped_periods.len(), trace.periods().len());
        // d-bottom survives: the partial result is the no-information one.
        assert!(!result.hypotheses().is_empty());
    }
}
