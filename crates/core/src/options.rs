//! Learner configuration.

use std::num::NonZeroUsize;
use std::time::Duration;

/// The one failure policy of the [`crate::IncrementalLearner`], and so of
/// every entry point, for inconsistent periods and resource trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnInconsistent {
    /// Never degrade: an inconsistent period, a set-limit trip and a
    /// budget trip each propagate as a [`crate::LearnError`] and stop the
    /// run — the right call when the trace is trusted (a clean simulation)
    /// and inconsistency means a real bug.
    #[default]
    Abort,
    /// Quarantine an inconsistent period (roll back, record it in
    /// [`crate::LearnStats::skipped_periods`], continue), fall back to the
    /// bounded heuristic on an exact-mode resource trip, and stop early on
    /// a bounded-mode budget trip. Sound for the learned model — dropping
    /// observations can only leave the result *less* constrained, never
    /// wrong.
    SkipPeriod,
}

/// Resource budget for a learner run, checked before each period.
///
/// Either limit being reached surfaces as
/// [`crate::LearnError::BudgetExhausted`], which (unlike the other learner
/// errors) leaves the hypothesis set intact. Under
/// [`OnInconsistent::SkipPeriod`] the [`crate::IncrementalLearner`] falls
/// back to the bounded heuristic (seeded from the current antichain, with
/// the budget clock carried over, so the budget covers exact plus bounded
/// work) or stops early with the partial result; under
/// [`OnInconsistent::Abort`] it returns the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Maximum number of generation steps (hypotheses generated across all
    /// message branchings, [`crate::LearnStats::hypotheses_generated`]).
    pub max_steps: Option<NonZeroUsize>,
    /// Maximum wall-clock time since the learner was created.
    pub max_wall_clock: Option<Duration>,
}

impl Budget {
    /// No limits (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Returns `self` with a step limit (`None` removes it; zero is
    /// rejected as `None` would be ambiguous, use `max_steps` directly).
    #[must_use]
    pub fn with_max_steps(mut self, steps: usize) -> Self {
        self.max_steps = NonZeroUsize::new(steps);
        self
    }
}

/// How merged hypotheses combine their per-period assumption sets.
///
/// The paper's heuristic replaces the two lowest-weight hypotheses by their
/// least upper bound but does not state what happens to their message
/// assumptions. The default is [`Intersection`]: the merged hypothesis
/// keeps only the assumptions common to both parents. This is the policy
/// under which the paper's reported behaviour is reproducible — with
/// [`Union`], a small bound accumulates *every* branching alternative's
/// pair into one assumption set, and a later message in a busy period can
/// find all its candidates already "spoken for", aborting the run (the
/// paper's bound-1 run demonstrably succeeds, so union cannot be what the
/// authors did). [`Union`] is kept for the ablation benchmark (DESIGN.md
/// §4–5); both policies are sound, since joining dependency functions only
/// ever generalizes.
///
/// [`Union`]: MergeAssumptions::Union
/// [`Intersection`]: MergeAssumptions::Intersection
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeAssumptions {
    /// Merged hypothesis assumes every pair either parent assumed.
    Union,
    /// Merged hypothesis assumes only pairs both parents assumed
    /// (default).
    #[default]
    Intersection,
}

/// Options controlling [`crate::learn`] and [`crate::Learner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnOptions {
    /// Maximum number of concurrent hypotheses. `None` runs the exact
    /// (exponential) algorithm; `Some(b)` runs the paper's bounded
    /// heuristic with bound `b`.
    pub bound: Option<NonZeroUsize>,
    /// Assumption-merging policy for the bounded heuristic.
    pub merge_assumptions: MergeAssumptions,
    /// Whether candidate sender/receiver pairs are filtered by message
    /// timing (`true`, the paper's rule) or drawn from all ordered pairs of
    /// tasks executed in the period (`false`; ablation only — strictly more
    /// branching, same soundness).
    pub timing_filter: bool,
    /// Whether message joins consult execution history so the minimal
    /// generalization respects *all* instances seen so far (`true`, the
    /// version-space invariant required to reproduce the paper's tables —
    /// see DESIGN.md §4). `false` joins the naive `→`/`←` values and can
    /// emit hypotheses contradicting earlier periods; kept as an ablation
    /// of the reconstruction decision.
    pub history_aware: bool,
    /// Resource guard for the exact algorithm: if the working hypothesis
    /// set ever exceeds this size, learning aborts with
    /// [`crate::LearnError::SetLimitExceeded`] instead of consuming
    /// unbounded time and memory (the problem is NP-hard, paper
    /// Theorem 1). Ignored in bounded mode, where the bound caps the set.
    pub set_limit: Option<NonZeroUsize>,
    /// Failure policy at every entry point (see [`OnInconsistent`]).
    pub on_inconsistent: OnInconsistent,
    /// Step/wall-clock budget, checked before each period.
    pub budget: Budget,
    /// Worker threads for the data-parallel sweeps (exact-mode message
    /// branching, the redundancy scan, matching/convergence sweeps).
    /// `1` (the default) keeps everything on the calling thread. Results
    /// are **byte-identical at every setting** — parallel workers only
    /// generate; all merging, dedup, statistics and observer events happen
    /// in a deterministic ordered reduce (DESIGN.md §11). Bounded-mode
    /// merging itself stays sequential regardless (its semantics are
    /// order-dependent, §3.2), but still profits from the packed kernels.
    pub parallelism: NonZeroUsize,
}

impl Default for LearnOptions {
    /// Defaults to the exact algorithm with timing filtering.
    fn default() -> Self {
        LearnOptions {
            bound: None,
            merge_assumptions: MergeAssumptions::default(),
            timing_filter: true,
            history_aware: true,
            set_limit: None,
            on_inconsistent: OnInconsistent::default(),
            budget: Budget::default(),
            parallelism: NonZeroUsize::MIN,
        }
    }
}

impl LearnOptions {
    /// The exact (unbounded) algorithm.
    #[must_use]
    pub fn exact() -> Self {
        Self::default()
    }

    /// The bounded heuristic with bound `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`. Config-driven callers (CLI flags, files) should
    /// prefer [`try_bounded`](Self::try_bounded).
    #[must_use]
    pub fn bounded(b: usize) -> Self {
        Self::try_bounded(b).expect("bound must be nonzero")
    }

    /// Non-panicking [`bounded`](Self::bounded): `None` if `b == 0` (zero
    /// hypotheses cannot represent anything, so there is no meaningful
    /// fallback value).
    #[must_use]
    pub fn try_bounded(b: usize) -> Option<Self> {
        Some(LearnOptions {
            bound: Some(NonZeroUsize::new(b)?),
            ..Self::default()
        })
    }

    /// Returns `self` with the given assumption-merge policy.
    #[must_use]
    pub fn with_merge_assumptions(mut self, policy: MergeAssumptions) -> Self {
        self.merge_assumptions = policy;
        self
    }

    /// Returns `self` with timing-based candidate filtering switched
    /// on/off.
    #[must_use]
    pub fn with_timing_filter(mut self, enabled: bool) -> Self {
        self.timing_filter = enabled;
        self
    }

    /// Returns `self` with history-aware generalization switched on/off
    /// (ablation; see [`LearnOptions::history_aware`]).
    #[must_use]
    pub fn with_history_aware(mut self, enabled: bool) -> Self {
        self.history_aware = enabled;
        self
    }

    /// Returns `self` with a working-set resource guard (see
    /// [`LearnOptions::set_limit`]).
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`. Config-driven callers should prefer
    /// [`try_with_set_limit`](Self::try_with_set_limit).
    #[must_use]
    pub fn with_set_limit(self, limit: usize) -> Self {
        self.try_with_set_limit(limit)
            .expect("limit must be nonzero")
    }

    /// Non-panicking [`with_set_limit`](Self::with_set_limit): `None` if
    /// `limit == 0` (a zero-size working set can never hold a hypothesis).
    #[must_use]
    pub fn try_with_set_limit(mut self, limit: usize) -> Option<Self> {
        self.set_limit = Some(NonZeroUsize::new(limit)?);
        Some(self)
    }

    /// Returns `self` with the given inconsistency policy (see
    /// [`OnInconsistent`]).
    #[must_use]
    pub fn with_on_inconsistent(mut self, policy: OnInconsistent) -> Self {
        self.on_inconsistent = policy;
        self
    }

    /// Returns `self` with the given resource [`Budget`].
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns `self` running data-parallel sweeps on `threads` workers
    /// (see [`LearnOptions::parallelism`]; results are identical at every
    /// setting).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`. Config-driven callers should prefer
    /// [`try_with_parallelism`](Self::try_with_parallelism).
    #[must_use]
    pub fn with_parallelism(self, threads: usize) -> Self {
        self.try_with_parallelism(threads)
            .expect("thread count must be nonzero")
    }

    /// Non-panicking [`with_parallelism`](Self::with_parallelism): `None`
    /// if `threads == 0` (zero workers cannot make progress; callers that
    /// want "auto" should resolve `std::thread::available_parallelism`
    /// themselves).
    #[must_use]
    pub fn try_with_parallelism(mut self, threads: usize) -> Option<Self> {
        self.parallelism = NonZeroUsize::new(threads)?;
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_has_no_bound() {
        assert_eq!(LearnOptions::exact().bound, None);
        assert!(LearnOptions::exact().timing_filter);
    }

    #[test]
    fn bounded_sets_bound() {
        assert_eq!(LearnOptions::bounded(16).bound.unwrap().get(), 16);
    }

    #[test]
    #[should_panic(expected = "bound must be nonzero")]
    fn zero_bound_panics() {
        let _ = LearnOptions::bounded(0);
    }

    #[test]
    fn builder_style_setters() {
        let o = LearnOptions::bounded(4)
            .with_merge_assumptions(MergeAssumptions::Intersection)
            .with_timing_filter(false);
        assert_eq!(o.merge_assumptions, MergeAssumptions::Intersection);
        assert!(!o.timing_filter);
    }
}

#[cfg(test)]
mod set_limit_tests {
    use super::*;

    #[test]
    fn with_set_limit_sets_guard() {
        let o = LearnOptions::exact().with_set_limit(1000);
        assert_eq!(o.set_limit.unwrap().get(), 1000);
        assert_eq!(LearnOptions::exact().set_limit, None);
    }

    #[test]
    fn try_constructors_reject_zero_without_panicking() {
        assert_eq!(LearnOptions::try_bounded(0), None);
        assert_eq!(LearnOptions::exact().try_with_set_limit(0), None);
        let o = LearnOptions::try_bounded(8).unwrap();
        assert_eq!(o.bound.unwrap().get(), 8);
        let o = LearnOptions::exact().try_with_set_limit(9).unwrap();
        assert_eq!(o.set_limit.unwrap().get(), 9);
    }

    #[test]
    fn parallelism_defaults_to_one_and_rejects_zero() {
        assert_eq!(LearnOptions::default().parallelism.get(), 1);
        assert_eq!(LearnOptions::exact().try_with_parallelism(0), None);
        assert_eq!(
            LearnOptions::exact().with_parallelism(8).parallelism.get(),
            8
        );
    }

    #[test]
    fn degradation_options_default_off() {
        let o = LearnOptions::default();
        assert_eq!(o.on_inconsistent, OnInconsistent::Abort);
        assert_eq!(o.budget, Budget::unlimited());
        let o = o
            .with_on_inconsistent(OnInconsistent::SkipPeriod)
            .with_budget(Budget::unlimited().with_max_steps(100));
        assert_eq!(o.on_inconsistent, OnInconsistent::SkipPeriod);
        assert_eq!(o.budget.max_steps.unwrap().get(), 100);
        assert_eq!(Budget::unlimited().with_max_steps(0).max_steps, None);
    }
}
