//! The incremental generalization engine (paper §3.1–§3.2).

use bbmg_lattice::{packed, DependencyFunction, DependencyValue, FunctionArena, TaskId};
use bbmg_obs::{NoopObserver, Observer};
use bbmg_trace::Period;

use crate::error::LearnError;
use crate::history::ExecutionHistory;
use crate::options::{LearnOptions, MergeAssumptions};
use crate::stats::LearnStats;
use crate::weight_queue::WeightQueue;

/// How many generated hypotheses pass between mid-period budget checks.
///
/// The hot loop used to consult the wall clock only at period boundaries;
/// sampling every 1024 steps bounds how far a combinatorial blow-up can
/// overshoot [`crate::Budget::max_wall_clock`] while keeping
/// `Instant::now` (tens of nanoseconds, comparable to one branching step)
/// off the per-hypothesis path.
pub const BUDGET_SAMPLE_INTERVAL: usize = 1024;

/// One message's branching state, reused across a period's messages.
///
/// `rows` holds every admitted child in admission order — children stay
/// there after a merge consumes them, because dedup is defined over
/// *generated* children — and, in bounded mode, every merged row, which
/// is never a dedup key. `working` is the bounded working list of row
/// handles, popped by ascending weight, FIFO among equals. `parents`
/// lists the message-start rows that branch: in bounded mode those that
/// repeat no earlier row, in exact mode all of them.
struct Branch {
    rows: FunctionArena,
    working: WeightQueue,
    parents: Vec<usize>,
}

/// The incremental learner: feed it periods with [`observe`], read the
/// current most-specific hypothesis set at any time.
///
/// It has no failure policy; [`IncrementalLearner`](crate::IncrementalLearner)
/// drives it for every entry point.
///
/// Starts from `D0 = {d⊥}` and, per period:
///
/// 1. *weakens* every hypothesis to stay consistent with the period's
///    execution set (`→` claims about absent tasks become `→?`, …);
/// 2. for each message in timestamp order, *branches* every hypothesis over
///    the message's timing-feasible sender/receiver pairs not yet assumed
///    this period, generalizing minimally (`d1jk` construction, §3.1) — in
///    bounded mode, overflow beyond the bound merges the two lowest-weight
///    hypotheses into their least upper bound (§3.2);
/// 3. *post-processes*: strips assumptions, unifies equal hypotheses and
///    deletes redundant (dominated) ones.
///
/// [`observe`]: Learner::observe
#[derive(Debug, Clone)]
pub struct Learner {
    options: LearnOptions,
    tasks: usize,
    /// The antichain between periods; a period works on it as flat
    /// [`FunctionArena`] rows and converts back once at its end.
    hypotheses: Vec<DependencyFunction>,
    history: ExecutionHistory,
    stats: LearnStats,
    /// Creation time, the reference point for the wall-clock budget.
    started: std::time::Instant,
}

impl Learner {
    /// Creates a learner over a universe of `tasks` tasks.
    #[must_use]
    pub fn new(tasks: usize, options: LearnOptions) -> Self {
        Learner {
            options,
            tasks,
            hypotheses: vec![DependencyFunction::bottom(tasks)],
            history: ExecutionHistory::new(tasks),
            stats: LearnStats::default(),
            started: std::time::Instant::now(),
        }
    }

    /// The options the learner was built with.
    #[must_use]
    pub fn options(&self) -> &LearnOptions {
        &self.options
    }

    /// The current hypothesis set (assumption-free between periods),
    /// ordered by ascending weight.
    #[must_use]
    pub fn hypotheses(&self) -> Vec<&DependencyFunction> {
        self.hypotheses.iter().collect()
    }

    /// Number of hypotheses currently maintained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.hypotheses.len()
    }

    /// Whether the hypothesis set is empty (only after an error).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.hypotheses.is_empty()
    }

    /// Whether the learner has converged to a unique most-specific
    /// solution (paper §3.1: "If only one hypothesis is left …").
    #[must_use]
    pub fn converged(&self) -> bool {
        self.hypotheses.len() == 1
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        &self.stats
    }

    /// Mutable statistics access for the [`crate::IncrementalLearner`]
    /// (recording skips without re-deriving counters).
    pub(crate) fn stats_mut(&mut self) -> &mut LearnStats {
        &mut self.stats
    }

    /// The execution history accumulated so far (for checkpointing).
    pub(crate) fn history(&self) -> &ExecutionHistory {
        &self.history
    }

    /// Wall-clock time consumed so far against the budget (for
    /// checkpointing — `Instant` itself cannot be serialized).
    pub(crate) fn budget_elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Rebuilds a learner from checkpointed state. Only meaningful at a
    /// period boundary, where hypotheses carry no assumptions. The budget
    /// clock resumes from `elapsed`: a restored learner has already spent
    /// that much of its wall-clock budget.
    pub(crate) fn from_state(
        tasks: usize,
        options: LearnOptions,
        functions: Vec<DependencyFunction>,
        history: ExecutionHistory,
        stats: LearnStats,
        elapsed: std::time::Duration,
    ) -> Self {
        let now = std::time::Instant::now();
        Learner {
            options,
            tasks,
            hypotheses: functions,
            history,
            stats,
            started: now.checked_sub(elapsed).unwrap_or(now),
        }
    }

    /// Checks the step/wall-clock budget. `Err` leaves all state intact.
    fn check_budget(&self, period: usize) -> Result<(), LearnError> {
        let budget = &self.options.budget;
        let tripped = budget
            .max_steps
            .is_some_and(|limit| self.stats.hypotheses_generated >= limit.get())
            || budget
                .max_wall_clock
                .is_some_and(|limit| self.started.elapsed() >= limit);
        if tripped {
            return Err(LearnError::BudgetExhausted {
                period,
                steps: self.stats.hypotheses_generated,
            });
        }
        Ok(())
    }

    /// Sampled mid-period budget check (see [`BUDGET_SAMPLE_INTERVAL`]):
    /// reads the wall clock at most once per sample window instead of per
    /// generated hypothesis, and emits a `budget_tick` heartbeat when an
    /// observer is listening.
    fn sampled_budget_check<O: Observer + ?Sized>(
        &self,
        period: usize,
        observer: &mut O,
    ) -> Result<(), LearnError> {
        let budget = &self.options.budget;
        let steps = self.stats.hypotheses_generated;
        // `Instant::now` is the expensive part; skip it entirely unless a
        // wall-clock limit is set or a sink wants the heartbeat.
        if budget.max_wall_clock.is_none() && !observer.is_enabled() {
            if budget.max_steps.is_some_and(|limit| steps >= limit.get()) {
                return Err(LearnError::BudgetExhausted { period, steps });
            }
            return Ok(());
        }
        let elapsed = self.started.elapsed();
        observer.budget_tick(
            steps,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        );
        let tripped = budget.max_steps.is_some_and(|limit| steps >= limit.get())
            || budget.max_wall_clock.is_some_and(|limit| elapsed >= limit);
        if tripped {
            return Err(LearnError::BudgetExhausted { period, steps });
        }
        Ok(())
    }

    /// Processes one period.
    ///
    /// # Errors
    ///
    /// [`LearnError::UniverseMismatch`] if the period was built over a
    /// different task count; [`LearnError::Inconsistent`] if the hypothesis
    /// set becomes empty (trace errors or inexpressible behaviour, §3.1);
    /// [`LearnError::SetLimitExceeded`] if an exact-mode period's working
    /// set outgrows [`LearnOptions::set_limit`], which empties the
    /// learner; [`LearnError::BudgetExhausted`] if the configured
    /// [`crate::Budget`] ran out — the step/wall-clock guard runs before
    /// the period is touched and then once every
    /// [`BUDGET_SAMPLE_INTERVAL`] generated hypotheses, so a blow-up
    /// inside one period is cut short; a mid-period trip keeps the
    /// pre-period hypothesis set but leaves history and statistics
    /// partway through the period. After an `Inconsistent` or
    /// `SetLimitExceeded` error the learner is empty and further
    /// observations keep failing. [`IncrementalLearner`](crate::IncrementalLearner)
    /// rolls back every error and applies the failure policy.
    pub fn observe(&mut self, period: &Period) -> Result<(), LearnError> {
        self.observe_with(period, &mut NoopObserver)
    }

    /// [`observe`](Learner::observe) with instrumentation: every branching
    /// step, set-size change, merge, and budget heartbeat is reported to
    /// `observer`. `observe` itself delegates here with
    /// [`NoopObserver`], whose empty hooks inline away — the uninstrumented
    /// path pays nothing (measured by the `observer_overhead` example
    /// in `BENCH_observer.json`).
    ///
    /// # Errors
    ///
    /// As [`observe`](Learner::observe).
    pub fn observe_with<O: Observer + ?Sized>(
        &mut self,
        period: &Period,
        observer: &mut O,
    ) -> Result<(), LearnError> {
        if period.universe() != self.tasks {
            return Err(LearnError::UniverseMismatch {
                expected: self.tasks,
                actual: period.universe(),
            });
        }
        self.check_budget(period.index())?;
        if self.hypotheses.is_empty() {
            return Err(LearnError::Inconsistent {
                period: period.index(),
                message: None,
            });
        }
        observer.period_start(period.index());

        // Step 1: execution-consistency weakening of claims introduced in
        // earlier periods, and history bookkeeping for claims introduced
        // later (the version-space invariant: hypotheses must keep matching
        // *all* instances, so a message join below may have to start at
        // `→?` when an earlier period already contradicts `→`). The
        // antichain becomes this period's rows here, weakened in one word
        // pass under the period's cell mask.
        let executed = period.executed_tasks();
        self.history.observe(executed);
        let mut set = FunctionArena::with_pair_sets(self.tasks);
        for d in &self.hypotheses {
            set.push(d);
        }
        set.weaken(&packed::weakening_mask(executed));
        let max_weight = DependencyValue::MayMutual.distance()
            * (self.tasks * self.tasks.saturating_sub(1)) as u64;
        let mut branch = Branch {
            rows: set.empty_like(),
            working: WeightQueue::new(max_weight),
            parents: Vec::new(),
        };

        // Step 2: message-guided generalization.
        for message in period.messages() {
            let candidates = if self.options.timing_filter {
                period.candidate_pairs(message)
            } else {
                all_executed_pairs(period)
            };
            self.stats.candidate_pairs_total += candidates.len();
            self.stats.messages += 1;

            // The minimal generalization values per candidate pair are
            // hypothesis-independent: look them up once per message, not
            // once per (hypothesis, candidate).
            let joins: Vec<(DependencyValue, DependencyValue)> = candidates
                .iter()
                .map(|&(s, r)| {
                    if self.options.history_aware {
                        (
                            self.history.forward_value(s, r),
                            self.history.backward_value(s, r),
                        )
                    } else {
                        // Ablation: the naive join that only respects the
                        // current instance (violates the version-space
                        // invariant; see LearnOptions::history_aware).
                        (DependencyValue::Determines, DependencyValue::DependsOn)
                    }
                })
                .collect();

            let generated_before = self.stats.hypotheses_generated;
            self.branch_message(
                period.index(),
                observer,
                &mut set,
                &mut branch,
                &candidates,
                &joins,
            )?;
            #[cfg(feature = "debug-invariants")]
            if let Some(row) = set.first_stale_row() {
                panic!(
                    "debug-invariants[period {}, message {}]: row {row} of the message store \
                     has a stale cached weight or row hash",
                    period.index(),
                    message.id.index()
                );
            }
            observer.message_branch(
                period.index(),
                message.id.index(),
                candidates.len(),
                self.stats.hypotheses_generated - generated_before,
            );
            observer.hypothesis_set(period.index(), set.len());
            self.stats.observe_set_size(set.len());
            if set.is_empty() {
                self.hypotheses.clear();
                return Err(LearnError::Inconsistent {
                    period: period.index(),
                    message: Some(message.id),
                });
            }
        }

        // Step 3: post-processing — strip assumptions, unify, delete
        // redundant hypotheses.
        self.hypotheses = Self::remove_redundant(set, branch.rows);
        self.stats.periods += 1;
        self.stats.set_sizes_per_period.push(self.hypotheses.len());
        observer.period_end(period.index(), self.hypotheses.len());
        Ok(())
    }

    /// Branches every row of `set` over one message's candidates (paper
    /// §3.1, and §3.2 in bounded mode), leaving the message's result set
    /// in `set`.
    ///
    /// Every (row, candidate) pair whose pair the row has not yet assumed
    /// this period spawns a child row in (row-major, candidate-minor)
    /// order, and each child is admitted — dedup, statistics, budget
    /// sampling, set-limit checks, overflow merges and observer events —
    /// as soon as it is generated (see [`admit`](Self::admit)), so
    /// merged rows never spawn children within the message. Bounded-mode
    /// results depend on that order:
    /// each overflow merges the two currently lowest-weight rows, and
    /// Theorem 4's convergence argument is about precisely this
    /// interleaving of insertions and merges.
    ///
    /// In bounded mode a message-start row that repeats an earlier one word
    /// for word (function and pair set) does not branch. A child depends
    /// only on its parent row, the candidate and the join values, so the
    /// earlier copy has already offered an equal child for every
    /// candidate; that child, or an equal row before it, is in the dedup
    /// index, which keeps its rows for the rest of the message. So every
    /// child of the repeat would be dropped by `admit` before it is
    /// counted, sampled, queued or reported. Exact-mode stores are the
    /// dedup index's own unique rows, so every row branches.
    fn branch_message<O: Observer + ?Sized>(
        &mut self,
        period: usize,
        observer: &mut O,
        set: &mut FunctionArena,
        branch: &mut Branch,
        candidates: &[(TaskId, TaskId)],
        joins: &[(DependencyValue, DependencyValue)],
    ) -> Result<(), LearnError> {
        branch.rows.clear();
        if self.options.bound.is_some() {
            set.distinct_rows(&mut branch.parents);
        } else {
            branch.parents.clear();
            branch.parents.extend(0..set.len());
        }
        for p in 0..branch.parents.len() {
            let parent = branch.parents[p];
            for (ci, &(s, r)) in candidates.iter().enumerate() {
                // At most one message per sender/receiver pair per
                // period: a pair already assumed is spoken for.
                if set.has_pair(parent, s, r) {
                    continue;
                }
                let (forward, backward) = joins[ci];
                branch.rows.push_child(set, parent, s, r, forward, backward);
                self.admit(period, observer, branch)?;
            }
        }
        if self.options.bound.is_some() {
            set.clear();
            while let Some((_, row)) = branch.working.pop_min() {
                set.push_copy(&branch.rows, row);
            }
        } else {
            // The exact algorithm keeps every unique child, unordered:
            // sorted insertion would cost O(n^2) across a blow-up.
            std::mem::swap(set, &mut branch.rows);
        }
        Ok(())
    }

    /// The per-child step for the child just appended to `branch.rows`:
    /// dedup → count → sampled budget check → then, in
    /// exact mode, the set-limit guard, or in bounded mode insertion into
    /// the working list and the overflow merge of the two lowest-weight
    /// rows into their least upper bound (§3.2). A duplicate child leaves
    /// no trace: it is popped before it is counted.
    ///
    /// The working list's weight buckets hand over the two lowest rows in
    /// O(1), in the order a weight-sorted list with stable insertion
    /// would.
    fn admit<O: Observer + ?Sized>(
        &mut self,
        period: usize,
        observer: &mut O,
        branch: &mut Branch,
    ) -> Result<(), LearnError> {
        let Ok(row) = branch.rows.index_last() else {
            return Ok(());
        };
        self.stats.hypotheses_generated += 1;
        if self
            .stats
            .hypotheses_generated
            .is_multiple_of(BUDGET_SAMPLE_INTERVAL)
        {
            self.sampled_budget_check(period, observer)?;
        }
        let Some(bound) = self.options.bound else {
            if let Some(limit) = self.options.set_limit {
                if branch.rows.len() > limit.get() {
                    self.hypotheses.clear();
                    return Err(LearnError::SetLimitExceeded {
                        period,
                        limit: limit.get(),
                    });
                }
            }
            return Ok(());
        };
        branch.working.push(branch.rows.weight(row), row);
        if branch.working.len() > bound.get() {
            let (wa, a) = branch.working.pop_min().expect("overflow implies nonempty");
            let (wb, b) = branch.working.pop_min().expect("bound >= 1");
            let union = self.options.merge_assumptions == MergeAssumptions::Union;
            let merged = branch.rows.push_merge(a, b, union);
            let weight = branch.rows.weight(merged);
            observer.merge(period, (wa, wb), weight);
            branch.working.push(weight, merged);
            self.stats.merges += 1;
        }
        Ok(())
    }

    /// Post-processing: strips the period's assumptions from `set`,
    /// unifies equal functions and removes dominated ones (`d` is
    /// redundant iff some other `d'` satisfies `d' ⊑ d`, `d' ≠ d`),
    /// returning the survivors weight-sorted, ties in first-seen order.
    ///
    /// The rows are copied once, in stable weight order, into `unique`
    /// (the period's spare store) through the shared fingerprint-first
    /// dedup index; sorting first and keeping first occurrences is the
    /// same as deduplicating first, because equal functions have equal
    /// weights. The domination scan then runs over `unique`'s function
    /// words: each probe is a `partition_point` over adjacent cached
    /// weights followed by a batched `leq` sweep of adjacent rows. Weight
    /// sorting makes the prefix sufficient: a strict dominator is
    /// strictly more specific and weight is strictly monotone on the
    /// order, so only the strictly-lower-weight prefix can dominate an
    /// entry.
    fn remove_redundant(
        mut set: FunctionArena,
        mut unique: FunctionArena,
    ) -> Vec<DependencyFunction> {
        set.clear_pairs();
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by_key(|&i| set.weight(i));
        unique.clear();
        for i in order {
            unique.push_copy(&set, i);
            // A duplicate is dropped; the first occurrence stays.
            let _ = unique.index_last();
        }
        (0..unique.len())
            .filter(|&i| {
                let prefix = unique.weights().partition_point(|&w| w < unique.weight(i));
                !unique.dominated_in_prefix(i, prefix)
            })
            .map(|i| unique.get(i))
            .collect()
    }

    /// Finishes the run, producing a [`LearnResult`].
    #[must_use]
    pub fn into_result(self) -> LearnResult {
        LearnResult {
            hypotheses: self.hypotheses,
            stats: self.stats,
        }
    }
}

/// All ordered pairs of distinct tasks that executed in `period` (the
/// unfiltered candidate set used by the timing-filter ablation).
fn all_executed_pairs(period: &Period) -> Vec<(TaskId, TaskId)> {
    let executed: Vec<TaskId> = period.executed_tasks().iter().collect();
    let mut pairs = Vec::with_capacity(executed.len() * executed.len());
    for &s in &executed {
        for &r in &executed {
            if s != r {
                pairs.push((s, r));
            }
        }
    }
    pairs
}

/// The outcome of a completed learner run.
#[derive(Debug, Clone)]
pub struct LearnResult {
    hypotheses: Vec<DependencyFunction>,
    stats: LearnStats,
}

impl LearnResult {
    /// The most-specific hypothesis set, ordered by ascending weight.
    #[must_use]
    pub fn hypotheses(&self) -> &[DependencyFunction] {
        &self.hypotheses
    }

    /// Whether the run converged to a unique hypothesis.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.hypotheses.len() == 1
    }

    /// The least upper bound of all remaining hypotheses — the paper's
    /// `d_LUB` summary (§3.3), and by Theorem 4 the exact value the bound-1
    /// heuristic converges to. `None` if the set is empty.
    #[must_use]
    pub fn lub(&self) -> Option<DependencyFunction> {
        let mut iter = self.hypotheses.iter();
        let mut acc = iter.next()?.clone();
        for d in iter {
            // In-place word joins: one accumulator allocation for the
            // whole fold instead of one fresh matrix per hypothesis.
            acc.join_in_place(d);
        }
        Some(acc)
    }

    /// Run statistics.
    #[must_use]
    pub fn stats(&self) -> &LearnStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::{DependencyValue as V, TaskUniverse};
    use bbmg_trace::{Timestamp, Trace, TraceBuilder};

    use super::*;
    use crate::matching::matches_trace;
    use crate::{learn, learn_with};

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    /// Period 1 of the paper's Figure 2: t1 [m1] t2 [m2] t4 over a 4-task
    /// universe.
    fn figure_2_period_1() -> Trace {
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.message(Timestamp::new(32), Timestamp::new(34)).unwrap();
        b.task(t(3), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        b.finish()
    }

    #[test]
    fn first_message_yields_d11_and_d12() {
        // Process only m1 by truncating the trace to a period with m1 only.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.task(t(1), Timestamp::new(20), Timestamp::new(30))
            .unwrap();
        b.task(t(3), Timestamp::new(40), Timestamp::new(50))
            .unwrap();
        b.end_period().unwrap();
        let trace = b.finish();

        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d11 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "||"],
            &["<-", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["||", "||", "||", "||"],
        ])
        .unwrap();
        let d12 = DependencyFunction::from_rows(&[
            &["||", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["<-", "||", "||", "||"],
        ])
        .unwrap();
        assert_eq!(result.hypotheses().len(), 2);
        assert!(result.hypotheses().contains(&d11));
        assert!(result.hypotheses().contains(&d12));
    }

    #[test]
    fn period_1_yields_d21_d22_d23() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let d21 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "->"],
            &["<-", "||", "||", "||"],
            &["||", "||", "||", "||"],
            &["<-", "||", "||", "||"],
        ])
        .unwrap();
        let d22 = DependencyFunction::from_rows(&[
            &["||", "->", "||", "||"],
            &["<-", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["||", "<-", "||", "||"],
        ])
        .unwrap();
        let d23 = DependencyFunction::from_rows(&[
            &["||", "||", "||", "->"],
            &["||", "||", "||", "->"],
            &["||", "||", "||", "||"],
            &["<-", "<-", "||", "||"],
        ])
        .unwrap();
        assert_eq!(result.hypotheses().len(), 3);
        for d in [&d21, &d22, &d23] {
            assert!(result.hypotheses().contains(d), "missing\n{d:?}");
        }
    }

    #[test]
    fn every_returned_hypothesis_matches_the_trace() {
        // Theorem 2 instance check.
        let trace = figure_2_period_1();
        for options in [LearnOptions::exact(), LearnOptions::bounded(2)] {
            let result = learn(&trace, options).unwrap();
            for d in result.hypotheses() {
                assert!(matches_trace(d, &trace));
            }
        }
    }

    #[test]
    fn bounded_run_respects_bound_and_merges() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::bounded(1)).unwrap();
        assert!(result.converged());
        assert!(result.stats().merges > 0);
        // Theorem 4 / lemma shape: bound-1 result equals LUB of exact set.
        let exact = learn(&trace, LearnOptions::exact()).unwrap();
        assert_eq!(result.hypotheses()[0], exact.lub().unwrap());
    }

    #[test]
    fn inconsistent_trace_reports_error() {
        // One message but only one executed task: no candidate pairs.
        let u = TaskUniverse::from_names(["a", "b"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.message(Timestamp::new(12), Timestamp::new(14)).unwrap();
        b.end_period().unwrap();
        let trace = b.finish();
        let err = learn(&trace, LearnOptions::exact()).unwrap_err();
        assert!(matches!(err, LearnError::Inconsistent { period: 0, .. }));
    }

    #[test]
    fn universe_mismatch_reports_error() {
        let trace = figure_2_period_1();
        let mut learner = Learner::new(3, LearnOptions::exact());
        let err = learner.observe(&trace.periods()[0]).unwrap_err();
        assert!(matches!(
            err,
            LearnError::UniverseMismatch {
                expected: 3,
                actual: 4
            }
        ));
    }

    #[test]
    fn empty_universe_learns_the_empty_function() {
        // Zero tasks make zero-word rows; every row kernel must cope.
        let mut b = TraceBuilder::new(TaskUniverse::new());
        b.begin_period();
        b.end_period().unwrap();
        let trace = b.finish();
        for options in [LearnOptions::exact(), LearnOptions::bounded(2)] {
            let result = learn(&trace, options).unwrap();
            assert_eq!(result.hypotheses(), [DependencyFunction::bottom(0)]);
        }
    }

    #[test]
    fn empty_trace_converges_to_bottom() {
        let learner = Learner::new(4, LearnOptions::exact());
        assert!(learner.converged());
        let result = learner.into_result();
        assert!(result.hypotheses()[0].is_bottom());
        assert_eq!(result.lub().unwrap(), DependencyFunction::bottom(4));
    }

    #[test]
    fn timing_filter_off_is_more_general() {
        let trace = figure_2_period_1();
        let with = learn(&trace, LearnOptions::exact()).unwrap();
        let without = learn(&trace, LearnOptions::exact().with_timing_filter(false)).unwrap();
        // Every timing-filtered hypothesis is dominated by (or equal to)
        // some unfiltered hypothesis: the unfiltered set explores a
        // superset of assignments.
        for d in with.hypotheses() {
            assert!(
                without.hypotheses().iter().any(|u| u.leq(d)),
                "filtered hypothesis not covered"
            );
        }
        assert!(without.hypotheses().len() >= with.hypotheses().len());
    }

    #[test]
    fn history_ablation_breaks_cross_period_correctness() {
        // Period 1: only t1 runs. Period 2: t1 [m] t3 run. History-aware
        // joins give d(t1,t3) = ->? (period 1 already refutes ->); the
        // naive ablation emits -> and the result fails to match period 1.
        let u = TaskUniverse::from_names(["t1", "t2", "t3", "t4"]);
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        b.task(t(0), Timestamp::new(0), Timestamp::new(10)).unwrap();
        b.end_period().unwrap();
        b.begin_period();
        b.task(t(0), Timestamp::new(100), Timestamp::new(110))
            .unwrap();
        b.message(Timestamp::new(112), Timestamp::new(114)).unwrap();
        b.task(t(2), Timestamp::new(120), Timestamp::new(130))
            .unwrap();
        b.end_period().unwrap();
        let trace = b.finish();

        let aware = learn(&trace, LearnOptions::exact()).unwrap();
        for d in aware.hypotheses() {
            assert!(crate::matching::matches_trace(d, &trace));
            assert_eq!(d.value(t(0), t(2)), V::MayDetermine);
        }

        let naive = learn(&trace, LearnOptions::exact().with_history_aware(false)).unwrap();
        assert!(
            naive
                .hypotheses()
                .iter()
                .any(|d| !crate::matching::matches_trace(d, &trace)),
            "the ablation should exhibit the cross-period violation"
        );
    }

    #[test]
    fn stats_are_populated() {
        let trace = figure_2_period_1();
        let result = learn(&trace, LearnOptions::exact()).unwrap();
        let stats = result.stats();
        assert_eq!(stats.periods, 1);
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.set_sizes_per_period, vec![3]);
        assert!(stats.hypotheses_generated >= 5);
        assert!(stats.candidate_pairs_total >= 4);
    }

    /// One period whose second message branches past
    /// [`BUDGET_SAMPLE_INTERVAL`] generated hypotheses: 8 feasible
    /// senders x 8 feasible receivers give 64 candidates per message, so
    /// the exact algorithm generates well over 1024 hypotheses while
    /// explaining the second message.
    fn blowup_trace() -> Trace {
        let names: Vec<String> = (0..8)
            .map(|i| format!("s{i}"))
            .chain((0..8).map(|i| format!("r{i}")))
            .collect();
        let u = TaskUniverse::from_names(names);
        let senders: Vec<TaskId> = (0..8)
            .map(|i| u.lookup(&format!("s{i}")).unwrap())
            .collect();
        let receivers: Vec<TaskId> = (0..8)
            .map(|i| u.lookup(&format!("r{i}")).unwrap())
            .collect();
        let mut b = TraceBuilder::new(u);
        b.begin_period();
        for (i, s) in senders.iter().enumerate() {
            b.event(
                Timestamp::new(i as u64),
                bbmg_trace::EventKind::TaskStart(*s),
            )
            .unwrap();
        }
        for (i, s) in senders.iter().enumerate() {
            b.event(
                Timestamp::new(10 + i as u64),
                bbmg_trace::EventKind::TaskEnd(*s),
            )
            .unwrap();
        }
        b.message(Timestamp::new(20), Timestamp::new(21)).unwrap();
        b.message(Timestamp::new(22), Timestamp::new(23)).unwrap();
        for (i, r) in receivers.iter().enumerate() {
            b.event(
                Timestamp::new(60 + i as u64),
                bbmg_trace::EventKind::TaskStart(*r),
            )
            .unwrap();
        }
        for (i, r) in receivers.iter().enumerate() {
            b.event(
                Timestamp::new(70 + i as u64),
                bbmg_trace::EventKind::TaskEnd(*r),
            )
            .unwrap();
        }
        b.end_period().unwrap();
        b.finish()
    }

    #[test]
    fn budget_heartbeat_fires_once_per_sample_window() {
        use bbmg_obs::{Event, Recorder};

        let trace = blowup_trace();
        let mut recorder = Recorder::new();
        let result = learn_with(&trace, LearnOptions::exact(), &mut recorder).unwrap();
        assert!(
            result.stats().hypotheses_generated >= BUDGET_SAMPLE_INTERVAL,
            "the workload must cross at least one sample window, generated {}",
            result.stats().hypotheses_generated
        );
        let ticks: Vec<usize> = recorder
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::BudgetTick { steps, .. } => Some(steps),
                _ => None,
            })
            .collect();
        assert!(!ticks.is_empty(), "an enabled observer gets heartbeats");
        assert!(
            ticks.iter().all(|s| s % BUDGET_SAMPLE_INTERVAL == 0),
            "heartbeats land exactly on sample windows: {ticks:?}"
        );
        assert_eq!(
            ticks.len(),
            result.stats().hypotheses_generated / BUDGET_SAMPLE_INTERVAL,
            "one heartbeat per window"
        );
    }

    #[test]
    fn mid_period_budget_trip_cuts_the_blowup_short() {
        // The boundary check passes (nothing generated yet), so only the
        // sampled mid-period check can trip — at the first multiple of
        // BUDGET_SAMPLE_INTERVAL past the limit.
        let trace = blowup_trace();
        let options = LearnOptions::exact()
            .with_budget(crate::Budget::unlimited().with_max_steps(BUDGET_SAMPLE_INTERVAL));
        let mut learner = Learner::new(trace.task_count(), options);
        let err = learner.observe(&trace.periods()[0]).unwrap_err();
        match err {
            LearnError::BudgetExhausted { period, steps } => {
                assert_eq!(period, 0);
                assert_eq!(steps, BUDGET_SAMPLE_INTERVAL, "tripped at the first window");
            }
            other => panic!("expected a mid-period budget trip, got {other:?}"),
        }
        // The period's rows are dropped: the pre-period set stays.
        assert_eq!(
            learner.hypotheses(),
            vec![&DependencyFunction::bottom(trace.task_count())]
        );
    }
}
