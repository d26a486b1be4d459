//! One supervised stream shard: sanitizer → incremental learner →
//! watermark ladder → watchdog, for a single source.
//!
//! Each shard also narrates its pipeline as nested spans (`span_start` /
//! `span_end` events): a long-lived `shard <source>` root, one
//! `ingest p<n>` span per captured period, and `sanitize` / `learn` /
//! `checkpoint` children inside it. Span ids are drawn from the shard's
//! **lane** ([`bbmg_obs::SPAN_LANE_SHIFT`]): the supervisor gives every
//! shard a distinct lane so interleaved sources render as parallel
//! threads in the Chrome trace export. All span work is gated on
//! [`Observer::is_enabled`], so the no-op path stays free.

use std::fmt;

use bbmg_core::{Checkpoint, IncrementalLearner, LearnError, LearnResult, Observed};
use bbmg_lattice::{DependencyFunction, TaskUniverse};
use bbmg_obs::{Observer, SPAN_LANE_SHIFT};
use bbmg_trace::{
    Event, EventKind, MessageId, PeriodStream, RepairReport, StreamedPeriod, Timestamp,
};

use crate::protocol::WireKind;
use crate::{ServeError, ServeOptions};

/// Where a shard is on its lifecycle/degradation ladder.
///
/// ```text
///            watermark            watermark │ budget
///   exact ─────────────▶ degraded ─────────────────▶ shedding
///     │                     │
///     │ learner error       │ learner error
///     ▼                     ▼
///   backoff ──(events elapse)──▶ exact|degraded     (restart budget
///     │                                              exhausted)
///     └────────────────────────────────────────────▶ stopped
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Learning with the full exact antichain.
    Exact,
    /// Fell back to the bounded heuristic (watermark crossing, or under
    /// `OnInconsistent::SkipPeriod` an exact-mode resource trip inside the
    /// learner).
    Degraded,
    /// Checkpointed and now dropping further periods: the model is frozen
    /// at its last consistent state, the shard stays alive and accounted.
    Shedding,
    /// Restarted by the watchdog; shedding events until the backoff
    /// window elapses.
    Backoff,
    /// Restart budget exhausted; parked with its partial model.
    Stopped,
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardState::Exact => "exact",
            ShardState::Degraded => "degraded",
            ShardState::Shedding => "shedding",
            ShardState::Backoff => "backoff",
            ShardState::Stopped => "stopped",
        })
    }
}

/// The final account of one closed shard.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// Source id the shard was keyed by.
    pub source: String,
    /// State the shard finished in.
    pub state: ShardState,
    /// Periods absorbed into the final model.
    pub periods: usize,
    /// Ready periods dropped while shedding (watermark/budget/backoff).
    pub shed_periods: usize,
    /// Raw events dropped during backoff, after stopping, or because the
    /// feed's period index went backwards.
    pub shed_events: usize,
    /// Watchdog restarts consumed.
    pub restarts: usize,
    /// Cumulative sanitizer record (repairs, quarantines, encoding fixups).
    pub report: RepairReport,
    /// Fingerprint of the final hypothesis antichain.
    pub fingerprint: u64,
    /// The learned model and its statistics.
    pub result: LearnResult,
}

/// A supervised learner for one event source. See the crate docs for the
/// full ladder; driven by [`Supervisor`](crate::Supervisor), usable alone
/// in tests.
#[derive(Debug)]
pub struct StreamShard {
    source: String,
    options: ServeOptions,
    stream: PeriodStream,
    learner: IncrementalLearner,
    state: ShardState,
    restarts: usize,
    backoff_remaining: usize,
    next_backoff: usize,
    shed_periods: usize,
    shed_events: usize,
    since_checkpoint: usize,
    last_checkpoint: Option<bbmg_core::Checkpoint>,
    /// After a watchdog restart, events for periods up to and including
    /// this index are shed so the shard resumes at a clean period
    /// boundary rather than mid-period.
    resync_after: Option<usize>,
    /// Raw wire events received, shed or not (the health registry's
    /// "events ingested" gauge).
    events_ingested: u64,
    /// Period index currently buffered in the sanitizer, used to detect
    /// an imminent period boundary for the `sanitize` span.
    buffered_period: Option<usize>,
    /// High bits of every span id this shard allocates (the Chrome lane).
    span_lane: u64,
    /// Within-lane span counter; the next id is `span_lane | (counter+1)`.
    spans_allocated: u64,
    /// Open `shard <source>` root span, 0 while none is open.
    root_span: u64,
    /// Open per-period `ingest p<n>` span, if any.
    ingest_span: Option<u64>,
}

impl StreamShard {
    /// A shard for `source` over `universe`, configured by `options`.
    #[must_use]
    pub fn new(source: impl Into<String>, universe: TaskUniverse, options: ServeOptions) -> Self {
        let learner = IncrementalLearner::new(universe.len(), options.learn)
            .with_fallback_bound(options.fallback_bound);
        let state = if options.learn.bound.is_some() {
            ShardState::Degraded
        } else {
            ShardState::Exact
        };
        let stream = PeriodStream::new(universe).with_options(options.repair);
        StreamShard {
            source: source.into(),
            next_backoff: options.initial_backoff_events,
            options,
            stream,
            learner,
            state,
            restarts: 0,
            backoff_remaining: 0,
            shed_periods: 0,
            shed_events: 0,
            since_checkpoint: 0,
            last_checkpoint: None,
            resync_after: None,
            events_ingested: 0,
            buffered_period: None,
            span_lane: 0,
            spans_allocated: 0,
            root_span: 0,
            ingest_span: None,
        }
    }

    /// A shard resuming from a previously saved `checkpoint` — the roster
    /// recovery path. The learner restarts at the checkpointed state, the
    /// checkpoint stays armed for the watchdog, and `prior_restarts` carry
    /// over so the restart budget spans process restarts.
    ///
    /// # Errors
    ///
    /// [`ServeError::Learn`] if the checkpoint's universe size does not
    /// match `universe`, or the checkpoint fails resume validation.
    pub fn resume(
        source: impl Into<String>,
        universe: TaskUniverse,
        options: ServeOptions,
        checkpoint: Checkpoint,
        prior_restarts: usize,
    ) -> Result<Self, ServeError> {
        if checkpoint.tasks != universe.len() {
            return Err(ServeError::Learn(LearnError::UniverseMismatch {
                expected: checkpoint.tasks,
                actual: universe.len(),
            }));
        }
        let learner = IncrementalLearner::resume(checkpoint.clone())?;
        learner.debug_validate("shard resume");
        let mut shard = StreamShard::new(source, universe, options);
        shard.state = if learner.options().bound.is_some() {
            ShardState::Degraded
        } else {
            ShardState::Exact
        };
        shard.learner = learner;
        shard.last_checkpoint = Some(checkpoint);
        shard.restarts = prior_restarts;
        Ok(shard)
    }

    /// Assigns the shard's span-id lane (builder style): lane `k` makes
    /// every span id carry `k` above [`SPAN_LANE_SHIFT`], rendering as
    /// Chrome thread `k+1`. Lane 0 shares the main thread.
    #[must_use]
    pub fn with_span_lane(mut self, lane: u64) -> Self {
        self.span_lane = lane << SPAN_LANE_SHIFT;
        self
    }

    /// The source id this shard is keyed by.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// Periods absorbed into the model so far.
    #[must_use]
    pub fn periods(&self) -> usize {
        self.learner.pushed_periods()
    }

    /// Watchdog restarts consumed so far.
    #[must_use]
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Ready periods dropped while shedding.
    #[must_use]
    pub fn shed_periods(&self) -> usize {
        self.shed_periods
    }

    /// Raw wire events received so far, shed or not.
    #[must_use]
    pub fn events_ingested(&self) -> u64 {
        self.events_ingested
    }

    /// Raw events dropped (backoff, parked, backwards periods).
    #[must_use]
    pub fn shed_events(&self) -> usize {
        self.shed_events
    }

    /// Events buffered in the sanitizer awaiting their period boundary —
    /// the shard's ingest lag.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.stream.pending_events()
    }

    /// Periods consumed since the last checkpoint (the checkpoint age,
    /// measured in periods so it is deterministic).
    #[must_use]
    pub fn checkpoint_age_periods(&self) -> usize {
        self.since_checkpoint
    }

    /// The configured memory watermark, in packed lattice words.
    #[must_use]
    pub fn watermark_words(&self) -> usize {
        self.options.watermark_words
    }

    /// Packed lattice words currently retained by the hypothesis arena —
    /// the quantity the watermark bounds.
    #[must_use]
    pub fn memory_words(&self) -> usize {
        self.learner.len() * DependencyFunction::words_per_function(self.learner.tasks())
    }

    /// The last checkpoint taken (cadence or ladder), if any.
    #[must_use]
    pub fn last_checkpoint(&self) -> Option<&bbmg_core::Checkpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Feeds one wire event through sanitizer, learner, watermark ladder
    /// and watchdog.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSubject`] for a subject outside the universe;
    /// [`ServeError::Checkpoint`] if a configured checkpoint write fails;
    /// [`ServeError::Learn`] only for caller bugs (universe mismatch) —
    /// learner inconsistencies and resource trips are absorbed by the
    /// ladder and the watchdog (under `OnInconsistent::Abort`, the
    /// watchdog alone).
    pub fn ingest<O: Observer + ?Sized>(
        &mut self,
        period: usize,
        time: u64,
        kind: WireKind,
        subject: &str,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        self.events_ingested += 1;
        match self.state {
            ShardState::Stopped => {
                self.shed_events += 1;
                return Ok(());
            }
            ShardState::Backoff => {
                self.shed_events += 1;
                // A period we shed any part of must be shed entirely.
                self.resync_after = Some(self.resync_after.map_or(period, |p| p.max(period)));
                self.backoff_remaining -= 1;
                if self.backoff_remaining == 0 {
                    let resumed = self.mode_state();
                    self.transition(resumed, "backoff elapsed; resuming".to_string(), observer);
                }
                return Ok(());
            }
            _ => {}
        }
        if let Some(resync) = self.resync_after {
            if period <= resync {
                self.shed_events += 1;
                return Ok(());
            }
            self.resync_after = None;
        }
        let event = self.resolve(time, kind, subject)?;
        let tracing = observer.is_enabled();
        let crosses_boundary = self.buffered_period.is_some_and(|p| period > p);
        if tracing {
            self.ensure_root_span(observer);
            if self.ingest_span.is_none() {
                let root = self.root_span;
                let span = self.open_span(root, format!("ingest p{period}"), observer);
                self.ingest_span = Some(span);
            }
        }
        // The boundary-crossing push flushes the buffered period through
        // the sanitizer before starting the new one — wrap exactly that.
        let sanitize_span = (tracing && crosses_boundary).then(|| {
            let parent = self.span_parent();
            self.open_span(parent, "sanitize".to_string(), observer)
        });
        let pushed = self.stream.push_event_with(period, event, observer);
        if let Some(id) = sanitize_span {
            observer.span_end(id);
        }
        match pushed {
            Ok(Some(done)) => {
                let consumed = self.consume(&done, observer);
                // A watchdog restart inside `consume` discards the event
                // just buffered for the new period (resync).
                let discarded = self.resync_after.is_some_and(|r| period <= r);
                self.buffered_period = if discarded { None } else { Some(period) };
                // The completed period's span closes after its learn /
                // checkpoint children; the new period opens its own.
                if tracing {
                    if let Some(id) = self.ingest_span.take() {
                        observer.span_end(id);
                    }
                    if !discarded && self.state != ShardState::Stopped {
                        let root = self.root_span;
                        let span = self.open_span(root, format!("ingest p{period}"), observer);
                        self.ingest_span = Some(span);
                    }
                }
                consumed
            }
            Ok(None) => {
                self.buffered_period = Some(period);
                Ok(())
            }
            Err(backwards) => {
                self.shed_events += 1;
                observer.shard_health(
                    self.source.clone(),
                    self.state.to_string(),
                    self.periods(),
                    format!("dropped event: {backwards}"),
                );
                Ok(())
            }
        }
    }

    /// Closes the shard: flushes the in-flight period, writes a final
    /// checkpoint when a directory is configured, and finalizes the model.
    ///
    /// # Errors
    ///
    /// As [`ingest`](Self::ingest).
    pub fn finish<O: Observer + ?Sized>(
        mut self,
        observer: &mut O,
    ) -> Result<ShardSummary, ServeError> {
        if !matches!(self.state, ShardState::Stopped | ShardState::Backoff) {
            let sanitize_span =
                (observer.is_enabled() && self.stream.pending_events() > 0).then(|| {
                    let parent = self.span_parent();
                    self.open_span(parent, "sanitize".to_string(), observer)
                });
            let flushed = self.stream.flush_with(observer);
            if let Some(id) = sanitize_span {
                observer.span_end(id);
            }
            self.buffered_period = None;
            if let Some(done) = flushed {
                self.consume(&done, observer)?;
            }
        }
        if let Some(id) = self.ingest_span.take() {
            observer.span_end(id);
        }
        if self.options.checkpoint_dir.is_some() && self.since_checkpoint > 0 {
            self.take_checkpoint(observer)?;
        }
        if self.root_span != 0 {
            observer.span_end(self.root_span);
            self.root_span = 0;
        }
        let fingerprint = self.learner.fingerprint();
        observer.shard_health(
            self.source.clone(),
            self.state.to_string(),
            self.learner.pushed_periods(),
            format!(
                "closed: {} periods, {} shed, {} restarts",
                self.learner.pushed_periods(),
                self.shed_periods,
                self.restarts
            ),
        );
        Ok(ShardSummary {
            source: self.source,
            state: self.state,
            periods: self.learner.pushed_periods(),
            shed_periods: self.shed_periods,
            shed_events: self.shed_events,
            restarts: self.restarts,
            report: self.stream.report().clone(),
            fingerprint,
            result: self.learner.finish(),
        })
    }

    /// Allocates the next span id on this shard's lane and emits
    /// `span_start`. Callers guard with [`Observer::is_enabled`].
    fn open_span<O: Observer + ?Sized>(
        &mut self,
        parent: u64,
        name: String,
        observer: &mut O,
    ) -> u64 {
        self.spans_allocated += 1;
        let id = self.span_lane | self.spans_allocated;
        observer.span_start(id, parent, name);
        id
    }

    /// Opens the `shard <source>` root span on first use.
    fn ensure_root_span<O: Observer + ?Sized>(&mut self, observer: &mut O) -> u64 {
        if self.root_span == 0 {
            let name = format!("shard {}", self.source);
            self.root_span = self.open_span(0, name, observer);
        }
        self.root_span
    }

    /// The parent for pipeline spans: the open period span, else the root.
    fn span_parent(&self) -> u64 {
        self.ingest_span.unwrap_or(self.root_span)
    }

    /// The non-faulted state matching the learner's current mode.
    fn mode_state(&self) -> ShardState {
        if self.learner.options().bound.is_some() {
            ShardState::Degraded
        } else {
            ShardState::Exact
        }
    }

    fn transition<O: Observer + ?Sized>(
        &mut self,
        state: ShardState,
        detail: String,
        observer: &mut O,
    ) {
        self.state = state;
        observer.shard_health(
            self.source.clone(),
            state.to_string(),
            self.periods(),
            detail,
        );
    }

    fn resolve(&self, time: u64, kind: WireKind, subject: &str) -> Result<Event, ServeError> {
        let unknown = || ServeError::UnknownSubject {
            source: self.source.clone(),
            subject: subject.to_string(),
        };
        let kind = match kind {
            WireKind::Start | WireKind::End => {
                let task = self.stream.universe().lookup(subject).ok_or_else(unknown)?;
                if kind == WireKind::Start {
                    EventKind::TaskStart(task)
                } else {
                    EventKind::TaskEnd(task)
                }
            }
            WireKind::Rise | WireKind::Fall => {
                let digits = subject.strip_prefix('m').unwrap_or(subject);
                let index: usize = digits.parse().map_err(|_| unknown())?;
                let id = MessageId::from_index(index);
                if kind == WireKind::Rise {
                    EventKind::MessageRise(id)
                } else {
                    EventKind::MessageFall(id)
                }
            }
        };
        Ok(Event::new(Timestamp::new(time), kind))
    }

    /// Pushes one ready period: periods arrive one at a time, so this is
    /// the one loop outside [`IncrementalLearner::drive`].
    fn consume<O: Observer + ?Sized>(
        &mut self,
        done: &StreamedPeriod,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        let StreamedPeriod::Ready(period) = done else {
            // Quarantine was already reported through the sanitizer's own
            // observer hooks and counted in the stream report.
            return Ok(());
        };
        if matches!(self.state, ShardState::Shedding) {
            self.shed_periods += 1;
            return Ok(());
        }
        let learn_span = observer.is_enabled().then(|| {
            let parent = self.span_parent();
            self.open_span(parent, "learn".to_string(), observer)
        });
        let outcome = self.learner.push_period_with(period, observer);
        if let Some(id) = learn_span {
            observer.span_end(id);
        }
        match outcome {
            Ok(Observed::Accepted | Observed::Skipped(_)) => {
                self.since_checkpoint += 1;
                // Under the skip policy an exact-mode resource trip inside
                // the learner falls back on its own; mirror it on the ladder.
                if self.state == ShardState::Exact && self.learner.options().bound.is_some() {
                    self.transition(
                        ShardState::Degraded,
                        "exact search tripped a resource guard; bounded fallback".to_string(),
                        observer,
                    );
                }
                if let Some(every) = self.options.checkpoint_every {
                    if self.since_checkpoint >= every.get() {
                        self.take_checkpoint(observer)?;
                    }
                }
                self.enforce_watermark(observer)
            }
            // A stream has no remaining periods to mark unprocessed, as
            // the driver does, so it counts shed periods instead.
            Ok(Observed::BudgetStopped { .. }) => {
                self.shed_periods += 1;
                self.take_checkpoint(observer)?;
                self.transition(
                    ShardState::Shedding,
                    "learning budget exhausted; checkpointed, shedding further periods".to_string(),
                    observer,
                );
                Ok(())
            }
            Err(error @ LearnError::UniverseMismatch { .. }) => Err(ServeError::Learn(error)),
            Err(error) => {
                self.shed_periods += 1;
                self.watchdog_restart(&error, observer)
            }
        }
    }

    fn enforce_watermark<O: Observer + ?Sized>(
        &mut self,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        let words = self.memory_words();
        if words <= self.options.watermark_words {
            return Ok(());
        }
        match self.state {
            ShardState::Exact => {
                self.learner.degrade_with(observer);
                self.transition(
                    ShardState::Degraded,
                    format!(
                        "memory watermark crossed ({words} > {} words); bounded fallback",
                        self.options.watermark_words
                    ),
                    observer,
                );
            }
            ShardState::Degraded => {
                self.take_checkpoint(observer)?;
                self.transition(
                    ShardState::Shedding,
                    format!(
                        "memory watermark crossed while bounded ({words} > {} words); \
                         checkpointed, shedding further periods",
                        self.options.watermark_words
                    ),
                    observer,
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// The watchdog: roll the learner back to its last checkpoint (or a
    /// fresh start), spend one restart, and back off for an exponentially
    /// growing number of events. Out of budget → park as stopped.
    fn watchdog_restart<O: Observer + ?Sized>(
        &mut self,
        error: &LearnError,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        if self.restarts >= self.options.restart_budget {
            self.transition(
                ShardState::Stopped,
                format!("restart budget exhausted; parked after: {error}"),
                observer,
            );
            return Ok(());
        }
        self.restarts += 1;
        self.learner = match &self.last_checkpoint {
            Some(checkpoint) => {
                let learner = IncrementalLearner::resume(checkpoint.clone())?;
                learner.debug_validate("watchdog restore");
                learner
            }
            None => IncrementalLearner::new(self.learner.tasks(), self.options.learn)
                .with_fallback_bound(self.options.fallback_bound),
        };
        self.since_checkpoint = 0;
        // The half-captured period in the stream buffer belongs to the
        // failed epoch; resume at the next clean period boundary.
        if let Some(pending) = self.stream.discard_pending() {
            self.resync_after = Some(self.resync_after.map_or(pending, |p| p.max(pending)));
            self.buffered_period = None;
        }
        let backoff = self.next_backoff;
        self.next_backoff = self.next_backoff.saturating_mul(2);
        if backoff == 0 {
            let resumed = self.mode_state();
            self.transition(
                resumed,
                format!("watchdog restart {} after: {error}", self.restarts),
                observer,
            );
        } else {
            self.backoff_remaining = backoff;
            self.transition(
                ShardState::Backoff,
                format!(
                    "watchdog restart {} after: {error}; backing off {backoff} events",
                    self.restarts
                ),
                observer,
            );
        }
        Ok(())
    }

    fn take_checkpoint<O: Observer + ?Sized>(
        &mut self,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        let span = observer.is_enabled().then(|| {
            let parent = self.span_parent();
            self.open_span(parent, "checkpoint".to_string(), observer)
        });
        let checkpoint = self.learner.checkpoint();
        observer.checkpoint(self.learner.pushed_periods(), checkpoint.fingerprint());
        let saved = match &self.options.checkpoint_dir {
            Some(dir) => checkpoint
                .save(&dir.join(format!("{}.ckpt", self.source)))
                .map_err(ServeError::from),
            None => Ok(()),
        };
        if let Some(id) = span {
            observer.span_end(id);
        }
        saved?;
        self.last_checkpoint = Some(checkpoint);
        self.since_checkpoint = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use bbmg_core::{LearnOptions, OnInconsistent};
    use bbmg_obs::{Event as ObsEvent, Recorder};

    use super::*;

    /// Feeds `periods` periods in which `a`, `b` and `c` end before two
    /// messages and `d` and `e` start after them: six candidate pairs per
    /// message, well past an exact set limit of 2.
    fn feed(shard: &mut StreamShard, periods: usize, observer: &mut Recorder) {
        for p in 0..periods {
            let base = p as u64 * 1000;
            let mut events = Vec::new();
            for (i, task) in (0..).zip(["a", "b", "c"]) {
                events.push((base + i, WireKind::Start, task.to_string()));
                events.push((base + 10 + i, WireKind::End, task.to_string()));
            }
            for (i, m) in (0..).zip([2 * p, 2 * p + 1]) {
                events.push((base + 20 + 2 * i, WireKind::Rise, format!("m{m}")));
                events.push((base + 21 + 2 * i, WireKind::Fall, format!("m{m}")));
            }
            for (i, task) in (0..).zip(["d", "e"]) {
                events.push((base + 60 + i, WireKind::Start, task.to_string()));
                events.push((base + 70 + i, WireKind::End, task.to_string()));
            }
            events.sort_by_key(|&(time, _, _)| time);
            for (time, kind, subject) in events {
                shard.ingest(p, time, kind, &subject, observer).unwrap();
            }
        }
    }

    /// Runs three such periods through a shard whose exact learner has
    /// set limit 2, returning its summary and every state it reported.
    fn run(policy: OnInconsistent) -> (ShardSummary, Vec<String>) {
        let options = ServeOptions {
            learn: LearnOptions::exact()
                .with_set_limit(2)
                .with_on_inconsistent(policy),
            ..ServeOptions::default()
        };
        let universe = TaskUniverse::from_names(["a", "b", "c", "d", "e"]);
        let mut shard = StreamShard::new("bus0", universe, options);
        let mut recorder = Recorder::new();
        feed(&mut shard, 3, &mut recorder);
        let summary = shard.finish(&mut recorder).unwrap();
        let states = recorder
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                ObsEvent::ShardHealth { state, .. } => Some(state.clone()),
                _ => None,
            })
            .collect();
        (summary, states)
    }

    #[test]
    fn abort_policy_restarts_a_set_limit_trip_instead_of_degrading() {
        let (aborted, states) = run(OnInconsistent::Abort);
        assert!(aborted.restarts >= 1, "the watchdog restarts: {states:?}");
        assert!(
            states.iter().all(|s| s != "degraded"),
            "never degraded: {states:?}"
        );
        assert_eq!(aborted.result.stats().fallbacks, 0);

        let (skipped, states) = run(OnInconsistent::SkipPeriod);
        assert_eq!(skipped.state, ShardState::Degraded, "{states:?}");
        assert_eq!(skipped.restarts, 0);
        assert_eq!(skipped.periods, 3);
        assert_eq!(skipped.result.stats().fallbacks, 1);
    }
}
