//! The supervisor: routes protocol lines to per-source shards, keeps the
//! health registry fresh, mirrors the roster to disk, and collects final
//! summaries.

use std::collections::BTreeMap;

use bbmg_core::Checkpoint;
use bbmg_lattice::TaskUniverse;
use bbmg_obs::Observer;

use crate::health::{HealthRegistry, HealthSnapshot};
use crate::protocol::{parse_line, Line};
use crate::roster::{Roster, RosterEntry};
use crate::shard::{ShardSummary, StreamShard};
use crate::{ServeError, ServeOptions};

/// What [`Supervisor::ingest_line`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineOutcome {
    /// The line was routed (or was blank); nothing is owed to the peer.
    Processed,
    /// The line was a `status` request: the caller should answer with
    /// [`Supervisor::health_snapshot`].
    StatusRequested,
}

/// Owns one [`StreamShard`] per open source and drives the whole ingest.
/// Shards are kept in source-id order, so a full run over the same feed is
/// deterministic line for line.
#[derive(Debug)]
pub struct Supervisor {
    options: ServeOptions,
    shards: BTreeMap<String, StreamShard>,
    summaries: Vec<ShardSummary>,
    lines: usize,
    registry: HealthRegistry,
    roster: Roster,
    /// Span lanes handed out so far; each shard gets the next one, so a
    /// Chrome trace renders every source as its own thread.
    lanes: u64,
}

impl Supervisor {
    /// A supervisor with no open shards.
    #[must_use]
    pub fn new(options: ServeOptions) -> Self {
        // Warm the process-wide worker pool once at supervisor creation:
        // every shard's learner then dispatches to the same parked
        // workers instead of each shard paying its own spawn latency the
        // first time a period crosses a fan-out gate.
        bbmg_core::pool::warm_up(options.learn.parallelism.get());
        Supervisor {
            options,
            shards: BTreeMap::new(),
            summaries: Vec::new(),
            lines: 0,
            registry: HealthRegistry::new(),
            roster: Roster::new(),
            lanes: 0,
        }
    }

    /// Reloads the persisted roster from the configured checkpoint
    /// directory, so a later `hello` for a recorded source resumes from
    /// its checkpoint with its restart history intact. Returns the number
    /// of recovered entries; without a checkpoint directory it is a no-op.
    ///
    /// # Errors
    ///
    /// [`ServeError::Roster`] when the roster file exists but is
    /// unreadable or fails strict validation.
    pub fn recover(&mut self) -> Result<usize, ServeError> {
        let Some(dir) = self.options.checkpoint_dir.clone() else {
            return Ok(0);
        };
        self.roster = Roster::load(&dir)?;
        Ok(self.roster.len())
    }

    /// Protocol lines processed so far (blank lines excluded).
    #[must_use]
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The open shard for `source`, if any.
    #[must_use]
    pub fn shard(&self, source: &str) -> Option<&StreamShard> {
        self.shards.get(source)
    }

    /// Summaries of sources already closed by an `end` line.
    #[must_use]
    pub fn summaries(&self) -> &[ShardSummary] {
        &self.summaries
    }

    /// A fresh `bbmg-health/1` snapshot of every shard ever opened.
    /// Advances the snapshot `seq` counter.
    pub fn health_snapshot(&mut self) -> HealthSnapshot {
        self.registry.snapshot(self.lines as u64)
    }

    /// Refreshes the registry entry and, when a checkpoint directory is
    /// configured, mirrors roster-relevant fields (checkpoint file,
    /// restarts, state, checkpointed periods) to disk on change.
    fn note_shard(&mut self, source: &str) -> Result<(), ServeError> {
        let Some(shard) = self.shards.get(source) else {
            return Ok(());
        };
        self.registry.observe(shard);
        if let Some(dir) = self.options.checkpoint_dir.clone() {
            let periods_at_checkpoint = shard
                .periods()
                .saturating_sub(shard.checkpoint_age_periods())
                as u64;
            let changed = self.roster.record(RosterEntry {
                source: source.to_string(),
                checkpoint: format!("{source}.ckpt"),
                restarts: shard.restarts() as u64,
                periods: periods_at_checkpoint,
                state: shard.state().to_string(),
            });
            if changed {
                self.roster.save(&dir)?;
            }
        }
        Ok(())
    }

    /// Records a closed shard's final account in the registry and roster.
    fn note_closed(&mut self, summary: &ShardSummary) -> Result<(), ServeError> {
        self.registry.close(summary);
        if let Some(dir) = self.options.checkpoint_dir.clone() {
            let changed = self.roster.record(RosterEntry {
                source: summary.source.clone(),
                checkpoint: format!("{}.ckpt", summary.source),
                restarts: summary.restarts as u64,
                periods: summary.periods as u64,
                state: summary.state.to_string(),
            });
            if changed {
                self.roster.save(&dir)?;
            }
        }
        Ok(())
    }

    /// Opens a shard for `source`: fresh, or resumed from the roster's
    /// recorded checkpoint when one is recoverable.
    fn open_shard<O: Observer + ?Sized>(
        &mut self,
        source: &str,
        universe: TaskUniverse,
        observer: &mut O,
    ) -> StreamShard {
        self.lanes += 1;
        let lane = self.lanes;
        let recovered = self
            .options
            .checkpoint_dir
            .as_ref()
            .zip(self.roster.entry(source))
            .and_then(|(dir, entry)| {
                let path = dir.join(&entry.checkpoint);
                let checkpoint = Checkpoint::load(&path).ok()?;
                StreamShard::resume(
                    source,
                    universe.clone(),
                    self.options.clone(),
                    checkpoint,
                    usize::try_from(entry.restarts).unwrap_or(usize::MAX),
                )
                .ok()
            });
        match recovered {
            Some(shard) => {
                observer.shard_health(
                    source.to_string(),
                    shard.state().to_string(),
                    shard.periods(),
                    format!(
                        "resumed from roster checkpoint: {} periods, {} restarts",
                        shard.periods(),
                        shard.restarts()
                    ),
                );
                shard.with_span_lane(lane)
            }
            None => StreamShard::new(source, universe, self.options.clone()).with_span_lane(lane),
        }
    }

    /// Processes one line of the feed. Blank lines are ignored.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for a malformed line,
    /// [`ServeError::UnknownSource`] / [`ServeError::DuplicateSource`] for
    /// routing faults, plus everything [`StreamShard::ingest`] can return.
    /// The supervisor itself stays usable after any error — the caller
    /// decides whether a bad line is fatal.
    pub fn ingest_line<O: Observer + ?Sized>(
        &mut self,
        line: &str,
        observer: &mut O,
    ) -> Result<LineOutcome, ServeError> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(LineOutcome::Processed);
        }
        self.lines += 1;
        match parse_line(line)? {
            Line::Hello { source, tasks } => {
                if self.shards.contains_key(&source) {
                    return Err(ServeError::DuplicateSource { source });
                }
                let universe = TaskUniverse::from_names(tasks.iter().map(String::as_str));
                let shard = self.open_shard(&source, universe, observer);
                observer.shard_health(
                    source.clone(),
                    shard.state().to_string(),
                    shard.periods(),
                    format!("opened with {} tasks", tasks.len()),
                );
                self.shards.insert(source.clone(), shard);
                self.note_shard(&source)?;
                Ok(LineOutcome::Processed)
            }
            Line::Event {
                source,
                period,
                time,
                kind,
                subject,
            } => match self.shards.get_mut(&source) {
                Some(shard) => {
                    shard.ingest(period, time, kind, &subject, observer)?;
                    self.note_shard(&source)?;
                    Ok(LineOutcome::Processed)
                }
                None => Err(ServeError::UnknownSource { source }),
            },
            Line::End { source } => match self.shards.remove(&source) {
                Some(shard) => {
                    let summary = shard.finish(observer)?;
                    self.note_closed(&summary)?;
                    self.summaries.push(summary);
                    Ok(LineOutcome::Processed)
                }
                None => Err(ServeError::UnknownSource { source }),
            },
            Line::Status => Ok(LineOutcome::StatusRequested),
        }
    }

    /// Closes every still-open shard (in source-id order) and returns all
    /// summaries, including those from earlier `end` lines, in completion
    /// order. The supervisor stays usable afterwards — notably for a final
    /// [`health_snapshot`](Self::health_snapshot) covering the closed
    /// shards — but the returned summaries are drained from it.
    ///
    /// # Errors
    ///
    /// The first shard-finalization error encountered.
    pub fn finish<O: Observer + ?Sized>(
        &mut self,
        observer: &mut O,
    ) -> Result<Vec<ShardSummary>, ServeError> {
        while let Some((_, shard)) = self.shards.pop_first() {
            let summary = shard.finish(observer)?;
            self.note_closed(&summary)?;
            self.summaries.push(summary);
        }
        Ok(std::mem::take(&mut self.summaries))
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    use bbmg_core::{learn, LearnOptions};
    use bbmg_obs::{Event as ObsEvent, NoopObserver, Recorder};
    use bbmg_trace::{Timestamp, TraceBuilder};

    use super::*;
    use crate::protocol::WireKind;
    use crate::shard::ShardState;

    /// Feeds `text` to `sup` one protocol line per text line, stopping at
    /// the first faulty line.
    fn ingest_text<O: Observer + ?Sized>(
        sup: &mut Supervisor,
        text: &str,
        observer: &mut O,
    ) -> Result<(), ServeError> {
        text.lines()
            .try_for_each(|line| sup.ingest_line(line, observer).map(drop))
    }

    /// Builds the wire feed for one consistent period of the crate's
    /// running example: `a` runs, messages, `b` runs.
    fn consistent_period(out: &mut Vec<String>, source: &str, period: usize, base: u64) {
        let ev = |time, kind, subject: &str| {
            Line::Event {
                source: source.into(),
                period,
                time,
                kind,
                subject: subject.into(),
            }
            .to_json()
        };
        out.push(ev(base, WireKind::Start, "a"));
        out.push(ev(base + 10, WireKind::End, "a"));
        out.push(ev(base + 12, WireKind::Rise, &format!("m{period}")));
        out.push(ev(base + 14, WireKind::Fall, &format!("m{period}")));
        out.push(ev(base + 20, WireKind::Start, "b"));
        out.push(ev(base + 30, WireKind::End, "b"));
    }

    /// A period whose message rises before any task has ended: no feasible
    /// sender, so the learner reports it inconsistent.
    fn inconsistent_period(out: &mut Vec<String>, source: &str, period: usize, base: u64) {
        let ev = |time, kind, subject: &str| {
            Line::Event {
                source: source.into(),
                period,
                time,
                kind,
                subject: subject.into(),
            }
            .to_json()
        };
        out.push(ev(base + 1, WireKind::Rise, &format!("m{period}")));
        out.push(ev(base + 2, WireKind::Fall, &format!("m{period}")));
        out.push(ev(base + 10, WireKind::Start, "b"));
        out.push(ev(base + 20, WireKind::End, "b"));
    }

    fn hello(source: &str) -> String {
        Line::Hello {
            source: source.into(),
            tasks: vec!["a".into(), "b".into()],
        }
        .to_json()
    }

    fn end(source: &str) -> String {
        Line::End {
            source: source.into(),
        }
        .to_json()
    }

    fn options() -> ServeOptions {
        ServeOptions::default()
    }

    #[test]
    fn clean_feed_matches_the_batch_learner() {
        let mut feed = vec![hello("bus0")];
        for p in 0..3 {
            consistent_period(&mut feed, "bus0", p, p as u64 * 100);
        }
        feed.push(end("bus0"));

        let mut sup = Supervisor::new(options());
        ingest_text(&mut sup, &feed.join("\n"), &mut NoopObserver).unwrap();
        let summaries = sup.finish(&mut NoopObserver).unwrap();
        assert_eq!(summaries.len(), 1);
        let summary = &summaries[0];
        assert_eq!(summary.source, "bus0");
        assert_eq!(summary.state, ShardState::Exact);
        assert_eq!(summary.periods, 3);
        assert_eq!(summary.shed_periods, 0);
        assert!(summary.report.is_clean());

        // Same trace through the batch pipeline.
        let universe = TaskUniverse::from_names(["a", "b"]);
        let a = universe.lookup("a").unwrap();
        let b = universe.lookup("b").unwrap();
        let mut builder = TraceBuilder::new(universe);
        for p in 0..3u64 {
            let base = p * 100;
            builder.begin_period();
            builder
                .task(a, Timestamp::new(base), Timestamp::new(base + 10))
                .unwrap();
            builder
                .message(Timestamp::new(base + 12), Timestamp::new(base + 14))
                .unwrap();
            builder
                .task(b, Timestamp::new(base + 20), Timestamp::new(base + 30))
                .unwrap();
            builder.end_period().unwrap();
        }
        let batch = learn(&builder.finish(), LearnOptions::exact()).unwrap();
        assert_eq!(
            summary.result.hypotheses(),
            batch.hypotheses(),
            "streamed model must equal the batch model"
        );
    }

    #[test]
    fn sources_are_independent_and_interleavable() {
        let mut feed = vec![hello("x"), hello("y")];
        let mut x_lines = Vec::new();
        let mut y_lines = Vec::new();
        for p in 0..2 {
            consistent_period(&mut x_lines, "x", p, p as u64 * 100);
            inconsistent_period(&mut y_lines, "y", p, p as u64 * 100);
        }
        // Interleave the two captures line by line.
        for (x, y) in x_lines.iter().zip(&y_lines) {
            feed.push(x.clone());
            feed.push(y.clone());
        }
        feed.push(end("x"));
        feed.push(end("y"));

        let mut opts = options();
        // Let y's shard skip inconsistent periods instead of wedging.
        opts.learn =
            LearnOptions::exact().with_on_inconsistent(bbmg_core::OnInconsistent::SkipPeriod);
        let mut sup = Supervisor::new(opts);
        ingest_text(&mut sup, &feed.join("\n"), &mut NoopObserver).unwrap();
        let summaries = sup.finish(&mut NoopObserver).unwrap();
        assert_eq!(summaries.len(), 2);
        let x = summaries.iter().find(|s| s.source == "x").unwrap();
        let y = summaries.iter().find(|s| s.source == "y").unwrap();
        assert!(x.result.converged());
        assert_eq!(x.result.stats().skipped_periods.len(), 0);
        assert_eq!(
            y.result.stats().skipped_periods.len(),
            2,
            "y's inconsistent periods are quarantined by the learner"
        );
    }

    #[test]
    fn routing_faults_are_reported() {
        let mut sup = Supervisor::new(options());
        let ghost = Line::Event {
            source: "ghost".into(),
            period: 0,
            time: 0,
            kind: WireKind::Start,
            subject: "a".into(),
        }
        .to_json();
        let err = sup.ingest_line(&ghost, &mut NoopObserver).unwrap_err();
        assert!(matches!(err, ServeError::UnknownSource { .. }));

        sup.ingest_line(&hello("s"), &mut NoopObserver).unwrap();
        let err = sup.ingest_line(&hello("s"), &mut NoopObserver).unwrap_err();
        assert!(matches!(err, ServeError::DuplicateSource { .. }));

        let bad_subject = Line::Event {
            source: "s".into(),
            period: 0,
            time: 0,
            kind: WireKind::Start,
            subject: "nope".into(),
        }
        .to_json();
        let err = sup
            .ingest_line(&bad_subject, &mut NoopObserver)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownSubject { .. }));

        let err = sup
            .ingest_line(&end("ghost"), &mut NoopObserver)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownSource { .. }));
        // The supervisor survives all of it.
        sup.ingest_line(&end("s"), &mut NoopObserver).unwrap();
        assert_eq!(sup.shards.len(), 0);
    }

    #[test]
    fn watermark_crossing_degrades_then_sheds_with_health_events() {
        let mut opts = options();
        opts.watermark_words = 0; // any nonempty arena is over the mark
        opts.checkpoint_every = None;
        let mut feed = vec![hello("hot")];
        for p in 0..3 {
            consistent_period(&mut feed, "hot", p, p as u64 * 100);
        }
        feed.push(end("hot"));

        let mut recorder = Recorder::new();
        let mut sup = Supervisor::new(opts);
        ingest_text(&mut sup, &feed.join("\n"), &mut recorder).unwrap();
        let summaries = sup.finish(&mut recorder).unwrap();
        let summary = &summaries[0];
        assert_eq!(summary.state, ShardState::Shedding);
        assert_eq!(summary.periods, 2, "exact period + bounded period");
        assert_eq!(summary.shed_periods, 1, "third period shed");

        let states: Vec<String> = recorder
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                ObsEvent::ShardHealth { state, .. } => Some(state.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(states, ["exact", "degraded", "shedding", "shedding"]);
        let checkpoints = recorder
            .events()
            .iter()
            .filter(|e| matches!(e.event, ObsEvent::Checkpoint { .. }))
            .count();
        assert_eq!(checkpoints, 1, "checkpoint-and-shed wrote one checkpoint");
    }

    #[test]
    fn watchdog_restarts_from_checkpoint_with_backoff_then_parks() {
        let mut opts = options();
        // Default learn options abort on inconsistency → the watchdog sees it.
        opts.checkpoint_every = NonZeroUsize::new(1);
        opts.restart_budget = 1;
        opts.initial_backoff_events = 3;
        let mut feed = vec![hello("flaky")];
        consistent_period(&mut feed, "flaky", 0, 0);
        // Two inconsistent periods: the first consumes the one allowed
        // restart, the second exhausts the budget.
        for p in 1..4 {
            inconsistent_period(&mut feed, "flaky", p, p as u64 * 100);
        }
        // A trailing consistent stretch the parked shard must ignore.
        for p in 4..6 {
            consistent_period(&mut feed, "flaky", p, p as u64 * 100);
        }
        feed.push(end("flaky"));

        let mut recorder = Recorder::new();
        let mut sup = Supervisor::new(opts);
        ingest_text(&mut sup, &feed.join("\n"), &mut recorder).unwrap();
        let summaries = sup.finish(&mut recorder).unwrap();
        let summary = &summaries[0];
        assert_eq!(summary.state, ShardState::Stopped);
        assert_eq!(summary.restarts, 1);
        assert_eq!(
            summary.periods, 1,
            "the model is the checkpointed first period"
        );
        assert!(summary.shed_events > 0, "backoff shed raw events");
        assert!(
            !summary.result.hypotheses().is_empty(),
            "partial model survives parking"
        );

        let states: Vec<String> = recorder
            .events()
            .iter()
            .filter_map(|e| match &e.event {
                ObsEvent::ShardHealth { state, .. } => Some(state.clone()),
                _ => None,
            })
            .collect();
        assert!(states.contains(&"backoff".to_string()));
        assert!(states.contains(&"stopped".to_string()));
    }

    #[test]
    fn checkpoints_are_written_to_the_configured_directory() {
        let dir = std::env::temp_dir().join("bbmg-serve-supervisor-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("disk.ckpt");
        let _ = std::fs::remove_file(&file);

        let mut opts = options();
        opts.checkpoint_every = NonZeroUsize::new(2);
        opts.checkpoint_dir = Some(dir.clone());
        let mut feed = vec![hello("disk")];
        for p in 0..3 {
            consistent_period(&mut feed, "disk", p, p as u64 * 100);
        }
        feed.push(end("disk"));

        let mut sup = Supervisor::new(opts);
        ingest_text(&mut sup, &feed.join("\n"), &mut NoopObserver).unwrap();
        let summaries = sup.finish(&mut NoopObserver).unwrap();

        let checkpoint = bbmg_core::Checkpoint::load(&file).unwrap();
        assert_eq!(checkpoint.pushed_periods, 3, "final checkpoint on close");
        assert_eq!(checkpoint.fingerprint(), summaries[0].fingerprint);

        // The saved state resumes into a learner equal to the final model.
        let resumed = bbmg_core::IncrementalLearner::resume(checkpoint).unwrap();
        assert_eq!(
            resumed.hypotheses().len(),
            summaries[0].result.hypotheses().len()
        );
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn ingest_line_accepts_blank_lines() {
        let mut sup = Supervisor::new(options());
        sup.ingest_line("", &mut NoopObserver).unwrap();
        sup.ingest_line("   \t", &mut NoopObserver).unwrap();
        assert_eq!(sup.lines(), 0);
    }
}
