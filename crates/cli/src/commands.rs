//! Command implementations.

use std::io::{BufWriter, Write};
use std::path::Path;

use bbmg_core::{learn_with, IncrementalLearner, LearnOptions, LearnResult, OnInconsistent};
use bbmg_obs::{Event, JsonlSink, Metrics, Observer, Tee};
use bbmg_trace::{
    parse_csv, parse_csv_raw, parse_trace, repair_observed, ParseCsvError, RawCsvParse,
    RepairOptions, Trace,
};

use crate::args::{CliError, LearnerChoice, OnError, Telemetry};

/// Header that identifies the CSV interchange format.
const CSV_HEADER: &str = "time,kind,subject,period";

/// A loaded trace plus any degradation diagnostics worth showing.
pub(crate) struct LoadedTrace {
    pub(crate) trace: Trace,
    /// Human-readable notes about repairs/skips made while loading
    /// (empty for clean strict loads) — printed so nothing is dropped
    /// silently.
    pub(crate) notes: Vec<String>,
}

fn row_error_notes(notes: &mut Vec<String>, errors: &[ParseCsvError], skipped_rows: usize) {
    if skipped_rows == 0 {
        return;
    }
    notes.push(format!("{skipped_rows} malformed csv row(s) skipped"));
    for e in errors.iter().take(5) {
        notes.push(format!("  {e}"));
    }
    if skipped_rows > 5 {
        notes.push(format!("  ... and {} more", skipped_rows - 5));
    }
}

/// Reads the trace at `path`, sniffing the format from the first bytes:
/// the sealed binary format starts with the `bbmg-btrace/1` magic, the
/// native text format with `# bbmg trace`, and the CSV interchange format
/// with its fixed header.
///
/// CSV input degrades with the policy: [`OnError::Abort`] parses
/// strictly, [`OnError::Skip`] drops malformed rows and quarantines
/// periods that are not valid exactly as captured (fixing nothing), and
/// [`OnError::Repair`] runs the full sanitizer — reordering, deduplicating
/// and synthesizing missing window edges where possible. The native text
/// format is strict by construction, so the policy only matters past
/// parsing there.
///
/// Repair actions and load-time quarantines are emitted into `observer`
/// (pass [`bbmg_obs::NoopObserver`] when telemetry is off).
pub(crate) fn load_trace<O: Observer + ?Sized>(
    path: &str,
    on_error: OnError,
    observer: &mut O,
) -> Result<LoadedTrace, CliError> {
    let bytes = std::fs::read(path)?;
    if bbmg_trace::is_btrace(&bytes) {
        // Binary traces are sealed and validated whole; the lenient and
        // repair policies are CSV-only by design (a checksum-clean binary
        // trace has nothing to repair, and a corrupt one is untrusted).
        let trace = bbmg_trace::parse_btrace(&bytes)?;
        return Ok(LoadedTrace {
            trace,
            notes: Vec::new(),
        });
    }
    let text = String::from_utf8(bytes).map_err(|e| {
        CliError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path}: not a binary trace and not UTF-8 text ({e})"),
        ))
    })?;
    // Sniff past a UTF-8 BOM and CRLF ending so lenient loads of
    // Windows-exported captures still route to the CSV parser.
    let first_line = text
        .lines()
        .next()
        .unwrap_or("")
        .trim_start_matches('\u{feff}')
        .trim();
    let mut notes = Vec::new();
    let trace = if first_line == CSV_HEADER {
        match on_error {
            OnError::Abort => parse_csv(&text)?,
            OnError::Skip | OnError::Repair => {
                let RawCsvParse {
                    raw,
                    errors,
                    skipped_rows,
                    ..
                } = parse_csv_raw(&text)?;
                row_error_notes(&mut notes, &errors, skipped_rows);
                let options = match on_error {
                    // Quarantine-only: a period is either valid as
                    // captured or dropped whole.
                    OnError::Skip => RepairOptions {
                        max_actions_per_period: Some(0),
                    },
                    _ => RepairOptions::default(),
                };
                let outcome = repair_observed(&raw, &options, observer);
                if !outcome.report.is_clean() {
                    notes.push(outcome.report.to_string());
                }
                outcome.trace
            }
        }
    } else {
        // Default to the native text parser; its errors mention the
        // expected magic line, which covers unrecognized inputs too.
        parse_trace(&text)?
    };
    Ok(LoadedTrace { trace, notes })
}

/// Builds [`LearnOptions`] from the command-line choice. This is the one
/// place `--on-error` becomes a learner policy: [`OnError::Abort`] is
/// [`OnInconsistent::Abort`], which never degrades, and the skip and
/// repair policies are [`OnInconsistent::SkipPeriod`].
///
/// `--threads 0` auto-detection resolves to one worker per CPU core.
/// Callers that already hold the trace should prefer
/// [`learn_options_for_trace`], which additionally clamps the detected
/// count by the workload's packed-word volume so small inputs never
/// provision workers they cannot feed.
pub(crate) fn learn_options(choice: LearnerChoice) -> Result<LearnOptions, CliError> {
    learn_options_sized(choice, None)
}

/// [`learn_options`] with `--threads 0` auto-detection clamped by the
/// workload size of `trace` (see [`workload_words`]).
pub(crate) fn learn_options_for_trace(
    choice: LearnerChoice,
    trace: &Trace,
) -> Result<LearnOptions, CliError> {
    learn_options_sized(choice, Some(workload_words(trace)))
}

fn learn_options_sized(
    choice: LearnerChoice,
    workload: Option<usize>,
) -> Result<LearnOptions, CliError> {
    let mut options = match choice.bound {
        Some(bound) => LearnOptions::try_bounded(bound)
            .ok_or_else(|| CliError::Usage("--bound must be at least 1".into()))?,
        None => LearnOptions::exact(),
    };
    if choice.on_error != OnError::Abort {
        options = options.with_on_inconsistent(OnInconsistent::SkipPeriod);
    }
    if let Some(limit) = choice.set_limit {
        options = options
            .try_with_set_limit(limit)
            .ok_or_else(|| CliError::Usage("--set-limit must be at least 1".into()))?;
    }
    // `--threads 0` means "one worker per CPU core, but no more than the
    // workload can feed"; detection failure degrades to sequential rather
    // than erroring. Unknown workloads (streaming serve) clamp on cores
    // alone.
    let threads = if choice.threads == 0 {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        match workload {
            Some(words) => bbmg_core::pool::auto_threads(cores, words),
            None => cores,
        }
    } else {
        choice.threads
    };
    options = options
        .try_with_parallelism(threads)
        .expect("resolved thread count is nonzero");
    Ok(options)
}

/// Deterministic workload-size proxy for `--threads 0` auto-detection:
/// packed words per dependency matrix × total messages × the candidate
/// upper bound (`tasks²` ordered pairs per message). Branching work
/// scales with hypotheses × candidates × words per matrix; the
/// hypothesis count is unknowable upfront, so the proxy substitutes the
/// per-message candidate ceiling — deliberately coarse, but monotone in
/// every dimension that makes parallelism pay, and cheap enough to run
/// on every invocation.
fn workload_words(trace: &Trace) -> usize {
    let tasks = trace.task_count();
    let words = bbmg_lattice::DependencyFunction::words_per_function(tasks);
    let messages: usize = trace.periods().iter().map(|p| p.messages().len()).sum();
    words
        .saturating_mul(messages)
        .saturating_mul(tasks.saturating_mul(tasks))
}

/// Runs the learner per the command-line choice, streaming events into
/// `observer`.
pub(crate) fn run_learner<O: Observer + ?Sized>(
    trace: &Trace,
    choice: LearnerChoice,
    observer: &mut O,
) -> Result<LearnResult, CliError> {
    let options = learn_options_for_trace(choice, trace)?;
    Ok(learn_with(trace, options, observer)?)
}

/// Observer that renders learner degradation events (quarantines,
/// fallbacks) as the CLI's `note:` lines — the single path by which
/// dropped observations reach the user.
#[derive(Debug, Default)]
pub(crate) struct NoteSink {
    /// Rendered note lines, in event order.
    notes: Vec<String>,
    /// Whether the exact learner fell back to the bounded heuristic.
    fell_back: bool,
}

impl Observer for NoteSink {
    fn record(&mut self, event: Event) {
        match event {
            Event::Quarantine { period, reason } => {
                self.notes
                    .push(format!("period {period} skipped: {reason}"));
            }
            Event::Fallback { .. } => self.fell_back = true,
            _ => {}
        }
    }
}

/// File-backed telemetry sinks opened from the `--metrics-out` /
/// `--events-out` flags; [`TelemetrySinks::finish`] writes the metrics
/// snapshot and flushes the event stream.
pub(crate) struct TelemetrySinks {
    metrics: Option<(String, Metrics)>,
    events: Option<JsonlSink<BufWriter<std::fs::File>>>,
}

impl TelemetrySinks {
    pub(crate) fn open(telemetry: &Telemetry) -> Result<Self, CliError> {
        let metrics = telemetry
            .metrics_out
            .clone()
            .map(|path| (path, Metrics::new()));
        let events = match &telemetry.events_out {
            Some(path) => Some(JsonlSink::new(BufWriter::new(std::fs::File::create(path)?))),
            None => None,
        };
        Ok(TelemetrySinks { metrics, events })
    }

    /// Adds whichever sinks are open to `tee`.
    pub(crate) fn attach<'a>(&'a mut self, mut tee: Tee<'a>) -> Tee<'a> {
        if let Some((_, metrics)) = &mut self.metrics {
            tee = tee.with(metrics);
        }
        if let Some(events) = &mut self.events {
            tee = tee.with(events);
        }
        tee
    }

    /// Writes the metrics JSON and flushes the event stream.
    pub(crate) fn finish(self) -> Result<(), CliError> {
        if let Some((path, mut metrics)) = self.metrics {
            std::fs::write(path, format!("{}\n", metrics.snapshot().to_json()))?;
        }
        if let Some(events) = self.events {
            events.finish()?.flush()?;
        }
        Ok(())
    }
}

/// Drives `learner` over `trace`'s periods from `start` onward — the
/// engine behind `learn --checkpoint` and `resume` — atomically rewriting
/// `path` every `every` consumed periods and once more at the end, so a
/// crash at any instant leaves a resumable file.
pub(crate) fn checkpointed<O: Observer + ?Sized>(
    mut learner: IncrementalLearner,
    trace: &Trace,
    start: usize,
    every: usize,
    path: &Path,
    observer: &mut O,
) -> Result<LearnResult, CliError> {
    let mut since_save = 0usize;
    let periods = &trace.periods()[start..];
    let complete = learner.drive(periods, observer, |learner, _, _, observer| {
        since_save += 1;
        if since_save >= every {
            save(learner, path, observer)?;
            since_save = 0;
        }
        Ok::<_, CliError>(())
    })?;
    if since_save > 0 || !complete || trace.periods().is_empty() {
        save(&learner, path, observer)?;
    }
    Ok(learner.finish())
}

fn save<O: Observer + ?Sized>(
    learner: &IncrementalLearner,
    path: &Path,
    observer: &mut O,
) -> Result<(), CliError> {
    let checkpoint = learner.checkpoint();
    checkpoint.save(path)?;
    observer.checkpoint(learner.pushed_periods(), checkpoint.fingerprint());
    Ok(())
}

/// Prints the learned model in the `learn`/`resume` output format.
pub(crate) fn print_model(
    out: &mut dyn Write,
    trace: &Trace,
    result: &LearnResult,
    table: bool,
    hypotheses: bool,
) -> Result<(), CliError> {
    writeln!(
        out,
        "{} most-specific hypothesis(es); converged: {}; {}",
        result.hypotheses().len(),
        result.converged(),
        result.stats()
    )?;
    if hypotheses {
        for (i, d) in result.hypotheses().iter().enumerate() {
            writeln!(out, "\nhypothesis {} (weight {}):", i + 1, d.weight())?;
            out.write_all(d.to_table(trace.universe()).as_bytes())?;
        }
    }
    if table {
        let lub = result.lub().expect("nonempty");
        writeln!(out, "\nleast upper bound:")?;
        out.write_all(lub.to_table(trace.universe()).as_bytes())?;
    }
    Ok(())
}

/// Prints the degradation diagnostics collected while loading and
/// learning (skipped periods, repairs) — every dropped observation is
/// surfaced.
pub(crate) fn report_degradation(
    out: &mut dyn Write,
    loaded: &LoadedTrace,
    notes: &NoteSink,
) -> Result<(), CliError> {
    for note in &loaded.notes {
        writeln!(out, "note: {note}")?;
    }
    for note in &notes.notes {
        writeln!(out, "note: {note}")?;
    }
    if notes.fell_back {
        writeln!(out, "note: fell back to the bounded heuristic")?;
    }
    Ok(())
}

pub(crate) mod simulate {
    use bbmg_sim::{inject_faults, FaultConfig, SimConfig, Simulator};
    use bbmg_trace::{write_csv_raw, write_trace};
    use bbmg_workloads::{gm, random, simple};

    use super::{CliError, Write};
    use crate::args::{SimulateOptions, Workload};

    pub(crate) fn run(options: &SimulateOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let trace = match &options.workload {
            Workload::Simple => simple::figure_2_trace(),
            Workload::Gm => {
                let mut config = gm::gm_config(options.seed);
                config.periods = options.periods;
                let model = gm::gm_model();
                Simulator::new(&model, config).run()?.trace
            }
            Workload::Random { tasks, edges } => {
                let model = random::random_model(&random::RandomModelConfig {
                    tasks: *tasks,
                    edge_probability: *edges,
                    seed: options.seed,
                    ..random::RandomModelConfig::default()
                });
                let config = SimConfig {
                    periods: options.periods,
                    period_length: 100_000,
                    seed: options.seed,
                    ..SimConfig::default()
                };
                Simulator::new(&model, config).run()?.trace
            }
        };
        // Faulty traces can violate the strict text format (unmatched
        // windows), so fault injection switches the output to CSV.
        let (text, summary) = if options.fault_rate > 0.0 {
            let faults = FaultConfig::event_drop(options.fault_rate, options.fault_seed);
            let (raw, log) = inject_faults(&trace, &faults);
            (write_csv_raw(&raw), format!("{}; {log}", trace.stats()))
        } else {
            (write_trace(&trace), trace.stats().to_string())
        };
        match &options.output {
            Some(path) => {
                std::fs::write(path, text)?;
                writeln!(out, "wrote {path} ({summary})")?;
            }
            None => out.write_all(text.as_bytes())?,
        }
        Ok(())
    }
}

pub(crate) mod stats {
    use bbmg_obs::NoopObserver;

    use super::{load_trace, CliError, Write};
    use crate::args::{OnError, StatsOptions};

    pub(crate) fn run(options: &StatsOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let trace = load_trace(&options.trace, OnError::Abort, &mut NoopObserver)?.trace;
        let stats = trace.stats();
        writeln!(out, "{stats}")?;
        writeln!(out, "tasks:")?;
        for (_, name) in trace.universe().iter() {
            writeln!(out, "  {name}")?;
        }
        for period in trace.periods() {
            writeln!(
                out,
                "period {}: {} tasks executed, {} messages",
                period.index(),
                period.executed_tasks().len(),
                period.messages().len()
            )?;
        }
        Ok(())
    }
}

pub(crate) mod learn {
    use bbmg_core::{learn_with, IncrementalLearner};
    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{
        checkpointed, learn_options_for_trace, load_trace, print_model, report_degradation,
        CliError, NoteSink, Path, Write,
    };
    use crate::args::LearnCmdOptions;

    pub(crate) fn run(options: &LearnCmdOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut notes = NoteSink::default();
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        let learn = learn_options_for_trace(options.learner, trace)?;
        let result = {
            let mut tee = sinks.attach(Tee::new()).with(&mut notes);
            match &options.checkpoint {
                // Checkpointed runs save the learner so a crash mid-trace
                // can be resumed with `bbmg resume`.
                Some(path) => {
                    let learner = IncrementalLearner::new(trace.task_count(), learn);
                    let every = options.checkpoint_every;
                    checkpointed(learner, trace, 0, every, Path::new(path), &mut tee)?
                }
                None => learn_with(trace, learn, &mut tee)?,
            }
        };
        report_degradation(out, &loaded, &notes)?;
        print_model(out, trace, &result, options.table, options.hypotheses)?;
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod resume {
    use bbmg_core::{Checkpoint, IncrementalLearner};
    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{
        checkpointed, load_trace, print_model, report_degradation, CliError, NoteSink, Path, Write,
    };
    use crate::args::ResumeOptions;

    pub(crate) fn run(options: &ResumeOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut notes = NoteSink::default();
        let checkpoint = Checkpoint::load(Path::new(&options.checkpoint))?;
        let start = checkpoint.pushed_periods;
        let learner = IncrementalLearner::resume(checkpoint)?;
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        if trace.task_count() != learner.tasks() {
            return Err(CliError::Usage(format!(
                "checkpoint was taken over {} tasks but the trace has {}",
                learner.tasks(),
                trace.task_count()
            )));
        }
        if start > trace.periods().len() {
            return Err(CliError::Usage(format!(
                "checkpoint is ahead of the trace: {start} period(s) already pushed, \
                 trace has only {}",
                trace.periods().len()
            )));
        }
        writeln!(
            out,
            "resuming at period {start} of {} ({} hypothesis(es) restored)",
            trace.periods().len(),
            learner.len()
        )?;
        let result = {
            let mut tee = sinks.attach(Tee::new()).with(&mut notes);
            checkpointed(
                learner,
                trace,
                start,
                options.checkpoint_every,
                Path::new(&options.checkpoint),
                &mut tee,
            )?
        };
        report_degradation(out, &loaded, &notes)?;
        print_model(out, trace, &result, options.table, options.hypotheses)?;
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod serve {
    use std::io::{BufRead, BufReader};
    use std::num::NonZeroUsize;
    use std::path::{Path, PathBuf};

    use bbmg_obs::Tee;
    use bbmg_serve::{HealthSnapshot, LineOutcome, ServeError, ServeOptions, Supervisor};

    use super::TelemetrySinks;
    use super::{learn_options, CliError, Write};
    use crate::args::ServeCmdOptions;

    /// Default status-file rewrite cadence, in ingested lines.
    const DEFAULT_STATUS_EVERY: usize = 64;

    /// Atomically replaces `path` with the snapshot (temp + rename), so a
    /// concurrent `bbmg top` never reads a torn document.
    fn write_status(path: &Path, snapshot: &HealthSnapshot) -> Result<(), CliError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(snapshot.to_json().as_bytes())?;
            file.write_all(b"\n")?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    pub(crate) fn run(options: &ServeCmdOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut serve = ServeOptions {
            learn: learn_options(options.learner)?,
            ..ServeOptions::default()
        };
        if let Some(words) = options.watermark_words {
            serve.watermark_words = words;
        }
        if let Some(dir) = &options.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
            serve.checkpoint_dir = Some(PathBuf::from(dir));
        }
        if let Some(every) = options.checkpoint_every {
            // `--checkpoint-every 0` disables cadence checkpoints.
            serve.checkpoint_every = NonZeroUsize::new(every);
        }
        if let Some(budget) = options.restart_budget {
            serve.restart_budget = budget;
        }
        if let Some(events) = options.backoff_events {
            serve.initial_backoff_events = events;
        }

        let mut supervisor = Supervisor::new(serve);
        let recovered = supervisor.recover()?;
        if recovered > 0 {
            writeln!(out, "note: roster lists {recovered} known source(s)")?;
        }
        let status_file = options.status_file.as_deref().map(Path::new);
        let status_every = options.status_every.unwrap_or(DEFAULT_STATUS_EVERY);
        let mut feed: Box<dyn BufRead> = match &options.input {
            Some(path) => Box::new(BufReader::new(std::fs::File::open(path)?)),
            None => Box::new(BufReader::new(std::io::stdin())),
        };
        let mut rejected = 0usize;
        let mut lineno = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if feed.read_line(&mut line)? == 0 {
                break;
            }
            lineno += 1;
            let mut tee = sinks.attach(Tee::new());
            match supervisor.ingest_line(&line, &mut tee) {
                Ok(LineOutcome::Processed) => {}
                // A status line answers on stdout with one bbmg-health/1
                // document (and refreshes the status file early).
                Ok(LineOutcome::StatusRequested) => {
                    let snapshot = supervisor.health_snapshot();
                    writeln!(out, "{}", snapshot.to_json())?;
                    if let Some(path) = status_file {
                        write_status(path, &snapshot)?;
                    }
                }
                // Malformed or misrouted lines must not take the ingest
                // front down; learner/checkpoint faults are fatal.
                Err(
                    error @ (ServeError::Protocol { .. }
                    | ServeError::UnknownSource { .. }
                    | ServeError::DuplicateSource { .. }
                    | ServeError::UnknownSubject { .. }),
                ) => {
                    rejected += 1;
                    writeln!(out, "note: line {lineno} rejected: {error}")?;
                }
                Err(error) => return Err(error.into()),
            }
            if let Some(path) = status_file {
                if lineno.is_multiple_of(status_every) {
                    write_status(path, &supervisor.health_snapshot())?;
                }
            }
        }
        let summaries = {
            let mut tee = sinks.attach(Tee::new());
            supervisor.finish(&mut tee)?
        };
        // One final snapshot so the file reflects the closed shards.
        if let Some(path) = status_file {
            write_status(path, &supervisor.health_snapshot())?;
        }
        if rejected > 0 {
            writeln!(out, "note: {rejected} line(s) rejected")?;
        }
        for summary in &summaries {
            writeln!(
                out,
                "shard {}: state={} periods={} shed-periods={} shed-events={} \
                 restarts={} hypotheses={} converged={}",
                summary.source,
                summary.state,
                summary.periods,
                summary.shed_periods,
                summary.shed_events,
                summary.restarts,
                summary.result.hypotheses().len(),
                summary.result.converged()
            )?;
            if !summary.report.is_clean() {
                writeln!(out, "  sanitizer: {}", summary.report)?;
            }
        }
        writeln!(out, "{} source(s) served", summaries.len())?;
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod top {
    use std::time::Duration;

    use bbmg_serve::HealthSnapshot;

    use super::{CliError, Write};
    use crate::args::TopOptions;

    /// ANSI clear-screen + cursor-home, emitted between refresh frames so
    /// the table repaints in place on a terminal.
    const REPAINT: &str = "\x1b[2J\x1b[H";

    fn render(
        snapshot: &HealthSnapshot,
        repaint: bool,
        out: &mut dyn Write,
    ) -> Result<(), CliError> {
        if repaint {
            out.write_all(REPAINT.as_bytes())?;
        }
        writeln!(
            out,
            "bbmg serve: snapshot #{} at uptime {:.1}s, {} line(s) ingested, {} shard(s)",
            snapshot.seq,
            snapshot.uptime_us as f64 / 1e6,
            snapshot.lines,
            snapshot.shards.len()
        )?;
        writeln!(
            out,
            "{:<12} {:<10} {:>8} {:>10} {:>6} {:>7} {:>8} {:>8} {:>18} {:>9}",
            "SOURCE",
            "STATE",
            "PERIODS",
            "EVENTS",
            "LAG",
            "SHED-P",
            "SHED-EV",
            "RESTART",
            "MEM/WATERMARK",
            "CKPT-AGE"
        )?;
        for shard in &snapshot.shards {
            // Closed shards keep their final gauges, starred.
            let state = if shard.open {
                shard.state.clone()
            } else {
                format!("{}*", shard.state)
            };
            writeln!(
                out,
                "{:<12} {:<10} {:>8} {:>10} {:>6} {:>7} {:>8} {:>8} {:>18} {:>9}",
                shard.source,
                state,
                shard.periods,
                shard.events,
                shard.pending_events,
                shard.shed_periods,
                shard.shed_events,
                shard.restarts,
                format!("{}/{}", shard.memory_words, shard.watermark_words),
                shard.checkpoint_age_periods
            )?;
        }
        writeln!(
            out,
            "(* = closed; LAG = events buffered ahead of their period boundary)"
        )?;
        Ok(())
    }

    pub(crate) fn run(options: &TopOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut frames = 0u64;
        loop {
            match std::fs::read_to_string(&options.status_file) {
                Ok(text) => {
                    let snapshot = HealthSnapshot::parse_json(text.trim_end())?;
                    render(&snapshot, frames > 0, out)?;
                    frames += 1;
                }
                // The serve run may not have written its first snapshot
                // yet; keep polling unless a single frame was demanded.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound && !options.once => {
                    writeln!(out, "waiting for {} ...", options.status_file)?;
                }
                Err(e) => return Err(e.into()),
            }
            if options.once {
                break;
            }
            if options.ticks.is_some_and(|ticks| frames >= ticks) {
                break;
            }
            std::thread::sleep(Duration::from_millis(options.interval_ms));
        }
        Ok(())
    }
}

pub(crate) mod analyze {
    use bbmg_analysis::{modes, properties, reachability};
    use bbmg_lattice::TaskId;

    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{load_trace, report_degradation, run_learner, CliError, NoteSink, Write};
    use crate::args::AnalyzeOptions;

    pub(crate) fn run(options: &AnalyzeOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut notes = NoteSink::default();
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        let result = {
            let mut tee = sinks.attach(Tee::new()).with(&mut notes);
            run_learner(trace, options.learner, &mut tee)?
        };
        report_degradation(out, &loaded, &notes)?;
        let d = result.lub().expect("nonempty");
        let universe = trace.universe();

        writeln!(out, "node kinds (learned):")?;
        for (task, name) in universe.iter() {
            let mut kinds = Vec::new();
            if properties::is_disjunction_node(&d, task) {
                kinds.push("disjunction");
            }
            if properties::is_conjunction_node(&d, task) {
                kinds.push("conjunction");
            }
            if !kinds.is_empty() {
                writeln!(out, "  {name}: {}", kinds.join(" + "))?;
            }
        }

        writeln!(out, "unconditional dependencies (must-followers):")?;
        for (task, name) in universe.iter() {
            let followers = properties::must_followers(&d, task);
            if !followers.is_empty() {
                let names: Vec<&str> = followers
                    .iter()
                    .map(|&t: &TaskId| universe.name(t))
                    .collect();
                writeln!(out, "  {name} -> {}", names.join(", "))?;
            }
        }

        writeln!(out, "operation modes (per disjunction node):")?;
        for report in modes::all_mode_reports(trace, &d) {
            let chooser = universe.name(report.chooser);
            let rendered: Vec<String> = report
                .modes
                .iter()
                .map(|mode| {
                    let names: Vec<&str> = mode.iter().map(|t| universe.name(t)).collect();
                    format!("{{{}}}", names.join(","))
                })
                .collect();
            writeln!(
                out,
                "  {chooser}: {} ({} observations{})",
                rendered.join(" "),
                report.observations,
                if report.saturated() {
                    ", saturated"
                } else {
                    ""
                }
            )?;
        }

        let space = reachability::measure_state_space(&d);
        writeln!(
            out,
            "state space: {} unconstrained, {} constrained ({:.1}x reduction)",
            space.unconstrained,
            space.constrained,
            space.reduction_factor()
        )?;
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod dot {
    use bbmg_analysis::depgraph;

    use bbmg_obs::Tee;

    use super::{load_trace, run_learner, CliError, TelemetrySinks, Write};
    use crate::args::DotOptions;

    pub(crate) fn run(options: &DotOptions, out: &mut dyn Write) -> Result<(), CliError> {
        // No degradation notes here: the output must stay valid DOT; the
        // telemetry files still capture every quarantine and repair.
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        let result = {
            let mut tee = sinks.attach(Tee::new());
            run_learner(trace, options.learner, &mut tee)?
        };
        let d = result.lub().expect("nonempty");
        let rendered = depgraph::to_dot(&d, trace.universe(), &options.name);
        out.write_all(rendered.as_bytes())?;
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod check {
    use bbmg_check::{check_states, Prop};
    use bbmg_lattice::DependencyFunction;

    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{load_trace, report_degradation, run_learner, CliError, NoteSink, Write};
    use crate::args::CheckOptions;

    pub(crate) fn run(options: &CheckOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut notes = NoteSink::default();
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        let prop = Prop::parse(&options.prop, trace.universe())?;
        let result = {
            let mut tee = sinks.attach(Tee::new()).with(&mut notes);
            run_learner(trace, options.learner, &mut tee)?
        };
        report_degradation(out, &loaded, &notes)?;
        let d = result.lub().expect("nonempty");

        let blind = check_states(&DependencyFunction::bottom(trace.task_count()), &prop);
        let informed = check_states(&d, &prop);
        let show = |holds: bool| if holds { "holds" } else { "VIOLATED" };
        writeln!(out, "property: {}", prop.to_string_with(trace.universe()))?;
        writeln!(
            out,
            "without a model: {} ({} states)",
            show(blind.holds),
            blind.examined
        )?;
        writeln!(
            out,
            "with the learned model: {} ({} states)",
            show(informed.holds),
            informed.examined
        )?;
        if let Some(cex) = &informed.counterexample {
            let names: Vec<&str> = cex.iter().map(|t| trace.universe().name(t)).collect();
            writeln!(out, "counterexample state: {{{}}}", names.join(","))?;
        }
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod explain {
    use bbmg_core::explain_pair;

    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{load_trace, report_degradation, run_learner, CliError, NoteSink, Write};
    use crate::args::ExplainOptions;

    pub(crate) fn run(options: &ExplainOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let mut notes = NoteSink::default();
        let loaded = {
            let mut tee = sinks.attach(Tee::new());
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };
        let trace = &loaded.trace;
        let universe = trace.universe();
        let lookup = |name: &str| {
            universe
                .lookup(name)
                .ok_or_else(|| CliError::Usage(format!("unknown task `{name}` in --pair")))
        };
        let sender = lookup(&options.sender)?;
        let receiver = lookup(&options.receiver)?;
        let result = {
            let mut tee = sinks.attach(Tee::new()).with(&mut notes);
            run_learner(trace, options.learner, &mut tee)?
        };
        report_degradation(out, &loaded, &notes)?;
        let d = result.lub().expect("nonempty");
        writeln!(
            out,
            "learned d({}, {}) = {}   |   d({}, {}) = {}",
            options.sender,
            options.receiver,
            d.value(sender, receiver),
            options.receiver,
            options.sender,
            d.value(receiver, sender),
        )?;
        let (forced, supporting) = explain_pair(&d, trace, sender, receiver);
        writeln!(
            out,
            "evidence for {} -> {}: {} forced attribution(s), {} supporting",
            options.sender,
            options.receiver,
            forced.len(),
            supporting.len()
        )?;
        for a in forced.iter().take(10) {
            writeln!(out, "  forced: message {}", a.message)?;
        }
        sinks.finish()?;
        Ok(())
    }
}

pub(crate) mod profile {
    use bbmg_core::convergence_timeline_with;
    use bbmg_obs::{chrome_trace, Metrics, Recorder, Tee};

    use super::TelemetrySinks;
    use super::{
        learn_options_for_trace, load_trace, report_degradation, CliError, NoteSink, Write,
    };
    use crate::args::ProfileOptions;

    pub(crate) fn run(options: &ProfileOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        // The metrics table is the command's point, so a collector runs
        // even without --metrics-out; the recorder only when a Chrome
        // trace was requested (it buffers every event in memory).
        let mut metrics = Metrics::new();
        let mut recorder = options.chrome_out.as_ref().map(|_| Recorder::new());
        let mut notes = NoteSink::default();

        let loaded = {
            let mut tee = sinks.attach(Tee::new()).with(&mut metrics);
            if let Some(recorder) = recorder.as_mut() {
                tee = tee.with(recorder);
            }
            load_trace(&options.trace, options.learner.on_error, &mut tee)?
        };

        let learn_opts = learn_options_for_trace(options.learner, &loaded.trace)?;
        let timeline = {
            let mut tee = sinks.attach(Tee::new()).with(&mut metrics).with(&mut notes);
            if let Some(recorder) = recorder.as_mut() {
                tee = tee.with(recorder);
            }
            convergence_timeline_with(&loaded.trace, learn_opts, &mut tee)?
        };

        report_degradation(out, &loaded, &notes)?;
        writeln!(out, "{}", metrics.snapshot())?;
        writeln!(out)?;
        writeln!(
            out,
            "convergence timeline (distance = lattice distance to the final d_LUB):"
        )?;
        writeln!(out, "  period  hypotheses  lub-weight  distance")?;
        for point in &timeline {
            writeln!(
                out,
                "  {:>6}  {:>10}  {:>10}  {:>8}",
                point.period, point.hypotheses, point.lub_weight, point.distance_to_final
            )?;
        }

        if let (Some(path), Some(recorder)) = (&options.chrome_out, recorder) {
            std::fs::write(path, chrome_trace(recorder.events()))?;
            writeln!(
                out,
                "wrote {path} (chrome trace, {} events)",
                recorder.len()
            )?;
        }
        sinks.finish()?;
        if let Some(path) = &options.telemetry.metrics_out {
            writeln!(out, "wrote {path} (metrics json)")?;
        }
        if let Some(path) = &options.telemetry.events_out {
            writeln!(out, "wrote {path} (events jsonl)")?;
        }
        Ok(())
    }
}

pub(crate) mod audit {
    use std::path::PathBuf;

    use bbmg_audit::{audit_paths_with, AuditOptions};
    use bbmg_obs::Tee;

    use super::TelemetrySinks;
    use super::{CliError, Write};
    use crate::args::AuditCmdOptions;

    pub(crate) fn run(options: &AuditCmdOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let mut sinks = TelemetrySinks::open(&options.telemetry)?;
        let audit_options = AuditOptions {
            replay: options.replay.as_ref().map(PathBuf::from),
            deny_warnings: options.deny_warnings,
        };
        let paths: Vec<PathBuf> = options.paths.iter().map(PathBuf::from).collect();
        let report = {
            let mut observer = sinks.attach(Tee::new());
            audit_paths_with(&paths, &audit_options, &mut observer)
        };
        sinks.finish()?;
        if options.json {
            writeln!(out, "{}", report.to_json())?;
        } else {
            out.write_all(report.render_table().as_bytes())?;
        }
        if report.is_clean(options.deny_warnings) {
            Ok(())
        } else {
            // The findings were already printed; the error only carries
            // the exit status.
            Err(CliError::Audit {
                errors: report.errors(),
                warnings: report.warnings(),
            })
        }
    }
}

pub(crate) mod convert {
    use bbmg_obs::NoopObserver;

    use super::{load_trace, CliError, Write};
    use crate::args::{ConvertOptions, OnError};

    pub(crate) fn run(options: &ConvertOptions, out: &mut dyn Write) -> Result<(), CliError> {
        // Strict load only: the binary format seals exactly what was
        // captured, so a degraded CSV must go through `--on-error repair`
        // on a learner command first, not get silently "fixed" here.
        let trace = load_trace(&options.input, OnError::Abort, &mut NoopObserver)?.trace;
        let binary = options.output.ends_with(".btrace");
        let bytes = if binary {
            bbmg_trace::write_btrace(&trace)
        } else {
            bbmg_trace::write_csv(&trace).into_bytes()
        };
        std::fs::write(&options.output, &bytes)?;
        writeln!(
            out,
            "wrote {} ({}, {} tasks, {} periods, {} bytes)",
            options.output,
            if binary { "binary" } else { "csv" },
            trace.task_count(),
            trace.periods().len(),
            bytes.len()
        )?;
        Ok(())
    }
}

pub(crate) mod corpus {
    use std::collections::HashMap;
    use std::num::NonZeroUsize;
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    use bbmg_core::pool::WorkerPool;
    use bbmg_core::{
        seal, trace_fingerprints, Checkpoint, IncrementalLearner, ModelCache, CORPUS_SCHEMA,
    };
    use bbmg_obs::json::escape;
    use bbmg_obs::NoopObserver;
    use bbmg_trace::Trace;

    use super::{learn_options, load_trace, CliError, Write};
    use crate::args::CorpusOptions;

    /// How one trace file resolves against the evolving cache.
    enum Plan {
        /// Learn (possibly seeded); `wave` orders in-run dependencies.
        Rep {
            wave: usize,
            seed: Option<u64>,
            seeded_periods: usize,
            hit: &'static str,
        },
        /// Byte-equivalent to an earlier file this run; reuse its model.
        Dup { of: usize },
    }

    /// One report row, in file order.
    struct Entry {
        file: String,
        tasks: usize,
        periods: usize,
        hit: &'static str,
        seeded_periods: usize,
        fingerprint: u64,
        hypotheses: usize,
        converged: bool,
    }

    fn with_file(file: &str, e: CliError) -> CliError {
        CliError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{file}: {e}"),
        ))
    }

    /// Collects `.csv`/`.btrace` files under `dir` (recursively), skipping
    /// the cache directory, sorted by path for a deterministic report.
    fn collect_traces(dir: &Path, cache_dir: &Path) -> Result<Vec<PathBuf>, CliError> {
        let mut files = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            for entry in std::fs::read_dir(&current)? {
                let path = entry?.path();
                if path == cache_dir {
                    continue;
                }
                if path.is_dir() {
                    stack.push(path);
                } else if path
                    .extension()
                    .is_some_and(|e| e == "csv" || e == "btrace")
                {
                    files.push(path);
                }
            }
        }
        files.sort();
        Ok(files)
    }

    pub(crate) fn run(options: &CorpusOptions, out: &mut dyn Write) -> Result<(), CliError> {
        let dir = PathBuf::from(&options.dir);
        let cache_dir = options
            .cache_dir
            .as_ref()
            .map_or_else(|| dir.join(".bbmg-cache"), PathBuf::from);
        let files = collect_traces(&dir, &cache_dir)?;
        if files.is_empty() {
            return Err(CliError::Usage(format!(
                "no .csv or .btrace trace files under `{}`",
                dir.display()
            )));
        }
        let learn = learn_options(options.learner)?;
        let capacity =
            NonZeroUsize::new(options.cache_capacity).expect("validated by the arg parser");
        let mut cache = ModelCache::open(&cache_dir, capacity)?;
        let pool = WorkerPool::global();
        pool.provision(learn.parallelism.get());

        let started = Instant::now();

        // Stage 1 — parse every file across the pool, in file order.
        let names: Vec<String> = files
            .iter()
            .map(|p| p.to_string_lossy().into_owned())
            .collect();
        let parse_jobs: Vec<_> = names
            .iter()
            .map(|name| {
                let name = name.clone();
                let on_error = options.learner.on_error;
                move || load_trace(&name, on_error, &mut NoopObserver).map(|l| l.trace)
            })
            .collect();
        let mut traces: Vec<Option<Trace>> = Vec::with_capacity(files.len());
        for (name, parsed) in names.iter().zip(pool.scatter(parse_jobs)) {
            traces.push(Some(parsed.map_err(|e| with_file(name, e))?));
        }

        // Stage 2 — plan sequentially in file order: dedup exact repeats,
        // classify the rest against the cache index plus the models this
        // run will produce (`pending`), and assign dependency waves so a
        // prefix-seed never races the learn that feeds it.
        let fingerprints: Vec<_> = traces
            .iter()
            .map(|t| trace_fingerprints(t.as_ref().expect("unplanned trace present"), &learn))
            .collect();
        let mut plans: Vec<Plan> = Vec::with_capacity(files.len());
        let mut pending: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut seen_full: HashMap<u64, usize> = HashMap::new();
        let mut waves = 0;
        for (index, fps) in fingerprints.iter().enumerate() {
            if let Some(&of) = seen_full.get(&fps.full()) {
                plans.push(Plan::Dup { of });
                continue;
            }
            let n = fps.periods();
            let plan = if cache.entry_periods(fps.full()) == Some(n) {
                Plan::Rep {
                    wave: 0,
                    seed: Some(fps.full()),
                    seeded_periods: n,
                    hit: "full",
                }
            } else {
                let mut best: Option<(usize, usize)> = None; // (periods, wave)
                for k in (1..n).rev() {
                    if cache.entry_periods(fps.prefix(k)) == Some(k) {
                        best = Some((k, 0));
                        break;
                    }
                    if let Some(&(periods, wave)) = pending.get(&fps.prefix(k)) {
                        if periods == k {
                            best = Some((k, wave + 1));
                            break;
                        }
                    }
                }
                match best {
                    Some((k, wave)) => Plan::Rep {
                        wave,
                        seed: Some(fps.prefix(k)),
                        seeded_periods: k,
                        hit: "prefix",
                    },
                    None => Plan::Rep {
                        wave: 0,
                        seed: None,
                        seeded_periods: 0,
                        hit: "miss",
                    },
                }
            };
            if let Plan::Rep { wave, .. } = plan {
                waves = waves.max(wave + 1);
                pending.insert(fps.full(), (n, wave));
                seen_full.insert(fps.full(), index);
            }
            plans.push(plan);
        }

        // Stage 3 — run each wave across the pool; checkpoints are loaded
        // and inserted on this thread, in file order, so cache recency and
        // eviction are deterministic. A learn is complete only if the
        // budget never stopped it; incomplete models are reported but not
        // cached (their state depends on timing, not just the trace).
        let mut entries: Vec<Option<Entry>> = (0..files.len()).map(|_| None).collect();
        let mut saved: Vec<Option<PathBuf>> = (0..files.len()).map(|_| None).collect();
        if let Some(ckpt_dir) = &options.checkpoint_dir {
            std::fs::create_dir_all(ckpt_dir)?;
        }
        for wave in 0..waves {
            let members: Vec<usize> = plans
                .iter()
                .enumerate()
                .filter_map(|(i, p)| match p {
                    Plan::Rep { wave: w, .. } if *w == wave => Some(i),
                    _ => None,
                })
                .collect();
            let mut jobs = Vec::with_capacity(members.len());
            let mut effective: Vec<(&'static str, usize)> = Vec::with_capacity(members.len());
            for &index in &members {
                let Plan::Rep {
                    seed,
                    seeded_periods,
                    hit,
                    ..
                } = &plans[index]
                else {
                    unreachable!("members are representatives");
                };
                // A stale index entry (file vanished or no longer
                // verifies) degrades the seed to a cold learn — reported
                // honestly as a miss.
                let checkpoint = seed.and_then(|fp| cache.take_checkpoint(fp));
                effective.push(if checkpoint.is_some() {
                    (*hit, *seeded_periods)
                } else {
                    ("miss", 0)
                });
                let trace = traces[index].take().expect("trace planned once");
                jobs.push(move || -> Result<(Checkpoint, bool, bool), CliError> {
                    let mut learner = match checkpoint {
                        Some(c) => IncrementalLearner::resume(c)?,
                        None => IncrementalLearner::new(trace.task_count(), learn),
                    };
                    let rest = &trace.periods()[learner.pushed_periods()..];
                    let complete = learner
                        .drive(rest, &mut NoopObserver, |_, _, _, _| Ok::<_, CliError>(()))?;
                    let checkpoint = learner.checkpoint();
                    let converged = learner.finish().converged();
                    Ok((checkpoint, complete, converged))
                });
            }
            for ((&index, (hit, seeded_periods)), outcome) in
                members.iter().zip(effective).zip(pool.scatter(jobs))
            {
                let (checkpoint, complete, converged) =
                    outcome.map_err(|e| with_file(&names[index], e))?;
                let fps = &fingerprints[index];
                if complete {
                    cache.insert(fps.full(), &checkpoint)?;
                }
                if let Some(ckpt_dir) = &options.checkpoint_dir {
                    let stem = names[index]
                        .trim_start_matches(&format!("{}/", dir.display()))
                        .replace(['/', '\\'], "__");
                    let dest = Path::new(ckpt_dir).join(format!("{stem}.ckpt"));
                    checkpoint.save(&dest)?;
                    saved[index] = Some(dest);
                }
                entries[index] = Some(Entry {
                    file: names[index].clone(),
                    tasks: checkpoint.tasks,
                    periods: fps.periods(),
                    hit,
                    seeded_periods,
                    fingerprint: checkpoint.fingerprint(),
                    hypotheses: checkpoint.hypotheses.len(),
                    converged,
                });
            }
        }

        // Duplicates copy their representative's row (and checkpoint).
        for index in 0..files.len() {
            if let Plan::Dup { of } = plans[index] {
                let rep = entries[of].as_ref().expect("representative resolved");
                entries[index] = Some(Entry {
                    file: names[index].clone(),
                    tasks: rep.tasks,
                    periods: rep.periods,
                    hit: "full",
                    seeded_periods: rep.periods,
                    fingerprint: rep.fingerprint,
                    hypotheses: rep.hypotheses,
                    converged: rep.converged,
                });
                if let (Some(ckpt_dir), Some(src)) = (&options.checkpoint_dir, &saved[of]) {
                    let stem = names[index]
                        .trim_start_matches(&format!("{}/", dir.display()))
                        .replace(['/', '\\'], "__");
                    std::fs::copy(src, Path::new(ckpt_dir).join(format!("{stem}.ckpt")))?;
                }
            }
        }
        let entries: Vec<Entry> = entries
            .into_iter()
            .map(|e| e.expect("every file planned and resolved"))
            .collect();
        let elapsed = started.elapsed();

        // Aggregate + sealed report document.
        let traces_total = entries.len();
        let full_hits = entries.iter().filter(|e| e.hit == "full").count();
        let prefix_hits = entries.iter().filter(|e| e.hit == "prefix").count();
        let misses = entries.iter().filter(|e| e.hit == "miss").count();
        let dedup_ratio = (traces_total - misses) as f64 / traces_total as f64;
        let elapsed_micros = elapsed.as_micros().max(1) as u64;
        let traces_per_sec = traces_total as f64 * 1_000_000.0 / elapsed_micros as f64;

        let mut payload = String::new();
        payload.push_str(&format!(
            "{{\"traces\":{traces_total},\"cache_full_hits\":{full_hits},\
             \"cache_prefix_hits\":{prefix_hits},\"cache_misses\":{misses},\
             \"dedup_ratio\":{dedup_ratio:.6},\"elapsed_micros\":{elapsed_micros},\
             \"traces_per_sec\":{traces_per_sec:.3},\"threads\":{},\"entries\":[",
            learn.parallelism.get()
        ));
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                payload.push(',');
            }
            payload.push_str("{\"file\":");
            payload.push_str(&escape(&e.file));
            payload.push_str(&format!(
                ",\"tasks\":{},\"periods\":{},\"hit\":\"{}\",\"seeded_periods\":{},\
                 \"model_fingerprint\":\"{:016x}\",\"hypotheses\":{},\"converged\":{}}}",
                e.tasks,
                e.periods,
                e.hit,
                e.seeded_periods,
                e.fingerprint,
                e.hypotheses,
                e.converged
            ));
        }
        payload.push_str("]}");
        let document = seal(CORPUS_SCHEMA, &payload);

        match &options.report {
            Some(path) => {
                std::fs::write(path, format!("{document}\n"))?;
                writeln!(
                    out,
                    "corpus: {traces_total} trace(s), {full_hits} full / {prefix_hits} prefix \
                     hit(s), {misses} cold learn(s)"
                )?;
                writeln!(
                    out,
                    "cache: {} of {} entries in {}",
                    cache.len(),
                    cache.capacity(),
                    cache.dir().display()
                )?;
                writeln!(
                    out,
                    "throughput: {traces_per_sec:.1} traces/sec (dedup ratio {dedup_ratio:.2})"
                )?;
                writeln!(out, "report: {path}")?;
            }
            None => writeln!(out, "{document}")?,
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::args::parse_args;
    use crate::{execute, run};

    fn run_to_string(argv: &[&str]) -> String {
        let mut out = Vec::new();
        run(argv.iter().copied(), &mut out).expect("command succeeds");
        String::from_utf8(out).expect("utf8 output")
    }

    mod auto_threads {
        use bbmg_trace::{Timestamp, Trace, TraceBuilder};

        use super::super::{learn_options_for_trace, workload_words};
        use crate::args::LearnerChoice;

        /// A tiny 2-task, 1-message trace: far below the auto-threading
        /// word floor on any hardware.
        fn tiny_trace() -> Trace {
            let u = bbmg_lattice::TaskUniverse::from_names(["a", "b"]);
            let a = u.lookup("a").unwrap();
            let b_id = u.lookup("b").unwrap();
            let mut b = TraceBuilder::new(u);
            b.begin_period();
            b.task(a, Timestamp::new(0), Timestamp::new(10)).unwrap();
            b.message(Timestamp::new(11), Timestamp::new(13)).unwrap();
            b.task(b_id, Timestamp::new(15), Timestamp::new(25))
                .unwrap();
            b.end_period().unwrap();
            b.finish()
        }

        #[test]
        fn workload_proxy_is_monotone_in_messages_and_tasks() {
            let tiny = workload_words(&tiny_trace());
            assert!(tiny > 0);
            // Same universe, more messages => strictly more estimated work.
            let u = bbmg_lattice::TaskUniverse::from_names(["a", "b"]);
            let a = u.lookup("a").unwrap();
            let b_id = u.lookup("b").unwrap();
            let mut b = TraceBuilder::new(u);
            for p in 0..4u64 {
                let base = p * 100;
                b.begin_period();
                b.task(a, Timestamp::new(base), Timestamp::new(base + 10))
                    .unwrap();
                b.message(Timestamp::new(base + 11), Timestamp::new(base + 13))
                    .unwrap();
                b.task(b_id, Timestamp::new(base + 15), Timestamp::new(base + 25))
                    .unwrap();
                b.end_period().unwrap();
            }
            assert!(workload_words(&b.finish()) > tiny);
        }

        #[test]
        fn threads_zero_clamps_to_one_on_tiny_workloads() {
            // Regardless of how many cores the host has, a workload far
            // below AUTO_THREAD_WORDS must resolve --threads 0 to 1.
            let choice = LearnerChoice {
                threads: 0,
                ..LearnerChoice::default()
            };
            let options = learn_options_for_trace(choice, &tiny_trace()).unwrap();
            assert_eq!(options.parallelism.get(), 1);
        }

        #[test]
        fn threads_zero_without_a_trace_uses_detected_cores() {
            let choice = LearnerChoice {
                threads: 0,
                ..LearnerChoice::default()
            };
            let options = super::super::learn_options(choice).unwrap();
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            assert_eq!(options.parallelism.get(), cores);
        }

        #[test]
        fn explicit_threads_are_never_clamped_by_the_workload() {
            let choice = LearnerChoice {
                threads: 6,
                ..LearnerChoice::default()
            };
            let options = learn_options_for_trace(choice, &tiny_trace()).unwrap();
            assert_eq!(options.parallelism.get(), 6);
        }
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(&["help"]);
        assert!(text.contains("USAGE"));
        assert!(text.contains("simulate"));
    }

    #[test]
    fn simulate_stats_learn_pipeline() {
        let dir = std::env::temp_dir().join("bbmg_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("simple.txt");
        let trace_str = trace_path.to_str().unwrap();

        let text = run_to_string(&["simulate", "--workload", "simple", "-o", trace_str]);
        assert!(text.contains("wrote"));

        let stats = run_to_string(&["stats", trace_str]);
        assert!(stats.contains("3 periods"));
        assert!(stats.contains("period 2: 4 tasks executed"));

        let learned = run_to_string(&["learn", trace_str, "--exact", "--hypotheses", "--table"]);
        assert!(learned.contains("5 most-specific hypothesis(es)"));
        assert!(learned.contains("least upper bound"));

        let analyzed = run_to_string(&["analyze", trace_str, "--exact"]);
        assert!(analyzed.contains("disjunction"));
        assert!(analyzed.contains("state space"));

        let dot = run_to_string(&["dot", trace_str, "--exact", "--name", "fig4"]);
        assert!(dot.starts_with("digraph fig4"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn check_and_explain_commands() {
        let dir = std::env::temp_dir().join("bbmg_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("simple.txt");
        let trace_str = trace_path.to_str().unwrap();
        let _ = run_to_string(&["simulate", "--workload", "simple", "-o", trace_str]);

        let checked = run_to_string(&["check", trace_str, "--exact", "--prop", "t4 -> t1"]);
        assert!(checked.contains("without a model: VIOLATED"));
        assert!(checked.contains("with the learned model: holds"));

        let explained = run_to_string(&["explain", trace_str, "--exact", "--pair", "t1,t4"]);
        assert!(explained.contains("learned d(t1, t4) = ->"));
        assert!(explained.contains("evidence for t1 -> t4"));
    }

    #[test]
    fn random_simulation_to_stdout() {
        let text = run_to_string(&[
            "simulate",
            "--workload",
            "random:tasks=5",
            "--periods",
            "4",
            "--seed",
            "3",
        ]);
        assert!(text.starts_with("# bbmg trace v1"));
        assert_eq!(text.matches("period\n").count(), 4);
    }

    #[test]
    fn missing_file_is_io_error() {
        let command = parse_args(["stats", "/nonexistent/bbmg.txt"]).unwrap();
        let mut out = Vec::new();
        let err = execute(&command, &mut out).unwrap_err();
        assert!(matches!(err, crate::CliError::Io(_)));
    }

    fn run_expect_err(argv: &[&str]) -> crate::CliError {
        let command = parse_args(argv.iter().copied()).unwrap();
        let mut out = Vec::new();
        execute(&command, &mut out).unwrap_err()
    }

    #[test]
    fn degraded_gm_trace_needs_skip_or_repair() {
        let dir = std::env::temp_dir().join("bbmg_cli_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("gm_faulty.csv");
        let trace_str = trace_path.to_str().unwrap();

        // A 5% event-drop GM trace, written as CSV.
        let text = run_to_string(&[
            "simulate",
            "--workload",
            "gm",
            "--periods",
            "27",
            "--seed",
            "1",
            "--fault-rate",
            "0.05",
            "-o",
            trace_str,
        ]);
        assert!(text.contains("dropped"), "fault summary reported: {text}");
        let written = std::fs::read_to_string(trace_str).unwrap();
        assert!(written.starts_with("time,kind,subject,period"));

        // Strict mode chokes on the unbalanced windows...
        let err = run_expect_err(&["learn", trace_str]);
        assert!(matches!(err, crate::CliError::Csv(_)), "got {err}");

        // ...skip quarantines the broken periods and completes...
        let skipped = run_to_string(&["learn", trace_str, "--on-error", "skip"]);
        assert!(skipped.contains("quarantined"), "skip notes: {skipped}");
        assert!(skipped.contains("most-specific hypothesis(es)"));

        // ...and repair keeps strictly more of the trace.
        let repaired = run_to_string(&["learn", trace_str, "--on-error", "repair"]);
        assert!(repaired.contains("most-specific hypothesis(es)"));
        let kept = |s: &str| {
            s.lines()
                .find_map(|l| {
                    let rest = l.strip_prefix("note: kept ")?;
                    rest.split('/').next()?.parse::<usize>().ok()
                })
                .unwrap_or(27)
        };
        assert!(
            kept(&repaired) >= kept(&skipped),
            "repair keeps at least as many periods: {repaired} vs {skipped}"
        );
    }

    /// On this trace the exact learner trips `--set-limit 1024` in its
    /// second period. Under the default abort policy no entry point
    /// degrades: `learn`, `learn --checkpoint` and `profile` all fail with
    /// the same error. Under `--on-error skip` all three fall back and say
    /// so.
    #[test]
    fn set_limit_trip_is_one_outcome_at_every_entry_point() {
        let dir = std::env::temp_dir().join("bbmg_cli_abort_rule");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("late-fallback.txt");
        let ckpt = dir.join("late-fallback.ckpt");
        let (trace, ckpt) = (trace.to_str().unwrap(), ckpt.to_str().unwrap());
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "random:tasks=7",
            "--periods",
            "10",
            "--seed",
            "2",
            "-o",
            trace,
        ]);
        let learner = [trace, "--exact", "--set-limit", "1024", "--on-error"];
        for policy in ["abort", "skip"] {
            let runs = [
                [&["learn"][..], &learner, &[policy]].concat(),
                [&["learn"][..], &learner, &[policy, "--checkpoint", ckpt]].concat(),
                [&["profile"][..], &learner, &[policy]].concat(),
            ];
            if policy == "abort" {
                let errors: Vec<String> = runs
                    .iter()
                    .map(|argv| run_expect_err(argv).to_string())
                    .collect();
                assert!(
                    errors[0].contains("resource guard of 1024 in period 1"),
                    "{errors:?}"
                );
                assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
            } else {
                for argv in &runs {
                    let out = run_to_string(argv);
                    assert!(
                        out.contains("note: fell back to the bounded heuristic"),
                        "{argv:?}: {out}"
                    );
                }
            }
        }
    }

    #[test]
    fn profile_emits_telemetry_artifacts() {
        let dir = std::env::temp_dir().join("bbmg_cli_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("simple.txt");
        let metrics = dir.join("metrics.json");
        let events = dir.join("events.jsonl");
        let chrome = dir.join("chrome.json");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            trace.to_str().unwrap(),
        ]);

        let text = run_to_string(&[
            "profile",
            trace.to_str().unwrap(),
            "--exact",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
            "--chrome-out",
            chrome.to_str().unwrap(),
        ]);
        assert!(text.contains("set size"), "metrics table shown: {text}");
        assert!(
            text.contains("convergence timeline"),
            "timeline shown: {text}"
        );
        assert!(text.contains("wrote"), "artifacts reported: {text}");

        // The metrics file round-trips through the strict parser.
        let snapshot =
            bbmg_obs::MetricsSnapshot::parse_json(&std::fs::read_to_string(&metrics).unwrap())
                .expect("written metrics validate against the schema");
        assert_eq!(snapshot.periods, 3);
        assert!(snapshot.hypotheses_generated > 0);

        // The event stream is JSONL starting at period 0...
        let stream = std::fs::read_to_string(&events).unwrap();
        assert!(stream.lines().count() > 3);
        assert!(stream.lines().next().unwrap().contains("\"period_start\""));
        // ...and ends with the trailing convergence samples.
        assert!(stream.lines().last().unwrap().contains("\"convergence\""));

        // The Chrome trace is an object with a traceEvents array.
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        let parsed = bbmg_obs::json::parse(&chrome_text).expect("chrome trace is valid json");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn learn_telemetry_captures_degradation() {
        let dir = std::env::temp_dir().join("bbmg_cli_telemetry");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("gm_faulty.csv");
        let metrics = dir.join("metrics.json");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "gm",
            "--periods",
            "12",
            "--seed",
            "1",
            "--fault-rate",
            "0.05",
            "-o",
            trace.to_str().unwrap(),
        ]);
        let text = run_to_string(&[
            "learn",
            trace.to_str().unwrap(),
            "--on-error",
            "repair",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(text.contains("most-specific hypothesis(es)"));
        let snapshot =
            bbmg_obs::MetricsSnapshot::parse_json(&std::fs::read_to_string(&metrics).unwrap())
                .expect("metrics validate");
        // The load-time sanitizer's repair actions are part of the stream.
        assert!(
            snapshot.repairs > 0 || snapshot.quarantines > 0,
            "degradation visible in metrics: {snapshot:?}"
        );
    }

    #[test]
    fn clean_csv_round_trips_through_all_policies() {
        let dir = std::env::temp_dir().join("bbmg_cli_csv_clean");
        std::fs::create_dir_all(&dir).unwrap();
        let text_path = dir.join("simple.txt");
        let csv_path = dir.join("simple.csv");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            text_path.to_str().unwrap(),
        ]);
        let trace = bbmg_trace::parse_trace(&std::fs::read_to_string(&text_path).unwrap()).unwrap();
        std::fs::write(&csv_path, bbmg_trace::write_csv(&trace)).unwrap();

        let csv_str = csv_path.to_str().unwrap();
        for policy in ["abort", "skip", "repair"] {
            let out = run_to_string(&["learn", csv_str, "--exact", "--on-error", policy]);
            assert!(
                out.contains("5 most-specific hypothesis(es)"),
                "policy {policy} on clean csv: {out}"
            );
            assert!(!out.contains("note:"), "no degradation notes: {out}");
        }
        // Stats sniffs the CSV format too.
        let stats = run_to_string(&["stats", csv_str]);
        assert!(stats.contains("3 periods"));
    }

    #[test]
    fn checkpointed_learn_then_resume_matches_direct() {
        let dir = std::env::temp_dir().join("bbmg_cli_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("simple.txt");
        let prefix = dir.join("prefix.txt");
        let ckpt = dir.join("model.ckpt");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            full.to_str().unwrap(),
        ]);

        // A prefix trace: the header plus the first two of three periods.
        let text = std::fs::read_to_string(&full).unwrap();
        let cut = text.match_indices("\nend\n").nth(1).unwrap().0 + "\nend\n".len();
        std::fs::write(&prefix, &text[..cut]).unwrap();

        let direct = run_to_string(&["learn", full.to_str().unwrap(), "--exact", "--table"]);

        let first = run_to_string(&[
            "learn",
            prefix.to_str().unwrap(),
            "--exact",
            "--table",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ]);
        assert!(first.contains("most-specific hypothesis(es)"), "{first}");

        // Resuming over the full trace continues at period 2 and lands on
        // exactly the model the uninterrupted run produces.
        let resumed = run_to_string(&[
            "resume",
            ckpt.to_str().unwrap(),
            full.to_str().unwrap(),
            "--table",
        ]);
        assert!(resumed.contains("resuming at period 2 of 3"), "{resumed}");
        let tail = |s: &str| s[s.find("most-specific").unwrap()..].to_string();
        assert_eq!(tail(&resumed), tail(&direct));

        // Resuming again pushes nothing and reprints the same model.
        let again = run_to_string(&[
            "resume",
            ckpt.to_str().unwrap(),
            full.to_str().unwrap(),
            "--table",
        ]);
        assert!(again.contains("resuming at period 3 of 3"), "{again}");
        assert_eq!(tail(&again), tail(&direct));
    }

    #[test]
    fn resume_refuses_corrupt_checkpoint() {
        let dir = std::env::temp_dir().join("bbmg_cli_ckpt_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("simple.txt");
        let ckpt = dir.join("model.ckpt");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            trace.to_str().unwrap(),
        ]);
        let _ = run_to_string(&[
            "learn",
            trace.to_str().unwrap(),
            "--exact",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]);

        // Flip one payload byte: the checksum must catch it.
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let payload_at = bytes.windows(9).position(|w| w == b"\"payload\"").unwrap();
        let target = payload_at + 40;
        bytes[target] = if bytes[target] == b'0' { b'1' } else { b'0' };
        std::fs::write(&ckpt, &bytes).unwrap();

        let err = run_expect_err(&["resume", ckpt.to_str().unwrap(), trace.to_str().unwrap()]);
        assert!(matches!(err, crate::CliError::Checkpoint(_)), "got {err}");
    }

    #[test]
    fn serve_ingests_jsonl_and_reports_shards() {
        use bbmg_serve::{Line, WireKind};

        let dir = std::env::temp_dir().join("bbmg_cli_serve");
        std::fs::create_dir_all(&dir).unwrap();
        let feed_path = dir.join("feed.jsonl");

        let mut lines = vec![Line::Hello {
            source: "s0".into(),
            tasks: vec!["a".into(), "b".into()],
        }
        .to_json()];
        for period in 0..2usize {
            let base = period as u64 * 100;
            let ev = |time, kind, subject: &str| {
                Line::Event {
                    source: "s0".into(),
                    period,
                    time,
                    kind,
                    subject: subject.into(),
                }
                .to_json()
            };
            lines.push(ev(base, WireKind::Start, "a"));
            lines.push(ev(base + 10, WireKind::End, "a"));
            lines.push(ev(base + 12, WireKind::Rise, &format!("m{period}")));
            lines.push(ev(base + 14, WireKind::Fall, &format!("m{period}")));
            lines.push(ev(base + 20, WireKind::Start, "b"));
            lines.push(ev(base + 30, WireKind::End, "b"));
        }
        lines.push("this is not json".into());
        lines.push(
            Line::End {
                source: "s0".into(),
            }
            .to_json(),
        );
        std::fs::write(&feed_path, format!("{}\n", lines.join("\n"))).unwrap();

        let out = run_to_string(&["serve", "--input", feed_path.to_str().unwrap(), "--exact"]);
        assert!(out.contains("rejected: protocol: invalid JSON"), "{out}");
        assert!(out.contains("shard s0: state=exact"), "{out}");
        assert!(out.contains("periods=2"), "{out}");
        assert!(out.contains("1 source(s) served"), "{out}");
    }

    #[test]
    fn serve_status_file_feeds_top() {
        use bbmg_serve::{Line, WireKind, HEALTH_SCHEMA};

        let dir = std::env::temp_dir().join("bbmg_cli_serve_status");
        std::fs::create_dir_all(&dir).unwrap();
        let feed_path = dir.join("feed.jsonl");
        let status_path = dir.join("health.json");
        let _ = std::fs::remove_file(&status_path);

        let mut lines = vec![Line::Hello {
            source: "s0".into(),
            tasks: vec!["a".into(), "b".into()],
        }
        .to_json()];
        for period in 0..2usize {
            let base = period as u64 * 100;
            let ev = |time, kind, subject: &str| {
                Line::Event {
                    source: "s0".into(),
                    period,
                    time,
                    kind,
                    subject: subject.into(),
                }
                .to_json()
            };
            lines.push(ev(base, WireKind::Start, "a"));
            lines.push(ev(base + 10, WireKind::End, "a"));
            lines.push(ev(base + 20, WireKind::Start, "b"));
            lines.push(ev(base + 30, WireKind::End, "b"));
        }
        lines.push(Line::Status.to_json());
        lines.push(
            Line::End {
                source: "s0".into(),
            }
            .to_json(),
        );
        std::fs::write(&feed_path, format!("{}\n", lines.join("\n"))).unwrap();

        let out = run_to_string(&[
            "serve",
            "--input",
            feed_path.to_str().unwrap(),
            "--exact",
            "--status-file",
            status_path.to_str().unwrap(),
            "--status-every",
            "4",
        ]);
        // The status line answered inline with a health document...
        assert!(out.contains(HEALTH_SCHEMA), "{out}");
        assert!(out.contains("shard s0: state=exact"), "{out}");

        // ...and the status file holds the final (post-finish) snapshot.
        let status = std::fs::read_to_string(&status_path).unwrap();
        let snapshot = bbmg_serve::HealthSnapshot::parse_json(status.trim_end()).unwrap();
        assert_eq!(snapshot.shards.len(), 1);
        assert!(!snapshot.shards[0].open, "final snapshot sees the end");
        assert_eq!(snapshot.shards[0].periods, 2);

        // `top --once` renders it as a table.
        let table = run_to_string(&["top", status_path.to_str().unwrap(), "--once"]);
        assert!(table.contains("SOURCE"), "{table}");
        assert!(table.contains("exact*"), "closed shard starred: {table}");
        assert!(table.contains("s0"), "{table}");
    }

    #[test]
    fn convert_round_trips_through_binary() {
        let dir = std::env::temp_dir().join("bbmg_cli_convert");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("simple.txt");
        let csv = dir.join("a.csv");
        let btrace = dir.join("b.btrace");
        let back = dir.join("c.csv");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            text.to_str().unwrap(),
        ]);

        let to_csv = run_to_string(&["convert", text.to_str().unwrap(), csv.to_str().unwrap()]);
        assert!(to_csv.contains("(csv, 4 tasks, 3 periods"), "{to_csv}");
        let to_bin = run_to_string(&["convert", csv.to_str().unwrap(), btrace.to_str().unwrap()]);
        assert!(to_bin.contains("(binary, 4 tasks, 3 periods"), "{to_bin}");
        let _ = run_to_string(&["convert", btrace.to_str().unwrap(), back.to_str().unwrap()]);

        // CSV → binary → CSV is byte-identical: the binary format loses
        // nothing the canonical CSV form carries.
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            std::fs::read_to_string(&back).unwrap()
        );
        assert!(bbmg_trace::is_btrace(&std::fs::read(&btrace).unwrap()));

        // `stats` sniffs the binary format from the bytes alone.
        let stats = run_to_string(&["stats", btrace.to_str().unwrap()]);
        assert!(stats.contains("3 periods"), "{stats}");
    }

    #[test]
    fn corpus_classifies_hits_and_writes_a_sealed_report() {
        let dir = std::env::temp_dir().join("bbmg_cli_corpus");
        let _ = std::fs::remove_dir_all(&dir);
        let traces = dir.join("traces");
        std::fs::create_dir_all(&traces).unwrap();
        let text = dir.join("simple.txt");
        let _ = run_to_string(&[
            "simulate",
            "--workload",
            "simple",
            "-o",
            text.to_str().unwrap(),
        ]);
        let csv = traces.join("t1.csv");
        let _ = run_to_string(&["convert", text.to_str().unwrap(), csv.to_str().unwrap()]);
        // t2 duplicates t1 byte-for-byte; t3 is the same capture in
        // binary form — same fingerprint, so it dedups too.
        std::fs::copy(&csv, traces.join("t2.csv")).unwrap();
        let _ = run_to_string(&[
            "convert",
            csv.to_str().unwrap(),
            traces.join("t3.btrace").to_str().unwrap(),
        ]);

        let report = dir.join("report.json");
        let summary = run_to_string(&[
            "corpus",
            traces.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ]);
        assert!(
            summary.contains("3 trace(s), 2 full / 0 prefix hit(s), 1 cold learn(s)"),
            "{summary}"
        );

        // The report is a sealed bbmg-corpus/1 document with one row per
        // file and the duplicate rows marked as full hits.
        let document = std::fs::read_to_string(&report).unwrap();
        assert!(document.contains(bbmg_core::CORPUS_SCHEMA), "{document}");
        assert!(document.contains("\"traces\":3"), "{document}");
        assert!(document.contains("t2.csv"), "{document}");
        assert_eq!(document.matches("\"hit\":\"full\"").count(), 2);
        assert_eq!(document.matches("\"hit\":\"miss\"").count(), 1);

        // A second run resolves everything from the populated cache.
        let rerun = run_to_string(&[
            "corpus",
            traces.to_str().unwrap(),
            "--report",
            report.to_str().unwrap(),
        ]);
        assert!(
            rerun.contains("3 trace(s), 3 full / 0 prefix hit(s), 0 cold learn(s)"),
            "{rerun}"
        );
    }
}
