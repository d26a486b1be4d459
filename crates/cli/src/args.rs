//! Hand-rolled argument parsing for the `bbmg` binary.

use std::fmt;

/// Usage text printed by `bbmg help`.
pub const USAGE: &str = "\
bbmg — automatic model generation for black box real-time systems

USAGE:
  bbmg simulate --workload <gm|simple|random:tasks=N[,edges=P]> \\
                [--periods N] [--seed S] [--fault-rate R] [--fault-seed S] [-o FILE]
  bbmg stats   <TRACE>
  bbmg learn   <TRACE> [LEARNER] [TELEMETRY] [--table] [--hypotheses]
               [--checkpoint FILE] [--checkpoint-every N]
  bbmg resume  <CHECKPOINT> <TRACE> [TELEMETRY] [--table] [--hypotheses]
               [--checkpoint-every N] [--on-error <abort|skip|repair>]
  bbmg serve   (--stdin-jsonl | --input FILE) [LEARNER] [TELEMETRY]
               [--watermark-words N] [--checkpoint-dir DIR]
               [--checkpoint-every N] [--restart-budget N]
               [--backoff-events N] [--status-file FILE]
               [--status-every N]
  bbmg top     <STATUS-FILE> [--once] [--interval-ms N] [--ticks N]
  bbmg analyze <TRACE> [LEARNER] [TELEMETRY]
  bbmg dot     <TRACE> [LEARNER] [TELEMETRY] [--name NAME]
  bbmg check   <TRACE> --prop \"Q -> O\" [LEARNER] [TELEMETRY]
  bbmg explain <TRACE> --pair SENDER,RECEIVER [LEARNER] [TELEMETRY]
  bbmg profile <TRACE> [LEARNER] [TELEMETRY] [--chrome-out FILE]
  bbmg audit   <PATHS...> [--json] [--deny warnings] [--replay TRACE]
               [TELEMETRY]
  bbmg convert <IN> <OUT>
  bbmg corpus  <DIR> [LEARNER] [--threads N] [--cache-dir DIR]
               [--cache-capacity N] [--report FILE] [--checkpoint-dir DIR]
  bbmg help

LEARNER options (shared by learn/analyze/dot/check/explain/profile):
  [--bound B | --exact] [--set-limit N] [--on-error <abort|skip|repair>]

TELEMETRY options (shared by the same commands):
  [--metrics-out FILE]   write a metrics snapshot (JSON, schema
                         `bbmg-metrics/2`: set-size/branch-factor/period
                         timing percentiles, event counters, uptime and
                         snapshot sequence number)
  [--events-out FILE]    stream every learner event as JSON Lines

`bbmg profile` runs the learner purely for telemetry: it prints the
metrics table and a per-period convergence timeline (hypothesis count
and lattice distance to the final model), and `--chrome-out FILE`
additionally writes a Chrome trace-event file (load it in
chrome://tracing or https://ui.perfetto.dev).

Traces use the line-oriented text format written by `bbmg simulate`, the
CSV interchange format (header `time,kind,subject,period`), or the sealed
binary format (`bbmg-btrace/1`, extension `.btrace`) — the format is
sniffed from the first bytes. `bbmg convert IN OUT` translates between
them (the output format follows OUT's extension: `.btrace` is binary,
anything else CSV); the lenient/repair path stays CSV-only, so convert a
degraded capture only after `--on-error repair` accepts it. Learning defaults to the bounded
heuristic with bound 64; `--exact` runs the exponential algorithm
(consider --set-limit).

Degraded traces: `--fault-rate R` corrupts the simulated trace (dropping
each droppable event with probability R, deterministic per --fault-seed)
and emits CSV, since faulty traces may violate the strict format.
`--on-error abort` (the default) parses strictly and never degrades: an
inconsistent period or a --set-limit trip is an error, whatever the
command. `--on-error skip` quarantines inconsistent periods instead of
aborting and falls back from --exact to the bounded heuristic when
--set-limit trips; `--on-error repair` additionally runs the trace
sanitizer on the input before learning. Both report every skipped
period, repair action and fallback.

Crash recovery: `bbmg learn --checkpoint FILE` drives the incremental
learner and atomically rewrites FILE (`bbmg-ckpt/1`) every
--checkpoint-every N periods (default 1). After a crash, `bbmg resume
CHECKPOINT TRACE` verifies the checkpoint (checksum + lattice shape),
restores the learner, and continues from the next unseen period —
producing the same model as an uninterrupted run.

Streaming: `bbmg serve` reads the JSONL ingest protocol (`hello` /
`event` / `end` lines, see crate docs) from stdin or --input FILE and
supervises one learner shard per source: periods are sanitized in
flight, each shard checkpoints to --checkpoint-dir, crossing
--watermark-words degrades exact -> bounded -> checkpoint-and-shed, and
a watchdog restarts a wedged shard from its last checkpoint with an
event-counted exponential backoff (--backoff-events, doubling) until
--restart-budget is spent. Shard health transitions are reported on
stdout and through the telemetry sinks.

Operations: with --checkpoint-dir, serve persists a `bbmg-roster/1`
manifest next to the checkpoints and recovers known sources from it on
startup (a re-`hello` resumes the model and restart history instead of
starting over). `--status-file FILE` atomically rewrites a
`bbmg-health/1` snapshot every --status-every ingested lines (default
64) and once at shutdown; a `{\"type\":\"status\"}` line on the feed prints
the same document to stdout on demand. `bbmg top STATUS-FILE` renders
the snapshot as a live per-shard table (state, periods, events, ingest
lag, shed counts, restarts, memory vs watermark, checkpoint age),
refreshing every --interval-ms (default 1000) until interrupted;
--once prints one frame and exits (use it in scripts and CI).

Bulk corpora: `bbmg corpus DIR` walks DIR for `.csv`/`.btrace` trace
files and learns a model from each, resolving every trace through a
content-addressed model cache (--cache-dir, default DIR/.bbmg-cache;
--cache-capacity entries, default 1024): an already-learned trace resumes
its cached checkpoint instead of re-learning, and a trace extending a
cached prefix seeds the learner at the divergence point. Files are parsed
and learned on --threads N threads (default 1; 0 = one per CPU core),
one whole file per thread at a time; results are byte-identical to cold
learns at every thread count, and the report is deterministic for a
given directory + cache state. The aggregate `bbmg-corpus/1` JSON
report (per-trace model fingerprint and cache-hit class, dedup ratio,
traces/sec) goes to --report FILE or stdout; --checkpoint-dir
additionally saves one named checkpoint per trace.

Auditing: `bbmg audit PATHS...` statically analyzes model artifacts —
checkpoints, rosters, health/metrics snapshots, bench reports, binary
traces and corpus reports — without
resuming from them: packed-lattice cell validity, antichain invariants,
checksums, canonical re-encoding, roster->checkpoint references and
snapshot sequence monotonicity. Directories are walked recursively
(.ckpt/.json). `--replay TRACE` additionally re-learns each checkpoint's
absorbed prefix and diffs antichain fingerprints. Findings carry stable
BBMG0xx codes; `--json` emits the machine-readable `bbmg-audit/1`
report; exit status is 0 only when clean (`--deny warnings` makes
warnings fatal too). `--events-out FILE` streams each finding as an
`audit_finding` event.
";

/// Which workload `bbmg simulate` builds.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// The paper's 18-task GM-style case study.
    Gm,
    /// The paper's 4-task worked example (fixed 3-period trace; `--periods`
    /// and `--seed` are ignored).
    Simple,
    /// A random layered model with the given task count and edge
    /// probability.
    Random {
        /// Number of tasks.
        tasks: usize,
        /// Edge probability (default 0.3).
        edges: f64,
    },
}

/// Options for `bbmg simulate`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateOptions {
    /// The workload to execute.
    pub workload: Workload,
    /// Number of periods (ignored for `simple`).
    pub periods: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Event-drop probability; nonzero switches the output to CSV.
    pub fault_rate: f64,
    /// Seed for the fault injector (independent of the simulation seed).
    pub fault_seed: u64,
    /// Output path; `None` writes the trace to stdout.
    pub output: Option<String>,
}

/// What the learner does when the trace fights back (`--on-error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnError {
    /// Parse strictly and never degrade: the first inconsistent period or
    /// `--set-limit` trip is an error (the default; right for trusted
    /// traces where inconsistency means a real bug).
    #[default]
    Abort,
    /// Quarantine and keep going: CSV rows that do not parse and periods
    /// that are invalid as captured are dropped at load (nothing is
    /// altered), periods the learner cannot explain are skipped, and an
    /// exact run that trips `--set-limit` falls back to the bounded
    /// heuristic.
    Skip,
    /// Like `Skip`, but run the trace sanitizer first: reorder, dedupe
    /// and synthesize missing window edges where possible, quarantining
    /// only what remains invalid.
    Repair,
}

impl std::str::FromStr for OnError {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "abort" => Ok(OnError::Abort),
            "skip" => Ok(OnError::Skip),
            "repair" => Ok(OnError::Repair),
            other => Err(format!("expected abort|skip|repair, got `{other}`")),
        }
    }
}

/// How the learner is configured from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnerChoice {
    /// `None` = exact algorithm, `Some(b)` = bounded heuristic.
    pub bound: Option<usize>,
    /// Resource guard for the exact algorithm.
    pub set_limit: Option<usize>,
    /// Degradation policy for bad input.
    pub on_error: OnError,
}

impl Default for LearnerChoice {
    fn default() -> Self {
        LearnerChoice {
            bound: Some(64),
            set_limit: None,
            on_error: OnError::Abort,
        }
    }
}

/// Telemetry outputs shared by the learner-backed commands
/// (`--metrics-out`, `--events-out`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Write a [`bbmg_obs::MetricsSnapshot`] as JSON to this path.
    pub metrics_out: Option<String>,
    /// Stream learner events as JSON Lines to this path.
    pub events_out: Option<String>,
}

impl Telemetry {
    /// True when no telemetry output was requested.
    pub fn is_empty(&self) -> bool {
        self.metrics_out.is_none() && self.events_out.is_none()
    }
}

/// Options for `bbmg stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsOptions {
    /// Trace file path.
    pub trace: String,
}

/// Options for `bbmg learn`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LearnCmdOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Print the LUB as a table (default when nothing else is selected).
    pub table: bool,
    /// Print every most-specific hypothesis.
    pub hypotheses: bool,
    /// Atomically rewrite this `bbmg-ckpt/1` file as learning progresses.
    pub checkpoint: Option<String>,
    /// Checkpoint cadence in periods (meaningful with `checkpoint`).
    pub checkpoint_every: usize,
}

/// Options for `bbmg resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeOptions {
    /// Checkpoint file to restore from (and keep rewriting).
    pub checkpoint: String,
    /// Trace file path; learning continues at the first period the
    /// checkpointed run had not pushed.
    pub trace: String,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Print the LUB as a table (default when nothing else is selected).
    pub table: bool,
    /// Print every most-specific hypothesis.
    pub hypotheses: bool,
    /// Checkpoint cadence in periods.
    pub checkpoint_every: usize,
    /// Trace-load policy; must match the original run for period indices
    /// to line up.
    pub on_error: OnError,
}

/// Options for `bbmg serve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeCmdOptions {
    /// JSONL feed path; `None` reads stdin (`--stdin-jsonl`).
    pub input: Option<String>,
    /// Learner configuration each shard starts from.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Per-shard memory watermark in packed lattice words.
    pub watermark_words: Option<usize>,
    /// Directory for per-source checkpoint files.
    pub checkpoint_dir: Option<String>,
    /// Checkpoint cadence in periods; 0 disables cadence checkpoints.
    pub checkpoint_every: Option<usize>,
    /// Watchdog restarts allowed per shard.
    pub restart_budget: Option<usize>,
    /// Backoff after the first restart, in shed ingest events.
    pub backoff_events: Option<usize>,
    /// Atomically rewrite a `bbmg-health/1` snapshot to this path while
    /// serving.
    pub status_file: Option<String>,
    /// Status-file rewrite cadence in ingested lines (default 64).
    pub status_every: Option<usize>,
}

/// Options for `bbmg top`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopOptions {
    /// Path of the `bbmg-health/1` snapshot a serve run keeps rewriting.
    pub status_file: String,
    /// Render one frame and exit (for scripts and CI).
    pub once: bool,
    /// Refresh interval in milliseconds.
    pub interval_ms: u64,
    /// Stop after this many frames (`None` = until interrupted).
    pub ticks: Option<u64>,
}

/// Options for `bbmg analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
}

/// Options for `bbmg check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// The property source text.
    pub prop: String,
}

/// Options for `bbmg explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Sender task name.
    pub sender: String,
    /// Receiver task name.
    pub receiver: String,
}

/// Options for `bbmg dot`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DotOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Graph name in the DOT output.
    pub name: String,
}

/// Options for `bbmg profile`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Trace file path.
    pub trace: String,
    /// Learner configuration.
    pub learner: LearnerChoice,
    /// Telemetry outputs.
    pub telemetry: Telemetry,
    /// Write a Chrome trace-event file to this path.
    pub chrome_out: Option<String>,
}

/// Options for `bbmg audit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCmdOptions {
    /// Files and directories to analyze (directories walk recursively).
    pub paths: Vec<String>,
    /// Emit the machine-readable `bbmg-audit/1` report instead of the
    /// human table.
    pub json: bool,
    /// Treat warnings as fatal for the exit status (`--deny warnings`).
    pub deny_warnings: bool,
    /// Trace to replay checkpoints against.
    pub replay: Option<String>,
    /// Telemetry outputs (each finding streams as an `audit_finding`
    /// event).
    pub telemetry: Telemetry,
}

/// Options for `bbmg convert`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertOptions {
    /// Input trace path (text, CSV, or binary; sniffed).
    pub input: String,
    /// Output path; a `.btrace` extension selects the binary format,
    /// anything else CSV.
    pub output: String,
}

/// Options for `bbmg corpus`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusOptions {
    /// Directory to walk for `.csv`/`.btrace` trace files.
    pub dir: String,
    /// Learner configuration shared by every trace.
    pub learner: LearnerChoice,
    /// Threads that parse and learn files (`--threads`; default 1, `0` =
    /// one per CPU core). The report is identical at every setting.
    pub threads: usize,
    /// Model-cache directory (default `<dir>/.bbmg-cache`).
    pub cache_dir: Option<String>,
    /// Maximum cached models kept on disk (LRU beyond this).
    pub cache_capacity: usize,
    /// Write the `bbmg-corpus/1` report here instead of stdout.
    pub report: Option<String>,
    /// Additionally save one named checkpoint per trace into this
    /// directory.
    pub checkpoint_dir: Option<String>,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `bbmg simulate`.
    Simulate(SimulateOptions),
    /// `bbmg stats`.
    Stats(StatsOptions),
    /// `bbmg learn`.
    Learn(LearnCmdOptions),
    /// `bbmg resume`.
    Resume(ResumeOptions),
    /// `bbmg serve`.
    Serve(ServeCmdOptions),
    /// `bbmg top`.
    Top(TopOptions),
    /// `bbmg analyze`.
    Analyze(AnalyzeOptions),
    /// `bbmg dot`.
    Dot(DotOptions),
    /// `bbmg check`.
    Check(CheckOptions),
    /// `bbmg explain`.
    Explain(ExplainOptions),
    /// `bbmg profile`.
    Profile(ProfileOptions),
    /// `bbmg audit`.
    Audit(AuditCmdOptions),
    /// `bbmg convert`.
    Convert(ConvertOptions),
    /// `bbmg corpus`.
    Corpus(CorpusOptions),
    /// `bbmg help`.
    Help,
}

/// Error produced by parsing or executing a command.
#[derive(Debug)]
pub enum CliError {
    /// The command line could not be understood.
    Usage(String),
    /// Reading or writing a file failed.
    Io(std::io::Error),
    /// A trace file failed to parse.
    Parse(bbmg_trace::ParseTraceError),
    /// A CSV trace file failed to parse.
    Csv(bbmg_trace::ParseCsvError),
    /// A binary trace file failed to parse.
    Btrace(bbmg_trace::ParseBtraceError),
    /// The model cache failed.
    Cache(bbmg_core::CacheError),
    /// The learner failed.
    Learn(bbmg_core::LearnError),
    /// A checkpoint failed to save, load, or validate.
    Checkpoint(bbmg_core::CheckpointError),
    /// The streaming ingest front failed.
    Serve(bbmg_serve::ServeError),
    /// A `bbmg-health/1` status document failed to parse.
    Health(bbmg_serve::HealthParseError),
    /// A property failed to parse.
    Prop(bbmg_check::ParsePropError),
    /// The simulator failed.
    Sim(bbmg_sim::SimError),
    /// `bbmg audit` found problems (the report was already printed).
    Audit {
        /// Error-severity findings.
        errors: usize,
        /// Warning-severity findings (fatal under `--deny warnings`).
        warnings: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Parse(e) => write!(f, "trace parse error: {e}"),
            CliError::Csv(e) => write!(f, "csv trace parse error: {e}"),
            CliError::Btrace(e) => write!(f, "binary trace parse error: {e}"),
            CliError::Cache(e) => write!(f, "model cache error: {e}"),
            CliError::Learn(e) => write!(f, "learning failed: {e}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CliError::Serve(e) => write!(f, "serve error: {e}"),
            CliError::Health(e) => write!(f, "status file: {e}"),
            CliError::Prop(e) => write!(f, "{e}"),
            CliError::Sim(e) => write!(f, "simulation failed: {e}"),
            CliError::Audit { errors, warnings } => {
                write!(f, "audit failed: {errors} error(s), {warnings} warning(s)")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}
impl From<bbmg_trace::ParseTraceError> for CliError {
    fn from(e: bbmg_trace::ParseTraceError) -> Self {
        CliError::Parse(e)
    }
}
impl From<bbmg_trace::ParseCsvError> for CliError {
    fn from(e: bbmg_trace::ParseCsvError) -> Self {
        CliError::Csv(e)
    }
}
impl From<bbmg_trace::ParseBtraceError> for CliError {
    fn from(e: bbmg_trace::ParseBtraceError) -> Self {
        CliError::Btrace(e)
    }
}
impl From<bbmg_core::CacheError> for CliError {
    fn from(e: bbmg_core::CacheError) -> Self {
        CliError::Cache(e)
    }
}
impl From<bbmg_core::LearnError> for CliError {
    fn from(e: bbmg_core::LearnError) -> Self {
        CliError::Learn(e)
    }
}
impl From<bbmg_core::CheckpointError> for CliError {
    fn from(e: bbmg_core::CheckpointError) -> Self {
        CliError::Checkpoint(e)
    }
}
impl From<bbmg_serve::ServeError> for CliError {
    fn from(e: bbmg_serve::ServeError) -> Self {
        CliError::Serve(e)
    }
}
impl From<bbmg_serve::HealthParseError> for CliError {
    fn from(e: bbmg_serve::HealthParseError) -> Self {
        CliError::Health(e)
    }
}
impl From<bbmg_check::ParsePropError> for CliError {
    fn from(e: bbmg_check::ParsePropError) -> Self {
        CliError::Prop(e)
    }
}
impl From<bbmg_sim::SimError> for CliError {
    fn from(e: bbmg_sim::SimError) -> Self {
        CliError::Sim(e)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Splits `--key value` / `--key=value` style options and positionals.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

fn lex<I, S>(argv: I) -> Args
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let raw: Vec<String> = argv.into_iter().map(Into::into).collect();
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut iter = raw.into_iter().peekable();
    while let Some(word) = iter.next() {
        if let Some(rest) = word.strip_prefix("--") {
            if let Some((key, value)) = rest.split_once('=') {
                options.push((key.to_owned(), Some(value.to_owned())));
            } else {
                // Flags that take a value grab the next word unless it
                // looks like another option.
                let value = match iter.peek() {
                    Some(next) if !next.starts_with('-') => Some(iter.next().expect("peeked")),
                    _ => None,
                };
                options.push((rest.to_owned(), value));
            }
        } else if word == "-o" {
            let value = iter.next();
            options.push(("output".to_owned(), value));
        } else {
            positional.push(word);
        }
    }
    Args {
        positional,
        options,
    }
}

impl Args {
    fn take(&mut self, key: &str) -> Option<Option<String>> {
        let index = self.options.iter().position(|(k, _)| k == key)?;
        Some(self.options.remove(index).1)
    }

    fn take_value<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, CliError> {
        match self.take(key) {
            None => Ok(None),
            Some(None) => Err(usage(format!("--{key} requires a value"))),
            Some(Some(v)) => v
                .parse()
                .map(Some)
                .map_err(|_| usage(format!("bad value for --{key}: `{v}`"))),
        }
    }

    fn take_flag(&mut self, key: &str) -> Result<bool, CliError> {
        match self.take(key) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => Err(usage(format!("--{key} takes no value, got `{v}`"))),
        }
    }

    fn finish(self, command: &str) -> Result<(), CliError> {
        if let Some((key, _)) = self.options.first() {
            return Err(usage(format!("unknown option --{key} for `{command}`")));
        }
        if let Some(extra) = self.positional.first() {
            return Err(usage(format!(
                "unexpected argument `{extra}` for `{command}`"
            )));
        }
        Ok(())
    }

    fn learner(&mut self) -> Result<LearnerChoice, CliError> {
        let exact = self.take_flag("exact")?;
        let bound: Option<usize> = self.take_value("bound")?;
        let set_limit: Option<usize> = self.take_value("set-limit")?;
        let on_error: Option<OnError> = self.take_value("on-error")?;
        if exact && bound.is_some() {
            return Err(usage("--exact and --bound are mutually exclusive"));
        }
        Ok(LearnerChoice {
            bound: if exact { None } else { bound.or(Some(64)) },
            set_limit,
            on_error: on_error.unwrap_or_default(),
        })
    }

    fn telemetry(&mut self) -> Result<Telemetry, CliError> {
        let metrics_out = match self.take("metrics-out") {
            None => None,
            Some(None) => return Err(usage("--metrics-out requires a file path")),
            Some(Some(path)) => Some(path),
        };
        let events_out = match self.take("events-out") {
            None => None,
            Some(None) => return Err(usage("--events-out requires a file path")),
            Some(Some(path)) => Some(path),
        };
        Ok(Telemetry {
            metrics_out,
            events_out,
        })
    }

    fn trace_path(&mut self, command: &str) -> Result<String, CliError> {
        if self.positional.is_empty() {
            return Err(usage(format!("`{command}` needs a trace file argument")));
        }
        Ok(self.positional.remove(0))
    }
}

fn parse_workload(spec: &str) -> Result<Workload, CliError> {
    match spec {
        "gm" => Ok(Workload::Gm),
        "simple" => Ok(Workload::Simple),
        other => {
            let Some(params) = other.strip_prefix("random:") else {
                return Err(usage(format!("unknown workload `{other}`")));
            };
            let mut tasks = None;
            let mut edges = 0.3;
            for part in params.split(',') {
                match part.split_once('=') {
                    Some(("tasks", v)) => {
                        tasks = Some(
                            v.parse()
                                .map_err(|_| usage(format!("bad task count `{v}`")))?,
                        );
                    }
                    Some(("edges", v)) => {
                        edges = v
                            .parse()
                            .map_err(|_| usage(format!("bad edge probability `{v}`")))?;
                    }
                    _ => return Err(usage(format!("bad random parameter `{part}`"))),
                }
            }
            let tasks = tasks.ok_or_else(|| usage("random workload needs tasks=N"))?;
            Ok(Workload::Random { tasks, edges })
        }
    }
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] for unknown commands, unknown options, and
/// malformed values.
pub fn parse_args<I, S>(argv: I) -> Result<Command, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut args = lex(argv);
    if args.positional.is_empty() {
        return Ok(Command::Help);
    }
    let command = args.positional.remove(0);
    match command.as_str() {
        "help" | "-h" => Ok(Command::Help),
        "simulate" => {
            let workload_spec: String = args
                .take_value("workload")?
                .ok_or_else(|| usage("simulate needs --workload"))?;
            let workload = parse_workload(&workload_spec)?;
            let periods = args.take_value("periods")?.unwrap_or(27);
            let seed = args.take_value("seed")?.unwrap_or(0);
            let fault_rate: f64 = args.take_value("fault-rate")?.unwrap_or(0.0);
            if !(0.0..=1.0).contains(&fault_rate) {
                return Err(usage(format!(
                    "--fault-rate must be a probability in [0, 1], got {fault_rate}"
                )));
            }
            let fault_seed = args.take_value("fault-seed")?.unwrap_or(seed);
            let output = args.take("output").flatten();
            args.finish("simulate")?;
            Ok(Command::Simulate(SimulateOptions {
                workload,
                periods,
                seed,
                fault_rate,
                fault_seed,
                output,
            }))
        }
        "stats" => {
            let trace = args.trace_path("stats")?;
            args.finish("stats")?;
            Ok(Command::Stats(StatsOptions { trace }))
        }
        "learn" => {
            let trace = args.trace_path("learn")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let table = args.take_flag("table")?;
            let hypotheses = args.take_flag("hypotheses")?;
            let checkpoint = match args.take("checkpoint") {
                None => None,
                Some(None) => return Err(usage("--checkpoint requires a file path")),
                Some(Some(path)) => Some(path),
            };
            let every_flag: Option<usize> = args.take_value("checkpoint-every")?;
            if every_flag == Some(0) {
                return Err(usage("--checkpoint-every must be at least 1"));
            }
            if checkpoint.is_none() && every_flag.is_some() {
                return Err(usage("--checkpoint-every needs --checkpoint FILE"));
            }
            let checkpoint_every = every_flag.unwrap_or(1);
            args.finish("learn")?;
            Ok(Command::Learn(LearnCmdOptions {
                trace,
                learner,
                telemetry,
                // Default to the table when nothing was selected.
                table: table || !hypotheses,
                hypotheses,
                checkpoint,
                checkpoint_every,
            }))
        }
        "resume" => {
            if args.positional.len() < 2 {
                return Err(usage("`resume` needs CHECKPOINT and TRACE arguments"));
            }
            let checkpoint = args.positional.remove(0);
            let trace = args.positional.remove(0);
            let telemetry = args.telemetry()?;
            let table = args.take_flag("table")?;
            let hypotheses = args.take_flag("hypotheses")?;
            let checkpoint_every: usize = args.take_value("checkpoint-every")?.unwrap_or(1);
            if checkpoint_every == 0 {
                return Err(usage("--checkpoint-every must be at least 1"));
            }
            let on_error: Option<OnError> = args.take_value("on-error")?;
            args.finish("resume")?;
            Ok(Command::Resume(ResumeOptions {
                checkpoint,
                trace,
                telemetry,
                table: table || !hypotheses,
                hypotheses,
                checkpoint_every,
                on_error: on_error.unwrap_or_default(),
            }))
        }
        "serve" => {
            let stdin = args.take_flag("stdin-jsonl")?;
            let input = match args.take("input") {
                None => None,
                Some(None) => return Err(usage("--input requires a file path")),
                Some(Some(path)) => Some(path),
            };
            if stdin == input.is_some() {
                return Err(usage(
                    "serve needs exactly one of --stdin-jsonl or --input FILE",
                ));
            }
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let watermark_words = args.take_value("watermark-words")?;
            let checkpoint_dir = args.take("checkpoint-dir").flatten();
            let checkpoint_every = args.take_value("checkpoint-every")?;
            let restart_budget = args.take_value("restart-budget")?;
            let backoff_events = args.take_value("backoff-events")?;
            let status_file = match args.take("status-file") {
                None => None,
                Some(None) => return Err(usage("--status-file requires a file path")),
                Some(Some(path)) => Some(path),
            };
            let status_every: Option<usize> = args.take_value("status-every")?;
            if status_every == Some(0) {
                return Err(usage("--status-every must be at least 1"));
            }
            if status_file.is_none() && status_every.is_some() {
                return Err(usage("--status-every needs --status-file FILE"));
            }
            args.finish("serve")?;
            Ok(Command::Serve(ServeCmdOptions {
                input,
                learner,
                telemetry,
                watermark_words,
                checkpoint_dir,
                checkpoint_every,
                restart_budget,
                backoff_events,
                status_file,
                status_every,
            }))
        }
        "top" => {
            if args.positional.is_empty() {
                return Err(usage("`top` needs a STATUS-FILE argument"));
            }
            let status_file = args.positional.remove(0);
            let once = args.take_flag("once")?;
            let interval_ms: u64 = args.take_value("interval-ms")?.unwrap_or(1000);
            if interval_ms == 0 {
                return Err(usage("--interval-ms must be at least 1"));
            }
            let ticks: Option<u64> = args.take_value("ticks")?;
            if ticks == Some(0) {
                return Err(usage("--ticks must be at least 1"));
            }
            args.finish("top")?;
            Ok(Command::Top(TopOptions {
                status_file,
                once,
                interval_ms,
                ticks,
            }))
        }
        "analyze" => {
            let trace = args.trace_path("analyze")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            args.finish("analyze")?;
            Ok(Command::Analyze(AnalyzeOptions {
                trace,
                learner,
                telemetry,
            }))
        }
        "check" => {
            let trace = args.trace_path("check")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let prop: String = args
                .take_value("prop")?
                .ok_or_else(|| usage("check needs --prop \"...\""))?;
            args.finish("check")?;
            Ok(Command::Check(CheckOptions {
                trace,
                learner,
                telemetry,
                prop,
            }))
        }
        "explain" => {
            let trace = args.trace_path("explain")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let pair: String = args
                .take_value("pair")?
                .ok_or_else(|| usage("explain needs --pair SENDER,RECEIVER"))?;
            let Some((sender, receiver)) = pair.split_once(',') else {
                return Err(usage(format!(
                    "bad --pair `{pair}`; expected SENDER,RECEIVER"
                )));
            };
            args.finish("explain")?;
            Ok(Command::Explain(ExplainOptions {
                trace,
                learner,
                telemetry,
                sender: sender.trim().to_owned(),
                receiver: receiver.trim().to_owned(),
            }))
        }
        "dot" => {
            let trace = args.trace_path("dot")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let name = args
                .take_value("name")?
                .unwrap_or_else(|| "learned".to_owned());
            args.finish("dot")?;
            Ok(Command::Dot(DotOptions {
                trace,
                learner,
                telemetry,
                name,
            }))
        }
        "profile" => {
            let trace = args.trace_path("profile")?;
            let learner = args.learner()?;
            let telemetry = args.telemetry()?;
            let chrome_out = match args.take("chrome-out") {
                None => None,
                Some(None) => return Err(usage("--chrome-out requires a file path")),
                Some(Some(path)) => Some(path),
            };
            args.finish("profile")?;
            Ok(Command::Profile(ProfileOptions {
                trace,
                learner,
                telemetry,
                chrome_out,
            }))
        }
        "audit" => {
            let json = args.take_flag("json")?;
            let deny: Option<String> = args.take_value("deny")?;
            let deny_warnings = match deny.as_deref() {
                None => false,
                Some("warnings") => true,
                Some(other) => {
                    return Err(usage(format!(
                        "--deny only understands `warnings`, got `{other}`"
                    )))
                }
            };
            let replay = match args.take("replay") {
                None => None,
                Some(None) => return Err(usage("--replay requires a trace file path")),
                Some(Some(path)) => Some(path),
            };
            let telemetry = args.telemetry()?;
            if args.positional.is_empty() {
                return Err(usage("`audit` needs at least one file or directory"));
            }
            let paths = std::mem::take(&mut args.positional);
            args.finish("audit")?;
            Ok(Command::Audit(AuditCmdOptions {
                paths,
                json,
                deny_warnings,
                replay,
                telemetry,
            }))
        }
        "convert" => {
            if args.positional.len() < 2 {
                return Err(usage("`convert` needs IN and OUT arguments"));
            }
            let input = args.positional.remove(0);
            let output = args.positional.remove(0);
            args.finish("convert")?;
            Ok(Command::Convert(ConvertOptions { input, output }))
        }
        "corpus" => {
            if args.positional.is_empty() {
                return Err(usage("`corpus` needs a directory argument"));
            }
            let dir = args.positional.remove(0);
            let learner = args.learner()?;
            let threads: usize = args.take_value("threads")?.unwrap_or(1);
            let cache_dir = match args.take("cache-dir") {
                None => None,
                Some(None) => return Err(usage("--cache-dir requires a directory path")),
                Some(Some(path)) => Some(path),
            };
            let cache_capacity: usize = args.take_value("cache-capacity")?.unwrap_or(1024);
            if cache_capacity == 0 {
                return Err(usage("--cache-capacity must be at least 1"));
            }
            let report = match args.take("report") {
                None => None,
                Some(None) => return Err(usage("--report requires a file path")),
                Some(Some(path)) => Some(path),
            };
            let checkpoint_dir = match args.take("checkpoint-dir") {
                None => None,
                Some(None) => return Err(usage("--checkpoint-dir requires a directory path")),
                Some(Some(path)) => Some(path),
            };
            args.finish("corpus")?;
            Ok(Command::Corpus(CorpusOptions {
                dir,
                learner,
                threads,
                cache_dir,
                cache_capacity,
                report,
                checkpoint_dir,
            }))
        }
        other => Err(usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse_args(Vec::<String>::new()).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_parses_workloads() {
        let cmd =
            parse_args(["simulate", "--workload", "gm", "--seed", "7", "-o", "x.txt"]).unwrap();
        let Command::Simulate(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.workload, Workload::Gm);
        assert_eq!(o.seed, 7);
        assert_eq!(o.output.as_deref(), Some("x.txt"));
        assert_eq!(o.periods, 27);
    }

    #[test]
    fn random_workload_spec() {
        let cmd = parse_args(["simulate", "--workload", "random:tasks=9,edges=0.5"]).unwrap();
        let Command::Simulate(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(
            o.workload,
            Workload::Random {
                tasks: 9,
                edges: 0.5
            }
        );
    }

    #[test]
    fn learn_defaults_to_bounded_table() {
        let cmd = parse_args(["learn", "trace.txt"]).unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.bound, Some(64));
        assert!(o.table);
        assert!(!o.hypotheses);
    }

    #[test]
    fn learn_exact_with_limit() {
        let cmd = parse_args(["learn", "t.txt", "--exact", "--set-limit=1000"]).unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.bound, None);
        assert_eq!(o.learner.set_limit, Some(1000));
    }

    #[test]
    fn exact_and_bound_conflict() {
        let err = parse_args(["learn", "t.txt", "--exact", "--bound", "4"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn unknown_command_and_option_are_rejected() {
        assert!(matches!(
            parse_args(["frobnicate"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["stats", "t.txt", "--wat"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn key_equals_value_form() {
        let cmd = parse_args(["learn", "t.txt", "--bound=32"]).unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.bound, Some(32));
    }

    #[test]
    fn check_and_explain_parse() {
        let cmd = parse_args(["check", "t.txt", "--prop", "Q -> O"]).unwrap();
        let Command::Check(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.prop, "Q -> O");
        let cmd = parse_args(["explain", "t.txt", "--pair", "Q,O", "--bound", "8"]).unwrap();
        let Command::Explain(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!((o.sender.as_str(), o.receiver.as_str()), ("Q", "O"));
        assert_eq!(o.learner.bound, Some(8));
        assert!(matches!(
            parse_args(["check", "t.txt"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["explain", "t.txt", "--pair", "QO"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_trace_is_usage_error() {
        assert!(matches!(parse_args(["stats"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn on_error_policy_parses() {
        let cmd = parse_args(["learn", "t.txt", "--on-error", "skip"]).unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.on_error, OnError::Skip);
        let cmd = parse_args(["analyze", "t.txt", "--on-error=repair"]).unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.on_error, OnError::Repair);
        let cmd = parse_args(["learn", "t.txt"]).unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.learner.on_error, OnError::Abort);
        assert!(matches!(
            parse_args(["learn", "t.txt", "--on-error", "explode"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn threads_flag_is_refused_on_learn_and_parsed_on_corpus() {
        match parse_args(["learn", "t.txt", "--threads", "2"]) {
            Err(CliError::Usage(message)) => {
                assert!(message.contains("unknown option --threads"), "{message}");
            }
            other => panic!("expected a usage error, got {other:?}"),
        }
        let cmd = parse_args(["corpus", "traces", "--threads", "8"]).unwrap();
        let Command::Corpus(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.threads, 8);
        // Default is one thread; 0 means one per core (resolved later).
        let cmd = parse_args(["corpus", "traces"]).unwrap();
        let Command::Corpus(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.threads, 1);
        let cmd = parse_args(["corpus", "traces", "--threads=0"]).unwrap();
        let Command::Corpus(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.threads, 0);
        assert!(matches!(
            parse_args(["corpus", "traces", "--threads", "many"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn simulate_fault_flags() {
        let cmd = parse_args([
            "simulate",
            "--workload",
            "gm",
            "--seed",
            "9",
            "--fault-rate",
            "0.05",
        ])
        .unwrap();
        let Command::Simulate(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.fault_rate, 0.05);
        assert_eq!(o.fault_seed, 9, "fault seed defaults to the sim seed");
        let cmd = parse_args([
            "simulate",
            "--workload",
            "gm",
            "--fault-rate=0.1",
            "--fault-seed=3",
        ])
        .unwrap();
        let Command::Simulate(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.fault_seed, 3);
        assert!(matches!(
            parse_args(["simulate", "--workload", "gm", "--fault-rate", "1.5"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn telemetry_flags_parse_on_learner_commands() {
        let cmd = parse_args([
            "learn",
            "t.txt",
            "--metrics-out",
            "m.json",
            "--events-out=e.jsonl",
        ])
        .unwrap();
        let Command::Learn(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.telemetry.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.telemetry.events_out.as_deref(), Some("e.jsonl"));
        assert!(!o.telemetry.is_empty());

        let cmd = parse_args(["analyze", "t.txt"]).unwrap();
        let Command::Analyze(o) = cmd else {
            panic!("wrong command")
        };
        assert!(o.telemetry.is_empty());

        let cmd = parse_args(["dot", "t.txt", "--events-out", "e.jsonl"]).unwrap();
        let Command::Dot(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.telemetry.events_out.as_deref(), Some("e.jsonl"));

        // Stats is not learner-backed, so the flags are rejected there.
        assert!(matches!(
            parse_args(["stats", "t.txt", "--metrics-out", "m.json"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_parses() {
        let cmd = parse_args([
            "profile",
            "t.txt",
            "--bound",
            "8",
            "--metrics-out",
            "m.json",
            "--events-out",
            "e.jsonl",
            "--chrome-out",
            "c.json",
        ])
        .unwrap();
        let Command::Profile(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.trace, "t.txt");
        assert_eq!(o.learner.bound, Some(8));
        assert_eq!(o.telemetry.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(o.telemetry.events_out.as_deref(), Some("e.jsonl"));
        assert_eq!(o.chrome_out.as_deref(), Some("c.json"));

        let cmd = parse_args(["profile", "t.txt"]).unwrap();
        let Command::Profile(o) = cmd else {
            panic!("wrong command")
        };
        assert!(o.telemetry.is_empty());
        assert_eq!(o.chrome_out, None);
        assert!(matches!(parse_args(["profile"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["profile", "t.txt", "--chrome-out"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_status_flags_parse() {
        let cmd = parse_args([
            "serve",
            "--stdin-jsonl",
            "--status-file",
            "health.json",
            "--status-every",
            "8",
        ])
        .unwrap();
        let Command::Serve(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.status_file.as_deref(), Some("health.json"));
        assert_eq!(o.status_every, Some(8));
        assert!(matches!(
            parse_args(["serve", "--stdin-jsonl", "--status-every", "4"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args([
                "serve",
                "--stdin-jsonl",
                "--status-file",
                "h.json",
                "--status-every",
                "0"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn top_parses() {
        let cmd = parse_args(["top", "health.json", "--once"]).unwrap();
        let Command::Top(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.status_file, "health.json");
        assert!(o.once);
        assert_eq!(o.interval_ms, 1000);
        assert_eq!(o.ticks, None);

        let cmd = parse_args(["top", "h.json", "--interval-ms=250", "--ticks", "3"]).unwrap();
        let Command::Top(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.interval_ms, 250);
        assert_eq!(o.ticks, Some(3));
        assert!(matches!(parse_args(["top"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["top", "h.json", "--interval-ms", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn audit_parses() {
        let cmd = parse_args([
            "audit",
            "model.ckpt",
            "ckpts",
            "--json",
            "--deny",
            "warnings",
            "--replay",
            "t.txt",
        ])
        .unwrap();
        let Command::Audit(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.paths, vec!["model.ckpt".to_owned(), "ckpts".to_owned()]);
        assert!(o.json);
        assert!(o.deny_warnings);
        assert_eq!(o.replay.as_deref(), Some("t.txt"));

        let cmd = parse_args(["audit", "m.ckpt"]).unwrap();
        let Command::Audit(o) = cmd else {
            panic!("wrong command")
        };
        assert!(!o.json);
        assert!(!o.deny_warnings);
        assert_eq!(o.replay, None);
        assert!(o.telemetry.is_empty());

        assert!(matches!(parse_args(["audit"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["audit", "m.ckpt", "--deny", "everything"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["audit", "m.ckpt", "--replay"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn convert_parses() {
        let cmd = parse_args(["convert", "in.csv", "out.btrace"]).unwrap();
        let Command::Convert(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.input, "in.csv");
        assert_eq!(o.output, "out.btrace");
        assert!(matches!(
            parse_args(["convert", "only.csv"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["convert", "a", "b", "--wat"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn corpus_parses() {
        let cmd = parse_args([
            "corpus",
            "traces",
            "--bound",
            "8",
            "--cache-dir",
            "cache",
            "--cache-capacity=16",
            "--report",
            "report.json",
            "--checkpoint-dir",
            "ckpts",
        ])
        .unwrap();
        let Command::Corpus(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.dir, "traces");
        assert_eq!(o.learner.bound, Some(8));
        assert_eq!(o.cache_dir.as_deref(), Some("cache"));
        assert_eq!(o.cache_capacity, 16);
        assert_eq!(o.report.as_deref(), Some("report.json"));
        assert_eq!(o.checkpoint_dir.as_deref(), Some("ckpts"));

        let cmd = parse_args(["corpus", "traces"]).unwrap();
        let Command::Corpus(o) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(o.cache_dir, None);
        assert_eq!(o.cache_capacity, 1024);
        assert_eq!(o.report, None);

        assert!(matches!(parse_args(["corpus"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse_args(["corpus", "traces", "--cache-capacity", "0"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn bad_workload_is_usage_error() {
        assert!(matches!(
            parse_args(["simulate", "--workload", "random:bananas=2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["simulate", "--workload", "random:tasks=x"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_args(["simulate", "--workload", "exotic"]),
            Err(CliError::Usage(_))
        ));
    }
}
