//! Supervised streaming ingest for the incremental learner.
//!
//! This crate is the serving layer on top of
//! [`bbmg_core::IncrementalLearner`]: an ingest front consumes a JSONL
//! event feed carrying interleaved captures from several **sources**
//! (buses, loggers, replays), and a [`Supervisor`] maintains one
//! [`StreamShard`] per source. Each shard runs the full resilience stack:
//!
//! * the stream sanitizer ([`bbmg_trace::PeriodStream`]) repairs or
//!   quarantines each period as it completes, with bounded memory;
//! * the incremental learner consumes ready periods and checkpoints every
//!   N of them (`bbmg-ckpt/1`, atomic rename);
//! * a **memory watermark** sized in packed lattice words triggers the
//!   graceful-degradation ladder instead of unbounded growth: exact →
//!   bounded fallback first, then checkpoint-and-shed, and the shard
//!   stays alive and accounted. The watermark is checked between
//!   periods, so it bounds what a shard keeps from one period to the
//!   next, not the working set inside a period: a single exact
//!   GM-scale period can still abort the process on allocation failure
//!   before the check runs. A mid-period memory guard is an open item
//!   in `ROADMAP.md`; until then, a set limit in the learner options
//!   is the in-period bound;
//! * a **watchdog** restarts a shard that wedges (a learner error that is
//!   not part of normal degradation) from its last checkpoint, with
//!   exponential backoff and a restart budget; a shard that exhausts the
//!   budget parks as `stopped`, keeping its partial model. Under
//!   `OnInconsistent::Abort` a learner set-limit or budget trip is such
//!   an error too: abort never degrades.
//!
//! Everything observable — repairs, quarantines, fallbacks, checkpoints,
//! and every state transition — is reported through [`bbmg_obs::Observer`]
//! hooks (`shard_health` events carry source, state, period count, and a
//! human detail string), so one JSONL event stream tells the whole story
//! of a serve run.
//!
//! The wire protocol is line-delimited JSON with no transport attached —
//! the CLI feeds it from stdin or a file; tests feed it from strings:
//!
//! ```text
//! {"type":"hello","source":"bus0","tasks":["t1","t2"]}
//! {"type":"event","source":"bus0","time":0,"kind":"start","subject":"t1","period":0}
//! {"type":"event","source":"bus0","time":12,"kind":"rise","subject":"m0","period":0}
//! {"type":"end","source":"bus0"}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod health;
mod protocol;
mod roster;
mod shard;
mod supervisor;

use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use bbmg_core::{CheckpointError, LearnError, LearnOptions, DEFAULT_FALLBACK_BOUND};
use bbmg_trace::RepairOptions;

pub use health::{HealthParseError, HealthRegistry, HealthSnapshot, ShardHealth, HEALTH_SCHEMA};
pub use protocol::{parse_line, Line, WireKind};
pub use roster::{Roster, RosterEntry, RosterError, ROSTER_FILE, ROSTER_SCHEMA};
pub use shard::{ShardState, ShardSummary, StreamShard};
pub use supervisor::{LineOutcome, Supervisor};

/// Configuration for a serve run (one [`Supervisor`]).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Learner options each shard starts from.
    pub learn: LearnOptions,
    /// Bound for the exact-to-bounded degradation.
    pub fallback_bound: NonZeroUsize,
    /// Memory watermark per shard, in packed lattice words retained by the
    /// hypothesis arena (`hypotheses × words_per_function(tasks)`).
    /// Crossing it triggers the degradation ladder. It is checked only
    /// between periods (after the learner absorbs each one), so an exact
    /// period that outgrows memory on its own still aborts on allocation
    /// failure before the check runs; [`LearnOptions::set_limit`] is the
    /// bound that applies inside a period. A mid-period memory guard is
    /// an open item in `ROADMAP.md`.
    pub watermark_words: usize,
    /// Checkpoint every N consumed periods (`None` disables cadence
    /// checkpoints; a final checkpoint is still written on shard finish
    /// when a directory is configured).
    pub checkpoint_every: Option<NonZeroUsize>,
    /// Directory for `<source>.ckpt` files; `None` keeps checkpoints
    /// in memory only (the watchdog still works).
    pub checkpoint_dir: Option<PathBuf>,
    /// How many watchdog restarts each shard gets before parking as
    /// `stopped`.
    pub restart_budget: usize,
    /// Backoff after the first watchdog restart, measured in ingest
    /// events shed before the shard resumes; doubles on every further
    /// restart. Event-counted rather than wall-clock so chaos tests are
    /// deterministic.
    pub initial_backoff_events: usize,
    /// Sanitizer tuning forwarded to each shard's [`bbmg_trace::PeriodStream`].
    pub repair: RepairOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            learn: LearnOptions::exact(),
            fallback_bound: NonZeroUsize::new(DEFAULT_FALLBACK_BOUND)
                .expect("default bound is nonzero"),
            watermark_words: 1 << 20,
            checkpoint_every: NonZeroUsize::new(16),
            checkpoint_dir: None,
            restart_budget: 3,
            initial_backoff_events: 4,
            repair: RepairOptions::default(),
        }
    }
}

/// Why the serve layer rejected a line or a shard operation.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The line is not valid protocol JSON.
    Protocol {
        /// What is wrong with it.
        message: String,
    },
    /// An `event`/`end` line named a source no `hello` introduced.
    UnknownSource {
        /// The unknown source id.
        source: String,
    },
    /// A second `hello` for an already-open source.
    DuplicateSource {
        /// The duplicated source id.
        source: String,
    },
    /// An event named a task/message subject outside the shard's universe.
    UnknownSubject {
        /// The source whose universe was consulted.
        source: String,
        /// The unresolvable subject.
        subject: String,
    },
    /// A learner error that is not handled by degradation or the watchdog
    /// (caller bugs like a universe mismatch).
    Learn(LearnError),
    /// A checkpoint could not be written or restored.
    Checkpoint(CheckpointError),
    /// The persisted roster could not be loaded or saved.
    Roster(crate::roster::RosterError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol { message } => write!(f, "protocol: {message}"),
            ServeError::UnknownSource { source } => {
                write!(f, "no `hello` seen for source `{source}`")
            }
            ServeError::DuplicateSource { source } => {
                write!(f, "duplicate `hello` for source `{source}`")
            }
            ServeError::UnknownSubject { source, subject } => {
                write!(f, "source `{source}`: unknown subject `{subject}`")
            }
            ServeError::Learn(e) => write!(f, "learner: {e}"),
            ServeError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ServeError::Roster(e) => write!(f, "roster: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Learn(e) => Some(e),
            ServeError::Checkpoint(e) => Some(e),
            ServeError::Roster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LearnError> for ServeError {
    fn from(e: LearnError) -> Self {
        ServeError::Learn(e)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e)
    }
}

impl From<crate::roster::RosterError> for ServeError {
    fn from(e: crate::roster::RosterError) -> Self {
        ServeError::Roster(e)
    }
}
