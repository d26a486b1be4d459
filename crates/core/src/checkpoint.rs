//! Versioned, fingerprint-stamped learner checkpoints (`bbmg-ckpt/1`).
//!
//! A [`Checkpoint`] captures the **complete** state of an
//! [`IncrementalLearner`](crate::IncrementalLearner) at a period boundary:
//! the hypothesis antichain (packed lattice words), the execution-history
//! bitmap, the effective [`LearnOptions`] (reflecting any exact→bounded
//! fallback), the budget clock, and the full [`LearnStats`] record
//! including quarantined periods. Restoring it and feeding the remaining
//! periods produces a byte-identical result to the uninterrupted run —
//! the property the `checkpoint_roundtrip` proptest and the kill-and-
//! resume chaos test enforce.
//!
//! # File format
//!
//! One JSON document, written without any whitespace:
//!
//! ```json
//! {"schema":"bbmg-ckpt/1","checksum":"<16 hex>","payload":{...}}
//! ```
//!
//! The checksum is a 64-bit FNV-1a/splitmix fold over the exact bytes of
//! the `payload` value, so any flipped bit — truncation mid-write, disk
//! corruption, a hand edit — is detected before the payload is trusted.
//! Inside the payload every `u64`-valued quantity (packed lattice words,
//! fingerprints, microsecond clocks) is serialized as a 16-digit hex
//! *string*: the workspace's JSON parser backs numbers with `f64`, which
//! is exact only up to 2^53.
//!
//! The envelope is written by [`seal`] and opened by [`unseal`], which
//! `bbmg corpus` reports share. Every object is read by the shared strict
//! reader, [`bbmg_obs::json::fields`]: unknown, missing, duplicated or
//! reordered fields are errors, and hex strings must be the 16 lower-case
//! digits the writer emits. The schema tag must match exactly, and every
//! hypothesis is re-validated structurally
//! ([`DependencyFunction::from_words`]) and cryptographically (stored vs
//! recomputed fingerprints) before a learner may resume from it. A
//! checkpoint for a different task-universe size is refused at the
//! word-count check — resuming onto a mismatched lattice shape is
//! impossible by construction.
//!
//! Writes are atomic: the document goes to a `<name>.tmp` sibling first,
//! is fsynced, and is then renamed over the target, so a crash mid-write
//! leaves either the old checkpoint or the new one, never a torn file.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bbmg_lattice::{DependencyFunction, FunctionDecodeError};
use bbmg_obs::json::{self, Field, FieldError, Json};
use bbmg_trace::MessageId;

use crate::options::{Budget, LearnOptions, MergeAssumptions, OnInconsistent};
use crate::stats::{LearnStats, SkipCause, SkippedPeriod};

/// Schema tag stamped on every checkpoint document.
pub const CHECKPOINT_SCHEMA: &str = "bbmg-ckpt/1";

/// Order-sensitive fingerprint of a hypothesis antichain: a splitmix-style
/// fold over the member functions' fingerprints, seeded with the count.
/// Two learners agree on this value iff they hold the same functions in
/// the same order — the identity a resumed run must reproduce.
#[must_use]
pub fn antichain_fingerprint(functions: &[DependencyFunction]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ functions.len() as u64;
    for f in functions {
        h ^= f.fingerprint();
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// 64-bit FNV-1a over `bytes` with a splitmix finalizer, seeded with the
/// length so truncation to a self-consistent prefix still changes the sum.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ bytes.len() as u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Wraps `payload` in the `{"schema","checksum","payload"}` envelope that
/// checkpoints and `bbmg corpus` reports share. The checksum covers the
/// payload's exact bytes, whitespace and field order included, so a
/// hand-doctored payload passes the checksum and reaches the validators
/// behind it.
#[must_use]
pub fn seal(schema: &str, payload: &str) -> String {
    format!(
        "{{\"schema\":\"{schema}\",\"checksum\":\"{:016x}\",\"payload\":{payload}}}",
        checksum(payload.as_bytes())
    )
}

/// Opens a document [`seal`] wrote, given its `text` and its parse: the
/// envelope must hold exactly its three keys, the tag must be `schema`,
/// and the checksum must match the payload's exact bytes. Returns the
/// parsed payload.
///
/// # Errors
///
/// [`CheckpointError::Schema`] for another tag,
/// [`CheckpointError::ChecksumMismatch`], and
/// [`CheckpointError::Malformed`] for any other envelope fault.
pub fn unseal<'a>(
    text: &str,
    document: &'a Json,
    schema: &str,
) -> Result<&'a Json, CheckpointError> {
    let at = |e| malformed("document", e);
    let [tag, stored, payload] =
        json::fields(document, ["schema", "checksum", "payload"]).map_err(at)?;
    let found = tag.value.as_str().unwrap_or_default();
    if found != schema {
        return Err(CheckpointError::Schema {
            found: found.to_owned(),
        });
    }
    let stored = stored.hex().map_err(at)?;
    // The writer emits no whitespace and puts `payload` last, so the
    // payload's bytes run from the `"payload":` marker to the final `}`.
    let marker = "\"payload\":";
    let trimmed = text.trim_end();
    let payload_text = text
        .find(marker)
        .and_then(|at| trimmed.get(at + marker.len()..trimmed.len() - 1))
        .ok_or_else(|| malformed("document", "payload marker not found"))?;
    let actual = checksum(payload_text.as_bytes());
    if actual != stored {
        return Err(CheckpointError::ChecksumMismatch { stored, actual });
    }
    Ok(payload.value)
}

/// Why a checkpoint could not be written, read, or trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem failure while saving or loading.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The file is not valid JSON at all.
    Json {
        /// The parser's diagnosis.
        message: String,
    },
    /// The document carries a different schema tag.
    Schema {
        /// The tag found (empty if absent or non-string).
        found: String,
    },
    /// The document parses but violates the `bbmg-ckpt/1` shape.
    Malformed {
        /// Which part of the document (e.g. `payload.options`).
        context: &'static str,
        /// What is wrong with it.
        message: String,
    },
    /// The stored checksum does not match the payload bytes.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed from the payload.
        actual: u64,
    },
    /// A hypothesis's packed words do not decode to a valid function for
    /// the claimed task count (wrong lattice shape, invalid cell codes,
    /// dirty padding).
    Function {
        /// Index of the offending hypothesis.
        index: usize,
        /// The structural failure.
        error: FunctionDecodeError,
    },
    /// A hypothesis's stored fingerprint disagrees with the one recomputed
    /// from its words.
    FingerprintMismatch {
        /// Index of the offending hypothesis.
        index: usize,
        /// Fingerprint recorded in the file.
        stored: u64,
        /// Fingerprint recomputed from the decoded function.
        actual: u64,
    },
    /// The whole-antichain fingerprint disagrees with the one recomputed
    /// from the decoded hypotheses.
    AntichainMismatch {
        /// Fingerprint recorded in the file.
        stored: u64,
        /// Fingerprint recomputed from the decoded antichain.
        actual: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => write!(f, "checkpoint io `{path}`: {message}"),
            CheckpointError::Json { message } => write!(f, "checkpoint is not JSON: {message}"),
            CheckpointError::Schema { found } => write!(
                f,
                "checkpoint schema is `{found}`, expected `{CHECKPOINT_SCHEMA}`"
            ),
            CheckpointError::Malformed { context, message } => {
                write!(f, "malformed checkpoint at {context}: {message}")
            }
            CheckpointError::ChecksumMismatch { stored, actual } => write!(
                f,
                "checkpoint corrupt: checksum {stored:016x} recorded, {actual:016x} computed"
            ),
            CheckpointError::Function { index, error } => {
                write!(f, "checkpoint hypothesis {index} is invalid: {error}")
            }
            CheckpointError::FingerprintMismatch {
                index,
                stored,
                actual,
            } => write!(
                f,
                "checkpoint hypothesis {index} fingerprint mismatch: {stored:016x} recorded, {actual:016x} computed"
            ),
            CheckpointError::AntichainMismatch { stored, actual } => write!(
                f,
                "checkpoint antichain fingerprint mismatch: {stored:016x} recorded, {actual:016x} computed"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A complete, resumable snapshot of an incremental learn run at a period
/// boundary. Produced by
/// [`IncrementalLearner::checkpoint`](crate::IncrementalLearner::checkpoint),
/// consumed by [`IncrementalLearner::resume`](crate::IncrementalLearner::resume).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Task-universe size (the lattice dimension).
    pub tasks: usize,
    /// Periods consumed so far (accepted + quarantined) — the index into
    /// the source stream at which feeding should resume.
    pub pushed_periods: usize,
    /// The learner's *effective* options, reflecting any exact→bounded
    /// fallback already taken.
    pub options: LearnOptions,
    /// Bound to use if a fallback happens after resuming.
    pub fallback_bound: NonZeroUsize,
    /// Wall-clock time already charged against the budget.
    pub elapsed: Duration,
    /// The hypothesis antichain, in the learner's canonical order.
    pub hypotheses: Vec<DependencyFunction>,
    /// The execution-history "ever ran without" bitmap, row-major,
    /// `tasks × tasks` entries.
    pub ran_without: Vec<bool>,
    /// Full run statistics, including quarantine and fallback records.
    pub stats: LearnStats,
}

impl Checkpoint {
    /// The antichain fingerprint of this checkpoint's hypotheses (the
    /// value stamped into the document and into `checkpoint` events).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        antichain_fingerprint(&self.hypotheses)
    }

    /// Serializes to the `bbmg-ckpt/1` document (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        seal(CHECKPOINT_SCHEMA, &self.payload_json())
    }

    fn payload_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.hypotheses.len() * 64);
        out.push_str(&format!(
            "{{\"tasks\":{},\"pushed_periods\":{},\"elapsed_micros\":\"{:016x}\",\"fallback_bound\":{}",
            self.tasks,
            self.pushed_periods,
            u64::try_from(self.elapsed.as_micros()).unwrap_or(u64::MAX),
            self.fallback_bound,
        ));
        out.push_str(",\"options\":");
        push_options(&mut out, &self.options);
        out.push_str(",\"history\":\"");
        for &bit in &self.ran_without {
            out.push(if bit { '1' } else { '0' });
        }
        out.push('"');
        out.push_str(",\"hypotheses\":[");
        for (i, function) in self.hypotheses.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"fingerprint\":\"{:016x}\",\"words\":[",
                function.fingerprint()
            ));
            for (j, word) in function.packed_words().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{word:016x}\""));
            }
            out.push_str("]}");
        }
        out.push(']');
        out.push_str(&format!(
            ",\"antichain_fingerprint\":\"{:016x}\"",
            self.fingerprint()
        ));
        out.push_str(",\"stats\":");
        push_stats(&mut out, &self.stats);
        out.push('}');
        out
    }

    /// Parses and fully validates a `bbmg-ckpt/1` document.
    ///
    /// # Errors
    ///
    /// Every way the document can be untrustworthy is a distinct
    /// [`CheckpointError`]: bad JSON, wrong schema tag, checksum mismatch,
    /// shape violations, undecodable or fingerprint-mismatched hypotheses.
    pub fn parse_json(text: &str) -> Result<Self, CheckpointError> {
        let document = json::parse(text).map_err(|e| CheckpointError::Json {
            message: e.to_string(),
        })?;
        Self::decode_payload(unseal(text, &document, CHECKPOINT_SCHEMA)?)
    }

    fn decode_payload(payload: &Json) -> Result<Self, CheckpointError> {
        let at = |e| malformed("payload", e);
        #[rustfmt::skip]
        let [
            tasks, pushed_periods, elapsed_micros, fallback_bound, options, history, hypotheses,
            antichain, stats,
        ] = json::fields(payload, [
            "tasks", "pushed_periods", "elapsed_micros", "fallback_bound", "options", "history",
            "hypotheses", "antichain_fingerprint", "stats",
        ]).map_err(at)?;
        let tasks = tasks.usize().map_err(at)?;
        let history = history.str().map_err(at)?;
        let mut ran_without = Vec::with_capacity(history.len());
        for c in history.chars() {
            match c {
                '0' => ran_without.push(false),
                '1' => ran_without.push(true),
                other => {
                    return Err(malformed(
                        "payload.history",
                        format!("invalid bitmap character `{other}`"),
                    ))
                }
            }
        }
        if tasks.checked_mul(tasks) != Some(ran_without.len()) {
            return Err(malformed(
                "payload.history",
                format!(
                    "bitmap has {} bits, expected {tasks} x {tasks} for {tasks} tasks",
                    ran_without.len()
                ),
            ));
        }
        let entries = hypotheses.array().map_err(at)?;
        let mut hypotheses = Vec::with_capacity(entries.len());
        for (index, entry) in entries.enumerate() {
            let at = |e| malformed("payload.hypotheses", e);
            let [fingerprint, words] = entry.object(["fingerprint", "words"]).map_err(at)?;
            let stored = fingerprint.hex().map_err(at)?;
            let items = words.array().map_err(at)?;
            let mut words = Vec::with_capacity(items.len());
            for word in items {
                words.push(word.hex().map_err(at)?);
            }
            let function = DependencyFunction::from_words(tasks, words)
                .map_err(|error| CheckpointError::Function { index, error })?;
            let actual = function.fingerprint();
            if actual != stored {
                return Err(CheckpointError::FingerprintMismatch {
                    index,
                    stored,
                    actual,
                });
            }
            hypotheses.push(function);
        }
        let stored_antichain = antichain.hex().map_err(at)?;
        let actual_antichain = antichain_fingerprint(&hypotheses);
        if actual_antichain != stored_antichain {
            return Err(CheckpointError::AntichainMismatch {
                stored: stored_antichain,
                actual: actual_antichain,
            });
        }
        Ok(Checkpoint {
            tasks,
            pushed_periods: pushed_periods.usize().map_err(at)?,
            options: decode_options(options)?,
            fallback_bound: nonzero(fallback_bound).map_err(at)?,
            elapsed: Duration::from_micros(elapsed_micros.hex().map_err(at)?),
            hypotheses,
            ran_without,
            stats: decode_stats(stats)?,
        })
    }

    /// Writes the checkpoint to `path` atomically: the document goes to a
    /// `.tmp` sibling, is fsynced, then renamed into place. A crash at any
    /// point leaves either the previous checkpoint or this one intact.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on any filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let io_err = |p: &Path, e: std::io::Error| CheckpointError::Io {
            path: p.display().to_string(),
            message: e.to_string(),
        };
        let tmp = temp_path(path);
        {
            let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
            file.write_all(self.to_json().as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .and_then(|()| file.sync_all())
                .map_err(|e| io_err(&tmp, e))?;
        }
        fs::rename(&tmp, path).map_err(|e| io_err(path, e))
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, otherwise as
    /// [`parse_json`](Checkpoint::parse_json).
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Self::parse_json(&text)
    }
}

fn temp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("checkpoint"), ToOwned::to_owned);
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `options`. The trailing `"parallelism":1` is a fixed field: the
/// learner runs on one thread, and the field stays so that `bbmg-ckpt/1`
/// documents keep their bytes and older ones, which recorded a thread
/// count there, still load.
fn push_options(out: &mut String, options: &LearnOptions) {
    out.push_str(&format!(
        "{{\"bound\":{},\"merge_assumptions\":\"{}\",\"timing_filter\":{},\"history_aware\":{},\"set_limit\":{},\"on_inconsistent\":\"{}\",\"max_steps\":{},\"max_wall_clock_micros\":{},\"parallelism\":1}}",
        opt_number(options.bound),
        match options.merge_assumptions {
            MergeAssumptions::Union => "union",
            MergeAssumptions::Intersection => "intersection",
        },
        options.timing_filter,
        options.history_aware,
        opt_number(options.set_limit),
        match options.on_inconsistent {
            OnInconsistent::Abort => "abort",
            OnInconsistent::SkipPeriod => "skip_period",
        },
        opt_number(options.budget.max_steps),
        options.budget.max_wall_clock.map_or_else(
            || "null".to_owned(),
            |d| format!("\"{:016x}\"", u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        ),
    ));
}

fn decode_options(options: Field<'_>) -> Result<LearnOptions, CheckpointError> {
    const CTX: &str = "payload.options";
    let at = |e| malformed(CTX, e);
    #[rustfmt::skip]
    let [
        bound, merge_assumptions, timing_filter, history_aware, set_limit, on_inconsistent,
        max_steps, max_wall_clock_micros, parallelism,
    ] = options.object([
        "bound", "merge_assumptions", "timing_filter", "history_aware", "set_limit",
        "on_inconsistent", "max_steps", "max_wall_clock_micros", "parallelism",
    ]).map_err(at)?;
    let merge_assumptions = match merge_assumptions.str().map_err(at)? {
        "union" => MergeAssumptions::Union,
        "intersection" => MergeAssumptions::Intersection,
        other => {
            return Err(malformed(
                CTX,
                format!("unknown merge_assumptions `{other}`"),
            ))
        }
    };
    let on_inconsistent = match on_inconsistent.str().map_err(at)? {
        "abort" => OnInconsistent::Abort,
        "skip_period" => OnInconsistent::SkipPeriod,
        other => return Err(malformed(CTX, format!("unknown on_inconsistent `{other}`"))),
    };
    let optional = |field: Field<'_>| field.non_null().map(nonzero).transpose().map_err(at);
    let max_wall_clock = max_wall_clock_micros.non_null().map(Field::hex).transpose();
    // The fixed field (see `push_options`): any thread count an older
    // writer recorded is accepted and has no effect.
    nonzero(parallelism).map_err(at)?;
    Ok(LearnOptions {
        bound: optional(bound)?,
        merge_assumptions,
        timing_filter: timing_filter.bool().map_err(at)?,
        history_aware: history_aware.bool().map_err(at)?,
        set_limit: optional(set_limit)?,
        on_inconsistent,
        budget: Budget {
            max_steps: optional(max_steps)?,
            max_wall_clock: max_wall_clock.map_err(at)?.map(Duration::from_micros),
        },
    })
}

fn push_stats(out: &mut String, stats: &LearnStats) {
    out.push_str(&format!(
        "{{\"periods\":{},\"messages\":{},\"hypotheses_generated\":{},\"merges\":{},\"peak_set_size\":{},\"set_sizes_per_period\":[",
        stats.periods, stats.messages, stats.hypotheses_generated, stats.merges, stats.peak_set_size,
    ));
    for (i, size) in stats.set_sizes_per_period.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&size.to_string());
    }
    out.push_str(&format!(
        "],\"candidate_pairs_total\":{},\"fallbacks\":{},\"skipped_periods\":[",
        stats.candidate_pairs_total, stats.fallbacks,
    ));
    for (i, skip) in stats.skipped_periods.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (cause, message) = match &skip.cause {
            SkipCause::Inconsistent { message } => (
                "inconsistent",
                message.map_or_else(|| "null".to_owned(), |m| m.index().to_string()),
            ),
            SkipCause::BudgetExhausted => ("budget_exhausted", "null".to_owned()),
        };
        out.push_str(&format!(
            "{{\"period\":{},\"cause\":\"{cause}\",\"message\":{message}}}",
            skip.period
        ));
    }
    out.push_str("]}");
}

fn decode_stats(stats: Field<'_>) -> Result<LearnStats, CheckpointError> {
    let at = |e| malformed("payload.stats", e);
    #[rustfmt::skip]
    let [
        periods, messages, hypotheses_generated, merges, peak_set_size, set_sizes_per_period,
        candidate_pairs_total, fallbacks, skipped_periods,
    ] = stats.object([
        "periods", "messages", "hypotheses_generated", "merges", "peak_set_size",
        "set_sizes_per_period", "candidate_pairs_total", "fallbacks", "skipped_periods",
    ]).map_err(at)?;
    let set_sizes_per_period = set_sizes_per_period.array().map_err(at)?.map(Field::usize);
    let mut skips = Vec::new();
    for skip in skipped_periods.array().map_err(at)? {
        const SCTX: &str = "payload.stats.skipped_periods";
        let at = |e| malformed(SCTX, e);
        let [period, cause, message] = skip.object(["period", "cause", "message"]).map_err(at)?;
        let message = message
            .non_null()
            .map(Field::usize)
            .transpose()
            .map_err(at)?;
        let cause = match (cause.str().map_err(at)?, message) {
            ("inconsistent", message) => SkipCause::Inconsistent {
                message: message.map(MessageId::from_index),
            },
            ("budget_exhausted", None) => SkipCause::BudgetExhausted,
            (other, _) => return Err(malformed(SCTX, format!("unknown cause `{other}`"))),
        };
        skips.push(SkippedPeriod {
            period: period.usize().map_err(at)?,
            cause,
        });
    }
    Ok(LearnStats {
        periods: periods.usize().map_err(at)?,
        messages: messages.usize().map_err(at)?,
        hypotheses_generated: hypotheses_generated.usize().map_err(at)?,
        merges: merges.usize().map_err(at)?,
        peak_set_size: peak_set_size.usize().map_err(at)?,
        set_sizes_per_period: set_sizes_per_period.collect::<Result<_, _>>().map_err(at)?,
        candidate_pairs_total: candidate_pairs_total.usize().map_err(at)?,
        skipped_periods: skips,
        fallbacks: fallbacks.usize().map_err(at)?,
    })
}

fn malformed(context: &'static str, message: impl fmt::Display) -> CheckpointError {
    CheckpointError::Malformed {
        context,
        message: message.to_string(),
    }
}

/// A positive integer: the checkpoint's nonzero bounds and counts.
fn nonzero(field: Field<'_>) -> Result<NonZeroUsize, FieldError> {
    let value = field.usize()?;
    NonZeroUsize::new(value).ok_or(FieldError::Value {
        key: field.key,
        expected: "a positive integer",
    })
}

fn opt_number(value: Option<NonZeroUsize>) -> String {
    value.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbmg_lattice::{DependencyValue, TaskId};

    fn sample() -> Checkpoint {
        let mut f = DependencyFunction::bottom(3);
        f.set(
            TaskId::from_index(0),
            TaskId::from_index(1),
            DependencyValue::Determines,
        );
        let g = DependencyFunction::bottom(3);
        Checkpoint {
            tasks: 3,
            pushed_periods: 7,
            options: LearnOptions::exact()
                .with_set_limit(100)
                .with_on_inconsistent(OnInconsistent::SkipPeriod)
                .with_budget(Budget::unlimited().with_max_steps(5000)),
            fallback_bound: NonZeroUsize::new(64).unwrap(),
            elapsed: Duration::from_micros(123_456),
            hypotheses: vec![f, g],
            ran_without: vec![false, true, false, false, false, false, true, false, false],
            stats: LearnStats {
                periods: 6,
                messages: 9,
                hypotheses_generated: 40,
                merges: 2,
                peak_set_size: 5,
                set_sizes_per_period: vec![1, 2, 2, 3, 2, 2],
                candidate_pairs_total: 17,
                skipped_periods: vec![SkippedPeriod {
                    period: 3,
                    cause: SkipCause::Inconsistent {
                        message: Some(MessageId::from_index(2)),
                    },
                }],
                fallbacks: 0,
            },
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let ckpt = sample();
        let text = ckpt.to_json();
        let back = Checkpoint::parse_json(&text).expect("round trip");
        assert_eq!(back, ckpt);
        assert_eq!(back.fingerprint(), ckpt.fingerprint());
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("bbmg-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let ckpt = sample();
        ckpt.save(&path).expect("save");
        assert_eq!(Checkpoint::load(&path).expect("load"), ckpt);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_payload_bit_is_detected() {
        let text = sample().to_json();
        // Flip a digit inside the payload (the pushed_periods value).
        let corrupted = text.replace("\"pushed_periods\":7", "\"pushed_periods\":8");
        assert_ne!(corrupted, text);
        assert!(matches!(
            Checkpoint::parse_json(&corrupted),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_json();
        let truncated = &text[..text.len() - 40];
        assert!(Checkpoint::parse_json(truncated).is_err());
    }

    #[test]
    fn wrong_schema_is_refused() {
        let text = sample().to_json().replace("bbmg-ckpt/1", "bbmg-ckpt/2");
        assert!(matches!(
            Checkpoint::parse_json(&text),
            Err(CheckpointError::Schema { .. })
        ));
    }

    #[test]
    fn unknown_field_is_refused() {
        let mut ckpt = sample();
        ckpt.stats.skipped_periods.clear();
        // Splice an extra field into the payload and re-stamp the checksum
        // so only strict field validation can catch it.
        let payload = ckpt.payload_json();
        let evil = payload.replacen("{\"tasks\"", "{\"extra\":1,\"tasks\"", 1);
        let doc = seal(CHECKPOINT_SCHEMA, &evil);
        assert!(matches!(
            Checkpoint::parse_json(&doc),
            Err(CheckpointError::Malformed { .. })
        ));
    }

    #[test]
    fn the_fixed_parallelism_field_accepts_any_recorded_thread_count() {
        let ckpt = sample();
        let payload = ckpt.payload_json();
        assert!(payload.contains("\"parallelism\":1}"));
        let older = payload.replacen("\"parallelism\":1}", "\"parallelism\":4}", 1);
        let back = Checkpoint::parse_json(&seal(CHECKPOINT_SCHEMA, &older)).expect("loads");
        assert_eq!(back, ckpt);
        let zero = payload.replacen("\"parallelism\":1}", "\"parallelism\":0}", 1);
        assert!(matches!(
            Checkpoint::parse_json(&seal(CHECKPOINT_SCHEMA, &zero)),
            Err(CheckpointError::Malformed {
                context: "payload.options",
                ..
            })
        ));
    }

    #[test]
    fn a_task_count_whose_square_overflows_is_refused() {
        let payload = sample().payload_json();
        let huge = payload.replacen("\"tasks\":3", "\"tasks\":4294967296", 1);
        assert!(matches!(
            Checkpoint::parse_json(&seal(CHECKPOINT_SCHEMA, &huge)),
            Err(CheckpointError::Malformed {
                context: "payload.history",
                ..
            })
        ));
    }

    #[test]
    fn mismatched_lattice_shape_is_refused() {
        let mut ckpt = sample();
        // Claim a universe big enough that the packed-word count differs
        // (4 tasks still fit one word, 7 need three); grow the history
        // bitmap too so the hypothesis decode is reached.
        ckpt.tasks = 7;
        ckpt.ran_without = vec![false; 49];
        let text = ckpt.to_json();
        assert!(matches!(
            Checkpoint::parse_json(&text),
            Err(CheckpointError::Function {
                error: FunctionDecodeError::WordCount { .. },
                ..
            })
        ));
    }

    #[test]
    fn doctored_words_fail_the_fingerprint_check() {
        let ckpt = sample();
        // Replace hypothesis 0's words with bottom's (valid shape, wrong
        // fingerprint), re-stamping the checksum.
        let bottom_word = format!(
            "\"{:016x}\"",
            DependencyFunction::bottom(3).packed_words()[0]
        );
        let own_word = format!("\"{:016x}\"", ckpt.hypotheses[0].packed_words()[0]);
        let payload = ckpt.payload_json();
        let evil = payload.replacen(own_word.as_str(), bottom_word.as_str(), 1);
        assert_ne!(evil, payload);
        let doc = seal(CHECKPOINT_SCHEMA, &evil);
        assert!(matches!(
            Checkpoint::parse_json(&doc),
            Err(CheckpointError::FingerprintMismatch { index: 0, .. })
        ));
    }

    #[test]
    fn antichain_fingerprint_is_order_sensitive() {
        let ckpt = sample();
        let mut swapped = ckpt.clone();
        swapped.hypotheses.swap(0, 1);
        assert_ne!(ckpt.fingerprint(), swapped.fingerprint());
        assert_ne!(
            antichain_fingerprint(&[]),
            antichain_fingerprint(&ckpt.hypotheses)
        );
    }

    #[test]
    fn errors_display() {
        let errors = [
            CheckpointError::Schema { found: "x".into() },
            CheckpointError::ChecksumMismatch {
                stored: 1,
                actual: 2,
            },
            CheckpointError::AntichainMismatch {
                stored: 1,
                actual: 2,
            },
            malformed("payload", "boom"),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
