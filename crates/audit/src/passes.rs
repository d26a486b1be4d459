//! The analyzer passes: per-document deep verification, cross-document
//! consistency, and deterministic replay.
//!
//! Each pass appends [`Diagnostic`]s and — where parsing succeeds —
//! returns the decoded document so later passes (cross-document, replay)
//! can build on it. The lattice-level kernels come from
//! [`bbmg_lattice::invariant`], the exact same functions the
//! `debug-invariants` runtime hooks run, so offline and in-process
//! checking cannot drift.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use bbmg_core::{
    unseal, Checkpoint, CheckpointError, IncrementalLearner, LearnError, CORPUS_SCHEMA,
};
use bbmg_lattice::invariant::{self, AntichainViolation};
use bbmg_lattice::FunctionDecodeError;
use bbmg_obs::json::{self, FieldError};
use bbmg_obs::{MetricsParseError, MetricsSnapshot, NoopObserver};
use bbmg_serve::{HealthParseError, HealthSnapshot, Roster, RosterError};
use bbmg_trace::{parse_btrace, ParseBtraceError, Trace};

use crate::diag::{codes, Code, Diagnostic, Severity};

/// Lifecycle state words the serve layer emits (`ShardState`'s `Display`).
pub(crate) const KNOWN_STATES: [&str; 5] = ["exact", "degraded", "shedding", "backoff", "stopped"];

fn error(code: &'static Code, artifact: &str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(code, Severity::Error, artifact, message)
}

fn warning(code: &'static Code, artifact: &str, message: impl Into<String>) -> Diagnostic {
    Diagnostic::new(code, Severity::Warning, artifact, message)
}

/// Maps a [`FunctionDecodeError`] onto its stable diagnostic code.
fn function_code(err: &FunctionDecodeError) -> &'static Code {
    match err {
        FunctionDecodeError::WordCount { .. } => &codes::WORD_COUNT,
        FunctionDecodeError::InvalidCell { .. } => &codes::INVALID_CELL,
        FunctionDecodeError::DiagonalNotParallel { .. } => &codes::DIAGONAL,
        FunctionDecodeError::DirtyPadding { .. } => &codes::DIRTY_PADDING,
        _ => &codes::MALFORMED,
    }
}

/// Maps a [`CheckpointError`] onto one finding.
pub(crate) fn checkpoint_error_diag(artifact: &str, err: &CheckpointError) -> Diagnostic {
    match err {
        CheckpointError::Io { .. } => error(&codes::UNREADABLE, artifact, err.to_string()),
        CheckpointError::Json { .. } => error(&codes::NOT_JSON, artifact, err.to_string()),
        CheckpointError::Schema { .. } => error(&codes::SCHEMA_VERSION, artifact, err.to_string()),
        CheckpointError::ChecksumMismatch { .. } => {
            error(&codes::CHECKSUM, artifact, err.to_string())
        }
        CheckpointError::Function { index, error: e } => {
            error(function_code(e), artifact, e.to_string())
                .at(format!("payload.hypotheses[{index}]"))
        }
        CheckpointError::FingerprintMismatch { index, .. } => {
            error(&codes::FINGERPRINT, artifact, err.to_string())
                .at(format!("payload.hypotheses[{index}]"))
        }
        CheckpointError::AntichainMismatch { .. } => {
            error(&codes::ANTICHAIN_FINGERPRINT, artifact, err.to_string())
                .at("payload.antichain_fingerprint")
        }
        _ => error(&codes::MALFORMED, artifact, err.to_string()),
    }
}

/// Checkpoint deep-verify (passes 1–3): parse + checksum + shape via the
/// strict parser, then re-run the packed-encoding and antichain kernels
/// on the decoded state, check canonical re-encode byte-equality, and
/// cross-check the period bookkeeping.
pub(crate) fn audit_checkpoint(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<Checkpoint> {
    let ckpt = match Checkpoint::parse_json(text) {
        Ok(ckpt) => ckpt,
        Err(err) => {
            out.push(checkpoint_error_diag(artifact, &err));
            return None;
        }
    };

    // Packed-encoding validity, again, on the decoded functions: the
    // parser already refused undecodable stores, so a finding here means
    // the parser and the kernels disagree — defense in depth.
    for (index, h) in ckpt.hypotheses.iter().enumerate() {
        if let Err(e) = invariant::check_function(h) {
            out.push(
                error(function_code(&e), artifact, e.to_string())
                    .at(format!("payload.hypotheses[{index}]")),
            );
        }
    }

    // Antichain invariant: pairwise non-domination via the packed `leq`
    // kernels.
    match invariant::antichain_violation(&ckpt.hypotheses) {
        Some(AntichainViolation::Duplicate { left, right }) => out.push(
            error(
                &codes::DUPLICATE,
                artifact,
                format!("hypotheses {left} and {right} are identical"),
            )
            .at(format!("payload.hypotheses[{right}]")),
        ),
        Some(AntichainViolation::Dominated { lower, upper }) => out.push(
            error(
                &codes::DOMINATED,
                artifact,
                format!("hypotheses {lower} and {upper} are comparable ({lower} \u{2291} {upper})"),
            )
            .at(format!("payload.hypotheses[{upper}]")),
        ),
        None => {}
    }

    // Canonical re-encode round-trip: the writer emits exactly one byte
    // form, so a semantically-valid document that is not byte-identical
    // to its own re-encode was not produced by this toolchain.
    if ckpt.to_json() != text.trim_end() {
        out.push(error(
            &codes::NOT_CANONICAL,
            artifact,
            "re-encoding the parsed checkpoint does not reproduce the stored bytes",
        ));
    }

    // Period bookkeeping: consumed = accepted + quarantined. Budget skips
    // are recorded without consuming the period, so they stay out.
    let quarantined = ckpt
        .stats
        .skipped_periods
        .iter()
        .filter(|s| matches!(s.cause, bbmg_core::SkipCause::Inconsistent { .. }))
        .count();
    if ckpt.pushed_periods != ckpt.stats.periods + quarantined {
        out.push(
            warning(
                &codes::BOOKKEEPING,
                artifact,
                format!(
                    "pushed_periods is {} but stats record {} accepted + {} quarantined",
                    ckpt.pushed_periods, ckpt.stats.periods, quarantined
                ),
            )
            .at("payload.stats"),
        );
    }

    Some(ckpt)
}

/// Roster document pass: strict parse plus per-entry state-word sanity.
/// Reference resolution happens in the cross-document pass.
pub(crate) fn audit_roster(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<Roster> {
    let roster = match Roster::parse_json(text) {
        Ok(roster) => roster,
        Err(err) => {
            let code = match &err {
                RosterError::Json(_) => &codes::NOT_JSON,
                RosterError::Io(_) => &codes::UNREADABLE,
                _ => &codes::MALFORMED,
            };
            out.push(error(code, artifact, err.to_string()));
            return None;
        }
    };
    for entry in roster.iter() {
        if !KNOWN_STATES.contains(&entry.state.as_str()) {
            out.push(
                warning(
                    &codes::UNKNOWN_STATE,
                    artifact,
                    format!("entry `{}` records state `{}`", entry.source, entry.state),
                )
                .at(format!("source {}", entry.source)),
            );
        }
    }
    Some(roster)
}

/// Health snapshot pass: strict parse, duplicate-shard detection, state
/// words. Returns `(seq, uptime_us)` for the cross-snapshot pass.
pub(crate) fn audit_health(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<(u64, u64)> {
    let snapshot = match HealthSnapshot::parse_json(text) {
        Ok(snapshot) => snapshot,
        Err(err) => {
            let code = match &err {
                HealthParseError::Json(_) => &codes::NOT_JSON,
                _ => &codes::MALFORMED,
            };
            out.push(error(code, artifact, err.to_string()));
            return None;
        }
    };
    let mut seen: Vec<&str> = Vec::new();
    for shard in &snapshot.shards {
        if seen.contains(&shard.source.as_str()) {
            out.push(
                error(
                    &codes::DUPLICATE_SHARD,
                    artifact,
                    format!("source `{}` appears more than once", shard.source),
                )
                .at(format!("shard {}", shard.source)),
            );
        }
        seen.push(&shard.source);
        if !KNOWN_STATES.contains(&shard.state.as_str()) {
            out.push(
                warning(
                    &codes::UNKNOWN_STATE,
                    artifact,
                    format!("shard `{}` reports state `{}`", shard.source, shard.state),
                )
                .at(format!("shard {}", shard.source)),
            );
        }
    }
    Some((snapshot.seq, snapshot.uptime_us))
}

/// Metrics snapshot pass: strict parse. Returns `(seq, uptime_us)` for
/// the cross-snapshot pass.
pub(crate) fn audit_metrics(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<(u64, u64)> {
    match MetricsSnapshot::parse_json(text) {
        Ok(snapshot) => Some((snapshot.seq, snapshot.uptime_us)),
        Err(err) => {
            let code = match &err {
                MetricsParseError::Json(_) => &codes::NOT_JSON,
                _ => &codes::MALFORMED,
            };
            out.push(error(code, artifact, err.to_string()));
            None
        }
    }
}

/// Benchmark artifact pass: the shape and floor rules of the document's
/// `bbmg-bench-*` schema, the same rules its harness wrote it under.
pub(crate) fn audit_bench(artifact: &str, text: &str, out: &mut Vec<Diagnostic>) {
    let verdict = json::parse(text)
        .map_err(|err| (&codes::NOT_JSON, err.to_string()))
        .and_then(|document| {
            bbmg_bench::rules::check(&document).map_err(|rule| (&codes::MALFORMED, rule))
        });
    if let Err((code, message)) = verdict {
        out.push(error(code, artifact, message));
    }
}

/// Binary trace deep-verify: full decode through the same
/// [`TraceBuilder`](bbmg_trace::TraceBuilder) validation the loaders run.
/// Header problems (missing magic, promised-but-absent bytes) map to
/// [`codes::BTRACE_HEADER`], seal violations to
/// [`codes::BTRACE_CHECKSUM`], and everything past the seal — forged
/// records that were re-checksummed — to [`codes::BTRACE_BODY`].
pub(crate) fn audit_btrace(artifact: &str, bytes: &[u8], out: &mut Vec<Diagnostic>) {
    if let Err(err) = parse_btrace(bytes) {
        let code = match &err {
            ParseBtraceError::Magic | ParseBtraceError::Truncated { .. } => &codes::BTRACE_HEADER,
            ParseBtraceError::Checksum { .. } => &codes::BTRACE_CHECKSUM,
            _ => &codes::BTRACE_BODY,
        };
        out.push(error(code, artifact, err.to_string()));
    }
}

/// One cache-hit row of a corpus report, kept for the cross-document
/// pass: a `full` or `prefix` hit promises that the model it served is
/// still backed by a checkpoint the cache can restore.
pub(crate) struct CorpusHit {
    /// Zero-based index into `payload.entries`.
    pub(crate) index: usize,
    /// The trace file the row describes.
    pub(crate) file: String,
    /// The served model's antichain fingerprint.
    pub(crate) fingerprint: u64,
}

/// Corpus report deep-verify: the seal, the strict shape of the payload
/// and its rows, and counter consistency. Returns the cache-hit rows for
/// cross-document fingerprint resolution.
pub(crate) fn audit_corpus(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<Vec<CorpusHit>> {
    read_corpus(artifact, text, out)
        .map_err(|finding| out.push(finding))
        .ok()
}

fn read_corpus(
    artifact: &str,
    text: &str,
    out: &mut Vec<Diagnostic>,
) -> Result<Vec<CorpusHit>, Diagnostic> {
    let malformed = |message: String| error(&codes::CORPUS_MALFORMED, artifact, message);
    let root = json::parse(text).map_err(|err| malformed(err.to_string()))?;
    let payload = unseal(text, &root, CORPUS_SCHEMA).map_err(|err| {
        malformed(match err {
            CheckpointError::ChecksumMismatch { stored, actual } => format!(
                "checksum mismatch: header says {stored:016x}, payload hashes to {actual:016x}"
            ),
            CheckpointError::Malformed { message, .. } => message,
            other => other.to_string(),
        })
    })?;
    let at = |e: FieldError| malformed(e.to_string()).at("payload");
    #[rustfmt::skip]
    let [
        traces, full, prefix, misses, dedup_ratio, elapsed_micros, traces_per_sec, threads, entries,
    ] = json::fields(payload, [
        "traces", "cache_full_hits", "cache_prefix_hits", "cache_misses", "dedup_ratio",
        "elapsed_micros", "traces_per_sec", "threads", "entries",
    ]).map_err(at)?;
    let traces = traces.u64().map_err(at)?;
    let full = full.u64().map_err(at)?;
    let prefix = prefix.u64().map_err(at)?;
    let misses = misses.u64().map_err(at)?;
    let dedup_ratio = dedup_ratio.f64().map_err(at)?;
    elapsed_micros.u64().map_err(at)?;
    traces_per_sec.f64().map_err(at)?;
    threads.u64().map_err(at)?;
    let entries = entries.array().map_err(at)?;
    let rows = entries.len();

    let mut hits = Vec::new();
    for (index, entry) in entries.enumerate() {
        let location = format!("payload.entries[{index}]");
        let at = |e: FieldError| malformed(e.to_string()).at(&location);
        #[rustfmt::skip]
        let [file, tasks, periods, hit, seeded, fingerprint, hypotheses, converged] = entry.object([
            "file", "tasks", "periods", "hit", "seeded_periods", "model_fingerprint", "hypotheses",
            "converged",
        ]).map_err(at)?;
        let file = file.str().map_err(at)?;
        let tasks = tasks.u64().map_err(at)?;
        let periods = periods.u64().map_err(at)?;
        let hit = hit.str().map_err(at)?;
        let seeded = seeded.u64().map_err(at)?;
        let fingerprint = fingerprint.hex().map_err(at)?;
        hypotheses.u64().map_err(at)?;
        converged.bool().map_err(at)?;
        if !matches!(hit, "full" | "prefix" | "miss") {
            let message = format!("`hit` is `{hit}`, not full/prefix/miss");
            return Err(malformed(message).at(location));
        }
        if tasks == 0 || seeded > periods {
            out.push(
                Diagnostic::new(
                    &codes::CORPUS_BOOKKEEPING,
                    Severity::Warning,
                    artifact,
                    format!("{tasks} task(s), {seeded} of {periods} period(s) seeded"),
                )
                .at(location),
            );
        }
        if hit != "miss" {
            hits.push(CorpusHit {
                index,
                file: file.to_string(),
                fingerprint,
            });
        }
    }

    // Counter consistency: the aggregates must describe the entry rows.
    if full + prefix + misses != traces || rows as u64 != traces {
        out.push(
            warning(
                &codes::CORPUS_BOOKKEEPING,
                artifact,
                format!(
                    "{traces} trace(s) claimed, but {full} full + {prefix} prefix + {misses} \
                     miss over {rows} entry row(s)"
                ),
            )
            .at("payload"),
        );
    } else if traces > 0 {
        let expected = (traces - misses) as f64 / traces as f64;
        if (dedup_ratio - expected).abs() > 1e-5 {
            out.push(
                warning(
                    &codes::CORPUS_BOOKKEEPING,
                    artifact,
                    format!(
                        "dedup_ratio is {dedup_ratio:.6} but the hit counts give {expected:.6}"
                    ),
                )
                .at("payload.dedup_ratio"),
            );
        }
    }
    Ok(hits)
}

/// Cross-document pass over one corpus report: every cache-hit row must
/// name a model fingerprint some checkpoint under the report's directory
/// (the cache dir lives there in a default run) still verifiably holds.
/// A directory with no checkpoints at all — a report archived away from
/// its run — has nothing to resolve against and is skipped.
pub(crate) fn cross_check_corpus(
    artifact: &str,
    dir: &Path,
    hits: &[CorpusHit],
    out: &mut Vec<Diagnostic>,
) {
    if hits.is_empty() {
        return;
    }
    let mut known: BTreeSet<u64> = BTreeSet::new();
    let mut any = false;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(iter) = fs::read_dir(&current) else {
            continue;
        };
        for path in iter.filter_map(|e| e.ok().map(|e| e.path())) {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "ckpt") {
                any = true;
                if let Ok(ckpt) = Checkpoint::load(&path) {
                    known.insert(ckpt.fingerprint());
                }
            }
        }
    }
    if !any {
        return;
    }
    for hit in hits {
        if !known.contains(&hit.fingerprint) {
            out.push(
                error(
                    &codes::CORPUS_UNRESOLVED,
                    artifact,
                    format!(
                        "`{}` was served model {:016x}, which no checkpoint under `{}` holds",
                        hit.file,
                        hit.fingerprint,
                        dir.display()
                    ),
                )
                .at(format!("payload.entries[{}]", hit.index)),
            );
        }
    }
}

/// Cross-document pass over one roster: every referenced checkpoint must
/// exist next to the roster, parse cleanly, and agree on the absorbed
/// period count.
pub(crate) fn cross_check_roster(
    artifact: &str,
    dir: &Path,
    roster: &Roster,
    out: &mut Vec<Diagnostic>,
) {
    for entry in roster.iter() {
        let location = format!("source {}", entry.source);
        let path = dir.join(&entry.checkpoint);
        if !path.is_file() {
            out.push(
                error(
                    &codes::ROSTER_MISSING,
                    artifact,
                    format!(
                        "entry `{}` references `{}`, which does not exist",
                        entry.source, entry.checkpoint
                    ),
                )
                .at(location),
            );
            continue;
        }
        match Checkpoint::load(&path) {
            Err(err) => out.push(
                error(
                    &codes::ROSTER_UNPARSEABLE,
                    artifact,
                    format!(
                        "entry `{}` references `{}`, which fails audit: {err}",
                        entry.source, entry.checkpoint
                    ),
                )
                .at(location),
            ),
            Ok(ckpt) => {
                if entry.periods > ckpt.pushed_periods as u64 {
                    out.push(
                        warning(
                            &codes::ROSTER_PERIODS,
                            artifact,
                            format!(
                                "entry `{}` claims {} absorbed period(s) but `{}` holds {}",
                                entry.source, entry.periods, entry.checkpoint, ckpt.pushed_periods
                            ),
                        )
                        .at(location),
                    );
                }
            }
        }
    }
}

/// Cross-snapshot pass: `seq` must be strictly monotone, and uptime must
/// not regress while `seq` advances, across snapshots of one kind in one
/// directory (audited in path order).
pub(crate) fn cross_check_snapshots(snapshots: &[(String, u64, u64)], out: &mut Vec<Diagnostic>) {
    for pair in snapshots.windows(2) {
        let (ref earlier, seq_a, uptime_a) = pair[0];
        let (ref later, seq_b, uptime_b) = pair[1];
        if seq_b <= seq_a {
            out.push(warning(
                &codes::SEQ_NOT_MONOTONE,
                later,
                format!("seq {seq_b} does not advance past seq {seq_a} of {earlier}"),
            ));
        } else if uptime_b < uptime_a {
            out.push(warning(
                &codes::UPTIME_REGRESSED,
                later,
                format!(
                    "uptime {uptime_b}us is younger than {uptime_a}us of {earlier} despite a later seq"
                ),
            ));
        }
    }
}

/// Replay-consistency pass: re-learn the first `pushed_periods` periods
/// of `trace` under the checkpoint's effective options and compare
/// antichain fingerprints. Only deterministic prefixes are replayed —
/// runs that degraded mid-stream, carried a wall-clock budget, or were
/// stopped by a budget cannot be reproduced from options alone and
/// report [`codes::REPLAY_INCONCLUSIVE`] instead of guessing.
pub(crate) fn replay_checkpoint(
    artifact: &str,
    ckpt: &Checkpoint,
    trace: &Trace,
    out: &mut Vec<Diagnostic>,
) {
    let inconclusive = |message: String| {
        Diagnostic::new(
            &codes::REPLAY_INCONCLUSIVE,
            Severity::Warning,
            artifact,
            message,
        )
    };
    if trace.task_count() != ckpt.tasks {
        out.push(inconclusive(format!(
            "trace is over {} task(s), checkpoint over {}; replay skipped",
            trace.task_count(),
            ckpt.tasks
        )));
        return;
    }
    if ckpt.options.budget.max_wall_clock.is_some() {
        out.push(inconclusive(
            "run carried a wall-clock budget, which replays nondeterministically; skipped".into(),
        ));
        return;
    }
    if ckpt.stats.fallbacks > 0 {
        out.push(inconclusive(
            "run degraded exact\u{2192}bounded mid-stream; a fresh replay cannot reproduce the \
             antichain-seeded fallback, skipped"
                .into(),
        ));
        return;
    }
    if ckpt
        .stats
        .skipped_periods
        .iter()
        .any(|s| matches!(s.cause, bbmg_core::SkipCause::BudgetExhausted))
    {
        out.push(inconclusive(
            "run was stopped by a step budget; prefix replay would recount steps, skipped".into(),
        ));
        return;
    }
    if trace.periods().len() < ckpt.pushed_periods {
        out.push(inconclusive(format!(
            "trace holds {} period(s) but the checkpoint absorbed {}; wrong or truncated trace",
            trace.periods().len(),
            ckpt.pushed_periods
        )));
        return;
    }

    let mut learner =
        IncrementalLearner::new(ckpt.tasks, ckpt.options).with_fallback_bound(ckpt.fallback_bound);
    let prefix = &trace.periods()[..ckpt.pushed_periods];
    match learner.drive(prefix, &mut NoopObserver, |_, _, _, _| {
        Ok::<_, LearnError>(())
    }) {
        Ok(true) => {}
        Ok(false) => {
            out.push(inconclusive(
                "replay hit the step budget, which the original run did not record; options \
                 and trace disagree"
                    .into(),
            ));
            return;
        }
        Err(err) => {
            out.push(error(
                &codes::REPLAY_MISMATCH,
                artifact,
                format!("replay failed where the original run succeeded: {err}"),
            ));
            return;
        }
    }
    let replayed = learner.fingerprint();
    let stored = ckpt.fingerprint();
    if replayed != stored {
        out.push(error(
            &codes::REPLAY_MISMATCH,
            artifact,
            format!(
                "re-learning {} period(s) yields antichain {replayed:016x}, checkpoint holds \
                 {stored:016x} (if the original run repaired its trace, replay the repaired trace)",
                ckpt.pushed_periods
            ),
        ));
    }
}
