//! `bbmg-audit`: a multi-pass static analyzer for model artifacts,
//! lattice invariants, and on-disk protocol documents.
//!
//! Every durable artifact the toolchain writes — `bbmg-ckpt/1`
//! checkpoints, `bbmg-roster/1` rosters, `bbmg-health/1` and
//! `bbmg-metrics/2` snapshots, `bbmg-btrace/1` binary traces,
//! `bbmg-corpus/1` ingest reports, `bbmg-bench-*` reports — is a contract
//! with a future process that will trust it blindly. This crate checks
//! those contracts *offline*, before anything resumes from them:
//!
//! 1. **Packed-encoding validity** — every 3-bit lattice cell decodes to
//!    one of the seven values and padding bits are canonically zero, so
//!    `fingerprint()` is well-defined ([`bbmg_lattice::invariant`]).
//! 2. **Antichain invariant** — no stored hypothesis dominates another.
//! 3. **Checkpoint deep-verify** — shape vs the declared universe,
//!    checksum recomputation, and canonical re-encode byte-equality.
//! 4. **Cross-document consistency** — roster entries resolve to
//!    parseable checkpoints that hold at least the claimed periods;
//!    snapshot `seq` values advance; state words are known.
//! 5. **Replay consistency** — optionally re-learn the trace prefix a
//!    checkpoint claims to have absorbed and diff antichain fingerprints.
//! 6. **Benchmark rules** — a `bbmg-bench-*` report must meet its schema's
//!    shape and performance-floor rules ([`bbmg_bench::rules`]), the same
//!    ones its harness checked before writing it.
//!
//! Findings carry stable `BBMG0xx` codes (see [`diag::codes`]) so CI and
//! scripts can match on them; [`AuditReport::to_json`] emits the
//! machine-readable `bbmg-audit/1` document. The same lattice kernels run
//! in-process when the `debug-invariants` cargo feature of `bbmg-core` /
//! `bbmg-serve` is enabled, so offline and runtime checking cannot drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
mod passes;
mod report;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use bbmg_obs::json::{self, Json};
use bbmg_obs::{Event, NoopObserver, Observer};
use bbmg_serve::Roster;
use bbmg_trace::{is_btrace, parse_csv, parse_trace, Trace};

pub use diag::{codes, Code, Diagnostic, Severity};
pub use report::AuditReport;

/// Schema tag of the machine-readable audit report, the single
/// definition every consumer must reference (enforced by
/// `examples/tidy.rs`).
pub const AUDIT_SCHEMA: &str = "bbmg-audit/1";

/// What to audit and how strictly.
#[derive(Debug, Clone, Default)]
pub struct AuditOptions {
    /// Trace to replay checkpoints against (pass 5). `None` skips the
    /// replay pass entirely.
    pub replay: Option<PathBuf>,
    /// Treat warnings as fatal for the exit policy
    /// ([`AuditReport::is_clean`]).
    pub deny_warnings: bool,
}

/// The artifact kinds the analyzer knows how to deep-verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArtifactKind {
    Checkpoint,
    Roster,
    Health,
    Metrics,
    Bench,
    Corpus,
}

/// Per-directory accumulator for the cross-document pass.
#[derive(Default)]
struct DirDocs {
    /// Rosters audited in this directory (artifact label + parsed value).
    rosters: Vec<(String, Roster)>,
    /// `(artifact, seq, uptime_us)` of health snapshots, in path order.
    health: Vec<(String, u64, u64)>,
    /// `(artifact, seq, uptime_us)` of metrics snapshots, in path order.
    metrics: Vec<(String, u64, u64)>,
    /// Cache-hit rows of corpus reports audited in this directory.
    corpus: Vec<(String, Vec<passes::CorpusHit>)>,
}

/// Audits `paths` (files or directories, recursively) and returns the
/// aggregated report. Directories contribute their `.ckpt`, `.json`,
/// and `.btrace` files; JSON documents without a recognized `bbmg-*`
/// schema tag are skipped in a walk and flagged [`codes::UNRECOGNIZED`]
/// when named explicitly.
#[must_use]
pub fn audit_paths(paths: &[PathBuf], options: &AuditOptions) -> AuditReport {
    audit_paths_with(paths, options, &mut NoopObserver)
}

/// [`audit_paths`], additionally emitting one
/// [`Event::AuditFinding`](bbmg_obs::Event) per diagnostic to `observer`.
pub fn audit_paths_with<O: Observer + ?Sized>(
    paths: &[PathBuf],
    options: &AuditOptions,
    observer: &mut O,
) -> AuditReport {
    let mut diags = Vec::new();
    let mut files_audited = 0usize;

    // Gather candidates first so the report is deterministic in the
    // order artifacts are named, with directory contents path-sorted.
    let mut candidates: Vec<(PathBuf, bool)> = Vec::new();
    for path in paths {
        collect(path, true, &mut candidates, &mut diags, &mut files_audited);
    }

    let trace = options
        .replay
        .as_deref()
        .and_then(|path| load_trace(path, &mut diags, &mut files_audited));

    let mut dirs: BTreeMap<PathBuf, DirDocs> = BTreeMap::new();
    for (path, explicit) in candidates {
        audit_candidate(
            &path,
            explicit,
            trace.as_ref(),
            &mut dirs,
            &mut diags,
            &mut files_audited,
        );
    }

    // Cross-document pass, one directory at a time.
    for (dir, docs) in &dirs {
        for (artifact, roster) in &docs.rosters {
            passes::cross_check_roster(artifact, dir, roster, &mut diags);
        }
        passes::cross_check_snapshots(&docs.health, &mut diags);
        passes::cross_check_snapshots(&docs.metrics, &mut diags);
        for (artifact, hits) in &docs.corpus {
            passes::cross_check_corpus(artifact, dir, hits, &mut diags);
        }
    }

    if observer.is_enabled() {
        for diag in &diags {
            observer.record(Event::AuditFinding {
                code: diag.code.id.to_string(),
                severity: diag.severity.to_string(),
                artifact: diag.artifact.clone(),
                message: diag.message.clone(),
            });
        }
    }

    AuditReport {
        diagnostics: diags,
        files_audited,
    }
}

/// Expands one input path into audit candidates. Explicit files are
/// always candidates; directories are walked recursively in sorted
/// order, keeping only `.ckpt` / `.json` entries.
fn collect(
    path: &Path,
    explicit: bool,
    out: &mut Vec<(PathBuf, bool)>,
    diags: &mut Vec<Diagnostic>,
    files_audited: &mut usize,
) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = match fs::read_dir(path) {
            Ok(iter) => iter.filter_map(|e| e.ok().map(|e| e.path())).collect(),
            Err(err) => {
                *files_audited += 1;
                diags.push(unreadable(path, &err.to_string()));
                return;
            }
        };
        entries.sort();
        for entry in entries {
            if entry.is_dir() {
                collect(&entry, false, out, diags, files_audited);
            } else {
                let ext = entry.extension().and_then(|e| e.to_str()).unwrap_or("");
                if ext == "ckpt" || ext == "json" || ext == "btrace" {
                    out.push((entry, false));
                }
            }
        }
    } else if path.is_file() {
        out.push((path.to_path_buf(), explicit));
    } else {
        *files_audited += 1;
        diags.push(unreadable(path, "no such file or directory"));
    }
}

fn unreadable(path: &Path, message: &str) -> Diagnostic {
    Diagnostic::new(
        &codes::UNREADABLE,
        Severity::Error,
        path.display().to_string(),
        message,
    )
}

/// Classifies and deep-verifies one candidate file, recording parsed
/// documents in `dirs` for the cross-document pass.
fn audit_candidate(
    path: &Path,
    explicit: bool,
    trace: Option<&Trace>,
    dirs: &mut BTreeMap<PathBuf, DirDocs>,
    diags: &mut Vec<Diagnostic>,
    files_audited: &mut usize,
) {
    let artifact = path.display().to_string();
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) => {
            *files_audited += 1;
            diags.push(unreadable(path, &err.to_string()));
            return;
        }
    };
    // Binary traces are sniffed on bytes, before any UTF-8 expectation:
    // a `.btrace` extension claims the format even when the magic is
    // gone, so damage inside the header is still our finding.
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    if ext == "btrace" || is_btrace(&bytes) {
        *files_audited += 1;
        passes::audit_btrace(&artifact, &bytes, diags);
        return;
    }
    let text = match String::from_utf8(bytes) {
        Ok(text) => text,
        Err(_) => {
            *files_audited += 1;
            diags.push(unreadable(path, "not valid UTF-8 (and not a binary trace)"));
            return;
        }
    };
    let Some(kind) = classify(path, &text, explicit, diags, files_audited) else {
        return;
    };
    *files_audited += 1;
    let dir = path
        .parent()
        .unwrap_or_else(|| Path::new("."))
        .to_path_buf();
    match kind {
        ArtifactKind::Checkpoint => {
            if let Some(ckpt) = passes::audit_checkpoint(&artifact, &text, diags) {
                if let Some(trace) = trace {
                    passes::replay_checkpoint(&artifact, &ckpt, trace, diags);
                }
            }
        }
        ArtifactKind::Roster => {
            if let Some(roster) = passes::audit_roster(&artifact, &text, diags) {
                dirs.entry(dir)
                    .or_default()
                    .rosters
                    .push((artifact, roster));
            }
        }
        ArtifactKind::Health => {
            if let Some((seq, uptime)) = passes::audit_health(&artifact, &text, diags) {
                dirs.entry(dir)
                    .or_default()
                    .health
                    .push((artifact, seq, uptime));
            }
        }
        ArtifactKind::Metrics => {
            if let Some((seq, uptime)) = passes::audit_metrics(&artifact, &text, diags) {
                dirs.entry(dir)
                    .or_default()
                    .metrics
                    .push((artifact, seq, uptime));
            }
        }
        ArtifactKind::Corpus => {
            if let Some(hits) = passes::audit_corpus(&artifact, &text, diags) {
                dirs.entry(dir).or_default().corpus.push((artifact, hits));
            }
        }
        ArtifactKind::Bench => passes::audit_bench(&artifact, &text, diags),
    }
}

/// Decides what a file is. Returns `None` when the file is not ours
/// (walked JSON without a bbmg tag) or when classification itself
/// produced the final diagnostic.
fn classify(
    path: &Path,
    text: &str,
    explicit: bool,
    diags: &mut Vec<Diagnostic>,
    files_audited: &mut usize,
) -> Option<ArtifactKind> {
    let artifact = path.display().to_string();
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    // `.ckpt` is always a checkpoint: the pass itself reports torn JSON,
    // wrong tags, and everything deeper.
    if ext == "ckpt" {
        return Some(ArtifactKind::Checkpoint);
    }
    let root = match json::parse(text) {
        Ok(root) => root,
        Err(err) => {
            // In a walk, only claim files that at least *look* like ours
            // (a bbmg schema tag survives most torn writes, which
            // truncate the tail, not the head).
            if explicit || text.contains("\"schema\":\"bbmg-") {
                *files_audited += 1;
                diags.push(Diagnostic::new(
                    &codes::NOT_JSON,
                    Severity::Error,
                    artifact,
                    format!("not valid JSON: {err}"),
                ));
            }
            return None;
        }
    };
    let tag = root.get("schema").and_then(Json::as_str);
    match tag {
        Some(bbmg_core::CHECKPOINT_SCHEMA) => Some(ArtifactKind::Checkpoint),
        Some(bbmg_serve::ROSTER_SCHEMA) => Some(ArtifactKind::Roster),
        Some(bbmg_serve::HEALTH_SCHEMA) => Some(ArtifactKind::Health),
        Some(bbmg_obs::METRICS_SCHEMA) => Some(ArtifactKind::Metrics),
        Some(bbmg_core::CORPUS_SCHEMA) => Some(ArtifactKind::Corpus),
        Some(bbmg_bench::BENCH_LEARNER_SCHEMA)
        | Some(bbmg_bench::BENCH_SERVE_SCHEMA)
        | Some(bbmg_bench::BENCH_OBSERVER_SCHEMA)
        | Some(bbmg_bench::BENCH_CORPUS_SCHEMA) => Some(ArtifactKind::Bench),
        Some(found) if found.starts_with("bbmg-") => {
            *files_audited += 1;
            diags.push(Diagnostic::new(
                &codes::SCHEMA_VERSION,
                Severity::Error,
                artifact,
                format!("schema `{found}` is not one this analyzer understands"),
            ));
            None
        }
        _ => {
            if explicit {
                *files_audited += 1;
                diags.push(Diagnostic::new(
                    &codes::UNRECOGNIZED,
                    Severity::Warning,
                    artifact,
                    "no bbmg schema tag; nothing to audit",
                ));
            }
            None
        }
    }
}

/// Loads the `--replay` trace (native or CSV, sniffed like the CLI
/// does). A trace that cannot be loaded is itself a finding.
fn load_trace(
    path: &Path,
    diags: &mut Vec<Diagnostic>,
    files_audited: &mut usize,
) -> Option<Trace> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            *files_audited += 1;
            diags.push(unreadable(path, &err.to_string()));
            return None;
        }
    };
    let body = text.strip_prefix('\u{feff}').unwrap_or(&text);
    let first = body.lines().next().unwrap_or("").trim_end_matches('\r');
    let parsed = if first == "time,kind,subject,period" {
        parse_csv(body).map_err(|e| e.to_string())
    } else {
        parse_trace(body).map_err(|e| e.to_string())
    };
    match parsed {
        Ok(trace) => Some(trace),
        Err(message) => {
            *files_audited += 1;
            diags.push(Diagnostic::new(
                &codes::UNREADABLE,
                Severity::Error,
                path.display().to_string(),
                format!("replay trace failed to parse: {message}"),
            ));
            None
        }
    }
}
