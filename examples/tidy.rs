//! Source-level tidy lint for the workspace (no external deps) — the
//! satellite checks `bbmg audit` cannot do because they are about the
//! *source tree*, not artifacts:
//!
//! 1. Every crate root carries `#![forbid(unsafe_code)]`.
//! 2. No `.unwrap(` in non-test library code — recoverable failures use
//!    `Result`, invariants use `.expect("why this holds")`.
//! 3. `.expect(` in non-test library code only in the allowlisted files
//!    (each use documents an invariant; new files must justify
//!    themselves here).
//! 4. Every on-disk schema tag (`bbmg-ckpt/1`, `bbmg-roster/1`,
//!    `bbmg-health/1`, `bbmg-metrics/2`, `bbmg-bench-*`, `bbmg-audit/1`)
//!    is defined in exactly one constant; all other non-test source
//!    references go through that constant, and DESIGN.md + README.md
//!    document every tag.
//! 5. One hex reader: in non-test code, `from_str_radix(` with radix 16
//!    appears only in `crates/obs/src/json.rs`. Everything else reads
//!    hex through `bbmg_obs::json::hex_u64`, which accepts only the 16
//!    lower-case digits our writers emit.
//!
//! Run with: `cargo run --example tidy` — exits nonzero on any finding.
//! CI runs this next to clippy.

use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to use `.expect(` in non-test code. Keep sorted.
const EXPECT_ALLOWLIST: &[&str] = &[
    "crates/bench/src/lib.rs",
    "crates/cli/src/args.rs",
    "crates/cli/src/commands.rs",
    "crates/core/src/incremental.rs",
    "crates/core/src/learner.rs",
    "crates/core/src/options.rs",
    "crates/core/src/pool.rs",
    "crates/lattice/src/arena.rs",
    "crates/lattice/src/task.rs",
    "crates/moc/src/model.rs",
    "crates/obs/src/json.rs",
    "crates/serve/src/lib.rs",
    "crates/sim/src/bus.rs",
    "crates/sim/src/cpu.rs",
    "crates/sim/src/engine.rs",
    "crates/trace/src/csv.rs",
    "crates/trace/src/event.rs",
    "crates/trace/src/format.rs",
    "crates/workloads/src/gm.rs",
    "crates/workloads/src/random.rs",
    "crates/workloads/src/simple.rs",
];

/// The one file allowed to parse hex with `from_str_radix` (rule 5).
const HEX_READER: &str = "crates/obs/src/json.rs";

/// Each schema tag with the one file allowed to spell it out (the
/// constant's definition site). `crates/cli/src/args.rs` additionally
/// mentions tags inside the `bbmg help` text, which is documentation.
fn schema_tags() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            bbmg::core::CHECKPOINT_SCHEMA,
            "crates/core/src/checkpoint.rs",
        ),
        (bbmg::serve::ROSTER_SCHEMA, "crates/serve/src/roster.rs"),
        (bbmg::serve::HEALTH_SCHEMA, "crates/serve/src/health.rs"),
        (bbmg::obs::METRICS_SCHEMA, "crates/obs/src/metrics.rs"),
        (bbmg::audit::AUDIT_SCHEMA, "crates/audit/src/lib.rs"),
        (bbmg::trace::BTRACE_SCHEMA, "crates/trace/src/binary.rs"),
        (bbmg::core::CORPUS_SCHEMA, "crates/core/src/cache.rs"),
        (bbmg_bench::BENCH_LEARNER_SCHEMA, "crates/bench/src/lib.rs"),
        (bbmg_bench::BENCH_SERVE_SCHEMA, "crates/bench/src/lib.rs"),
        (bbmg_bench::BENCH_OBSERVER_SCHEMA, "crates/bench/src/lib.rs"),
        (bbmg_bench::BENCH_CORPUS_SCHEMA, "crates/bench/src/lib.rs"),
    ]
}

/// Collects `.rs` files under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            rust_files(&entry, out);
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
}

/// The non-test prefix of a source file: everything before the first
/// `#[cfg(test)]`, with comment-only lines dropped (doc comments and
/// prose legitimately mention forbidden spellings).
fn code_lines(text: &str) -> Vec<(usize, &str)> {
    let mut lines = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        lines.push((number + 1, line));
    }
    lines
}

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let rel = |path: &Path| {
        path.strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/")
    };
    let mut findings: Vec<String> = Vec::new();

    // Library sources: every crate's src tree plus the facade.
    let mut lib_sources = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut crate_dirs: Vec<PathBuf> =
            entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        crate_dirs.sort();
        for crate_dir in crate_dirs {
            rust_files(&crate_dir.join("src"), &mut lib_sources);
        }
    }
    rust_files(&root.join("src"), &mut lib_sources);

    // Rule 1: unsafe is forbidden at every crate root.
    for lib in lib_sources.iter().filter(|p| {
        p.file_name().is_some_and(|n| n == "lib.rs")
            && p.parent().is_some_and(|d| d.ends_with("src"))
    }) {
        let text = fs::read_to_string(lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            findings.push(format!("{}: missing #![forbid(unsafe_code)]", rel(lib)));
        }
    }

    // Rules 2 + 3: unwrap/expect discipline in non-test library code.
    for source in &lib_sources {
        let text = fs::read_to_string(source).unwrap_or_default();
        let path = rel(source);
        for (number, line) in code_lines(&text) {
            if line.contains(".unwrap(") {
                findings.push(format!(
                    "{path}:{number}: `.unwrap(` in library code — return a Result or \
                     use `.expect(\"invariant\")`"
                ));
            }
            if line.contains(".expect(") && !EXPECT_ALLOWLIST.contains(&path.as_str()) {
                findings.push(format!(
                    "{path}:{number}: `.expect(` in a file not on the tidy allowlist — \
                     justify it in examples/tidy.rs or return a Result"
                ));
            }
        }
    }

    // Rule 4: schema tags are spelled out once, at the constant.
    let mut tag_scan = lib_sources.clone();
    rust_files(&root.join("examples"), &mut tag_scan);
    for (tag, home) in schema_tags() {
        for source in &tag_scan {
            let path = rel(source);
            // The defining file and the CLI help text may spell the tag.
            if path == home || path == "crates/cli/src/args.rs" {
                continue;
            }
            let text = fs::read_to_string(source).unwrap_or_default();
            for (number, line) in code_lines(&text) {
                if line.contains(tag) {
                    findings.push(format!(
                        "{path}:{number}: raw schema tag `{tag}` — reference the \
                         constant defined in {home}"
                    ));
                }
            }
        }
        let home_text = fs::read_to_string(root.join(home)).unwrap_or_default();
        let definitions = code_lines(&home_text)
            .iter()
            .filter(|(_, line)| line.contains(tag))
            .count();
        if definitions != 1 {
            findings.push(format!(
                "{home}: schema tag `{tag}` appears {definitions} time(s) in code; \
                 expected exactly the one constant definition"
            ));
        }
        for doc in ["DESIGN.md", "README.md"] {
            let text = fs::read_to_string(root.join(doc)).unwrap_or_default();
            if !text.contains(tag) {
                findings.push(format!("{doc}: schema tag `{tag}` is undocumented"));
            }
        }
    }

    // Rule 5: one hex reader. A call may wrap across lines, so each
    // `from_str_radix(` is read up to its closing parenthesis.
    for source in &tag_scan {
        let path = rel(source);
        if path == HEX_READER {
            continue;
        }
        let text = fs::read_to_string(source).unwrap_or_default();
        let lines = code_lines(&text);
        for (i, (number, line)) in lines.iter().enumerate() {
            let Some(at) = line.find("from_str_radix(") else {
                continue;
            };
            let call: String = std::iter::once(&line[at..])
                .chain(lines[i + 1..].iter().map(|(_, next)| *next))
                .collect::<Vec<_>>()
                .concat();
            let args = call.split(')').next().unwrap_or_default();
            if args.contains("16") {
                findings.push(format!(
                    "{path}:{number}: hex parsed with `from_str_radix` — use \
                     `bbmg_obs::json::hex_u64` ({HEX_READER} is the one hex reader)"
                ));
            }
        }
    }

    if findings.is_empty() {
        println!("tidy: clean");
        return;
    }
    for finding in &findings {
        println!("tidy: {finding}");
    }
    std::process::exit(1);
}
