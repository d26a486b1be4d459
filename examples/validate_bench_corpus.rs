//! Validates a `BENCH_corpus.json` artifact against the strict
//! `bbmg-bench-corpus/2` schema — unknown, missing and duplicate fields
//! are all errors. Beyond shape, the validator enforces the tentpole's
//! performance floors unconditionally (they hold on every host the
//! benchmark has been run on, including single-core containers):
//!
//! - `parse.csv_speedup >= 1.0` — the byte-slice CSV parser must never
//!   lose to the allocating split-based reference.
//! - `parse.btrace_speedup >= 3.0` — decoding the binary trace format
//!   must beat re-parsing the equivalent CSV by at least 3x.
//! - `corpus.warm_speedup >= 5.0` — a warm model cache over the
//!   90%-duplicate corpus must ingest at least 5x faster than the cold
//!   first pass.
//! - `checkpoint.checkpoint_scaling <= 2.0` — parsing the large synthetic
//!   checkpoint may cost at most 2x as much per KB as the small one:
//!   checkpoint loads stay linear in the document's size.
//!
//! Run with: `cargo run --example validate_bench_corpus -- BENCH_corpus.json`

use bbmg::obs::json::{parse, Json};

/// Checks that `value` is an object with exactly `keys` (order-sensitive,
/// duplicates rejected) and returns its fields.
fn exact_object<'a>(
    value: &'a Json,
    context: &str,
    keys: &[&str],
) -> Result<&'a [(String, Json)], String> {
    let Json::Object(fields) = value else {
        return Err(format!("{context}: expected an object"));
    };
    let found: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!(
            "{context}: expected fields {keys:?}, found {found:?}"
        ));
    }
    Ok(fields)
}

fn u64_field(value: &Json, context: &str, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{context}: {key} must be a non-negative integer"))
}

fn f64_field(value: &Json, context: &str, key: &str) -> Result<f64, String> {
    value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{context}: {key} must be a number"))
}

fn validate(document: &Json) -> Result<(), String> {
    exact_object(
        document,
        "root",
        &[
            "schema",
            "cpu_threads",
            "iterations",
            "quick",
            "parse",
            "corpus",
            "checkpoint",
        ],
    )?;
    match document.get("schema").and_then(Json::as_str) {
        Some(tag) if tag == bbmg_bench::BENCH_CORPUS_SCHEMA => {}
        other => {
            return Err(format!(
                "schema must be \"{}\", got {other:?}",
                bbmg_bench::BENCH_CORPUS_SCHEMA
            ))
        }
    }
    if u64_field(document, "root", "cpu_threads")? == 0 {
        return Err("cpu_threads must be at least 1".into());
    }
    if u64_field(document, "root", "iterations")? == 0 {
        return Err("iterations must be at least 1".into());
    }
    if !matches!(document.get("quick"), Some(Json::Bool(_))) {
        return Err("quick must be a boolean".into());
    }

    let parse = document
        .get("parse")
        .ok_or_else(|| "parse must be present".to_string())?;
    exact_object(
        parse,
        "parse",
        &[
            "tasks",
            "periods",
            "samples",
            "csv_bytes",
            "btrace_bytes",
            "csv_split_median_micros",
            "csv_median_micros",
            "csv_speedup",
            "btrace_median_micros",
            "btrace_speedup",
        ],
    )?;
    if u64_field(parse, "parse", "tasks")? == 0 {
        return Err("parse: tasks must be at least 1".into());
    }
    if u64_field(parse, "parse", "periods")? == 0 {
        return Err("parse: periods must be at least 1".into());
    }
    if u64_field(parse, "parse", "samples")? == 0 {
        return Err("parse: samples must be at least 1".into());
    }
    if u64_field(parse, "parse", "csv_bytes")? == 0 {
        return Err("parse: csv_bytes must be at least 1".into());
    }
    if u64_field(parse, "parse", "btrace_bytes")? == 0 {
        return Err("parse: btrace_bytes must be at least 1".into());
    }
    u64_field(parse, "parse", "csv_split_median_micros")?;
    u64_field(parse, "parse", "csv_median_micros")?;
    u64_field(parse, "parse", "btrace_median_micros")?;
    let csv_speedup = f64_field(parse, "parse", "csv_speedup")?;
    if csv_speedup < 1.0 {
        return Err(format!(
            "parse: csv_speedup {csv_speedup:.2} is below the 1.0 no-regression floor \
             (byte-slice parser must not lose to the allocating reference)"
        ));
    }
    let btrace_speedup = f64_field(parse, "parse", "btrace_speedup")?;
    if btrace_speedup < 3.0 {
        return Err(format!(
            "parse: btrace_speedup {btrace_speedup:.2} is below the 3.0x floor \
             for binary decode vs CSV parse"
        ));
    }

    let corpus = document
        .get("corpus")
        .ok_or_else(|| "corpus must be present".to_string())?;
    exact_object(
        corpus,
        "corpus",
        &[
            "files",
            "unique",
            "duplicate_ratio",
            "cold_median_micros",
            "cold_traces_per_sec",
            "warm_median_micros",
            "warm_traces_per_sec",
            "warm_speedup",
        ],
    )?;
    let files = u64_field(corpus, "corpus", "files")?;
    let unique = u64_field(corpus, "corpus", "unique")?;
    if unique == 0 || unique > files {
        return Err("corpus: unique must be in 1..=files".into());
    }
    let duplicate_ratio = f64_field(corpus, "corpus", "duplicate_ratio")?;
    let expected_ratio = (files - unique) as f64 / files as f64;
    if (duplicate_ratio - expected_ratio).abs() > 0.01 {
        return Err(format!(
            "corpus: duplicate_ratio {duplicate_ratio:.2} disagrees with \
             (files - unique) / files = {expected_ratio:.2}"
        ));
    }
    if duplicate_ratio < 0.9 {
        return Err(format!(
            "corpus: duplicate_ratio {duplicate_ratio:.2} is below the 0.9 the \
             warm-speedup floor is calibrated for"
        ));
    }
    if u64_field(corpus, "corpus", "cold_median_micros")? == 0 {
        return Err("corpus: cold_median_micros must be at least 1".into());
    }
    if u64_field(corpus, "corpus", "warm_median_micros")? == 0 {
        return Err("corpus: warm_median_micros must be at least 1".into());
    }
    if f64_field(corpus, "corpus", "cold_traces_per_sec")? <= 0.0 {
        return Err("corpus: cold_traces_per_sec must be positive".into());
    }
    if f64_field(corpus, "corpus", "warm_traces_per_sec")? <= 0.0 {
        return Err("corpus: warm_traces_per_sec must be positive".into());
    }
    let warm_speedup = f64_field(corpus, "corpus", "warm_speedup")?;
    if warm_speedup < 5.0 {
        return Err(format!(
            "corpus: warm_speedup {warm_speedup:.2} is below the 5.0x floor \
             for a warm cache over a 90%-duplicate corpus"
        ));
    }
    validate_checkpoint(
        document
            .get("checkpoint")
            .ok_or_else(|| "checkpoint must be present".to_string())?,
    )
}

fn validate_checkpoint(checkpoint: &Json) -> Result<(), String> {
    exact_object(
        checkpoint,
        "checkpoint",
        &[
            "tasks",
            "samples",
            "small_hypotheses",
            "small_bytes",
            "small_median_micros",
            "small_micros_per_kb",
            "large_hypotheses",
            "large_bytes",
            "large_median_micros",
            "large_micros_per_kb",
            "checkpoint_scaling",
        ],
    )?;
    if u64_field(checkpoint, "checkpoint", "tasks")? == 0 {
        return Err("checkpoint: tasks must be at least 1".into());
    }
    if u64_field(checkpoint, "checkpoint", "samples")? == 0 {
        return Err("checkpoint: samples must be at least 1".into());
    }
    let mut per_kb = [0.0; 2];
    let mut sizes = [(0, 0); 2];
    for (i, size) in ["small", "large"].into_iter().enumerate() {
        let hypotheses = u64_field(checkpoint, "checkpoint", &format!("{size}_hypotheses"))?;
        let bytes = u64_field(checkpoint, "checkpoint", &format!("{size}_bytes"))?;
        let micros = u64_field(checkpoint, "checkpoint", &format!("{size}_median_micros"))?;
        let stored = f64_field(checkpoint, "checkpoint", &format!("{size}_micros_per_kb"))?;
        if hypotheses == 0 || bytes == 0 || micros == 0 {
            return Err(format!(
                "checkpoint: {size}_hypotheses, {size}_bytes and {size}_median_micros \
                 must be at least 1"
            ));
        }
        let expected = micros as f64 * 1024.0 / bytes as f64;
        if (stored - expected).abs() > 0.001 + expected * 1e-6 {
            return Err(format!(
                "checkpoint: {size}_micros_per_kb {stored:.3} disagrees with \
                 {size}_median_micros * 1024 / {size}_bytes = {expected:.3}"
            ));
        }
        per_kb[i] = expected;
        sizes[i] = (hypotheses, bytes);
    }
    if sizes[1].0 < 8 * sizes[0].0 || sizes[1].1 <= sizes[0].1 {
        return Err(format!(
            "checkpoint: the large checkpoint ({} hypotheses, {} bytes) must hold at \
             least 8x the small one's {} hypotheses and more bytes than its {}",
            sizes[1].0, sizes[1].1, sizes[0].0, sizes[0].1
        ));
    }
    let scaling = f64_field(checkpoint, "checkpoint", "checkpoint_scaling")?;
    let expected = per_kb[1] / per_kb[0];
    if (scaling - expected).abs() > 0.005 + expected * 1e-6 {
        return Err(format!(
            "checkpoint: checkpoint_scaling {scaling:.2} disagrees with \
             large_micros_per_kb / small_micros_per_kb = {expected:.3}"
        ));
    }
    if scaling > 2.0 {
        return Err(format!(
            "checkpoint: checkpoint_scaling {scaling:.2} is above the 2.0 linearity floor \
             (parse cost per KB must not grow with the checkpoint's size)"
        ));
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .ok_or("usage: validate_bench_corpus <BENCH_corpus.json>")?;
    let text = std::fs::read_to_string(&path)?;
    let document = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    validate(&document).map_err(|e| {
        format!(
            "{path} does not conform to {}: {e}",
            bbmg_bench::BENCH_CORPUS_SCHEMA
        )
    })?;
    println!("{path}: valid {} artifact", bbmg_bench::BENCH_CORPUS_SCHEMA);
    Ok(())
}
