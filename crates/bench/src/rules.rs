//! Shape and floor rules for every `bbmg-bench-*` artifact.
//!
//! [`check`] dispatches on the document's `schema` tag. Every schema is
//! strict: each object carries exactly its fields, in order, so unknown,
//! missing, reordered and duplicate fields are all violations, and each
//! median must be one of the samples it summarises. Beyond shape, the
//! rules hold the performance floors, each only where the recorded host
//! can witness it:
//!
//! - learner: every row after a workload's 1-thread baseline keeps its
//!   best sample within 0.95x of the baseline median (the parallel
//!   regression guard); rows whose thread count fits in `cpu_threads`
//!   keep a median ≥ 0.75x; on a full run from a host with ≥ 4 threads,
//!   `bounded_random` reaches ≥ 3.0x at 4 threads. A baseline under
//!   500 µs is too quick to time and carries no floor;
//! - serve: healthy runs shed nothing, and the zero-watermark run sheds;
//! - corpus: byte-slice CSV ≥ 1.0x the allocating reference, binary
//!   decode ≥ 3.0x CSV, warm cache ≥ 5.0x cold, and checkpoint parse cost
//!   per KB at the large size ≤ 2.0x the small one's;
//! - observer: no floor (the host's own spread is wider than the 2%
//!   no-op bar), but `noop_overhead_percent` must agree with the medians.
//!
//! These rules are the only definition of each floor.
//! [`write_artifact`](crate::runner::write_artifact) runs them before it
//! writes an artifact, and `bbmg audit` runs them on a committed one.

use bbmg_obs::json::Json;

use crate::{BENCH_CORPUS_SCHEMA, BENCH_LEARNER_SCHEMA, BENCH_OBSERVER_SCHEMA, BENCH_SERVE_SCHEMA};

/// Checks `document` against the rules of the benchmark schema its
/// `schema` tag names.
///
/// # Errors
///
/// The first violation found, naming where it is, or an unknown tag.
pub fn check(document: &Json) -> Result<(), String> {
    match document.get("schema").and_then(Json::as_str) {
        Some(BENCH_LEARNER_SCHEMA) => learner(document),
        Some(BENCH_SERVE_SCHEMA) => serve(document),
        Some(BENCH_CORPUS_SCHEMA) => corpus(document),
        Some(BENCH_OBSERVER_SCHEMA) => observer(document),
        other => Err(format!(
            "schema {other:?} is not a benchmark artifact schema"
        )),
    }
}

/// Checks that `value` is an object with exactly `keys`, in order.
fn exact_object(value: &Json, context: &str, keys: &[&str]) -> Result<(), String> {
    let Json::Object(fields) = value else {
        return Err(format!("{context}: expected an object"));
    };
    let found: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!(
            "{context}: expected fields {keys:?}, found {found:?}"
        ));
    }
    Ok(())
}

fn field<'a>(value: &'a Json, context: &str, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: {key} must be present"))
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

fn at_least_one(value: &Json, context: &str, key: &str) -> Result<u64, String> {
    match u64_field(value, context, key)? {
        0 => Err(format!("{context}: {key} must be at least 1")),
        n => Ok(n),
    }
}

fn positive(value: &Json, context: &str, key: &str) -> Result<f64, String> {
    match f64_field(value, context, key)? {
        x if x > 0.0 => Ok(x),
        _ => Err(format!("{context}: {key} must be positive")),
    }
}

fn bool_field(value: &Json, context: &str, key: &str) -> Result<bool, String> {
    match value.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("{context}: {key} must be a boolean")),
    }
}

fn str_field<'a>(value: &'a Json, context: &str, key: &str) -> Result<&'a str, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{context}: {key} must be a string"))
}

fn array_field<'a>(value: &'a Json, context: &str, key: &str) -> Result<&'a [Json], String> {
    match value.get(key) {
        Some(Json::Array(items)) => Ok(items),
        _ => Err(format!("{context}: {key} must be an array")),
    }
}

/// The root's `key` array, which must hold one object per entry of
/// `names`, in order, each naming itself in a `name` field. Returns each
/// item with its context label.
fn named_items<'a>(
    document: &'a Json,
    key: &str,
    names: &[&str],
) -> Result<Vec<(&'a Json, String)>, String> {
    let items = array_field(document, "root", key)?;
    if items.len() != names.len() {
        return Err(format!(
            "{key} has {} entries, expected {}",
            items.len(),
            names.len()
        ));
    }
    items
        .iter()
        .zip(names)
        .map(|(item, name)| {
            let context = format!("{key}[{name}]");
            if item.get("name").and_then(Json::as_str) == Some(name) {
                Ok((item, context))
            } else {
                Err(format!("{context}: name must be \"{name}\""))
            }
        })
        .collect()
}

/// The `micros` sample list of `value`, which must hold `iterations`
/// non-negative integers.
fn micros_list(value: &Json, context: &str, iterations: u64) -> Result<Vec<u64>, String> {
    let items = array_field(value, context, "micros")?;
    if items.len() as u64 != iterations {
        return Err(format!(
            "{context}: micros has {} samples, expected {iterations}",
            items.len()
        ));
    }
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("{context}: micros entries must be non-negative integers"))
        })
        .collect()
}

/// `median_micros` and the `micros` samples of `value`; the median must
/// be one of the samples.
fn sampled_median(value: &Json, context: &str, iterations: u64) -> Result<(u64, Vec<u64>), String> {
    let median = u64_field(value, context, "median_micros")?;
    let samples = micros_list(value, context, iterations)?;
    if !samples.contains(&median) {
        return Err(format!(
            "{context}: median_micros {median} is not one of the samples"
        ));
    }
    Ok((median, samples))
}

/// A 1-thread baseline median below this is too quick to time reliably,
/// and is the size class the learner's word-count gates keep sequential
/// anyway, so its rows carry no floor.
const MIN_TIMED_BASELINE_MICROS: u64 = 500;

fn learner(document: &Json) -> Result<(), String> {
    exact_object(
        document,
        "root",
        &[
            "schema",
            "cpu_threads",
            "iterations",
            "quick",
            "kernels",
            "pool",
            "workloads",
        ],
    )?;
    let cpu_threads = at_least_one(document, "root", "cpu_threads")?;
    let iterations = at_least_one(document, "root", "iterations")?;
    let quick = bool_field(document, "root", "quick")?;

    for (kernel, context) in named_items(document, "kernels", &["leq", "join", "weight"])? {
        exact_object(
            kernel,
            &context,
            &[
                "name",
                "scalar_median_micros",
                "packed_median_micros",
                "speedup",
            ],
        )?;
        u64_field(kernel, &context, "scalar_median_micros")?;
        u64_field(kernel, &context, "packed_median_micros")?;
        positive(kernel, &context, "speedup")?;
    }

    let pool = field(document, "root", "pool")?;
    exact_object(
        pool,
        "pool",
        &[
            "workers",
            "dispatches",
            "cold_spawn_micros",
            "warm_dispatch_micros",
            "speedup",
        ],
    )?;
    at_least_one(pool, "pool", "workers")?;
    at_least_one(pool, "pool", "dispatches")?;
    u64_field(pool, "pool", "cold_spawn_micros")?;
    u64_field(pool, "pool", "warm_dispatch_micros")?;
    positive(pool, "pool", "speedup")?;

    for (workload, context) in
        named_items(document, "workloads", &["exact_blowup", "bounded_random"])?
    {
        exact_object(workload, &context, &["name", "threads"])?;
        let rows = array_field(workload, &context, "threads")?;
        if rows.is_empty() {
            return Err(format!("{context}: threads must not be empty"));
        }
        let mut base_median = None;
        for row in rows {
            let threads = u64_field(row, &context, "threads")?;
            let row_context = format!("{context}.threads[{threads}]");
            exact_object(
                row,
                &row_context,
                &["threads", "median_micros", "micros", "speedup_vs_1"],
            )?;
            if threads == 0 {
                return Err(format!("{row_context}: threads must be at least 1"));
            }
            let (median, samples) = sampled_median(row, &row_context, iterations)?;
            let baseline_row = base_median.is_none();
            if baseline_row && threads != 1 {
                return Err(format!(
                    "{context}: first row must be the 1-thread baseline"
                ));
            }
            let base = *base_median.get_or_insert(median);
            let speedup = positive(row, &row_context, "speedup_vs_1")?;
            if base < MIN_TIMED_BASELINE_MICROS {
                continue;
            }
            // Parallel regression guard: adding workers must never cost a
            // timed workload its single-thread speed. A row is judged on
            // its best sample: a dispatch-cost regression slows every
            // sample, while scheduler noise on a busy host spikes some.
            let best = samples.iter().copied().min().unwrap_or(0).max(1);
            let best_ratio = base as f64 / best as f64;
            if !baseline_row && best_ratio < 0.95 {
                return Err(format!(
                    "{row_context}: best sample is {best_ratio:.2}x the 1-thread median, \
                     below the 0.95 parallel regression guard"
                ));
            }
            // Median floors, only where the host could witness them.
            if threads > cpu_threads {
                continue;
            }
            if speedup < 0.75 {
                return Err(format!(
                    "{row_context}: speedup_vs_1 {speedup:.2} is below the 0.75 no-regression floor"
                ));
            }
            let scaling_row = workload.get("name").and_then(Json::as_str) == Some("bounded_random")
                && threads == 4;
            if !quick && scaling_row && speedup < 3.0 {
                return Err(format!(
                    "{row_context}: speedup_vs_1 {speedup:.2} is below the 3.0x scaling floor \
                     for bounded_random at 4 threads on a >=4-thread host"
                ));
            }
        }
    }
    Ok(())
}

fn serve(document: &Json) -> Result<(), String> {
    exact_object(
        document,
        "root",
        &[
            "schema",
            "workload",
            "periods_per_source",
            "cpu_threads",
            "quick",
            "runs",
            "shedding",
        ],
    )?;
    str_field(document, "root", "workload")?;
    let periods = at_least_one(document, "root", "periods_per_source")?;
    at_least_one(document, "root", "cpu_threads")?;
    bool_field(document, "root", "quick")?;

    let runs = array_field(document, "root", "runs")?;
    let expected_shards = [1u64, 2, 4];
    if runs.len() != expected_shards.len() {
        return Err(format!(
            "runs has {} entries, expected {}",
            runs.len(),
            expected_shards.len()
        ));
    }
    for (run, expected) in runs.iter().zip(expected_shards) {
        let context = format!("runs[shards={expected}]");
        exact_object(
            run,
            &context,
            &[
                "shards",
                "events",
                "elapsed_micros",
                "events_per_sec",
                "p50_period_micros",
                "p95_period_micros",
                "shed_periods",
                "shed_events",
            ],
        )?;
        if u64_field(run, &context, "shards")? != expected {
            return Err(format!("{context}: shards must be {expected}"));
        }
        let events = u64_field(run, &context, "events")?;
        if events != expected * periods * 6 {
            return Err(format!(
                "{context}: events {events} does not match shards x periods x 6"
            ));
        }
        at_least_one(run, &context, "elapsed_micros")?;
        at_least_one(run, &context, "events_per_sec")?;
        let p50 = u64_field(run, &context, "p50_period_micros")?;
        let p95 = u64_field(run, &context, "p95_period_micros")?;
        if p95 < p50 {
            return Err(format!("{context}: p95 must be at least p50"));
        }
        if u64_field(run, &context, "shed_periods")? != 0
            || u64_field(run, &context, "shed_events")? != 0
        {
            return Err(format!("{context}: healthy runs must shed nothing"));
        }
    }

    let shedding = field(document, "root", "shedding")?;
    exact_object(
        shedding,
        "shedding",
        &[
            "watermark_words",
            "shed_periods",
            "shed_events",
            "events_per_sec",
        ],
    )?;
    if u64_field(shedding, "shedding", "watermark_words")? != 0 {
        return Err("shedding: watermark_words must be 0".into());
    }
    if u64_field(shedding, "shedding", "shed_periods")? == 0 {
        return Err("shedding: shed_periods must be positive (the ladder fired)".into());
    }
    at_least_one(shedding, "shedding", "events_per_sec")?;
    u64_field(shedding, "shedding", "shed_events")?;
    Ok(())
}

fn corpus(document: &Json) -> Result<(), String> {
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
    at_least_one(document, "root", "cpu_threads")?;
    at_least_one(document, "root", "iterations")?;
    bool_field(document, "root", "quick")?;

    let parse = field(document, "root", "parse")?;
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
    for key in ["tasks", "periods", "samples", "csv_bytes", "btrace_bytes"] {
        at_least_one(parse, "parse", key)?;
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

    let corpus = field(document, "root", "corpus")?;
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
    at_least_one(corpus, "corpus", "cold_median_micros")?;
    at_least_one(corpus, "corpus", "warm_median_micros")?;
    positive(corpus, "corpus", "cold_traces_per_sec")?;
    positive(corpus, "corpus", "warm_traces_per_sec")?;
    let warm_speedup = f64_field(corpus, "corpus", "warm_speedup")?;
    if warm_speedup < 5.0 {
        return Err(format!(
            "corpus: warm_speedup {warm_speedup:.2} is below the 5.0x floor \
             for a warm cache over a 90%-duplicate corpus"
        ));
    }
    corpus_checkpoint(field(document, "root", "checkpoint")?)
}

fn corpus_checkpoint(checkpoint: &Json) -> Result<(), String> {
    let context = "checkpoint";
    exact_object(
        checkpoint,
        context,
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
    at_least_one(checkpoint, context, "tasks")?;
    at_least_one(checkpoint, context, "samples")?;
    let mut per_kb = [0.0; 2];
    let mut sizes = [(0, 0); 2];
    for (i, size) in ["small", "large"].into_iter().enumerate() {
        let hypotheses = u64_field(checkpoint, context, &format!("{size}_hypotheses"))?;
        let bytes = u64_field(checkpoint, context, &format!("{size}_bytes"))?;
        let micros = u64_field(checkpoint, context, &format!("{size}_median_micros"))?;
        let stored = f64_field(checkpoint, context, &format!("{size}_micros_per_kb"))?;
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
    let scaling = f64_field(checkpoint, context, "checkpoint_scaling")?;
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

fn observer(document: &Json) -> Result<(), String> {
    exact_object(
        document,
        "root",
        &[
            "schema",
            "workload",
            "cpu_threads",
            "iterations",
            "variants",
            "noop_overhead_percent",
            "serve_workload",
            "serve_variants",
        ],
    )?;
    str_field(document, "root", "workload")?;
    at_least_one(document, "root", "cpu_threads")?;
    let iterations = at_least_one(document, "root", "iterations")?;
    str_field(document, "root", "serve_workload")?;
    let mut medians = Vec::new();
    for (key, names) in [
        (
            "variants",
            &["uninstrumented", "noop", "recorder", "jsonl"][..],
        ),
        (
            "serve_variants",
            &["serve_noop", "serve_recorder", "serve_jsonl"][..],
        ),
    ] {
        for (variant, context) in named_items(document, key, names)? {
            exact_object(variant, &context, &["name", "median_micros", "micros"])?;
            medians.push(sampled_median(variant, &context, iterations)?.0);
        }
    }
    let base = medians[0].max(1) as f64;
    let expected = 100.0 * (medians[1] as f64 - base) / base;
    let stored = f64_field(document, "root", "noop_overhead_percent")?;
    if (stored - expected).abs() > 0.01 {
        return Err(format!(
            "root: noop_overhead_percent {stored:.2} disagrees with \
             100 * (noop - uninstrumented) / uninstrumented = {expected:.3}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbmg_obs::json::parse;

    const LEARNER: &str = include_str!("../../../BENCH_learner.json");
    const SERVE: &str = include_str!("../../../BENCH_serve.json");
    const CORPUS: &str = include_str!("../../../BENCH_corpus.json");
    const OBSERVER: &str = include_str!("../../../BENCH_observer.json");

    fn doc(text: &str) -> Json {
        parse(text).expect("committed artifact parses")
    }

    /// The value at `path` (object keys, or array indices as digits).
    fn at<'a>(value: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(value, |value, step| match value {
            Json::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(key, _)| key == step)
                    .expect("path key exists")
                    .1
            }
            Json::Array(items) => &mut items[step.parse::<usize>().expect("index")],
            _ => panic!("path {path:?} leaves the document at {step}"),
        })
    }

    fn fields<'a>(value: &'a mut Json, path: &[&str]) -> &'a mut Vec<(String, Json)> {
        match at(value, path) {
            Json::Object(fields) => fields,
            _ => panic!("{path:?} is not an object"),
        }
    }

    fn rejects(document: &Json, message: &str) {
        match check(document) {
            Err(err) => assert!(err.contains(message), "expected {message:?}, got {err:?}"),
            Ok(()) => panic!("expected {message:?}, but the document passed"),
        }
    }

    #[test]
    fn committed_artifacts_pass() {
        for text in [LEARNER, SERVE, CORPUS, OBSERVER] {
            assert_eq!(check(&doc(text)), Ok(()));
        }
    }

    #[test]
    fn unknown_schema_is_rejected() {
        rejects(
            &doc(r#"{"schema":"bbmg-bench-learner/2"}"#),
            "not a benchmark",
        );
        rejects(&doc("{}"), "not a benchmark");
    }

    #[test]
    fn missing_extra_and_reordered_fields_are_rejected() {
        let mut missing = doc(LEARNER);
        fields(&mut missing, &[]).retain(|(key, _)| key != "pool");
        rejects(&missing, "root: expected fields");

        let mut extra = doc(SERVE);
        fields(&mut extra, &["runs", "1"]).push(("retries".into(), 0_u64.into()));
        rejects(&extra, "runs[shards=2]: expected fields");

        let mut reordered = doc(CORPUS);
        fields(&mut reordered, &["checkpoint"]).swap(2, 3);
        rejects(&reordered, "checkpoint: expected fields");

        let mut renamed = doc(OBSERVER);
        fields(&mut renamed, &["variants", "1"])[0].0 = "label".into();
        rejects(&renamed, "variants[noop]: name must be \"noop\"");
    }

    #[test]
    fn a_median_must_be_one_of_its_samples() {
        let mut learner = doc(LEARNER);
        let row = at(&mut learner, &["workloads", "0", "threads", "1"]);
        *at(row, &["median_micros"]) = 0_u64.into();
        *at(row, &["micros", "0"]) = 1_u64.into();
        rejects(&learner, "median_micros 0 is not one of the samples");

        let mut observer = doc(OBSERVER);
        *at(&mut observer, &["serve_variants", "2", "median_micros"]) = 1_u64.into();
        rejects(&observer, "serve_variants[serve_jsonl]: median_micros 1");
    }

    #[test]
    fn learner_rejects_a_negative_speedup_and_a_missing_baseline() {
        let mut negative = doc(LEARNER);
        *at(
            &mut negative,
            &["workloads", "1", "threads", "2", "speedup_vs_1"],
        ) = (-1.0).into();
        rejects(&negative, "speedup_vs_1 must be positive");

        let mut headless = doc(LEARNER);
        match at(&mut headless, &["workloads", "0", "threads"]) {
            Json::Array(rows) => {
                rows.remove(0);
            }
            _ => panic!("threads is an array"),
        }
        rejects(&headless, "first row must be the 1-thread baseline");
    }

    /// A learner row whose median is the upper middle of `micros`.
    fn row(threads: u64, micros: &[u64], speedup: f64) -> Json {
        let mut sorted = micros.to_vec();
        sorted.sort_unstable();
        Json::object([
            ("threads", threads.into()),
            ("median_micros", sorted[sorted.len() / 2].into()),
            ("micros", micros.to_vec().into()),
            ("speedup_vs_1", speedup.into()),
        ])
    }

    /// The committed learner artifact re-hosted on `cpu_threads`, with
    /// 3 iterations, an untimed `exact_blowup`, and `bounded` as the
    /// `bounded_random` rows.
    fn learner(cpu_threads: u64, quick: bool, bounded: Vec<Json>) -> Json {
        let mut document = doc(LEARNER);
        *at(&mut document, &["cpu_threads"]) = cpu_threads.into();
        *at(&mut document, &["iterations"]) = 3_u64.into();
        *at(&mut document, &["quick"]) = quick.into();
        *at(&mut document, &["workloads", "0", "threads"]) =
            vec![row(1, &[100, 100, 100], 1.0)].into();
        *at(&mut document, &["workloads", "1", "threads"]) = bounded.into();
        document
    }

    #[test]
    fn learner_median_floor_holds_only_where_witnessed() {
        let slow_median = |base: u64, slow: u64| {
            vec![
                row(1, &[base, base, base], 1.0),
                row(2, &[slow, base, slow], 0.74),
            ]
        };
        rejects(
            &learner(2, false, slow_median(1000, 1351)),
            "workloads[bounded_random].threads[2]: speedup_vs_1 0.74 is below the 0.75",
        );
        // More threads than the host has, or a baseline too quick to time.
        assert_eq!(check(&learner(1, false, slow_median(1000, 1351))), Ok(()));
        assert_eq!(check(&learner(2, false, slow_median(499, 675))), Ok(()));
    }

    #[test]
    fn learner_best_of_guard_skips_only_untimed_baselines() {
        let slow_best = |base: u64, best: u64| {
            vec![
                row(1, &[base, base, base], 1.0),
                row(4, &[best, best, best], 0.94),
            ]
        };
        for cpu_threads in [1, 2, 4] {
            for quick in [false, true] {
                rejects(
                    &learner(cpu_threads, quick, slow_best(1000, 1064)),
                    "best sample is 0.94x the 1-thread median, below the 0.95",
                );
            }
        }
        assert_eq!(check(&learner(1, false, slow_best(1000, 1052))), Ok(()));
        assert_eq!(check(&learner(1, false, slow_best(499, 531))), Ok(()));
    }

    #[test]
    fn learner_scaling_floor_needs_a_full_run_on_four_threads() {
        let scaling = |base: u64| {
            vec![
                row(1, &[base, base, base], 1.0),
                row(2, &[base / 2; 3], 2.0),
                row(4, &[base * 100 / 299; 3], 2.99),
            ]
        };
        rejects(
            &learner(4, false, scaling(3000)),
            "threads[4]: speedup_vs_1 2.99 is below the 3.0x scaling floor",
        );
        assert_eq!(check(&learner(4, true, scaling(3000))), Ok(()));
        assert_eq!(check(&learner(2, false, scaling(3000))), Ok(()));
        assert_eq!(check(&learner(4, false, scaling(450))), Ok(()));
        let mut at_floor = scaling(3000);
        at_floor[2] = row(4, &[1000; 3], 3.0);
        assert_eq!(check(&learner(4, false, at_floor)), Ok(()));
    }

    #[test]
    fn serve_shed_checks() {
        let mut healthy_shed = doc(SERVE);
        *at(&mut healthy_shed, &["runs", "2", "shed_periods"]) = 1_u64.into();
        rejects(
            &healthy_shed,
            "runs[shards=4]: healthy runs must shed nothing",
        );
        let mut no_shed = doc(SERVE);
        *at(&mut no_shed, &["shedding", "shed_periods"]) = 0_u64.into();
        rejects(&no_shed, "shedding: shed_periods must be positive");
    }

    #[test]
    fn corpus_floors_reject_just_past_their_line() {
        for (path, past, at_line, message) in [
            (
                ["parse", "csv_speedup"],
                0.99,
                1.0,
                "csv_speedup 0.99 is below the 1.0",
            ),
            (
                ["parse", "btrace_speedup"],
                2.99,
                3.0,
                "btrace_speedup 2.99 is below the 3.0x",
            ),
            (
                ["corpus", "warm_speedup"],
                4.99,
                5.0,
                "warm_speedup 4.99 is below the 5.0x",
            ),
        ] {
            let mut document = doc(CORPUS);
            *at(&mut document, &path) = past.into();
            rejects(&document, message);
            *at(&mut document, &path) = at_line.into();
            assert_eq!(check(&document), Ok(()), "{path:?} at {at_line}");
        }
        // 100 us/KB for the small checkpoint against 201 (then 200) for
        // the large one.
        let scaled = |large_micros: u64, scaling: f64| {
            let mut document = doc(CORPUS);
            let checkpoint = at(&mut document, &["checkpoint"]);
            *at(checkpoint, &["small_bytes"]) = 1024_u64.into();
            *at(checkpoint, &["small_median_micros"]) = 100_u64.into();
            *at(checkpoint, &["small_micros_per_kb"]) = 100.0.into();
            *at(checkpoint, &["large_bytes"]) = 10_240_u64.into();
            *at(checkpoint, &["large_median_micros"]) = large_micros.into();
            *at(checkpoint, &["large_micros_per_kb"]) = (large_micros as f64 / 10.0).into();
            *at(checkpoint, &["checkpoint_scaling"]) = scaling.into();
            document
        };
        rejects(
            &scaled(2010, 2.01),
            "checkpoint_scaling 2.01 is above the 2.0",
        );
        assert_eq!(check(&scaled(2000, 2.0)), Ok(()));
        rejects(&scaled(2000, 1.5), "checkpoint_scaling 1.50 disagrees");
    }

    #[test]
    fn observer_overhead_must_agree_with_its_medians() {
        let mut document = doc(OBSERVER);
        let stored = at(&mut document, &["noop_overhead_percent"])
            .as_f64()
            .expect("a number");
        *at(&mut document, &["noop_overhead_percent"]) = (stored + 0.5).into();
        rejects(&document, "noop_overhead_percent");

        let mut short = doc(OBSERVER);
        *at(&mut short, &["iterations"]) = 8_u64.into();
        rejects(
            &short,
            "variants[uninstrumented]: micros has 7 samples, expected 8",
        );

        let mut reordered = doc(OBSERVER);
        match at(&mut reordered, &["serve_variants"]) {
            Json::Array(items) => items.swap(0, 1),
            _ => panic!("serve_variants is an array"),
        }
        rejects(&reordered, "serve_variants[serve_noop]: name must be");
    }
}
