//! Shape and floor rules for every `bbmg-bench-*` artifact.
//!
//! [`check`] dispatches on the document's `schema` tag. Every schema is
//! strict: each object is read by the shared reader,
//! [`bbmg_obs::json::fields`], against its keys, so unknown, missing,
//! reordered and duplicate fields are all violations, and each median
//! must be one of the samples it summarises. Beyond shape, the
//! rules hold the performance floors, each only where the recorded host
//! can witness it:
//!
//! - learner: no floor; each row's median must be one of its samples;
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

use bbmg_obs::json::{self, Field, FieldError, Json};

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

/// `value`'s fields, read by [`json::fields`] against `keys`; a refusal
/// lists the keys expected and found.
fn object<'a, const N: usize>(
    value: &'a Json,
    context: &str,
    keys: [&'static str; N],
) -> Result<[Field<'a>; N], String> {
    json::fields(value, keys).map_err(|_| match value {
        Json::Object(fields) => {
            let found: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            format!("{context}: expected fields {keys:?}, found {found:?}")
        }
        _ => format!("{context}: expected an object"),
    })
}

/// Names the object a refused read is in.
trait At<T> {
    fn at(self, context: &str) -> Result<T, String>;
}

impl<T> At<T> for Result<T, FieldError> {
    fn at(self, context: &str) -> Result<T, String> {
        self.map_err(|e| format!("{context}: {e}"))
    }
}

fn at_least_one(field: Field<'_>, context: &str) -> Result<u64, String> {
    match field.u64().at(context)? {
        0 => Err(format!("{context}: {} must be at least 1", field.key)),
        n => Ok(n),
    }
}

fn positive(field: Field<'_>, context: &str) -> Result<f64, String> {
    match field.f64().at(context)? {
        x if x > 0.0 => Ok(x),
        _ => Err(format!("{context}: {} must be positive", field.key)),
    }
}

/// The items of the root's array `items`, which must hold one object per
/// entry of `names`, in order, each naming itself in a `name` field.
/// Returns each item with its context label.
fn named_items<'a>(items: Field<'a>, names: &[&str]) -> Result<Vec<(&'a Json, String)>, String> {
    let key = items.key;
    let items = items.array().at("root")?;
    if items.len() != names.len() {
        return Err(format!(
            "{key} has {} entries, expected {}",
            items.len(),
            names.len()
        ));
    }
    items
        .zip(names)
        .map(|(item, name)| {
            let context = format!("{key}[{name}]");
            if item.value.get("name").and_then(Json::as_str) == Some(name) {
                Ok((item.value, context))
            } else {
                Err(format!("{context}: name must be \"{name}\""))
            }
        })
        .collect()
}

/// The `median` and the `micros` samples of one timed row: `iterations`
/// non-negative integers, the median one of them.
fn sampled_median(
    median: Field<'_>,
    micros: Field<'_>,
    context: &str,
    iterations: u64,
) -> Result<(u64, Vec<u64>), String> {
    let median = median.u64().at(context)?;
    let items = micros.array().at(context)?;
    if items.len() as u64 != iterations {
        return Err(format!(
            "{context}: micros has {} samples, expected {iterations}",
            items.len()
        ));
    }
    let samples: Vec<u64> = items
        .map(Field::u64)
        .collect::<Result<_, _>>()
        .at(context)?;
    if !samples.contains(&median) {
        return Err(format!(
            "{context}: median_micros {median} is not one of the samples"
        ));
    }
    Ok((median, samples))
}

fn learner(document: &Json) -> Result<(), String> {
    let [_, cpu_threads, iterations, quick, kernels, workloads] = object(
        document,
        "root",
        [
            "schema",
            "cpu_threads",
            "iterations",
            "quick",
            "kernels",
            "workloads",
        ],
    )?;
    at_least_one(cpu_threads, "root")?;
    let iterations = at_least_one(iterations, "root")?;
    quick.bool().at("root")?;

    for (kernel, context) in named_items(kernels, &["leq", "join", "weight"])? {
        let [_, scalar, packed, speedup] = object(
            kernel,
            &context,
            [
                "name",
                "scalar_median_micros",
                "packed_median_micros",
                "speedup",
            ],
        )?;
        scalar.u64().at(&context)?;
        packed.u64().at(&context)?;
        positive(speedup, &context)?;
    }

    for (workload, context) in named_items(workloads, &["exact_blowup", "bounded_random"])? {
        let [_, median, micros] = object(workload, &context, ["name", "median_micros", "micros"])?;
        sampled_median(median, micros, &context, iterations)?;
    }
    Ok(())
}

fn serve(document: &Json) -> Result<(), String> {
    let [_, workload, periods, cpu_threads, quick, runs, shedding] = object(
        document,
        "root",
        [
            "schema",
            "workload",
            "periods_per_source",
            "cpu_threads",
            "quick",
            "runs",
            "shedding",
        ],
    )?;
    workload.str().at("root")?;
    let periods = at_least_one(periods, "root")?;
    at_least_one(cpu_threads, "root")?;
    quick.bool().at("root")?;

    let runs = runs.array().at("root")?;
    let expected_shards = [1u64, 2, 4];
    if runs.len() != expected_shards.len() {
        return Err(format!(
            "runs has {} entries, expected {}",
            runs.len(),
            expected_shards.len()
        ));
    }
    for (run, expected) in runs.zip(expected_shards) {
        let context = format!("runs[shards={expected}]");
        #[rustfmt::skip]
        let [shards, events, elapsed, events_per_sec, p50, p95, shed_periods, shed_events] =
            object(run.value, &context, [
                "shards", "events", "elapsed_micros", "events_per_sec", "p50_period_micros",
                "p95_period_micros", "shed_periods", "shed_events",
            ])?;
        if shards.u64().at(&context)? != expected {
            return Err(format!("{context}: shards must be {expected}"));
        }
        let events = events.u64().at(&context)?;
        if events != expected * periods * 6 {
            return Err(format!(
                "{context}: events {events} does not match shards x periods x 6"
            ));
        }
        at_least_one(elapsed, &context)?;
        at_least_one(events_per_sec, &context)?;
        let p50 = p50.u64().at(&context)?;
        let p95 = p95.u64().at(&context)?;
        if p95 < p50 {
            return Err(format!("{context}: p95 must be at least p50"));
        }
        if shed_periods.u64().at(&context)? != 0 || shed_events.u64().at(&context)? != 0 {
            return Err(format!("{context}: healthy runs must shed nothing"));
        }
    }

    let [watermark, shed_periods, shed_events, events_per_sec] = object(
        shedding.value,
        "shedding",
        [
            "watermark_words",
            "shed_periods",
            "shed_events",
            "events_per_sec",
        ],
    )?;
    if watermark.u64().at("shedding")? != 0 {
        return Err("shedding: watermark_words must be 0".into());
    }
    if shed_periods.u64().at("shedding")? == 0 {
        return Err("shedding: shed_periods must be positive (the ladder fired)".into());
    }
    at_least_one(events_per_sec, "shedding")?;
    shed_events.u64().at("shedding")?;
    Ok(())
}

fn corpus(document: &Json) -> Result<(), String> {
    let [_, cpu_threads, iterations, quick, parse, corpus, checkpoint] = object(
        document,
        "root",
        [
            "schema",
            "cpu_threads",
            "iterations",
            "quick",
            "parse",
            "corpus",
            "checkpoint",
        ],
    )?;
    at_least_one(cpu_threads, "root")?;
    at_least_one(iterations, "root")?;
    quick.bool().at("root")?;

    #[rustfmt::skip]
    let [
        tasks, periods, samples, csv_bytes, btrace_bytes, split_median, csv_median, csv_speedup,
        btrace_median, btrace_speedup,
    ] = object(parse.value, "parse", [
        "tasks", "periods", "samples", "csv_bytes", "btrace_bytes", "csv_split_median_micros",
        "csv_median_micros", "csv_speedup", "btrace_median_micros", "btrace_speedup",
    ])?;
    for count in [tasks, periods, samples, csv_bytes, btrace_bytes] {
        at_least_one(count, "parse")?;
    }
    for median in [split_median, csv_median, btrace_median] {
        median.u64().at("parse")?;
    }
    let csv_speedup = csv_speedup.f64().at("parse")?;
    if csv_speedup < 1.0 {
        return Err(format!(
            "parse: csv_speedup {csv_speedup:.2} is below the 1.0 no-regression floor \
             (byte-slice parser must not lose to the allocating reference)"
        ));
    }
    let btrace_speedup = btrace_speedup.f64().at("parse")?;
    if btrace_speedup < 3.0 {
        return Err(format!(
            "parse: btrace_speedup {btrace_speedup:.2} is below the 3.0x floor \
             for binary decode vs CSV parse"
        ));
    }

    #[rustfmt::skip]
    let [files, unique, ratio, cold_median, cold_rate, warm_median, warm_rate, warm_speedup] =
        object(corpus.value, "corpus", [
            "files", "unique", "duplicate_ratio", "cold_median_micros", "cold_traces_per_sec",
            "warm_median_micros", "warm_traces_per_sec", "warm_speedup",
        ])?;
    let files = files.u64().at("corpus")?;
    let unique = unique.u64().at("corpus")?;
    if unique == 0 || unique > files {
        return Err("corpus: unique must be in 1..=files".into());
    }
    let duplicate_ratio = ratio.f64().at("corpus")?;
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
    at_least_one(cold_median, "corpus")?;
    at_least_one(warm_median, "corpus")?;
    positive(cold_rate, "corpus")?;
    positive(warm_rate, "corpus")?;
    let warm_speedup = warm_speedup.f64().at("corpus")?;
    if warm_speedup < 5.0 {
        return Err(format!(
            "corpus: warm_speedup {warm_speedup:.2} is below the 5.0x floor \
             for a warm cache over a 90%-duplicate corpus"
        ));
    }
    corpus_checkpoint(checkpoint.value)
}

fn corpus_checkpoint(checkpoint: &Json) -> Result<(), String> {
    let context = "checkpoint";
    #[rustfmt::skip]
    let [
        tasks, samples, small_hypotheses, small_bytes, small_median, small_per_kb,
        large_hypotheses, large_bytes, large_median, large_per_kb, scaling,
    ] = object(checkpoint, context, [
        "tasks", "samples", "small_hypotheses", "small_bytes", "small_median_micros",
        "small_micros_per_kb", "large_hypotheses", "large_bytes", "large_median_micros",
        "large_micros_per_kb", "checkpoint_scaling",
    ])?;
    at_least_one(tasks, context)?;
    at_least_one(samples, context)?;
    let mut per_kb = [0.0; 2];
    let mut sizes = [(0, 0); 2];
    for (i, (size, [hypotheses, bytes, micros, stored])) in [
        (
            "small",
            [small_hypotheses, small_bytes, small_median, small_per_kb],
        ),
        (
            "large",
            [large_hypotheses, large_bytes, large_median, large_per_kb],
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let hypotheses = hypotheses.u64().at(context)?;
        let bytes = bytes.u64().at(context)?;
        let micros = micros.u64().at(context)?;
        let stored = stored.f64().at(context)?;
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
    let scaling = scaling.f64().at(context)?;
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
    #[rustfmt::skip]
    let [_, workload, cpu_threads, iterations, variants, overhead, serve_workload, serve_variants] =
        object(document, "root", [
            "schema", "workload", "cpu_threads", "iterations", "variants",
            "noop_overhead_percent", "serve_workload", "serve_variants",
        ])?;
    workload.str().at("root")?;
    at_least_one(cpu_threads, "root")?;
    let iterations = at_least_one(iterations, "root")?;
    serve_workload.str().at("root")?;
    let mut medians = Vec::new();
    for (items, names) in [
        (
            variants,
            &["uninstrumented", "noop", "recorder", "jsonl"][..],
        ),
        (
            serve_variants,
            &["serve_noop", "serve_recorder", "serve_jsonl"][..],
        ),
    ] {
        for (variant, context) in named_items(items, names)? {
            let [_, median, micros] =
                object(variant, &context, ["name", "median_micros", "micros"])?;
            medians.push(sampled_median(median, micros, &context, iterations)?.0);
        }
    }
    let base = medians[0].max(1) as f64;
    let expected = 100.0 * (medians[1] as f64 - base) / base;
    let stored = overhead.f64().at("root")?;
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
        fields(&mut missing, &[]).retain(|(key, _)| key != "kernels");
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
        let row = at(&mut learner, &["workloads", "1"]);
        *at(row, &["median_micros"]) = 0_u64.into();
        *at(row, &["micros", "0"]) = 1_u64.into();
        rejects(
            &learner,
            "workloads[bounded_random]: median_micros 0 is not one of the samples",
        );

        let mut observer = doc(OBSERVER);
        *at(&mut observer, &["serve_variants", "2", "median_micros"]) = 1_u64.into();
        rejects(&observer, "serve_variants[serve_jsonl]: median_micros 1");
    }

    #[test]
    fn learner_rejects_thread_rows_and_a_missing_workload() {
        let mut threaded = doc(LEARNER);
        fields(&mut threaded, &["workloads", "0"]).push(("threads".into(), Json::Array(vec![])));
        rejects(&threaded, "workloads[exact_blowup]: expected fields");

        let mut short = doc(LEARNER);
        match at(&mut short, &["workloads"]) {
            Json::Array(rows) => {
                rows.pop();
            }
            _ => panic!("workloads is an array"),
        }
        rejects(&short, "workloads has 1 entries, expected 2");
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
