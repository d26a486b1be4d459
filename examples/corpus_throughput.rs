//! Measures the corpus-ingest hot paths and writes the
//! `BENCH_corpus.json` artifact.
//!
//! Three sections:
//!
//! * **parse** — one generated trace serialized both ways, parsed back
//!   at three tiers: the pre-optimization CSV shape (`lines()` +
//!   `split(',')` into per-row `String` fields, kept here as a reference
//!   the same way `learner_throughput` keeps its scalar kernels), the
//!   byte-slice CSV parser the loaders now run, and the `bbmg-btrace/1`
//!   binary decoder. The reference must produce the identical [`Trace`]
//!   before its timing means anything.
//! * **corpus** — a 20-file, 90%-duplicate corpus (2 unique traces, 10
//!   copies each) driven through [`ModelCache::learn`]: a cold pass over
//!   a fresh cache directory (2 learns + 18 full hits) against a warm
//!   second pass (20 full hits). Cache hits return byte-identical
//!   results (see `tests/corpus.rs`), so only wall time differs.
//! * **checkpoint** — [`Checkpoint::parse_json`], the load behind every
//!   cache hit and `bbmg resume`, on two synthetic 18-task checkpoints
//!   (64 and 1,024 hypotheses; 64 and 512 with `--quick`). The cost per
//!   KB of the large one over the small one's is `checkpoint_scaling`:
//!   about 1 when loading is linear in the document's size.
//!
//! Floors asserted here and re-enforced by `validate_bench_corpus`:
//! binary parse ≥ 3x CSV, byte-slice CSV ≥ 1x the allocating reference,
//! warm corpus pass ≥ 5x the cold pass, `checkpoint_scaling` ≤ 2.
//! `cpu_threads` records what the host actually offered — a 1-core
//! container reports 1.
//!
//! Run with: `cargo run --release --example corpus_throughput`
//! (pass `--quick` for the CI smoke variant).

use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::time::Instant;

use bbmg::core::{CacheHit, Checkpoint, IncrementalLearner, LearnOptions, ModelCache};
use bbmg::lattice::{DependencyFunction, TaskId, TaskUniverse, ALL_VALUES};
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::{
    parse_btrace, parse_csv, write_btrace, write_csv, EventKind, MessageId, Timestamp, Trace,
    TraceBuilder,
};
use bbmg::workloads::random::{random_model, RandomModelConfig};
use rand::{Rng, SeedableRng};

/// Corpus shape: `FILES` traces of which `UNIQUE` are distinct — a 90%
/// duplicate ratio, the shape the cache is built for.
const FILES: usize = 20;
const UNIQUE: usize = 2;

/// Task count of the synthetic checkpoints: the GM case study's.
const CHECKPOINT_TASKS: usize = 18;

/// Timed parses of each synthetic checkpoint.
const CHECKPOINT_SAMPLES: usize = 21;

/// Hypothesis counts of the small and the large synthetic checkpoint.
fn checkpoint_sizes(quick: bool) -> (usize, usize) {
    if quick {
        (64, 512)
    } else {
        (64, 1024)
    }
}

fn iterations(quick: bool) -> usize {
    if quick {
        3
    } else {
        5
    }
}

/// Seeded random simulated workload, distinct per `seed`.
fn workload(tasks: usize, periods: usize, seed: u64) -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks,
        edge_probability: 0.3,
        seed,
        ..RandomModelConfig::default()
    });
    let config = SimConfig {
        periods,
        period_length: 100_000,
        seed,
        ..SimConfig::default()
    };
    Simulator::new(&model, config)
        .run()
        .expect("fixed workload simulates")
        .trace
}

/// Rebuilds `trace` under realistic task identifiers. The simulator
/// names tasks `t0`..`tN`; real captures carry component paths many
/// times that length, and name length is exactly what separates the
/// formats (CSV re-reads and re-hashes every `start`/`end` subject,
/// binary stores each name once in the task table).
fn with_long_names(trace: &Trace) -> Trace {
    let names: Vec<String> = trace
        .universe()
        .iter()
        .map(|(_, n)| format!("subsystem_{n}_sporadic_controller"))
        .collect();
    let mut builder = TraceBuilder::new(TaskUniverse::from_names(names));
    for period in trace.periods() {
        builder.begin_period();
        for event in period.events() {
            builder.event(event.time, event.kind).expect("valid replay");
        }
        builder.end_period().expect("valid replay");
    }
    builder.finish()
}

/// The pre-optimization CSV parser shape: every row split into freshly
/// allocated `String` fields, numbers re-parsed through `str::parse`.
/// Only handles well-formed writer output — it exists as a timing
/// baseline, not a loader.
fn parse_csv_split_alloc(input: &str) -> Trace {
    let mut universe = TaskUniverse::new();
    for line in input.lines().skip(1) {
        let fields: Vec<String> = line.split(',').map(|f| f.trim().to_string()).collect();
        if fields.len() == 4 && fields[1] == "start" && universe.lookup(&fields[2]).is_none() {
            universe.intern(&fields[2]);
        }
    }
    let mut builder = TraceBuilder::new(universe.clone());
    let mut current: Option<usize> = None;
    for line in input.lines().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<String> = line.split(',').map(|f| f.trim().to_string()).collect();
        let time: u64 = fields[0].parse().expect("time column");
        let period: usize = fields[3].parse().expect("period column");
        match current {
            Some(p) if p == period => {}
            Some(_) => {
                builder.end_period().expect("valid period");
                builder.begin_period();
                current = Some(period);
            }
            None => {
                builder.begin_period();
                current = Some(0);
            }
        }
        let kind = match fields[1].as_str() {
            "start" => EventKind::TaskStart(universe.lookup(&fields[2]).expect("known task")),
            "end" => EventKind::TaskEnd(universe.lookup(&fields[2]).expect("known task")),
            "rise" => {
                EventKind::MessageRise(MessageId::from_index(fields[2][1..].parse().expect("id")))
            }
            "fall" => {
                EventKind::MessageFall(MessageId::from_index(fields[2][1..].parse().expect("id")))
            }
            other => panic!("unknown kind {other}"),
        };
        builder
            .event(Timestamp::new(time), kind)
            .expect("valid event");
    }
    if current.is_some() {
        builder.end_period().expect("valid period");
    }
    builder.finish()
}

/// A checkpoint of a fresh 18-task learner whose antichain is replaced by
/// `hypotheses` seeded functions, every off-diagonal cell drawn from the
/// seven lattice values — words as varied as a long run's.
fn synthetic_checkpoint(hypotheses: usize) -> Checkpoint {
    let mut checkpoint =
        IncrementalLearner::new(CHECKPOINT_TASKS, LearnOptions::bounded(64)).checkpoint();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(hypotheses as u64);
    checkpoint.hypotheses = (0..hypotheses)
        .map(|_| {
            let mut function = DependencyFunction::bottom(CHECKPOINT_TASKS);
            for a in 0..CHECKPOINT_TASKS {
                for b in (0..CHECKPOINT_TASKS).filter(|&b| b != a) {
                    let value = ALL_VALUES[rng.gen_range(0..ALL_VALUES.len())];
                    function.set(TaskId::from_index(a), TaskId::from_index(b), value);
                }
            }
            function
        })
        .collect();
    checkpoint
}

/// Runs `f` `iterations` times and returns every wall time in micros.
fn time_micros(iterations: usize, mut f: impl FnMut()) -> Vec<u64> {
    (0..iterations)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
        })
        .collect()
}

fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[sorted.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = iterations(quick);
    let cpu_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // --- parse ---------------------------------------------------------
    let (parse_tasks, parse_periods) = if quick { (8, 40) } else { (12, 160) };
    let parse_trace = with_long_names(&workload(parse_tasks, parse_periods, 2007));
    let csv = write_csv(&parse_trace);
    let btrace = write_btrace(&parse_trace);
    // CSV infers the universe from first-appearance order, which may
    // differ from the simulator's interning order — so CSV parsers are
    // compared against the canonical CSV parse, and the binary decoder
    // (which preserves interning order exactly) against the original.
    let canonical = parse_csv(&csv).expect("own output");
    assert_eq!(
        parse_csv_split_alloc(&csv),
        canonical,
        "reference parser agrees"
    );
    assert_eq!(parse_btrace(&btrace).expect("own output"), parse_trace);

    // One parse per sample, many samples: a single parse is tens of
    // microseconds (well above clock granularity), and the median of a
    // large sample count shrugs off scheduler preemption spikes that
    // would skew a whole batched repetition on a busy 1-core host.
    let parse_samples = if quick { 100 } else { 300 };
    let split_median = median(&time_micros(parse_samples, || {
        std::hint::black_box(parse_csv_split_alloc(std::hint::black_box(&csv)));
    }));
    let csv_median = median(&time_micros(parse_samples, || {
        std::hint::black_box(parse_csv(std::hint::black_box(&csv)).expect("parses"));
    }));
    let btrace_median = median(&time_micros(parse_samples, || {
        std::hint::black_box(parse_btrace(std::hint::black_box(&btrace)).expect("parses"));
    }));
    let csv_speedup = split_median as f64 / csv_median.max(1) as f64;
    let btrace_speedup = csv_median as f64 / btrace_median.max(1) as f64;
    println!(
        "parse ({parse_tasks} tasks x {parse_periods} periods, median of {parse_samples} parses):"
    );
    println!(
        "{:<16} {:>10} us  ({} bytes)",
        "csv_split_alloc",
        split_median,
        csv.len()
    );
    println!(
        "{:<16} {:>10} us  {csv_speedup:>5.2}x vs split+alloc",
        "csv", csv_median
    );
    println!(
        "{:<16} {:>10} us  {btrace_speedup:>5.2}x vs csv  ({} bytes)",
        "btrace",
        btrace_median,
        btrace.len()
    );
    assert!(
        csv_speedup >= 1.0,
        "byte-slice CSV parse regressed below the allocating reference: {csv_speedup:.2}x"
    );
    assert!(
        btrace_speedup >= 3.0,
        "binary parse is only {btrace_speedup:.2}x CSV, below the 3x floor"
    );

    // --- corpus --------------------------------------------------------
    let (corpus_tasks, corpus_periods) = if quick { (10, 30) } else { (12, 60) };
    let unique: Vec<Trace> = (0..UNIQUE)
        .map(|i| workload(corpus_tasks, corpus_periods, 3000 + i as u64))
        .collect();
    let corpus: Vec<&Trace> = (0..FILES).map(|i| &unique[i % UNIQUE]).collect();
    let duplicate_ratio = (FILES - UNIQUE) as f64 / FILES as f64;
    let options = LearnOptions::bounded(64);
    let dir = std::env::temp_dir().join(format!("bbmg-bench-corpus-{}", std::process::id()));

    let mut cold_samples = Vec::with_capacity(iters);
    let mut warm_samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ModelCache::open(&dir, NonZeroUsize::new(64).expect("nonzero"))?;

        let start = Instant::now();
        let mut misses = 0usize;
        for trace in &corpus {
            if matches!(cache.learn(trace, options)?.hit, CacheHit::Miss) {
                misses += 1;
            }
        }
        cold_samples.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
        assert_eq!(misses, UNIQUE, "cold pass learns each unique trace once");

        let start = Instant::now();
        for trace in &corpus {
            let learned = cache.learn(trace, options)?;
            assert!(
                matches!(learned.hit, CacheHit::Full),
                "warm pass must be all full hits"
            );
        }
        warm_samples.push(u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let cold_median = median(&cold_samples).max(1);
    let warm_median = median(&warm_samples).max(1);
    let cold_tps = FILES as f64 * 1_000_000.0 / cold_median as f64;
    let warm_tps = FILES as f64 * 1_000_000.0 / warm_median as f64;
    let warm_speedup = cold_median as f64 / warm_median as f64;
    println!(
        "\ncorpus ({FILES} files, {UNIQUE} unique, {corpus_tasks} tasks x {corpus_periods} periods, median of {iters}):"
    );
    println!(
        "{:<16} {cold_median:>10} us  {cold_tps:>8.1} traces/sec",
        "cold"
    );
    println!(
        "{:<16} {warm_median:>10} us  {warm_tps:>8.1} traces/sec  {warm_speedup:.1}x",
        "warm"
    );
    assert!(
        warm_speedup >= 5.0,
        "warm cache pass is only {warm_speedup:.2}x cold, below the 5x floor"
    );

    // --- checkpoint ----------------------------------------------------
    let (small_hypotheses, large_hypotheses) = checkpoint_sizes(quick);
    let docs = [small_hypotheses, large_hypotheses].map(|hypotheses| {
        let doc = synthetic_checkpoint(hypotheses).to_json();
        let parsed = Checkpoint::parse_json(&doc).expect("own output");
        assert_eq!(parsed.to_json(), doc, "synthetic checkpoint round-trips");
        doc
    });
    // Alternate the two sizes so both see the same host phases.
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..CHECKPOINT_SAMPLES {
        for (doc, times) in docs.iter().zip(&mut samples) {
            times.extend(time_micros(1, || {
                std::hint::black_box(
                    Checkpoint::parse_json(std::hint::black_box(doc)).expect("parses"),
                );
            }));
        }
    }
    let [small_median, large_median] = samples.map(|times| median(&times).max(1));
    let [small_bytes, large_bytes] = docs.map(|doc| doc.len());
    let per_kb = |micros: u64, bytes: usize| micros as f64 * 1024.0 / bytes as f64;
    let small_per_kb = per_kb(small_median, small_bytes);
    let large_per_kb = per_kb(large_median, large_bytes);
    let checkpoint_scaling = large_per_kb / small_per_kb;
    println!(
        "\ncheckpoint parse ({CHECKPOINT_TASKS} tasks, median of {CHECKPOINT_SAMPLES} parses):"
    );
    for (hypotheses, median, bytes, per_kb) in [
        (small_hypotheses, small_median, small_bytes, small_per_kb),
        (large_hypotheses, large_median, large_bytes, large_per_kb),
    ] {
        println!(
            "{:<16} {median:>10} us  {per_kb:>8.3} us/KB  ({bytes} bytes)",
            format!("{hypotheses} hypotheses")
        );
    }
    println!("{:<16} {checkpoint_scaling:>10.2}x per KB", "scaling");
    assert!(
        checkpoint_scaling <= 2.0,
        "checkpoint parse costs {checkpoint_scaling:.2}x as much per KB at \
         {large_hypotheses} hypotheses as at {small_hypotheses}, above the 2x linearity floor"
    );

    // Hand-rolled JSON: fixed keys and numbers only, nothing to escape.
    let mut json = format!("{{\"schema\":\"{}\",", bbmg_bench::BENCH_CORPUS_SCHEMA);
    write!(
        json,
        "\"cpu_threads\":{cpu_threads},\"iterations\":{iters},\"quick\":{quick},"
    )?;
    write!(
        json,
        "\"parse\":{{\"tasks\":{parse_tasks},\"periods\":{parse_periods},\"samples\":{parse_samples},\"csv_bytes\":{},\
         \"btrace_bytes\":{},\"csv_split_median_micros\":{split_median},\
         \"csv_median_micros\":{csv_median},\"csv_speedup\":{csv_speedup:.2},\
         \"btrace_median_micros\":{btrace_median},\"btrace_speedup\":{btrace_speedup:.2}}},",
        csv.len(),
        btrace.len()
    )?;
    write!(
        json,
        "\"corpus\":{{\"files\":{FILES},\"unique\":{UNIQUE},\"duplicate_ratio\":{duplicate_ratio:.2},\
         \"cold_median_micros\":{cold_median},\"cold_traces_per_sec\":{cold_tps:.1},\
         \"warm_median_micros\":{warm_median},\"warm_traces_per_sec\":{warm_tps:.1},\
         \"warm_speedup\":{warm_speedup:.2}}},"
    )?;
    write!(
        json,
        "\"checkpoint\":{{\"tasks\":{CHECKPOINT_TASKS},\"samples\":{CHECKPOINT_SAMPLES},\
         \"small_hypotheses\":{small_hypotheses},\"small_bytes\":{small_bytes},\
         \"small_median_micros\":{small_median},\"small_micros_per_kb\":{small_per_kb:.3},\
         \"large_hypotheses\":{large_hypotheses},\"large_bytes\":{large_bytes},\
         \"large_median_micros\":{large_median},\"large_micros_per_kb\":{large_per_kb:.3},\
         \"checkpoint_scaling\":{checkpoint_scaling:.2}}}}}"
    )?;
    json.push('\n');

    std::fs::write("BENCH_corpus.json", &json)?;
    println!("\nwrote BENCH_corpus.json");
    Ok(())
}
