//! End-to-end and per-layer benchmark for bbmg.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload gm_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One closed-loop client in one process, learning at one thread. The
//! benchmark generates the workload's input files (or feed) from `--seed`
//! into a scratch directory under the working directory, then drives the
//! public API of `bbmg-trace`, `bbmg-core` and `bbmg-serve` over them in
//! passes until `--seconds` are used up. The library only ever sees the
//! generated inputs, never the seed. Every output is checked outside the
//! timed regions; a failed check counts the item as failed.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced passes with traced ones (the same public calls, with a
//! period-timing observer and every call into a layer timed from outside),
//! checks that both produce the same model fingerprints, and prints the
//! per-layer metrics. The last line of standard output is one JSON object;
//! see `README.md`.

#![forbid(unsafe_code)]

mod corpus;
mod exact_robust;
mod gm_sweep;
mod host;
mod layers;
mod serve_fleet;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use layers::Layers;
use stats::{median, percentile};

/// The result of one pass over a workload's items.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of every set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Every host kernel run made during the pass, in milliseconds.
    pub host_ms: Vec<f64>,
    /// Per-item latency, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Items attempted.
    pub attempted: usize,
    /// Items that returned an error, failed a check, or were rejected.
    pub failed: usize,
    /// Model fingerprint of every item, in item order.
    pub fingerprints: Vec<u64>,
}

impl Pass {
    /// Records one set-up repetition's wall time, then runs the host
    /// kernel once. Set-up repetitions are spread over the pass, so the
    /// kernel runs see the same host phases as the items.
    pub fn record_setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
        self.host_ms.push(host::kernel_ms());
    }

    /// Wall time of all items of the pass, in seconds. Items run back to
    /// back, so this is the sum of their latencies; the set-up
    /// repetitions spread over the pass are not part of it.
    #[must_use]
    pub fn job_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }
}

/// A prepared workload: inputs generated, ready to run passes over them.
pub trait Workload {
    /// Runs set-up and every item once, in the same item order on every
    /// pass. With `layers`, calls into each layer are timed separately
    /// and public counters are accumulated.
    fn pass(&mut self, layers: Option<&mut Layers>) -> Result<Pass, String>;
}

/// Passes every run makes at least, whatever `--seconds` says, so that
/// every item is timed more than once and every run has at least 100
/// latency samples.
const MIN_PASSES: usize = 2;

/// What a run reports over its passes, in wall time as measured.
struct Summary {
    /// Median over every set-up repetition of every pass.
    setup_s: f64,
    /// Median over passes of each pass's wall time.
    job_s: f64,
    /// Percentiles over every item latency of every pass.
    p50_ms: f64,
    p90_ms: f64,
    samples: usize,
    attempted: usize,
    failed: usize,
}

/// Summarizes passes over the same items. A pass whose fingerprints differ
/// from the first pass's counts all of its items as failed.
fn summarize(passes: &[Pass]) -> Summary {
    let pooled =
        |f: fn(&Pass) -> &[f64]| -> Vec<f64> { passes.iter().flat_map(f).copied().collect() };
    let latencies = pooled(|p| &p.latencies_ms);
    let jobs: Vec<f64> = passes.iter().map(Pass::job_s).collect();
    let first = passes.first().map(|p| &p.fingerprints);
    Summary {
        setup_s: median(&pooled(|p| &p.setup_s)),
        job_s: median(&jobs),
        p50_ms: percentile(&latencies, 0.50),
        p90_ms: percentile(&latencies, 0.90),
        samples: latencies.len(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes
            .iter()
            .map(|p| {
                if Some(&p.fingerprints) == first {
                    p.failed
                } else {
                    p.attempted
                }
            })
            .sum(),
    }
}

/// Whether a set-up repetition is due before item `i` of `items`, so that
/// `reps` repetitions per pass are spread evenly over it: a burst of
/// back-to-back repetitions lands in one host phase. Item 0's repetition
/// is the one whose result the pass uses.
#[must_use]
pub fn setup_due(i: usize, items: usize, reps: usize) -> bool {
    let stride = (items / reps.max(1)).max(1);
    i.is_multiple_of(stride) && i / stride < reps
}

const WORKLOADS: [&str; 4] = ["gm_sweep", "exact_robust", "corpus_mixed", "serve_fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory for generated inputs, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<Self, String> {
        let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still has its own directory in it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Resets this process's peak resident set size to its current size, so
/// that what ran before (input generation, the reference learns the checks
/// compare against, host kernel runs) does not count toward `peak_rss_mb`.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // `{}` on f64 prints the shortest string that round-trips: every
    // measured digit, never a rounded display value.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// Every pass of a run, with what was measured between and around them.
#[derive(Default)]
struct Run {
    plain: Vec<Pass>,
    /// Traced passes, each with the layers it timed.
    traced: Vec<(Pass, Layers)>,
    /// Every host kernel run between passes, in milliseconds.
    host_ms: Vec<f64>,
    /// Largest `VmHWM` over the passes, each measured from a reset just
    /// before it, in MiB.
    peak_rss_mb: f64,
}

/// Runs passes until `seconds` are used up, at least [`MIN_PASSES`]. A
/// pass starts only if a pass of the mean length so far still fits. The
/// host kernel runs [`host::RUNS_PER_GAP`] times before every pass and
/// after the last one. With `trace`, untraced and traced passes alternate,
/// so both see the same host phases.
fn run_passes(workload: &mut dyn Workload, seconds: u64, trace: bool) -> Result<Run, String> {
    let start = Instant::now();
    let mut run = Run::default();
    loop {
        run.host_ms
            .extend((0..host::RUNS_PER_GAP).map(|_| host::kernel_ms()));
        let done = run.plain.len() + run.traced.len();
        let elapsed = start.elapsed().as_secs_f64();
        if done >= MIN_PASSES && elapsed * (done + 1) as f64 / done as f64 > seconds as f64 {
            break;
        }
        reset_peak_rss()?;
        if trace && run.plain.len() > run.traced.len() {
            let mut layers = Layers::default();
            let pass = workload.pass(Some(&mut layers))?;
            run.traced.push((pass, layers));
        } else {
            run.plain.push(workload.pass(None)?);
        }
        run.peak_rss_mb = run.peak_rss_mb.max(peak_rss_mb()?);
    }
    Ok(run)
}

fn run(args: &Args) -> Result<String, String> {
    let dir = WorkDir::create(&args.workload)?;
    let prepared = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "gm_sweep" => Box::new(gm_sweep::prepare(args.seed, &dir.0)?),
        "exact_robust" => Box::new(exact_robust::prepare(args.seed, &dir.0)?),
        "corpus_mixed" => Box::new(corpus::prepare(args.seed, &dir.0)?),
        "serve_fleet" => Box::new(serve_fleet::prepare(args.seed, &dir.0)?),
        other => return Err(format!("unknown workload {other}")),
    };
    eprintln!(
        "perfbench: {} inputs generated in {:.2} s",
        args.workload,
        prepared.elapsed().as_secs_f64()
    );

    let run = run_passes(workload.as_mut(), args.seconds, args.trace)?;
    let plain = run.plain;
    let summary = summarize(&plain);
    // Every time metric is scaled to the reference host speed; see
    // `host.rs` and the README.
    let mut host_runs = run.host_ms;
    host_runs.extend(plain.iter().flat_map(|p| p.host_ms.iter().copied()));
    host_runs.extend(
        run.traced
            .iter()
            .flat_map(|(p, _)| p.host_ms.iter().copied()),
    );
    let host_ms = median(&host_runs);
    let scale = host::REFERENCE_MS / host_ms;
    eprintln!(
        "perfbench: {} passes, {} items, as measured: job {:.3} s, set-up {:.6} s, \
         p50 {:.4} ms, p90 {:.4} ms, host kernel {:.3} ms (scale {scale:.4}); {} failed",
        plain.len(),
        summary.samples,
        summary.job_s,
        summary.setup_s,
        summary.p50_ms,
        summary.p90_ms,
        host_ms,
        summary.failed,
    );
    if summary.attempted == 0 || summary.samples == 0 {
        return Err("workload ran no items".into());
    }

    let (attempted, failed, correct, metrics) = if args.trace {
        let (passes, mut layers): (Vec<Pass>, Vec<Layers>) = run.traced.into_iter().unzip();
        let traced = summarize(&passes);
        let same_work = passes
            .iter()
            .all(|p| p.fingerprints == plain[0].fingerprints);
        if !same_work {
            eprintln!("perfbench: traced pass produced different model fingerprints");
        }
        // Per-layer figures come from the traced pass of median wall time;
        // counts are the same in every pass.
        let mut order: Vec<usize> = (0..passes.len()).collect();
        order.sort_by(|&a, &b| passes[a].job_s().total_cmp(&passes[b].job_s()));
        let mut layers = layers.swap_remove(order[(order.len() - 1) / 2]);
        layers.trace_overhead_ratio = traced.job_s / summary.job_s;
        layers.host_kernel_ms = host_ms;
        let metrics = layers
            .metrics(scale)
            .into_iter()
            .map(|(name, value, unit)| metric_json(name, value, unit))
            .collect();
        (
            summary.attempted + traced.attempted,
            summary.failed + traced.failed,
            same_work && summary.failed == 0 && traced.failed == 0,
            metrics,
        )
    } else {
        let metrics = vec![
            metric_json("setup_s", summary.setup_s * scale, "s"),
            metric_json("job_s", summary.job_s * scale, "s"),
            metric_json("latency_p50_ms", summary.p50_ms * scale, "ms"),
            metric_json("latency_p90_ms", summary.p90_ms * scale, "ms"),
            metric_json("peak_rss_mb", run.peak_rss_mb, "MB"),
        ];
        (
            summary.attempted,
            summary.failed,
            summary.failed == 0,
            metrics,
        )
    };
    drop(dir);
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// splitmix64: derives independent per-item seeds from the run seed.
#[must_use]
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
