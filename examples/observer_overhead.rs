//! Measures observer overhead on the learn and serve hot paths and
//! writes the `BENCH_observer.json` trajectory artifact.
//!
//! Four learn variants run the same seeded workload: the uninstrumented
//! learner, a [`NoopObserver`] (the acceptance bar: ≤ 2% overhead), an
//! in-memory [`Recorder`], and a [`JsonlSink`] serializing to
//! `std::io::sink()`. Three serve variants ingest the same JSONL feed
//! under the same observers — the serve layer has no observer-free path,
//! so the no-op run is its baseline and the claim measured is that span
//! and health instrumentation is pay-for-use (everything heavier than a
//! gauge store is gated on `observer.is_enabled()`). Every iteration's
//! wall time is kept, so the artifact records a trajectory rather than a
//! single summary number, with the host's `cpu_threads`. The artifact
//! carries no overhead floor: the uninstrumented samples alone spread
//! wider than the 2% bar on a shared host.
//!
//! Run with: `cargo run --release --example observer_overhead`
//!
//! [`NoopObserver`]: bbmg::obs::NoopObserver
//! [`Recorder`]: bbmg::obs::Recorder
//! [`JsonlSink`]: bbmg::obs::JsonlSink

use bbmg::core::{learn, learn_with, LearnOptions};
use bbmg::obs::json::Json;
use bbmg::obs::{JsonlSink, NoopObserver, Observer, Recorder};
use bbmg::serve::{Line, ServeOptions, Supervisor, WireKind};
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::Trace;
use bbmg::workloads::random::{random_model, RandomModelConfig};
use bbmg_bench::runner::{cpu_threads, median, round, time_micros, write_artifact};

const ITERATIONS: usize = 7;

fn workload() -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks: 8,
        edge_probability: 0.3,
        seed: 2007,
        ..RandomModelConfig::default()
    });
    let config = SimConfig {
        periods: 30,
        period_length: 100_000,
        seed: 2007,
        ..SimConfig::default()
    };
    Simulator::new(&model, config)
        .run()
        .expect("fixed workload simulates")
        .trace
}

/// A 60-period single-source serve feed (6 wire events per period).
fn serve_feed() -> Vec<String> {
    let mut feed = vec![Line::Hello {
        source: "bus0".into(),
        tasks: vec!["a".into(), "b".into()],
    }
    .to_json()];
    for period in 0..60usize {
        let base = period as u64 * 100;
        let ev = |time, kind, subject: &str| {
            Line::Event {
                source: "bus0".into(),
                period,
                time,
                kind,
                subject: subject.into(),
            }
            .to_json()
        };
        feed.push(ev(base, WireKind::Start, "a"));
        feed.push(ev(base + 10, WireKind::End, "a"));
        feed.push(ev(base + 12, WireKind::Rise, &format!("m{period}")));
        feed.push(ev(base + 14, WireKind::Fall, &format!("m{period}")));
        feed.push(ev(base + 20, WireKind::Start, "b"));
        feed.push(ev(base + 30, WireKind::End, "b"));
    }
    feed.push(
        Line::End {
            source: "bus0".into(),
        }
        .to_json(),
    );
    feed
}

fn serve_once<O: Observer>(feed: &[String], mut observer: O) {
    let mut sup = Supervisor::new(ServeOptions::default());
    for line in feed {
        sup.ingest_line(line, &mut observer).expect("clean feed");
    }
    sup.finish(&mut observer).expect("finishes");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = workload();
    let options = LearnOptions::bounded(64);

    let variants: Vec<(&str, Vec<u64>)> = vec![
        (
            "uninstrumented",
            time_micros(ITERATIONS, || {
                learn(&trace, options).expect("learns");
            }),
        ),
        (
            "noop",
            time_micros(ITERATIONS, || {
                learn_with(&trace, options, &mut NoopObserver).expect("learns");
            }),
        ),
        (
            "recorder",
            time_micros(ITERATIONS, || {
                let mut recorder = Recorder::new();
                learn_with(&trace, options, &mut recorder).expect("learns");
            }),
        ),
        (
            "jsonl",
            time_micros(ITERATIONS, || {
                let mut sink = JsonlSink::new(std::io::sink());
                learn_with(&trace, options, &mut sink).expect("learns");
            }),
        ),
    ];

    let baseline = median(&variants[0].1).max(1);
    println!("observer overhead (8-task random workload, bound 64, median of {ITERATIONS}):");
    println!("{:<16} {:>12} {:>10}", "variant", "median (us)", "overhead");
    for (name, samples) in &variants {
        let med = median(samples);
        let overhead = 100.0 * (med as f64 - baseline as f64) / baseline as f64;
        println!("{name:<16} {med:>12} {overhead:>9.1}%");
    }

    // The serve ingest hot path: the no-op run is the baseline (serve has
    // no observer-free variant); heavier sinks pay for what they record.
    let feed = serve_feed();
    let serve_variants: Vec<(&str, Vec<u64>)> = vec![
        (
            "serve_noop",
            time_micros(ITERATIONS, || serve_once(&feed, NoopObserver)),
        ),
        (
            "serve_recorder",
            time_micros(ITERATIONS, || serve_once(&feed, Recorder::new())),
        ),
        (
            "serve_jsonl",
            time_micros(ITERATIONS, || {
                serve_once(&feed, JsonlSink::new(std::io::sink()))
            }),
        ),
    ];
    let serve_baseline = median(&serve_variants[0].1).max(1);
    println!("\nserve ingest (60 periods, 6 events/period, median of {ITERATIONS}):");
    println!("{:<16} {:>12} {:>10}", "variant", "median (us)", "overhead");
    for (name, samples) in &serve_variants {
        let med = median(samples);
        let overhead = 100.0 * (med as f64 - serve_baseline as f64) / serve_baseline as f64;
        println!("{name:<16} {med:>12} {overhead:>9.1}%");
    }

    let variant_docs = |variants: &[(&str, Vec<u64>)]| -> Json {
        variants
            .iter()
            .map(|(name, samples)| {
                Json::object([
                    ("name", (*name).into()),
                    ("median_micros", median(samples).into()),
                    ("micros", samples.clone().into()),
                ])
            })
            .collect::<Vec<_>>()
            .into()
    };
    let noop_overhead = 100.0 * (median(&variants[1].1) as f64 - baseline as f64) / baseline as f64;
    let document = Json::object([
        ("schema", bbmg_bench::BENCH_OBSERVER_SCHEMA.into()),
        (
            "workload",
            "random:tasks=8 periods=30 seed=2007 bound=64".into(),
        ),
        ("cpu_threads", cpu_threads().into()),
        ("iterations", ITERATIONS.into()),
        ("variants", variant_docs(&variants)),
        ("noop_overhead_percent", round(noop_overhead, 2).into()),
        (
            "serve_workload",
            "1 source, 60 periods, 6 events/period".into(),
        ),
        ("serve_variants", variant_docs(&serve_variants)),
    ]);
    write_artifact("BENCH_observer.json", &document)?;
    println!("\nwrote BENCH_observer.json");
    Ok(())
}
