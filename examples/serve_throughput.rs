//! Load benchmark for the streaming serve layer: drives synthetic
//! multi-source JSONL feeds through a [`Supervisor`] at 1, 2 and 4
//! shards, then forces the load-shedding ladder with a zero watermark,
//! and writes the `BENCH_serve.json` artifact (schema
//! `bbmg-bench-serve/1`).
//!
//! Measured per shard count: sustained ingest rate in events/sec, total
//! wall time, and the p50/p95 per-period ingest latency (the time from a
//! period's first wire event to its last being routed). The shedding run
//! reports how many periods and raw events a zero-headroom shard drops
//! while staying alive — the graceful-degradation contract, measured.
//! The artifact is written only if it meets the `bbmg_bench::rules`:
//! healthy runs shed nothing, and the zero-watermark run sheds.
//!
//! Run with: `cargo run --release --example serve_throughput [-- --quick]`
//!
//! [`Supervisor`]: bbmg::serve::Supervisor

use bbmg::obs::json::Json;
use bbmg::obs::NoopObserver;
use bbmg::serve::{Line, ServeOptions, Supervisor, WireKind};
use bbmg_bench::runner::{cpu_threads, percentile, time_micros, write_artifact};

/// One period of wire events for `source`: task `a` runs, a message
/// crosses, task `b` runs — consistent, so the learner absorbs it.
fn period_chunk(source: &str, period: usize, base: u64) -> Vec<String> {
    let ev = |time, kind, subject: &str| {
        Line::Event {
            source: source.into(),
            period,
            time,
            kind,
            subject: subject.into(),
        }
        .to_json()
    };
    vec![
        ev(base, WireKind::Start, "a"),
        ev(base + 10, WireKind::End, "a"),
        ev(base + 12, WireKind::Rise, &format!("m{period}")),
        ev(base + 14, WireKind::Fall, &format!("m{period}")),
        ev(base + 20, WireKind::Start, "b"),
        ev(base + 30, WireKind::End, "b"),
    ]
}

/// Builds an interleaved feed: one `hello` per source, then the sources'
/// period chunks round-robin (shard `k` sees its own periods in order,
/// but the supervisor must keep `shards` models alive at once).
fn build_feed(shards: usize, periods: usize) -> (Vec<String>, Vec<Vec<String>>) {
    let sources: Vec<String> = (0..shards).map(|i| format!("bus{i}")).collect();
    let hellos = sources
        .iter()
        .map(|s| {
            Line::Hello {
                source: s.clone(),
                tasks: vec!["a".into(), "b".into()],
            }
            .to_json()
        })
        .collect();
    let mut chunks = Vec::with_capacity(shards * periods);
    for period in 0..periods {
        for source in &sources {
            chunks.push(period_chunk(source, period, period as u64 * 100));
        }
    }
    (hellos, chunks)
}

struct RunStats {
    shards: usize,
    events: u64,
    elapsed_micros: u64,
    events_per_sec: u64,
    p50_period_micros: u64,
    p95_period_micros: u64,
    shed_periods: u64,
    shed_events: u64,
}

/// Ingests the feed and times each period chunk; `options` selects the
/// healthy or the shedding configuration.
fn drive(shards: usize, periods: usize, options: ServeOptions) -> RunStats {
    let (hellos, chunks) = build_feed(shards, periods);
    let events = chunks.iter().map(Vec::len).sum::<usize>() as u64;
    let mut sup = Supervisor::new(options);
    let mut period_micros = Vec::with_capacity(chunks.len());
    let mut summaries = Vec::new();
    let elapsed_micros = time_micros(1, || {
        for line in &hellos {
            sup.ingest_line(line, &mut NoopObserver).expect("hello");
        }
        for chunk in &chunks {
            period_micros.extend(time_micros(1, || {
                for line in chunk {
                    sup.ingest_line(line, &mut NoopObserver).expect("event");
                }
            }));
        }
        summaries = sup.finish(&mut NoopObserver).expect("finish");
    })[0]
        .max(1);
    let shed_periods = summaries.iter().map(|s| s.shed_periods as u64).sum();
    let shed_events = summaries.iter().map(|s| s.shed_events as u64).sum();
    RunStats {
        shards,
        events,
        elapsed_micros,
        events_per_sec: events * 1_000_000 / elapsed_micros,
        p50_period_micros: percentile(&period_micros, 0.50),
        p95_period_micros: percentile(&period_micros, 0.95),
        shed_periods,
        shed_events,
    }
}

impl RunStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("shards", self.shards.into()),
            ("events", self.events.into()),
            ("elapsed_micros", self.elapsed_micros.into()),
            ("events_per_sec", self.events_per_sec.into()),
            ("p50_period_micros", self.p50_period_micros.into()),
            ("p95_period_micros", self.p95_period_micros.into()),
            ("shed_periods", self.shed_periods.into()),
            ("shed_events", self.shed_events.into()),
        ])
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let periods = if quick { 40 } else { 200 };
    let cpu_threads = cpu_threads();

    println!("serve throughput ({periods} periods/source, 6 events/period, {cpu_threads} cpu thread(s)):");
    println!(
        "{:<7} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "shards", "events", "elapsed(us)", "events/sec", "p50(us)", "p95(us)"
    );
    let mut runs = Vec::new();
    for shards in [1usize, 2, 4] {
        let stats = drive(shards, periods, ServeOptions::default());
        println!(
            "{:<7} {:>10} {:>12} {:>12} {:>10} {:>10}",
            stats.shards,
            stats.events,
            stats.elapsed_micros,
            stats.events_per_sec,
            stats.p50_period_micros,
            stats.p95_period_micros
        );
        runs.push(stats.to_json());
    }

    // The load-shedding scenario: zero watermark headroom forces the
    // ladder (exact -> bounded -> shed) and the shard must survive it.
    let shed_options = ServeOptions {
        watermark_words: 0,
        checkpoint_every: None,
        ..ServeOptions::default()
    };
    let shed = drive(1, periods, shed_options);
    println!(
        "shedding (watermark 0): {} of {} periods shed, {} raw events dropped, {} events/sec",
        shed.shed_periods, periods, shed.shed_events, shed.events_per_sec
    );

    let document = Json::object([
        ("schema", bbmg_bench::BENCH_SERVE_SCHEMA.into()),
        (
            "workload",
            "2-task consistent periods, 6 events/period, round-robin sources".into(),
        ),
        ("periods_per_source", periods.into()),
        ("cpu_threads", cpu_threads.into()),
        ("quick", quick.into()),
        ("runs", runs.into()),
        (
            "shedding",
            Json::object([
                ("watermark_words", 0_u64.into()),
                ("shed_periods", shed.shed_periods.into()),
                ("shed_events", shed.shed_events.into()),
                ("events_per_sec", shed.events_per_sec.into()),
            ]),
        ),
    ]);
    write_artifact("BENCH_serve.json", &document)?;
    println!("\nwrote BENCH_serve.json");
    Ok(())
}
