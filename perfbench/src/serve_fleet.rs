//! `serve_fleet`: one interleaved JSONL feed replayed through
//! `Supervisor::ingest_line`, as `bbmg serve --input FILE` does.
//!
//! [`GM_SOURCES`] GM-shaped sources each replay their own seeded
//! case-study capture (one capture would make p90 the cost of one trace);
//! [`SMALL_SOURCES`] small random designs send cheap periods. Sources are
//! interleaved period by period in proportion to their length, so every
//! source is live for the whole feed. An item is one period: its latency
//! is the supervisor's time on that period's own lines, from its first
//! line through the line after which `StreamShard::periods()` has
//! absorbed it (the next period's first line, or `end`). A quarter of the
//! periods (400 of 1552) are GM periods, so p50 is the protocol, routing
//! and sanitizer path and p90 is the learner.
//!
//! The shards learn bounded ([`BOUND`]). With `bbmg serve`'s default
//! exact learner the process aborts inside the first GM-scale period: a
//! 469 MB allocation in `Learner::admit_exact_child` failed under a 3 GB
//! cap, because the memory watermark is checked only between periods.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bbmg_core::{IncrementalLearner, LearnOptions};
use bbmg_obs::NoopObserver;
use bbmg_serve::{Line, ServeOptions, Supervisor, WireKind};
use bbmg_trace::{EventKind, Trace};
use bbmg_workloads::gm::{gm_config, gm_model};
use bbmg_workloads::random::{random_trace, RandomModelConfig};

use crate::layers::Layers;
use crate::stats::timed;
use crate::{mix_seed, setup_due, Pass, Workload};

/// The bound every shard learns at.
pub const BOUND: usize = 16;
/// GM-shaped sources, each replaying its own capture.
const GM_SOURCES: usize = 4;
/// Periods of a GM capture.
const GM_PERIODS: usize = 100;
/// Small sources and their periods each.
const SMALL_SOURCES: usize = 32;
const SMALL_PERIODS: usize = 36;
/// Tasks of a small source's design.
const SMALL_TASKS: usize = 4;
/// Set-up (`Supervisor::new` + every `hello`) repetitions per pass,
/// spread over it (a pass takes 1.5-3 s).
const SETUP_REPS: usize = 10;

/// A line of the feed after the `hello`s: its source, and whether it is
/// the source's `end` line rather than an event.
#[derive(Debug, Clone, Copy)]
struct Slot {
    source: u32,
    end: bool,
}

pub struct ServeFleet {
    feed: PathBuf,
    hellos: Vec<String>,
    sources: Vec<String>,
    /// Expected period count and final fingerprint of every source, from
    /// an `IncrementalLearner` fed the same trace with the same options.
    expected: Vec<(usize, u64)>,
    slots: Vec<Slot>,
}

fn options() -> ServeOptions {
    ServeOptions {
        learn: LearnOptions::bounded(BOUND),
        ..ServeOptions::default()
    }
}

fn period_lines(
    source: &str,
    trace: &Trace,
    index: usize,
    out: &mut impl Write,
) -> std::io::Result<usize> {
    let period = &trace.periods()[index];
    for event in period.events() {
        let (kind, subject) = match event.kind {
            EventKind::TaskStart(t) => (WireKind::Start, trace.universe().name(t).to_string()),
            EventKind::TaskEnd(t) => (WireKind::End, trace.universe().name(t).to_string()),
            EventKind::MessageRise(m) => (WireKind::Rise, format!("m{}", m.index())),
            EventKind::MessageFall(m) => (WireKind::Fall, format!("m{}", m.index())),
        };
        let line = Line::Event {
            source: source.to_string(),
            period: index,
            time: event.time.micros(),
            kind,
            subject,
        };
        writeln!(out, "{}", line.to_json())?;
    }
    Ok(period.events().len())
}

fn reference(trace: &Trace, options: &ServeOptions) -> Result<(usize, u64), String> {
    let mut learner = IncrementalLearner::new(trace.task_count(), options.learn)
        .with_fallback_bound(options.fallback_bound);
    for period in trace.periods() {
        learner.push_period(period).map_err(|e| e.to_string())?;
    }
    Ok((learner.pushed_periods(), learner.fingerprint()))
}

pub fn prepare(seed: u64, dir: &Path) -> Result<ServeFleet, String> {
    let options = options();
    let gm_traces: Vec<Trace> = (0..GM_SOURCES)
        .map(|i| {
            let mut gm = gm_config(mix_seed(seed, 1000 + i as u64));
            gm.periods = GM_PERIODS;
            bbmg_sim::Simulator::new(&gm_model(), gm)
                .run()
                .map(|r| r.trace)
                .map_err(|e| format!("gm simulation: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mut sources = Vec::new();
    let mut traces: Vec<&Trace> = Vec::new();
    let mut expected = Vec::new();
    for (i, trace) in gm_traces.iter().enumerate() {
        sources.push(format!("ecu{i}"));
        traces.push(trace);
        expected.push(reference(trace, &options)?);
    }
    let small: Vec<Trace> = (0..SMALL_SOURCES)
        .map(|i| {
            let s = mix_seed(seed, 1 + i as u64);
            let config = RandomModelConfig {
                tasks: SMALL_TASKS,
                seed: s,
                ..RandomModelConfig::default()
            };
            random_trace(&config, SMALL_PERIODS, s ^ 0x5EED)
                .map(|r| r.trace)
                .map_err(|e| format!("random simulation: {e}"))
        })
        .collect::<Result<_, _>>()?;
    for (i, trace) in small.iter().enumerate() {
        sources.push(format!("node{i:02}"));
        traces.push(trace);
        expected.push(reference(trace, &options)?);
    }

    let hellos: Vec<String> = sources
        .iter()
        .zip(&traces)
        .map(|(source, trace)| {
            Line::Hello {
                source: source.clone(),
                tasks: trace
                    .universe()
                    .iter()
                    .map(|(_, n)| n.to_string())
                    .collect(),
            }
            .to_json()
        })
        .collect();

    // Interleave by fractional progress: period `p` of a source with `n`
    // periods is due at (p + 0.5) / n, ties broken by source order.
    let mut order: Vec<(f64, u32, u32)> = Vec::new();
    for (s, trace) in traces.iter().enumerate() {
        let n = trace.periods().len();
        for p in 0..n {
            order.push(((p as f64 + 0.5) / n as f64, s as u32, p as u32));
        }
    }
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let feed = dir.join("feed.jsonl");
    let file = std::fs::File::create(&feed).map_err(|e| format!("{}: {e}", feed.display()))?;
    let mut out = BufWriter::new(file);
    let io = |e: std::io::Error| format!("{}: {e}", feed.display());
    for hello in &hellos {
        writeln!(out, "{hello}").map_err(io)?;
    }
    let mut slots = Vec::new();
    for (_, s, p) in order {
        let trace = traces[s as usize];
        let source = &sources[s as usize];
        let lines = period_lines(source, trace, p as usize, &mut out).map_err(io)?;
        slots.extend(std::iter::repeat_n(
            Slot {
                source: s,
                end: false,
            },
            lines,
        ));
        if p as usize + 1 == trace.periods().len() {
            let end = Line::End {
                source: source.clone(),
            };
            writeln!(out, "{}", end.to_json()).map_err(io)?;
            slots.push(Slot {
                source: s,
                end: true,
            });
        }
    }
    out.flush().map_err(io)?;
    Ok(ServeFleet {
        feed,
        hellos,
        sources,
        expected,
        slots,
    })
}

impl ServeFleet {
    /// One set-up repetition: `Supervisor::new` plus every `hello`.
    fn set_up(&self, pass: &mut Pass) -> Result<Supervisor, String> {
        let start = Instant::now();
        let mut sup = Supervisor::new(options());
        for hello in &self.hellos {
            sup.ingest_line(hello, &mut NoopObserver)
                .map_err(|e| format!("hello: {e}"))?;
        }
        pass.record_setup(start.elapsed().as_secs_f64());
        Ok(sup)
    }
}

impl Workload for ServeFleet {
    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut sup = self.set_up(&mut pass)?;

        let file = std::fs::File::open(&self.feed).map_err(|e| e.to_string())?;
        let mut feed = BufReader::new(file);
        let mut line = String::new();
        for _ in &self.hellos {
            line.clear();
            feed.read_line(&mut line).map_err(|e| e.to_string())?;
        }

        // Per source: time spent on its in-flight period, and whether one
        // of that period's lines was rejected.
        let mut in_flight = vec![(Duration::ZERO, false); self.sources.len()];
        let mut absorbed = 0usize;
        let mut rejected = 0usize;
        let mut bad_periods = 0usize;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 && setup_due(i, self.slots.len(), SETUP_REPS) {
                self.set_up(&mut pass)?;
            }
            line.clear();
            feed.read_line(&mut line).map_err(|e| e.to_string())?;
            let source = &self.sources[slot.source as usize];
            let before = sup.shard(source).map_or(0, |s| s.periods());
            let (outcome, took) = timed(|| sup.ingest_line(&line, &mut NoopObserver));
            // `end` closes the shard, absorbing its last period.
            let after = sup.shard(source).map_or(before + 1, |s| s.periods());
            let state = &mut in_flight[slot.source as usize];
            state.0 += took;
            if outcome.is_err() {
                rejected += 1;
                state.1 = true;
            }
            if let Some(layers) = layers.as_deref_mut() {
                layers.line_us.push(took.as_secs_f64() * 1e6);
                if slot.end {
                    layers.serve_finish += took;
                } else {
                    layers.serve_ingest += took;
                }
                if after > before {
                    layers.add_period(took);
                }
            }
            if after > before {
                absorbed += after - before;
                pass.latencies_ms.push(state.0.as_secs_f64() * 1e3);
                bad_periods += usize::from(state.1);
                *state = (Duration::ZERO, false);
            }
        }
        let (summaries, took) = timed(|| sup.finish(&mut NoopObserver));
        let summaries = summaries.map_err(|e| format!("finish: {e}"))?;

        let index: HashMap<&str, usize> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let mut fingerprints = vec![0u64; self.sources.len()];
        let mut wrong = 0usize;
        for summary in &summaries {
            let Some(&i) = index.get(summary.source.as_str()) else {
                continue;
            };
            fingerprints[i] = summary.fingerprint;
            let (periods, fingerprint) = self.expected[i];
            let healthy = summary.shed_periods == 0
                && summary.restarts == 0
                && summary.report.quarantined.is_empty();
            if !healthy || summary.periods != periods || summary.fingerprint != fingerprint {
                wrong += periods;
            }
            if let Some(layers) = layers.as_deref_mut() {
                layers.add_stats(summary.result.stats(), None);
                layers.shed_periods += summary.shed_periods as u64;
                layers.restarts += summary.restarts as u64;
                layers.quarantined_periods += summary.report.quarantined.len() as u64;
            }
        }
        if let Some(layers) = layers {
            layers.serve_finish += took;
            layers.rejected_lines = rejected as u64;
        }
        let total: usize = self.expected.iter().map(|(p, _)| p).sum();
        pass.attempted = total;
        // Never-absorbed periods, periods with a rejected line, and every
        // period of a shard whose model is wrong all count as failed.
        pass.failed = (total.saturating_sub(absorbed) + bad_periods + wrong).min(total);
        pass.fingerprints = fingerprints;
        Ok(pass)
    }
}
