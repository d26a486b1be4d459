//! `exact_robust`: exact learning under a set limit, through the
//! `bbmg learn --on-error skip|repair --set-limit N` path.
//!
//! Small random designs learned with `robust_learn_with` under
//! `OnInconsistent::SkipPeriod` and a working-set limit. A share of the
//! captures carry event-drop faults and load through `parse_csv_lenient`
//! (the rest through the strict `parse_csv`). This is the only workload
//! that runs exact branching, dedup, the arena dominance scan, and the
//! `RobustLearner` replay fallback to bound 64 that a tripped limit causes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bbmg_core::{
    antichain_fingerprint, matches_period, robust_learn_with, LearnOptions, LearnResult,
    OnInconsistent,
};
use bbmg_obs::NoopObserver;
use bbmg_sim::{inject_faults, FaultConfig};
use bbmg_trace::{
    parse_csv, parse_csv_lenient, parse_csv_raw, repair, write_csv, write_csv_raw, Trace,
};
use bbmg_workloads::random::{random_trace, RandomModelConfig};

use crate::layers::{Layers, PeriodClock};
use crate::stats::{median, ms, timed};
use crate::{mix_seed, setup_due, Pass, Workload};

/// Exact working-set limit (`--set-limit`); tripping it falls back to the
/// bounded heuristic. At 4096 the hypothesis sets outgrew the caches a
/// shared core leaves and the run-to-run spread doubled.
pub const SET_LIMIT: usize = 1024;
/// Captures learned per pass; a pass takes 3-5 s, so no job is sub-second.
const ITEMS: u64 = 1000;
/// One item in `FAULTY_EVERY` is a faulty capture.
const FAULTY_EVERY: u64 = 3;
/// Per-event drop probability of a faulty capture.
const DROP_RATE: f64 = 0.02;
/// Set-up (read + parse every file) repetitions per pass, spread over it.
const SETUP_REPS: usize = 8;

struct Capture {
    path: PathBuf,
    faulty: bool,
}

pub struct ExactRobust {
    captures: Vec<Capture>,
}

pub fn prepare(seed: u64, dir: &Path) -> Result<ExactRobust, String> {
    let mut captures = Vec::new();
    for i in 0..ITEMS {
        let s = mix_seed(seed, i);
        let config = RandomModelConfig {
            tasks: 6 + (i % 2) as usize,
            seed: s,
            ..RandomModelConfig::default()
        };
        let periods = 8 + (s >> 32) as usize % 5;
        let trace = random_trace(&config, periods, s ^ 0x5EED)
            .map_err(|e| format!("random simulation: {e}"))?
            .trace;
        let faulty = i % FAULTY_EVERY == FAULTY_EVERY - 1;
        let text = if faulty {
            let (raw, _) = inject_faults(&trace, &FaultConfig::event_drop(DROP_RATE, s));
            write_csv_raw(&raw)
        } else {
            write_csv(&trace)
        };
        let path = dir.join(format!("design_{i:04}.csv"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        captures.push(Capture { path, faulty });
    }
    Ok(ExactRobust { captures })
}

/// One capture loaded, with the time spent in each trace layer.
struct Loaded {
    trace: Trace,
    bytes: u64,
    parse: Duration,
    repair: Duration,
    quarantined: usize,
}

/// Loads one capture the way `bbmg learn` does: strict for clean files,
/// lenient (row-skipping parse + sanitizer) for faulty ones. With
/// `split`, `parse_csv_lenient` runs as its two layers so each is timed.
fn load(capture: &Capture, split: bool) -> Result<Loaded, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", capture.path.display());
    let text = std::fs::read_to_string(&capture.path).map_err(|e| fail(&e))?;
    let (mut repair_took, mut quarantined) = (Duration::ZERO, 0);
    let (trace, parse) = if !capture.faulty {
        let (trace, took) = timed(|| parse_csv(&text));
        (trace.map_err(|e| fail(&e))?, took)
    } else if !split {
        let (lenient, took) = timed(|| parse_csv_lenient(&text));
        (lenient.map_err(|e| fail(&e))?.trace, took)
    } else {
        let (raw, took) = timed(|| parse_csv_raw(&text));
        let raw = raw.map_err(|e| fail(&e))?.raw;
        let (outcome, repaired) = timed(|| repair(&raw));
        repair_took = repaired;
        quarantined = outcome.report.quarantined.len();
        (outcome.trace, took)
    };
    Ok(Loaded {
        trace,
        bytes: text.len() as u64,
        parse,
        repair: repair_took,
        quarantined,
    })
}

/// Every hypothesis matches every period the learner kept, and an exact
/// result (no fallback) is an antichain.
fn check(trace: &Trace, result: &LearnResult) -> bool {
    let stats = result.stats();
    let hypotheses = result.hypotheses();
    if hypotheses.is_empty() {
        return false;
    }
    let kept = trace
        .periods()
        .iter()
        .filter(|p| !stats.skipped_periods.iter().any(|s| s.period == p.index()));
    for period in kept {
        if !hypotheses.iter().all(|d| matches_period(d, period)) {
            return false;
        }
    }
    stats.fallbacks > 0
        || hypotheses.iter().enumerate().all(|(i, a)| {
            hypotheses
                .iter()
                .enumerate()
                .all(|(j, b)| i == j || !a.leq(b))
        })
}

impl ExactRobust {
    /// One set-up repetition: reads and parses every capture. Records its
    /// wall time, the parser time, and with `layers` the sanitizer's.
    fn set_up(
        &self,
        pass: &mut Pass,
        parse_ms: &mut Vec<f64>,
        layers: Option<&mut Layers>,
    ) -> Result<Vec<Trace>, String> {
        let start = Instant::now();
        let loaded = self
            .captures
            .iter()
            .map(|c| load(c, layers.is_some()))
            .collect::<Result<Vec<_>, _>>()?;
        pass.record_setup(start.elapsed().as_secs_f64());
        parse_ms.push(ms(loaded.iter().map(|l| l.parse).sum()));
        if let Some(layers) = layers {
            layers.parse_bytes = loaded.iter().map(|l| l.bytes).sum();
            layers.repair = loaded.iter().map(|l| l.repair).sum();
            layers.quarantined_periods = loaded.iter().map(|l| l.quarantined as u64).sum();
        }
        Ok(loaded.into_iter().map(|l| l.trace).collect())
    }
}

impl Workload for ExactRobust {
    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut parse_ms = Vec::new();
        let traces = self.set_up(&mut pass, &mut parse_ms, layers.as_deref_mut())?;
        let options = LearnOptions::exact()
            .with_set_limit(SET_LIMIT)
            .with_on_inconsistent(OnInconsistent::SkipPeriod);
        let mut outputs = Vec::with_capacity(traces.len());
        for (i, trace) in traces.iter().enumerate() {
            if i > 0 && setup_due(i, traces.len(), SETUP_REPS) {
                self.set_up(&mut pass, &mut parse_ms, layers.as_deref_mut())?;
            }
            let start = Instant::now();
            let result = match layers.as_deref_mut() {
                Some(layers) => robust_learn_with(trace, options, &mut PeriodClock::new(layers)),
                None => robust_learn_with(trace, options, &mut NoopObserver),
            }
            .ok();
            pass.latencies_ms.push(ms(start.elapsed()));
            outputs.push(result);
        }
        if let Some(layers) = layers.as_deref_mut() {
            layers.parse = Duration::from_secs_f64(median(&parse_ms) / 1e3);
        }

        for (trace, result) in traces.iter().zip(&outputs) {
            pass.attempted += 1;
            let Some(result) = result else {
                pass.failed += 1;
                pass.fingerprints.push(0);
                continue;
            };
            if !check(trace, result) {
                pass.failed += 1;
            }
            pass.fingerprints
                .push(antichain_fingerprint(result.hypotheses()));
            if let Some(layers) = layers.as_deref_mut() {
                layers.add_stats(result.stats(), None);
            }
        }
        Ok(pass)
    }
}
