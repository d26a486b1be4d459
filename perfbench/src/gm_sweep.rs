//! `gm_sweep`: the paper's §3.4 bound sweep (experiment E4).
//!
//! Each item learns one seeded GM case-study trace (18 tasks, 27 periods,
//! about 340 messages, read from CSV) with the bounded heuristic at one of
//! [`BOUNDS`], then renders the least-upper-bound table the way
//! `bbmg learn --table` does. The bounded branch-and-merge is nearly all
//! of the work. Bounds of 100 and more are left out: their run-to-run
//! spread on a shared host was 22%.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bbmg_core::{
    antichain_fingerprint, learn, learn_with, matches_trace, LearnOptions, LearnResult,
};
use bbmg_trace::{parse_csv, write_csv, Trace};
use bbmg_workloads::gm::gm_trace;

use crate::layers::{Layers, PeriodClock};
use crate::stats::{median, ms, timed};
use crate::{mix_seed, setup_due, Pass, Workload};

/// Bounds swept per trace. Equal class shares put p50 in the middle of
/// the bound-16 class and p90 in the middle of the bound-64 class.
pub const BOUNDS: [usize; 5] = [1, 4, 16, 32, 64];
/// Traces swept per pass: 50 items, so a run of at least two passes has
/// 100 latency samples and p90 has ten beyond it. A pass takes 6-11 s.
const TRACES: u64 = 10;
/// Set-up (read + parse every file) repetitions per pass, spread over it.
const SETUP_REPS: usize = 16;

pub struct GmSweep {
    files: Vec<PathBuf>,
}

pub fn prepare(seed: u64, dir: &Path) -> Result<GmSweep, String> {
    let mut files = Vec::new();
    for i in 0..TRACES {
        let report = gm_trace(mix_seed(seed, i)).map_err(|e| format!("gm simulation: {e}"))?;
        let path = dir.join(format!("gm_{i:03}.csv"));
        std::fs::write(&path, write_csv(&report.trace))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
    }
    Ok(GmSweep { files })
}

impl GmSweep {
    /// One set-up repetition: reads and parses every file. Records its
    /// wall time and the time spent inside the parser alone.
    fn set_up(
        &self,
        pass: &mut Pass,
        parse_ms: &mut Vec<f64>,
        bytes: &mut u64,
    ) -> Result<Vec<Trace>, String> {
        let start = Instant::now();
        let mut traces = Vec::with_capacity(self.files.len());
        let mut parse = Duration::ZERO;
        *bytes = 0;
        for path in &self.files {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let (trace, took) = timed(|| parse_csv(&text));
            parse += took;
            *bytes += text.len() as u64;
            traces.push(trace.map_err(|e| format!("{}: {e}", path.display()))?);
        }
        pass.record_setup(start.elapsed().as_secs_f64());
        parse_ms.push(ms(parse));
        Ok(traces)
    }
}

impl Workload for GmSweep {
    fn pass(&mut self, mut layers: Option<&mut Layers>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let (mut parse_ms, mut bytes) = (Vec::new(), 0);
        let traces = self.set_up(&mut pass, &mut parse_ms, &mut bytes)?;
        let items = traces.len() * BOUNDS.len();
        let mut outputs = Vec::with_capacity(items);
        for i in 0..items {
            if i > 0 && setup_due(i, items, SETUP_REPS) {
                self.set_up(&mut pass, &mut parse_ms, &mut bytes)?;
            }
            let trace = &traces[i / BOUNDS.len()];
            let options = LearnOptions::bounded(BOUNDS[i % BOUNDS.len()]);
            let start = Instant::now();
            let result = match layers.as_deref_mut() {
                Some(layers) => learn_with(trace, options, &mut PeriodClock::new(layers)).ok(),
                None => learn(trace, options).ok(),
            };
            let table = result
                .as_ref()
                .and_then(LearnResult::lub)
                .map(|lub| lub.to_table(trace.universe()));
            pass.latencies_ms.push(ms(start.elapsed()));
            outputs.push((trace, result, table));
        }
        if let Some(layers) = layers.as_deref_mut() {
            layers.parse = Duration::from_secs_f64(median(&parse_ms) / 1e3);
            layers.parse_bytes = bytes;
        }

        // Theorem 2: every hypothesis of every bound matches every period.
        for (trace, result, table) in &outputs {
            pass.attempted += 1;
            let Some(result) = result else {
                pass.failed += 1;
                pass.fingerprints.push(0);
                continue;
            };
            let sound = !result.hypotheses().is_empty()
                && result.hypotheses().iter().all(|d| matches_trace(d, trace));
            if !sound || table.as_ref().is_none_or(String::is_empty) {
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
