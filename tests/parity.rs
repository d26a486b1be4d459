//! Golden parity suite: the learner's observable output, pinned.
//!
//! Each run below is reduced to its antichain fingerprint, generated and
//! merge counts, per-period set sizes, fallback count and skipped-period
//! record, and the runs of one group are folded into a single digest.
//! The expected digests were recorded from the learner's output before
//! its period store moved to flat arena rows. Any change to branching
//! order, dedup, merge order or post-processing moves them, so a refactor
//! of the hot path that is meant to be behaviour-preserving must keep
//! every constant here unchanged.
//!
//! The groups:
//!
//! * the GM case study (seed 2007) at bounds 1, 4, 16 and 64, plus
//!   bound 4 with union-merged assumptions;
//! * the same five GM runs' observer event streams (merge weights and
//!   per-message set sizes included, the budget heartbeat's wall-clock
//!   reading zeroed), with each run's peak set size and message count,
//!   recorded before the bounded working list moved to weight buckets
//!   and merges stopped re-weighing unchanged words;
//! * 40 random 6–7-task designs (every third with dropped events,
//!   loaded leniently) through `robust_learn`: exact, `SkipPeriod`,
//!   `set_limit` 64, so every one of them falls back to the bounded
//!   heuristic;
//! * the same designs through `IncrementalLearner`, whose fallback seeds
//!   the bounded learner from the antichain instead of replaying. Every
//!   design here trips the limit in its first period, where seeding from
//!   the antichain and replaying agree, so both groups pin the same
//!   digest; the two engines still run separate code up to that point.

use bbmg::core::{
    antichain_fingerprint, learn, learn_with, robust_learn, IncrementalLearner, LearnOptions,
    LearnResult, MergeAssumptions, OnInconsistent,
};
use bbmg::obs::{Event, Recorder};
use bbmg::sim::{inject_faults, FaultConfig};
use bbmg::trace::{parse_csv_lenient, write_csv_raw, Trace};
use bbmg::workloads::gm;
use bbmg::workloads::random::{random_trace, RandomModelConfig};

/// splitmix64-style fold of a stream of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0x9E37_79B9_7F4A_7C15)
    }

    fn add(&mut self, word: u64) {
        let mut h = self.0 ^ word;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        self.0 = h;
    }

    /// Folds in everything the parity contract covers for one run.
    fn add_result(&mut self, result: &LearnResult) {
        let stats = result.stats();
        self.add(antichain_fingerprint(result.hypotheses()));
        self.add(stats.hypotheses_generated as u64);
        self.add(stats.merges as u64);
        self.add(stats.set_sizes_per_period.len() as u64);
        for &size in &stats.set_sizes_per_period {
            self.add(size as u64);
        }
        self.add(stats.fallbacks as u64);
        self.add(stats.skipped_periods.len() as u64);
        for skip in &stats.skipped_periods {
            self.add(skip.period as u64);
        }
    }

    /// Folds in one event's JSON rendering, length first, with the
    /// budget heartbeat's wall-clock reading zeroed.
    fn add_event(&mut self, event: &Event) {
        let event = match event {
            Event::BudgetTick { steps, .. } => Event::BudgetTick {
                steps: *steps,
                elapsed_micros: 0,
            },
            other => other.clone(),
        };
        let json = event.to_json(None);
        self.add(json.len() as u64);
        for chunk in json.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
}

/// Totals alongside each digest, so a mismatch says which count moved.
#[derive(Debug, PartialEq, Eq)]
struct Group {
    digest: u64,
    generated: usize,
    merges: usize,
    fallbacks: usize,
    skipped: usize,
}

fn group(results: &[LearnResult]) -> Group {
    let mut digest = Digest::new();
    let mut totals = Group {
        digest: 0,
        generated: 0,
        merges: 0,
        fallbacks: 0,
        skipped: 0,
    };
    for result in results {
        digest.add_result(result);
        let stats = result.stats();
        totals.generated += stats.hypotheses_generated;
        totals.merges += stats.merges;
        totals.fallbacks += stats.fallbacks;
        totals.skipped += stats.skipped_periods.len();
    }
    totals.digest = digest.0;
    totals
}

/// The 40 random designs, shaped like the `exact_robust` benchmark's:
/// 6 or 7 tasks, 8–12 periods, every third capture with 2% of its events
/// dropped and loaded through the lenient CSV path.
fn designs() -> Vec<Trace> {
    (0..40u64)
        .map(|i| {
            let seed = 0x00C0_FFEE ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let config = RandomModelConfig {
                tasks: 6 + (i % 2) as usize,
                seed,
                ..RandomModelConfig::default()
            };
            let periods = 8 + (seed >> 32) as usize % 5;
            let trace = random_trace(&config, periods, seed ^ 0x5EED)
                .expect("random designs simulate")
                .trace;
            if i % 3 == 2 {
                let (raw, _) = inject_faults(&trace, &FaultConfig::event_drop(0.02, seed));
                parse_csv_lenient(&write_csv_raw(&raw))
                    .expect("lenient parse never fails on injected drops")
                    .trace
            } else {
                trace
            }
        })
        .collect()
}

fn robust_options() -> LearnOptions {
    LearnOptions::exact()
        .with_on_inconsistent(OnInconsistent::SkipPeriod)
        .with_set_limit(64)
}

/// The GM case study's trace and the five option sets its sweep runs.
fn gm_sweep() -> (Trace, Vec<LearnOptions>) {
    let trace = gm::gm_trace(2007).expect("GM simulation succeeds").trace;
    let mut runs: Vec<LearnOptions> = [1, 4, 16, 64]
        .into_iter()
        .map(LearnOptions::bounded)
        .collect();
    runs.push(LearnOptions::bounded(4).with_merge_assumptions(MergeAssumptions::Union));
    (trace, runs)
}

#[test]
fn gm_bound_sweep_is_pinned() {
    let (trace, runs) = gm_sweep();
    let results: Vec<LearnResult> = runs
        .into_iter()
        .map(|options| learn(&trace, options).expect("GM learns"))
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 17_214_706_296_961_888_801,
            generated: 416_658,
            merges: 387_744,
            fallbacks: 0,
            skipped: 0,
        }
    );
}

#[test]
fn gm_bound_sweep_event_stream_is_pinned() {
    let (trace, runs) = gm_sweep();
    let mut digest = Digest::new();
    let mut events = 0;
    for options in runs {
        let mut recorder = Recorder::new();
        let result = learn_with(&trace, options, &mut recorder).expect("GM learns");
        for timed in recorder.events() {
            digest.add_event(&timed.event);
        }
        digest.add(result.stats().peak_set_size as u64);
        digest.add(result.stats().messages as u64);
        events += recorder.len();
    }
    assert_eq!((digest.0, events), (16_574_615_973_203_959_500, 391_829));
}

#[test]
fn robust_learn_on_random_designs_is_pinned() {
    let results: Vec<LearnResult> = designs()
        .iter()
        .map(|trace| robust_learn(trace, robust_options()).expect("skip policy never aborts"))
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 11_305_561_852_954_583_840,
            generated: 139_612,
            merges: 70_094,
            fallbacks: 40,
            skipped: 12,
        }
    );
}

#[test]
fn incremental_learner_on_random_designs_is_pinned() {
    let results: Vec<LearnResult> = designs()
        .iter()
        .map(|trace| {
            let mut learner = IncrementalLearner::new(trace.task_count(), robust_options());
            for period in trace.periods() {
                learner
                    .push_period(period)
                    .expect("skip policy never aborts");
            }
            learner.finish()
        })
        .collect();
    assert_eq!(
        group(&results),
        Group {
            digest: 11_305_561_852_954_583_840,
            generated: 139_612,
            merges: 70_094,
            fallbacks: 40,
            skipped: 12,
        }
    );
}
