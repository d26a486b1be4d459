//! Shared helpers for the benchmark harness.
//!
//! Each Criterion bench regenerates one table or figure of the paper
//! (DESIGN.md §5); this crate hosts the workload construction they share so
//! benches measure only the algorithm under test. The helpers are also
//! reused by the table-printing examples in the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bbmg_sim::{SimConfig, Simulator};
use bbmg_trace::Trace;
use bbmg_workloads::gm;
use bbmg_workloads::random::{random_model, RandomModelConfig};

/// Schema tag of the learner-throughput benchmark artifact
/// (`BENCH_learner.json`), the single definition every generator and
/// validator must reference (enforced by `examples/tidy.rs`).
///
/// `/2` extends `/1` with per-kernel batched-arena columns
/// (`batched_median_micros`/`batched_speedup`: the [`FunctionArena`]
/// set sweep versus the per-function packed loop it replaced) and a
/// `pool` object comparing a cold worker-pool spin-up against a warm
/// dispatch to already-parked workers.
///
/// [`FunctionArena`]: bbmg_lattice::FunctionArena
pub const BENCH_LEARNER_SCHEMA: &str = "bbmg-bench-learner/2";

/// Schema tag of the serve-throughput benchmark artifact
/// (`BENCH_serve.json`).
pub const BENCH_SERVE_SCHEMA: &str = "bbmg-bench-serve/1";

/// Schema tag of the observer-overhead benchmark artifact
/// (`BENCH_observer.json`).
pub const BENCH_OBSERVER_SCHEMA: &str = "bbmg-bench-observer/2";

/// Schema tag of the corpus-ingest benchmark artifact
/// (`BENCH_corpus.json`): cold-vs-warm model-cache throughput over a
/// 90%-duplicate corpus, CSV-vs-binary trace parse timings, and
/// checkpoint parse cost per KB at two sizes, with validator-enforced
/// floors (warm ≥ 5x cold, binary parse ≥ 3x CSV, checkpoint cost per KB
/// at the large size ≤ 2x the small one's).
pub const BENCH_CORPUS_SCHEMA: &str = "bbmg-bench-corpus/2";

/// The bound column of the paper's §3.4 runtime table.
pub const PAPER_BOUNDS: [usize; 8] = [1, 4, 16, 32, 64, 100, 120, 150];

/// The paper's published runtimes (seconds) for each bound, on a Pentium M
/// 1.7 GHz. Used only for shape comparison in EXPERIMENTS.md.
pub const PAPER_RUNTIMES_SEC: [f64; 8] =
    [0.220, 0.471, 1.202, 2.573, 5.899, 12.608, 16.294, 19.048];

/// The paper's published exact-algorithm runtime (seconds).
pub const PAPER_EXACT_RUNTIME_SEC: f64 = 630.997;

/// The case-study trace every experiment-regeneration bench learns from
/// (27 periods, ~330 messages; seed fixed for comparability across runs).
///
/// # Panics
///
/// Panics if the simulation fails, which the fixed configuration does not.
#[must_use]
pub fn case_study_trace() -> Trace {
    gm::gm_trace(2007)
        .expect("case-study simulation succeeds")
        .trace
}

/// A workload on which the exact (exponential) algorithm is tractable yet
/// clearly slower than the heuristic, for the exact-vs-heuristic
/// comparison (E5).
///
/// The full case-study trace is *beyond* the exact algorithm here — our
/// single shared bus sequentializes every period, so candidate
/// sender/receiver windows are wider than in the paper's testbed and the
/// hypothesis set explodes within the first period. A 7-task random model
/// reproduces the published *shape* (exact ≫ heuristic by orders of
/// magnitude) at tractable absolute cost.
///
/// # Panics
///
/// Panics if the simulation fails, which the fixed configuration does not.
#[must_use]
pub fn exact_tractable_trace() -> Trace {
    let model = random_model(&RandomModelConfig {
        tasks: 7,
        edge_probability: 0.3,
        max_in_degree: 3,
        disjunction_probability: 0.5,
        seed: 9,
    });
    Simulator::new(
        &model,
        SimConfig {
            periods: 8,
            seed: 4,
            ..SimConfig::default()
        },
    )
    .run()
    .expect("simulation succeeds")
    .trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_trace_has_paper_scale() {
        let stats = case_study_trace().stats();
        assert_eq!(stats.periods, 27);
        assert!(stats.messages > 250);
    }

    #[test]
    fn exact_workload_is_small() {
        let trace = exact_tractable_trace();
        assert_eq!(trace.task_count(), 7);
        assert_eq!(trace.periods().len(), 8);
    }
}
