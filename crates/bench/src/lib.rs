//! The measurement harness: how a benchmark artifact is timed, written
//! and checked.
//!
//! Every `BENCH_*.json` artifact comes from an example harness in the
//! workspace root that times its workload through [`runner`] and writes
//! its document through [`runner::write_artifact`], which refuses to
//! write a document that breaks its schema's [`rules`]. `bbmg audit` runs
//! the same rules on a committed artifact, so each shape and performance
//! floor is defined once, here. The crate also hosts the case-study
//! workload and the paper's published figures that the experiment
//! examples print beside their own measurements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rules;
pub mod runner;

use bbmg_trace::Trace;
use bbmg_workloads::gm;

/// Schema tag of the learner-throughput benchmark artifact
/// (`BENCH_learner.json`), the single definition every generator and
/// validator must reference (enforced by `examples/tidy.rs`).
///
/// Each kernel row compares the scalar per-cell reference with the
/// packed word kernel, and each workload row times one learn. `/4` drops
/// `/3`'s `pool` object and per-thread-count rows: the learner runs on
/// one thread.
pub const BENCH_LEARNER_SCHEMA: &str = "bbmg-bench-learner/4";

/// Schema tag of the serve-throughput benchmark artifact
/// (`BENCH_serve.json`).
pub const BENCH_SERVE_SCHEMA: &str = "bbmg-bench-serve/1";

/// Schema tag of the observer-overhead benchmark artifact
/// (`BENCH_observer.json`). `/3` adds the host's `cpu_threads`.
pub const BENCH_OBSERVER_SCHEMA: &str = "bbmg-bench-observer/3";

/// Schema tag of the corpus-ingest benchmark artifact
/// (`BENCH_corpus.json`): cold-vs-warm model-cache throughput over a
/// 90%-duplicate corpus, CSV-vs-binary trace parse timings, and
/// checkpoint parse cost per KB at two sizes, with floors enforced by
/// [`rules`] (warm ≥ 5x cold, binary parse ≥ 3x CSV, checkpoint cost per
/// KB at the large size ≤ 2x the small one's).
pub const BENCH_CORPUS_SCHEMA: &str = "bbmg-bench-corpus/2";

/// The bound column of the paper's §3.4 runtime table.
pub const PAPER_BOUNDS: [usize; 8] = [1, 4, 16, 32, 64, 100, 120, 150];

/// The paper's published runtimes (seconds) for each bound, on a Pentium M
/// 1.7 GHz. Used only for shape comparison in EXPERIMENTS.md.
pub const PAPER_RUNTIMES_SEC: [f64; 8] =
    [0.220, 0.471, 1.202, 2.573, 5.899, 12.608, 16.294, 19.048];

/// The case-study trace the experiment examples learn from (27 periods,
/// ~330 messages; seed fixed for comparability across runs).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_trace_has_paper_scale() {
        let stats = case_study_trace().stats();
        assert_eq!(stats.periods, 27);
        assert!(stats.messages > 250);
    }
}
