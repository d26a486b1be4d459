//! Version-space learner inferring task dependency graphs from bus traces.
//!
//! This crate is the reproduction of the paper's contribution (*Automatic
//! Model Generation for Black Box Real-Time Systems*, DATE 2007): an
//! incremental generalization algorithm that consumes a trace period by
//! period and maintains the set of most-specific dependency functions
//! consistent with everything observed so far.
//!
//! Two variants are provided, selected by [`LearnOptions::bound`]:
//!
//! * **Exact** (`bound: None`) — maintains the full antichain of
//!   most-specific hypotheses. Correct, optimal and complete (paper
//!   Theorems 2–3) but worst-case exponential in the number of messages
//!   (the underlying problem is NP-hard, Theorem 1).
//! * **Bounded heuristic** (`bound: Some(b)`) — keeps at most `b`
//!   hypotheses ordered by weight; on overflow the two lowest-weight
//!   (most specific) hypotheses are replaced by their least upper bound.
//!   Still correct, no longer guaranteed most-specific; the convergence
//!   theorem (Theorem 4) relates its results to the exact ones.
//!
//! # Example — learning the Figure 1 system from a three-period trace
//!
//! ```
//! use bbmg_core::{learn, LearnOptions};
//! use bbmg_lattice::{DependencyValue, TaskUniverse};
//! use bbmg_trace::{Timestamp, TraceBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut universe = TaskUniverse::new();
//! let t1 = universe.intern("t1");
//! let t2 = universe.intern("t2");
//!
//! let mut builder = TraceBuilder::new(universe);
//! builder.begin_period();
//! builder.task(t1, Timestamp::new(0), Timestamp::new(10))?;
//! builder.message(Timestamp::new(11), Timestamp::new(13))?;
//! builder.task(t2, Timestamp::new(15), Timestamp::new(25))?;
//! builder.end_period()?;
//! let trace = builder.finish();
//!
//! let result = learn(&trace, LearnOptions::exact())?;
//! assert!(result.converged());
//! let d = result.lub().expect("nonempty");
//! assert_eq!(d.value(t1, t2), DependencyValue::Determines);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod checkpoint;
mod convergence;
mod error;
mod history;
mod incremental;
mod learner;
mod matching;
mod options;
mod stats;
mod weight_queue;
mod witness;

pub use cache::{
    trace_fingerprints, CacheError, CacheHit, CachedLearn, ModelCache, TraceFingerprints,
    CORPUS_SCHEMA,
};
pub use checkpoint::{
    antichain_fingerprint, seal, unseal, Checkpoint, CheckpointError, CHECKPOINT_SCHEMA,
};
pub use convergence::{convergence_timeline, convergence_timeline_with, ConvergencePoint};
pub use error::LearnError;
pub use incremental::{learn, learn_with};
/// `robust_learn` and `robust_learn_with` are other names for [`learn`]
/// and [`learn_with`]: every entry point runs the one engine.
pub use incremental::{
    learn as robust_learn, learn_with as robust_learn_with, IncrementalLearner, Observed,
    DEFAULT_FALLBACK_BOUND,
};
pub use learner::{LearnResult, Learner, BUDGET_SAMPLE_INTERVAL};
pub use matching::{
    execution_consistent, explain_period, matches_period, matches_period_relaxed, matches_trace,
    matches_trace_relaxed,
};
pub use options::{Budget, LearnOptions, MergeAssumptions, OnInconsistent};
pub use stats::{LearnStats, SkipCause, SkippedPeriod};
pub use witness::{explain_pair, Attribution};
