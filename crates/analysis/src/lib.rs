//! Analyses over learned dependency models (paper §3.4).
//!
//! The paper motivates learning with three downstream uses, all implemented
//! here:
//!
//! * [`properties`] — proving system properties from the learned
//!   dependency function: node-kind classification (disjunction /
//!   conjunction), unconditional execution dependencies like
//!   `d(A, L) = →`, and accuracy comparison against ground truth.
//! * [`modes`] — operation-mode analysis: the distinct choice outcomes of
//!   each disjunction node actually observed in a trace.
//! * [`latency`] — end-to-end latency analysis: the pessimistic bound
//!   (every higher-priority task may preempt, Tindell-style holistic
//!   assumption) versus the dependency-informed bound that excludes tasks
//!   the learned model proves serialized (the paper's Q/O example).
//! * [`reachability`] — explicit-state reachability: the number of
//!   per-period execution states with and without the learned
//!   must-dependencies, demonstrating the paper's state-space-reduction
//!   claim for model checking.
//! * [`coverage`] — trace-coverage measurement against a known model (the
//!   paper's exhaustiveness assumption, quantified; black-box convergence
//!   timelines are `bbmg_core::convergence_timeline`).
//! * [`depgraph`] — rendering a learned [`DependencyFunction`] as the
//!   paper's Figure 4/5 dependency-graph style (DOT).
//! * [`ground_truth`] — exhaustive traces and the reference dependency
//!   function of a known design model, for accuracy evaluation.
//!
//! [`DependencyFunction`]: bbmg_lattice::DependencyFunction

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod depgraph;
pub mod ground_truth;
pub mod latency;
pub mod modes;
pub mod properties;
pub mod reachability;
