//! Dependency-value lattice and dependency functions for black-box
//! model generation.
//!
//! This crate implements the hypothesis language of *Automatic Model
//! Generation for Black Box Real-Time Systems* (Feng, Wang, Zheng, Kanajan,
//! Seshia — DATE 2007):
//!
//! * [`DependencyValue`] — the seven-value lattice `V = {‖, →, ←, ↔, →?,
//!   ←?, ↔?}` of Figure 3, with its partial order, least upper bound and
//!   greatest lower bound, and the paper's square-distance weight.
//! * [`DependencyFunction`] — a total function `d : T × T → V` over a fixed
//!   task universe, i.e. one hypothesis in the hypothesis space `D`. The
//!   pointwise order on dependency functions is itself a lattice.
//! * [`TaskId`] / [`TaskUniverse`] — a compact interner for task names, so
//!   dependency functions are dense matrices indexed by small integers.
//! * [`FunctionArena`] — a structure-of-arrays store packing whole *sets*
//!   of dependency functions into one contiguous word buffer (plus cached
//!   weight/row-hash columns and a dedup index), optionally with a
//!   per-row set of assumed (sender, receiver) pairs: the learner's
//!   per-period hypothesis store, whose branch, merge and dedup steps and
//!   set-level sweeps run as row kernels over adjacent words.
//!
//! # Example
//!
//! ```
//! use bbmg_lattice::{DependencyFunction, DependencyValue, TaskUniverse};
//!
//! let mut universe = TaskUniverse::new();
//! let t1 = universe.intern("t1");
//! let t2 = universe.intern("t2");
//!
//! // The most specific hypothesis: everything runs in parallel.
//! let mut d = DependencyFunction::bottom(universe.len());
//! assert!(d.is_bottom());
//!
//! // Learn from an observed message t1 -> t2.
//! d.record_message(t1, t2);
//! assert_eq!(d.value(t1, t2), DependencyValue::Determines);
//! assert_eq!(d.value(t2, t1), DependencyValue::DependsOn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod function;
pub mod invariant;
pub mod packed;
mod task;
mod taskset;
mod value;

pub use arena::FunctionArena;
pub use function::{DependencyFunction, FunctionDecodeError, PairIter};
pub use invariant::AntichainViolation;
pub use task::{TaskId, TaskUniverse};
pub use taskset::TaskSet;
pub use value::{DependencyValue, ValueParseError, ALL_VALUES};
