//! Ablations of the reconstruction decisions documented in DESIGN.md §4:
//! the assumption-merge policy (intersection, the default, against
//! union), the timing-based candidate filter (on, the paper's rule,
//! against off), and history-aware candidate windows (on against the
//! naive windows). Each row is the median wall time of 10 learns.
//!
//! Union can end a busy period with an empty hypothesis set, which is
//! why it is not the default; its row is timed either way and reports
//! whether the learn failed.
//!
//! Run with: `cargo run --release --example ablation`

use bbmg::core::{learn, LearnOptions, MergeAssumptions};
use bbmg_bench::case_study_trace;
use bbmg_bench::runner::{median, time_micros};

/// Learns per row.
const SAMPLES: usize = 10;

fn main() {
    let trace = case_study_trace();
    let prefix = trace.truncated(9);
    let merge = |policy| LearnOptions::bounded(32).with_merge_assumptions(policy);
    let rows = [
        (
            "merge_policy",
            "intersection",
            &trace,
            merge(MergeAssumptions::Intersection),
        ),
        (
            "merge_policy",
            "union",
            &trace,
            merge(MergeAssumptions::Union),
        ),
        (
            "timing_filter",
            "on",
            &prefix,
            LearnOptions::bounded(16).with_timing_filter(true),
        ),
        (
            "timing_filter",
            "off",
            &prefix,
            LearnOptions::bounded(16).with_timing_filter(false),
        ),
        (
            "history_aware",
            "on",
            &prefix,
            LearnOptions::bounded(16).with_history_aware(true),
        ),
        (
            "history_aware",
            "off_naive",
            &prefix,
            LearnOptions::bounded(16).with_history_aware(false),
        ),
    ];

    println!("ablations (merge policy on the case study at bound 32; filters on its 9-period prefix at bound 16; median of {SAMPLES}):");
    println!(
        "{:<14} {:<13} {:>12} {:>9}",
        "ablation", "variant", "median (us)", "outcome"
    );
    for (ablation, variant, trace, options) in rows {
        let mut learned = true;
        let micros = median(&time_micros(SAMPLES, || {
            learned = std::hint::black_box(learn(trace, options)).is_ok();
        }));
        let outcome = if learned { "learned" } else { "failed" };
        println!("{ablation:<14} {variant:<13} {micros:>12} {outcome:>9}");
    }
}
