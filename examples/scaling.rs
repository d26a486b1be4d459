//! Experiment E9: the heuristic's complexity claim `O(m b² + m b t²)`,
//! swept in the number of messages `m` (case-study prefixes), the bound
//! `b`, and the number of tasks `t` (random models). Each row is the
//! median wall time of 10 learns.
//!
//! Run with: `cargo run --release --example scaling`

use bbmg::core::{learn, LearnOptions};
use bbmg::sim::{SimConfig, Simulator};
use bbmg::trace::Trace;
use bbmg::workloads::random::{random_model, RandomModelConfig};
use bbmg_bench::case_study_trace;
use bbmg_bench::runner::{median, time_micros};

/// Learns per row.
const SAMPLES: usize = 10;

fn median_micros(trace: &Trace, bound: usize) -> u64 {
    median(&time_micros(SAMPLES, || {
        std::hint::black_box(learn(trace, LearnOptions::bounded(bound)).expect("learns"));
    }))
}

fn main() {
    let trace = case_study_trace();
    println!("messages (case-study prefixes, bound 16, median of {SAMPLES}):");
    println!("{:>8} {:>9} {:>12}", "periods", "messages", "median (us)");
    for periods in [3usize, 9, 27] {
        let prefix = trace.truncated(periods);
        println!(
            "{periods:>8} {:>9} {:>12}",
            prefix.stats().messages,
            median_micros(&prefix, 16)
        );
    }

    let prefix = trace.truncated(9);
    println!("\nbound (9-period case-study prefix, median of {SAMPLES}):");
    println!("{:>8} {:>12}", "bound", "median (us)");
    for bound in [2usize, 8, 32, 128] {
        println!("{bound:>8} {:>12}", median_micros(&prefix, bound));
    }

    println!("\ntasks (random models, 10 periods, bound 16, median of {SAMPLES}):");
    println!("{:>8} {:>9} {:>12}", "tasks", "messages", "median (us)");
    for tasks in [6usize, 12, 18, 24] {
        let model = random_model(&RandomModelConfig {
            tasks,
            seed: 7,
            ..RandomModelConfig::default()
        });
        let trace = Simulator::new(
            &model,
            SimConfig {
                periods: 10,
                period_length: 100_000,
                seed: 1,
                ..SimConfig::default()
            },
        )
        .run()
        .expect("simulation succeeds")
        .trace;
        println!(
            "{tasks:>8} {:>9} {:>12}",
            trace.stats().messages,
            median_micros(&trace, 16)
        );
    }
}
