//! Experiment E1 (paper §3.3, Figures 1, 2 and 4): replay the paper's
//! worked example and print every intermediate hypothesis table.
//!
//! Run with: `cargo run --example simple_model`

use bbmg::core::{learn, IncrementalLearner, LearnError, LearnOptions};
use bbmg::obs::NoopObserver;
use bbmg::workloads::simple;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = simple::figure_2_trace();
    let universe = trace.universe().clone();
    println!("trace: {}", trace.stats());

    // Stream the trace period by period, printing the hypothesis set as it
    // evolves — the paper shows these snapshots after periods 1 and 3.
    let mut learner = IncrementalLearner::new(trace.task_count(), LearnOptions::exact());
    learner.drive(
        trace.periods(),
        &mut NoopObserver,
        |learner, period, _, _| {
            println!(
                "\nafter period {}: {} most-specific hypotheses",
                period.index() + 1,
                learner.len()
            );
            for (i, d) in learner.hypotheses().iter().enumerate() {
                println!(
                    "hypothesis {} (weight {}):\n{}",
                    i + 1,
                    d.weight(),
                    d.to_table(&universe)
                );
            }
            Ok::<_, LearnError>(())
        },
    )?;

    // The paper's published final answer.
    let result = learn(&trace, LearnOptions::exact())?;
    let expected = simple::paper_final_hypotheses();
    let all_match = result.hypotheses().len() == expected.len()
        && expected.iter().all(|d| result.hypotheses().contains(d));
    println!(
        "matches the paper's d81..d85 exactly: {}",
        if all_match { "yes" } else { "NO" }
    );

    let lub = result.lub().expect("nonempty");
    println!("\nd_LUB (paper Figure 4):\n{}", lub.to_table(&universe));
    println!(
        "matches the paper's printed d_LUB: {}",
        if lub == simple::paper_dlub() {
            "yes"
        } else {
            "NO"
        }
    );
    Ok(())
}
