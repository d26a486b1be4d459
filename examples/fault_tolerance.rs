//! Learned-model accuracy under trace corruption.
//!
//! Simulates the paper's 18-task GM case study, injects event-drop faults
//! at increasing rates, runs the degraded capture through the CSV
//! pipeline under both degradation policies (`skip` = quarantine broken
//! periods whole, `repair` = sanitize what is fixable), learns with
//! `robust_learn`, and scores each learned model against the semantic
//! ground truth of the generating design model.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use bbmg::analysis::ground_truth::semantic_ground_truth;
use bbmg::core::{robust_learn, LearnOptions, OnInconsistent};
use bbmg::lattice::{DependencyFunction, TaskUniverse};
use bbmg::sim::{inject_faults, FaultConfig, Simulator};
use bbmg::trace::{
    parse_csv_lenient, parse_csv_raw, repair_with, write_csv_raw, RepairOptions, RepairReport,
    Trace,
};
use bbmg::workloads::gm;

const PERIODS: usize = 27;
const FAULT_SEED: u64 = 42;
const RATES: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

/// A learned model tied to the task numbering it was learned under.
struct Scored {
    d: DependencyFunction,
    universe: TaskUniverse,
}

/// Fraction of the reference's ordered task pairs whose dependency value
/// the learned model matches. Task identity is resolved by *name*: the
/// CSV pipeline interns tasks in first-appearance order, so raw ids are
/// not comparable across pipelines. A task the learned model never saw
/// counts as disagreement on all its pairs.
fn accuracy(learned: &Scored, reference: &Scored) -> f64 {
    let mut agree = 0usize;
    let mut total = 0usize;
    for (rs, sname) in reference.universe.iter() {
        for (rr, rname) in reference.universe.iter() {
            if rs == rr {
                continue;
            }
            total += 1;
            let (Some(ls), Some(lr)) = (
                learned.universe.lookup(sname),
                learned.universe.lookup(rname),
            ) else {
                continue;
            };
            if learned.d.value(ls, lr) == reference.d.value(rs, rr) {
                agree += 1;
            }
        }
    }
    agree as f64 / total as f64
}

struct PolicyRun {
    kept: usize,
    model: Scored,
    skipped: usize,
}

fn learn_with_policy(trace: &Trace, report: &RepairReport) -> PolicyRun {
    let options = LearnOptions::bounded(64).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let result = robust_learn(trace, options).expect("robust learning cannot abort on skip");
    PolicyRun {
        kept: report.kept_periods,
        skipped: result.stats().skipped_periods.len(),
        model: Scored {
            d: result.lub().expect("nonempty hypothesis set"),
            universe: trace.universe().clone(),
        },
    }
}

fn main() {
    let model = gm::gm_model();
    let truth = semantic_ground_truth(&model);
    let mut config = gm::gm_config(7);
    config.periods = PERIODS;
    let clean = Simulator::new(&model, config)
        .run()
        .expect("gm simulation succeeds")
        .trace;

    // Accuracy is anchored on what the same learner extracts from the
    // *clean* capture: that is the best any degradation policy can hope to
    // recover, so the columns read directly as "how much of the model
    // survived the corruption".
    let options = LearnOptions::bounded(64).with_on_inconsistent(OnInconsistent::SkipPeriod);
    let reference = Scored {
        d: robust_learn(&clean, options)
            .expect("clean learning succeeds")
            .lub()
            .expect("nonempty hypothesis set"),
        universe: clean.universe().clone(),
    };
    let truth = Scored {
        d: truth,
        universe: model.universe().clone(),
    };

    println!("GM case study, {PERIODS} periods, event-drop faults (seed {FAULT_SEED})");
    println!("policies: skip = quarantine broken periods, repair = sanitize them");
    println!();
    println!(
        "{:>6}  {:>7}  {:>10}  {:>9}  {:>10}  {:>9}",
        "rate", "faults", "kept(skip)", "acc(skip)", "kept(rep)", "acc(rep)"
    );
    for rate in RATES {
        let (raw, log) = inject_faults(&clean, &FaultConfig::event_drop(rate, FAULT_SEED));
        let csv = write_csv_raw(&raw);

        // `skip`: a period is either valid as captured or dropped whole.
        let parsed = parse_csv_raw(&csv).expect("csv header is well formed");
        let quarantine_only = repair_with(
            &parsed.raw,
            &RepairOptions {
                max_actions_per_period: Some(0),
            },
        );
        let skip = learn_with_policy(&quarantine_only.trace, &quarantine_only.report);

        // `repair`: sanitize, then quarantine only what stays invalid.
        let lenient = parse_csv_lenient(&csv).expect("csv header is well formed");
        let repair = learn_with_policy(&lenient.trace, &lenient.report);

        println!(
            "{:>6.2}  {:>7}  {:>7}/{:<2}  {:>8.1}%  {:>7}/{:<2}  {:>8.1}%",
            rate,
            log.len(),
            skip.kept,
            PERIODS,
            100.0 * accuracy(&skip.model, &reference),
            repair.kept,
            PERIODS,
            100.0 * accuracy(&repair.model, &reference),
        );
        if skip.skipped + repair.skipped > 0 {
            println!(
                "        (inconsistent periods quarantined by the learner: \
                 {} under skip, {} under repair)",
                skip.skipped, repair.skipped
            );
        }
    }
    println!();
    println!(
        "accuracy = ordered-pair dependency values matching the clean-trace \
         model ({} tasks); that model itself agrees {:.1}% with the semantic \
         ground truth of the generating design",
        truth.universe.len(),
        100.0 * accuracy(&reference, &truth)
    );
}
