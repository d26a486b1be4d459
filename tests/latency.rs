//! Experiment E6: end-to-end latency de-pessimization on the case study
//! (paper §3.4: excluding the preemption of Q by the higher-priority
//! infrastructure task O).

use bbmg::analysis::latency::{LatencyAnalysis, TaskTiming};
use bbmg::core::{learn, LearnOptions};
use bbmg::lattice::{DependencyFunction, TaskId};
use bbmg::workloads::gm;

fn case_study_latency() -> (LatencyAnalysis, DependencyFunction, Vec<TaskId>) {
    let model = gm::gm_model();
    let trace = gm::gm_trace(2007).unwrap().trace;
    let result = learn(&trace, LearnOptions::bounded(64)).unwrap();
    let d = result.lub().unwrap();
    let config = gm::gm_config(2007);
    let timings: Vec<TaskTiming> = (0..model.task_count())
        .map(|i| {
            let p = config.params(TaskId::from_index(i));
            TaskTiming {
                wcet: p.wcet,
                priority: p.priority,
            }
        })
        .collect();
    let path = ["S", "A", "C", "H", "L", "Q"]
        .iter()
        .map(|n| gm::task(&model, n))
        .collect();
    (LatencyAnalysis::new(timings, config.frame_time), d, path)
}

#[test]
fn learned_model_excludes_o_from_q_interference() {
    let model = gm::gm_model();
    let (analysis, d, _) = case_study_latency();
    let q = gm::task(&model, "Q");
    let o = gm::task(&model, "O");
    let pessimistic = analysis.pessimistic_interference(q);
    assert!(
        pessimistic.contains(&o),
        "without a model, O is assumed able to preempt Q"
    );
    let informed = analysis.informed_interference(q, &d);
    assert!(
        !informed.contains(&o),
        "the learned Q-O dependency must exclude O's preemption"
    );
    assert!(informed.len() < pessimistic.len());
}

#[test]
fn informed_bound_is_strictly_better_on_the_critical_path() {
    let (analysis, d, path) = case_study_latency();
    let bound = analysis.end_to_end(&path, &d);
    assert!(
        bound.informed < bound.pessimistic,
        "expected a strict improvement, got {bound:?}"
    );
    assert!(
        bound.improvement() > 0.10,
        "improvement too small: {bound:?}"
    );
    // Sanity: the informed bound still covers the raw execution demand.
    let raw: u64 = path.iter().map(|&t| analysis.timing(t).wcet).sum();
    assert!(bound.informed >= raw);
}

#[test]
fn informed_bound_is_valid_at_every_prefix() {
    // Note the informed bound is NOT monotone in observation length: a new
    // period can weaken a previously proven serialization (a task finally
    // runs without its supposed prerequisite), reinstating a preemption.
    // What must hold at every prefix: informed <= pessimistic, and the
    // bound still covers the path's raw execution demand.
    let model = gm::gm_model();
    let trace = gm::gm_trace(2007).unwrap().trace;
    let config = gm::gm_config(2007);
    let timings: Vec<TaskTiming> = (0..model.task_count())
        .map(|i| {
            let p = config.params(TaskId::from_index(i));
            TaskTiming {
                wcet: p.wcet,
                priority: p.priority,
            }
        })
        .collect();
    let analysis = LatencyAnalysis::new(timings, config.frame_time);
    let path: Vec<TaskId> = ["S", "A", "C", "H", "L", "Q"]
        .iter()
        .map(|n| gm::task(&model, n))
        .collect();

    let raw: u64 = path.iter().map(|&t| analysis.timing(t).wcet).sum();
    for periods in [5usize, 15, 27] {
        let result = learn(&trace.truncated(periods), LearnOptions::bounded(64)).unwrap();
        let d = result.lub().unwrap();
        let bound = analysis.end_to_end(&path, &d);
        assert!(bound.informed <= bound.pessimistic, "{periods} periods");
        assert!(bound.informed >= raw, "{periods} periods");
    }
}
