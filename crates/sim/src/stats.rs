//! Execution statistics of a simulated trace: bus utilization, response
//! times and preemption stretch — the observables a timing engineer would
//! pull from a real CAN analyzer.

use bbmg_lattice::TaskId;
use bbmg_trace::Trace;

/// Per-task response-time summary across a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskResponse {
    /// Number of periods in which the task executed.
    pub activations: usize,
    /// Smallest observed window (end − start).
    pub best: u64,
    /// Largest observed window; exceeds the task's execution time when it
    /// was preempted.
    pub worst: u64,
    /// Sum of observed windows (for averaging).
    pub total: u64,
}

impl TaskResponse {
    /// Mean observed response time, or 0 with no activations.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.activations == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.total as f64 / self.activations as f64
            }
        }
    }
}

/// Aggregate execution statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionStats {
    /// Per-task response summaries, indexed by task id.
    pub responses: Vec<TaskResponse>,
    /// Total bus busy time (sum of frame windows).
    pub bus_busy: u64,
    /// Total observed time span (first event to last event).
    pub span: u64,
    /// Number of frames transmitted.
    pub frames: usize,
}

impl ExecutionStats {
    /// Computes statistics for `trace`.
    #[must_use]
    pub fn compute(trace: &Trace) -> Self {
        let n = trace.task_count();
        let mut responses = vec![
            TaskResponse {
                best: u64::MAX,
                ..TaskResponse::default()
            };
            n
        ];
        let mut bus_busy = 0;
        let mut frames = 0;
        let mut first: Option<u64> = None;
        let mut last: Option<u64> = None;
        for period in trace.periods() {
            for event in period.events() {
                let micros = event.time.micros();
                first = Some(first.map_or(micros, |f| f.min(micros)));
                last = Some(last.map_or(micros, |l| l.max(micros)));
            }
            for (i, r) in responses.iter_mut().enumerate() {
                let task = TaskId::from_index(i);
                if let Some((start, end)) = period.task_window(task) {
                    let window = end - start;
                    r.activations += 1;
                    r.best = r.best.min(window);
                    r.worst = r.worst.max(window);
                    r.total += window;
                }
            }
            for w in period.messages() {
                bus_busy += w.fall - w.rise;
                frames += 1;
            }
        }
        for r in &mut responses {
            if r.activations == 0 {
                r.best = 0;
            }
        }
        ExecutionStats {
            responses,
            bus_busy,
            span: match (first, last) {
                (Some(f), Some(l)) => l - f,
                _ => 0,
            },
            frames,
        }
    }

    /// The observed preemption stretch of `task`: worst window minus best
    /// window — zero for tasks that always ran uninterrupted with constant
    /// execution time.
    #[must_use]
    pub fn stretch(&self, task: TaskId) -> u64 {
        let r = self.responses[task.index()];
        r.worst.saturating_sub(r.best)
    }
}

#[cfg(test)]
mod tests {
    use bbmg_lattice::TaskUniverse;
    use bbmg_moc::DesignModel;

    use super::*;
    use crate::{SimConfig, Simulator, TaskParams};

    #[test]
    fn statistics_of_a_two_task_system() {
        let mut u = TaskUniverse::new();
        let a = u.intern("a");
        let b = u.intern("b");
        let model = DesignModel::builder(u).edge(a, b).build().unwrap();
        let config = SimConfig {
            periods: 10,
            seed: 1,
            frame_time: 3,
            ..SimConfig::default()
        }
        .with_task(a, TaskParams::fixed(7, 1))
        .with_task(b, TaskParams::fixed(4, 2));
        let report = Simulator::new(&model, config).run().unwrap();
        let stats = ExecutionStats::compute(&report.trace);

        assert_eq!(stats.frames, 10);
        assert_eq!(stats.bus_busy, 30);
        assert!(stats.span > stats.bus_busy, "the bus idles between frames");

        let ra = stats.responses[a.index()];
        assert_eq!(ra.activations, 10);
        // a is highest priority and never preempted: window == wcet.
        assert_eq!(ra.best, 7);
        assert_eq!(ra.worst, 7);
        assert!((ra.mean() - 7.0).abs() < 1e-9);
        assert_eq!(stats.stretch(a), 0);
    }

    #[test]
    fn preempted_task_shows_stretch() {
        // slow (low priority, long) is preempted by fast (high priority)
        // released later via jitter.
        let mut u = TaskUniverse::new();
        let slow = u.intern("slow");
        let fast = u.intern("fast");
        let model = DesignModel::builder(u).build().unwrap();
        let config = SimConfig {
            periods: 30,
            release_jitter: 5,
            seed: 3,
            ..SimConfig::default()
        }
        .with_task(slow, TaskParams::fixed(40, 9))
        .with_task(fast, TaskParams::fixed(6, 0));
        let report = Simulator::new(&model, config).run().unwrap();
        let stats = ExecutionStats::compute(&report.trace);
        assert_eq!(stats.responses[fast.index()].worst, 6, "never preempted");
        assert!(
            stats.responses[slow.index()].worst > 40,
            "stretched by preemption in some period"
        );
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let u = TaskUniverse::from_names(["x"]);
        let trace = bbmg_trace::TraceBuilder::new(u).finish();
        let stats = ExecutionStats::compute(&trace);
        assert_eq!(stats.span, 0);
        assert_eq!(stats.responses[0].activations, 0);
        assert_eq!(stats.responses[0].best, 0);
    }
}
