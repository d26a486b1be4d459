//! Single-CPU fixed-priority preemptive scheduler state.

use bbmg_lattice::TaskId;

/// A task instance known to the scheduler within the current period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    task: TaskId,
    priority: u32,
    remaining: u64,
    started: bool,
}

/// Fixed-priority preemptive CPU scheduler (lower priority number = higher
/// priority, ties broken by task index for determinism).
///
/// The scheduler is driven by the simulation engine: jobs are
/// [released](Self::release), the engine asks [which job runs](Self::current)
/// between events, and [charges](Self::charge) elapsed CPU time to it.
#[derive(Debug, Clone, Default)]
pub struct CpuScheduler {
    ready: Vec<Job>,
}

impl CpuScheduler {
    /// An empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases a job for `task` with `execution` CPU time at `priority`.
    pub fn release(&mut self, task: TaskId, priority: u32, execution: u64) {
        self.ready.push(Job {
            task,
            priority,
            remaining: execution,
            started: false,
        });
    }

    /// The task that owns the CPU right now, if any.
    #[must_use]
    pub fn current(&self) -> Option<TaskId> {
        self.current_index().map(|i| self.ready[i].task)
    }

    fn current_index(&self) -> Option<usize> {
        self.ready
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (j.priority, j.task))
            .map(|(i, _)| i)
    }

    /// Remaining execution time of the current job.
    #[must_use]
    pub fn current_remaining(&self) -> Option<u64> {
        self.current_index().map(|i| self.ready[i].remaining)
    }

    /// Whether the current job has been dispatched before (its start event
    /// was already recorded).
    #[must_use]
    pub fn current_started(&self) -> Option<bool> {
        self.current_index().map(|i| self.ready[i].started)
    }

    /// Marks the current job as started (its start event is being logged).
    ///
    /// # Panics
    ///
    /// Panics if no job is ready.
    pub fn mark_started(&mut self) {
        let i = self.current_index().expect("a job is ready");
        self.ready[i].started = true;
    }

    /// Charges `elapsed` CPU time to the current job; if it completes,
    /// removes it and returns its task.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` exceeds the current job's remaining time, or no
    /// job is ready while `elapsed > 0`.
    pub fn charge(&mut self, elapsed: u64) -> Option<TaskId> {
        if elapsed == 0 {
            return None;
        }
        let i = self.current_index().expect("a job is ready");
        let job = &mut self.ready[i];
        assert!(
            elapsed <= job.remaining,
            "charged {elapsed} past remaining {}",
            job.remaining
        );
        job.remaining -= elapsed;
        if job.remaining == 0 {
            let task = job.task;
            self.ready.remove(i);
            Some(task)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn highest_priority_runs() {
        let mut cpu = CpuScheduler::new();
        cpu.release(t(0), 10, 5);
        cpu.release(t(1), 2, 5);
        assert_eq!(cpu.current(), Some(t(1)));
    }

    #[test]
    fn preemption_by_release() {
        let mut cpu = CpuScheduler::new();
        cpu.release(t(0), 10, 5);
        assert_eq!(cpu.current(), Some(t(0)));
        cpu.charge(2);
        cpu.release(t(1), 1, 3);
        assert_eq!(cpu.current(), Some(t(1)), "higher priority preempts");
        assert_eq!(cpu.charge(3), Some(t(1)));
        assert_eq!(cpu.current(), Some(t(0)));
        assert_eq!(cpu.current_remaining(), Some(3));
        assert_eq!(cpu.charge(3), Some(t(0)));
        assert!(cpu.ready.is_empty());
    }

    #[test]
    fn ties_break_by_task_index() {
        let mut cpu = CpuScheduler::new();
        cpu.release(t(3), 5, 1);
        cpu.release(t(1), 5, 1);
        assert_eq!(cpu.current(), Some(t(1)));
    }

    #[test]
    fn started_flag_tracks_dispatch() {
        let mut cpu = CpuScheduler::new();
        cpu.release(t(0), 1, 2);
        assert_eq!(cpu.current_started(), Some(false));
        cpu.mark_started();
        assert_eq!(cpu.current_started(), Some(true));
    }

    #[test]
    #[should_panic(expected = "past remaining")]
    fn overcharge_panics() {
        let mut cpu = CpuScheduler::new();
        cpu.release(t(0), 1, 2);
        cpu.charge(3);
    }
}
