//! The [`Observer`] trait and its zero-cost no-op implementation.

use crate::event::Event;

/// Receives [`Event`]s from instrumented layers.
///
/// Implementors only need [`record`](Observer::record); the named hooks are
/// conveniences for call sites, defaulting to constructing the event and
/// forwarding. [`NoopObserver`] overrides nothing: its empty `record`
/// inlines away, so generic call sites (`impl Observer`) pay nothing —
/// measured by the `observer_overhead` example, which records every
/// sample in `BENCH_observer.json`.
///
/// Call sites that must do *extra work* to produce an event's payload
/// (e.g. call `Instant::now`) should guard it with
/// [`is_enabled`](Observer::is_enabled).
pub trait Observer {
    /// Receives one event. The default discards it.
    #[allow(unused_variables)]
    fn record(&mut self, event: Event) {}

    /// `false` when recording is a no-op, letting call sites skip
    /// computing expensive payloads. Sinks must return `true`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// The learner started a period.
    fn period_start(&mut self, period: usize) {
        self.record(Event::PeriodStart { period });
    }

    /// The learner finished a period.
    fn period_end(&mut self, period: usize, hypotheses: usize) {
        self.record(Event::PeriodEnd { period, hypotheses });
    }

    /// One message's branching step completed.
    fn message_branch(
        &mut self,
        period: usize,
        message: usize,
        candidates: usize,
        feasible: usize,
    ) {
        self.record(Event::MessageBranch {
            period,
            message,
            candidates,
            feasible,
        });
    }

    /// The working hypothesis set reached `size` after a message.
    fn hypothesis_set(&mut self, period: usize, size: usize) {
        self.record(Event::HypothesisSet { period, size });
    }

    /// The bounded heuristic merged two hypotheses.
    fn merge(&mut self, period: usize, weights: (u64, u64), merged_weight: u64) {
        self.record(Event::Merge {
            period,
            weights,
            merged_weight,
        });
    }

    /// A period was quarantined.
    fn quarantine(&mut self, period: usize, reason: String) {
        self.record(Event::Quarantine { period, reason });
    }

    /// Sampled budget heartbeat.
    fn budget_tick(&mut self, steps: usize, elapsed_micros: u64) {
        self.record(Event::BudgetTick {
            steps,
            elapsed_micros,
        });
    }

    /// The sanitizer repaired the capture.
    fn repair_action(&mut self, period: usize, action: String) {
        self.record(Event::RepairAction { period, action });
    }

    /// The incremental learner wrote a checkpoint.
    fn checkpoint(&mut self, period: usize, fingerprint: u64) {
        self.record(Event::Checkpoint {
            period,
            fingerprint,
        });
    }

    /// A stream shard changed state or reported vitals.
    fn shard_health(&mut self, source: String, state: String, periods: usize, detail: String) {
        self.record(Event::ShardHealth {
            source,
            state,
            periods,
            detail,
        });
    }

    /// A named span of work opened (`parent` 0 = root).
    fn span_start(&mut self, id: u64, parent: u64, name: String) {
        self.record(Event::SpanStart { id, parent, name });
    }

    /// The span with the given id closed.
    fn span_end(&mut self, id: u64) {
        self.record(Event::SpanEnd { id });
    }
}

/// Forwarding impl so `&mut O` and `&mut dyn Observer` thread through
/// generic call sites.
impl<O: Observer + ?Sized> Observer for &mut O {
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }

    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// The do-nothing observer: every hook compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn is_enabled(&self) -> bool {
        false
    }
}

/// Fans every event out to several observers, in order — e.g. a metrics
/// collector plus a JSONL sink plus the CLI's human `note:` printer.
#[derive(Default)]
pub struct Tee<'a> {
    sinks: Vec<&'a mut dyn Observer>,
}

impl<'a> Tee<'a> {
    /// An empty tee (equivalent to [`NoopObserver`] until sinks are added).
    #[must_use]
    pub fn new() -> Self {
        Tee::default()
    }

    /// Adds a sink; events are delivered in insertion order.
    #[must_use]
    pub fn with(mut self, sink: &'a mut dyn Observer) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Observer for Tee<'_> {
    fn record(&mut self, event: Event) {
        for sink in &mut self.sinks {
            sink.record(event.clone());
        }
    }

    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::Recorder;

    #[test]
    fn noop_is_disabled_and_silent() {
        let mut noop = NoopObserver;
        assert!(!noop.is_enabled());
        noop.period_start(3);
        noop.merge(0, (1, 2), 3);
    }

    #[test]
    fn named_hooks_forward_to_record() {
        let mut rec = Recorder::new();
        rec.period_start(1);
        rec.message_branch(1, 0, 4, 6);
        rec.hypothesis_set(1, 6);
        rec.period_end(1, 2);
        let names: Vec<&str> = rec.events().iter().map(|e| e.event.name()).collect();
        assert_eq!(
            names,
            [
                "period_start",
                "message_branch",
                "hypothesis_set",
                "period_end"
            ]
        );
    }

    #[test]
    fn tee_fans_out_in_order() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        {
            let mut tee = Tee::new().with(&mut a).with(&mut b);
            assert!(tee.is_enabled());
            tee.period_start(0);
            tee.quarantine(1, "bad".into());
        }
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(a.events()[1].event, b.events()[1].event);
        assert!(!Tee::new().is_enabled());
    }

    #[test]
    fn mut_ref_forwards() {
        fn feed(mut obs: impl Observer) {
            obs.period_start(9);
        }
        let mut rec = Recorder::new();
        feed(&mut rec);
        assert_eq!(rec.len(), 1);
        assert!(Observer::is_enabled(&&mut rec));
    }
}
