//! The learner event taxonomy.
//!
//! Every instrumented layer — the core learner, its degrading incremental
//! engine, the trace sanitizer, the fault injector — speaks this one vocabulary, so a
//! single sink sees the whole pipeline. Hot-path events
//! ([`MessageBranch`], [`HypothesisSet`], [`Merge`], [`BudgetTick`]) carry
//! only integers and are cheap to construct; cold-path events (quarantines,
//! repairs, notes) may carry strings.
//!
//! [`MessageBranch`]: Event::MessageBranch
//! [`HypothesisSet`]: Event::HypothesisSet
//! [`Merge`]: Event::Merge
//! [`BudgetTick`]: Event::BudgetTick

use std::fmt;

use crate::json::push_escaped;

/// One observable occurrence in a learn/repair/simulate pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// The learner started processing a period.
    PeriodStart {
        /// Period index as seen by the learner.
        period: usize,
    },
    /// The learner finished a period (post-processing done).
    PeriodEnd {
        /// Period index.
        period: usize,
        /// Hypothesis-set size after post-processing.
        hypotheses: usize,
    },
    /// One message's branching step: the exponential core of Theorem 1.
    MessageBranch {
        /// Period index.
        period: usize,
        /// Message id (occurrence index within the trace).
        message: usize,
        /// Timing-feasible sender/receiver pairs `|A_m|`.
        candidates: usize,
        /// Distinct children generated across the current hypothesis set.
        feasible: usize,
    },
    /// Working hypothesis-set size after a message was absorbed.
    HypothesisSet {
        /// Period index.
        period: usize,
        /// Current set size.
        size: usize,
    },
    /// The bounded heuristic merged the two lowest-weight hypotheses
    /// into their least upper bound (paper §3.2).
    Merge {
        /// Period index.
        period: usize,
        /// Weights of the two merged hypotheses.
        weights: (u64, u64),
        /// Weight of the merged result.
        merged_weight: u64,
    },
    /// A period was quarantined (incremental learner or trace sanitizer).
    Quarantine {
        /// Period index (original numbering of the emitting layer).
        period: usize,
        /// Diagnosis, e.g. "inconsistent at message m3".
        reason: String,
    },
    /// Sampled budget heartbeat from the hot loop.
    BudgetTick {
        /// Hypotheses generated so far.
        steps: usize,
        /// Wall-clock time since the learner was created, in microseconds.
        elapsed_micros: u64,
    },
    /// The trace sanitizer changed the capture.
    RepairAction {
        /// Original period index.
        period: usize,
        /// Rendered [`RepairAction`](https://docs.rs/bbmg-trace) detail.
        action: String,
    },
    /// The fault injector corrupted the capture (ground truth).
    FaultInjected {
        /// Period index.
        period: usize,
        /// Fault class, e.g. "dropped_event".
        kind: String,
    },
    /// The incremental learner fell back from the exact algorithm to the
    /// bounded heuristic, seeded from the current antichain.
    Fallback {
        /// Bound of the replacement heuristic.
        bound: usize,
    },
    /// Convergence-timeline sample (paper §4): distance from the
    /// hypothesis set after this period to the final learned model.
    Convergence {
        /// Period index.
        period: usize,
        /// Hypothesis count after this period.
        hypotheses: usize,
        /// Weight of the least upper bound after this period.
        lub_weight: u64,
        /// Pointwise lattice distance from this period's LUB to the final
        /// LUB.
        distance_to_final: u64,
    },
    /// Free-form diagnostic aimed at humans (the CLI's `note:` lines).
    Note {
        /// The message.
        text: String,
    },
    /// A checkpoint of the incremental learner's state was written.
    Checkpoint {
        /// Number of periods absorbed into the checkpointed state.
        period: usize,
        /// Fingerprint of the checkpointed hypothesis antichain.
        fingerprint: u64,
    },
    /// A supervised stream shard changed state or reported vitals.
    ShardHealth {
        /// Source id the shard is keyed by.
        source: String,
        /// Shard lifecycle state, e.g. "exact", "degraded", "shedding",
        /// "restarting", "stopped".
        state: String,
        /// Periods the shard has ingested so far.
        periods: usize,
        /// Human-readable detail (watermark crossing, restart cause, …).
        detail: String,
    },
    /// A named span of work opened. Spans nest: `parent` is the id of the
    /// enclosing open span, or 0 for a root. Ids are monotonic within one
    /// emitter; concurrent emitters (stream shards) carve disjoint id
    /// ranges so a merged stream stays unambiguous.
    SpanStart {
        /// Span id, unique within the event stream; never 0.
        id: u64,
        /// Id of the enclosing span, or 0 for a root span.
        parent: u64,
        /// Span name, e.g. "ingest", "sanitize", "learn", "checkpoint".
        name: String,
    },
    /// The span with the given id closed. Spans close LIFO within one
    /// emitter, so a Chrome-trace exporter can map them to B/E slices.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
    },
    /// A static-analysis diagnostic from `bbmg-audit` (one per finding).
    AuditFinding {
        /// Stable diagnostic code, e.g. "BBMG012".
        code: String,
        /// Severity: "error" or "warning".
        severity: String,
        /// Path of the artifact the finding is against.
        artifact: String,
        /// Human-readable diagnosis.
        message: String,
    },
}

impl Event {
    /// Stable machine-readable name of the event kind (the JSONL `event`
    /// field).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::PeriodStart { .. } => "period_start",
            Event::PeriodEnd { .. } => "period_end",
            Event::MessageBranch { .. } => "message_branch",
            Event::HypothesisSet { .. } => "hypothesis_set",
            Event::Merge { .. } => "merge",
            Event::Quarantine { .. } => "quarantine",
            Event::BudgetTick { .. } => "budget_tick",
            Event::RepairAction { .. } => "repair_action",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Fallback { .. } => "fallback",
            Event::Convergence { .. } => "convergence",
            Event::Note { .. } => "note",
            Event::Checkpoint { .. } => "checkpoint",
            Event::ShardHealth { .. } => "shard_health",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
            Event::AuditFinding { .. } => "audit_finding",
        }
    }

    /// The period index the event refers to, if it has one.
    #[must_use]
    pub fn period(&self) -> Option<usize> {
        match self {
            Event::PeriodStart { period }
            | Event::PeriodEnd { period, .. }
            | Event::MessageBranch { period, .. }
            | Event::HypothesisSet { period, .. }
            | Event::Merge { period, .. }
            | Event::Quarantine { period, .. }
            | Event::RepairAction { period, .. }
            | Event::FaultInjected { period, .. }
            | Event::Convergence { period, .. }
            | Event::Checkpoint { period, .. } => Some(*period),
            Event::BudgetTick { .. }
            | Event::Fallback { .. }
            | Event::Note { .. }
            | Event::ShardHealth { .. }
            | Event::SpanStart { .. }
            | Event::SpanEnd { .. }
            | Event::AuditFinding { .. } => None,
        }
    }

    /// Serializes the event as one JSON object, with an optional
    /// `t_us` (elapsed microseconds) field stamped by the sink.
    #[must_use]
    pub fn to_json(&self, t_us: Option<u64>) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"event\":\"");
        out.push_str(self.name());
        out.push('"');
        if let Some(t) = t_us {
            out.push_str(&format!(",\"t_us\":{t}"));
        }
        let field_u = |out: &mut String, key: &str, value: u64| {
            out.push_str(&format!(",\"{key}\":{value}"));
        };
        match self {
            Event::PeriodStart { period } => {
                field_u(&mut out, "period", *period as u64);
            }
            Event::PeriodEnd { period, hypotheses } => {
                field_u(&mut out, "period", *period as u64);
                field_u(&mut out, "hypotheses", *hypotheses as u64);
            }
            Event::MessageBranch {
                period,
                message,
                candidates,
                feasible,
            } => {
                field_u(&mut out, "period", *period as u64);
                field_u(&mut out, "message", *message as u64);
                field_u(&mut out, "candidates", *candidates as u64);
                field_u(&mut out, "feasible", *feasible as u64);
            }
            Event::HypothesisSet { period, size } => {
                field_u(&mut out, "period", *period as u64);
                field_u(&mut out, "size", *size as u64);
            }
            Event::Merge {
                period,
                weights,
                merged_weight,
            } => {
                field_u(&mut out, "period", *period as u64);
                field_u(&mut out, "weight_a", weights.0);
                field_u(&mut out, "weight_b", weights.1);
                field_u(&mut out, "merged_weight", *merged_weight);
            }
            Event::Quarantine { period, reason } => {
                field_u(&mut out, "period", *period as u64);
                out.push_str(",\"reason\":\"");
                push_escaped(&mut out, reason);
                out.push('"');
            }
            Event::BudgetTick {
                steps,
                elapsed_micros,
            } => {
                field_u(&mut out, "steps", *steps as u64);
                field_u(&mut out, "elapsed_us", *elapsed_micros);
            }
            Event::RepairAction { period, action } => {
                field_u(&mut out, "period", *period as u64);
                out.push_str(",\"action\":\"");
                push_escaped(&mut out, action);
                out.push('"');
            }
            Event::FaultInjected { period, kind } => {
                field_u(&mut out, "period", *period as u64);
                out.push_str(",\"kind\":\"");
                push_escaped(&mut out, kind);
                out.push('"');
            }
            Event::Fallback { bound } => {
                field_u(&mut out, "bound", *bound as u64);
            }
            Event::Convergence {
                period,
                hypotheses,
                lub_weight,
                distance_to_final,
            } => {
                field_u(&mut out, "period", *period as u64);
                field_u(&mut out, "hypotheses", *hypotheses as u64);
                field_u(&mut out, "lub_weight", *lub_weight);
                field_u(&mut out, "distance_to_final", *distance_to_final);
            }
            Event::Note { text } => {
                out.push_str(",\"text\":\"");
                push_escaped(&mut out, text);
                out.push('"');
            }
            Event::Checkpoint {
                period,
                fingerprint,
            } => {
                field_u(&mut out, "period", *period as u64);
                // Hex string: u64 fingerprints do not fit an f64-backed
                // JSON number losslessly.
                out.push_str(&format!(",\"fingerprint\":\"{fingerprint:016x}\""));
            }
            Event::ShardHealth {
                source,
                state,
                periods,
                detail,
            } => {
                out.push_str(",\"source\":\"");
                push_escaped(&mut out, source);
                out.push_str("\",\"state\":\"");
                push_escaped(&mut out, state);
                out.push('"');
                field_u(&mut out, "periods", *periods as u64);
                out.push_str(",\"detail\":\"");
                push_escaped(&mut out, detail);
                out.push('"');
            }
            Event::SpanStart { id, parent, name } => {
                field_u(&mut out, "id", *id);
                field_u(&mut out, "parent", *parent);
                out.push_str(",\"name\":\"");
                push_escaped(&mut out, name);
                out.push('"');
            }
            Event::SpanEnd { id } => {
                field_u(&mut out, "id", *id);
            }
            Event::AuditFinding {
                code,
                severity,
                artifact,
                message,
            } => {
                out.push_str(",\"code\":\"");
                push_escaped(&mut out, code);
                out.push_str("\",\"severity\":\"");
                push_escaped(&mut out, severity);
                out.push_str("\",\"artifact\":\"");
                push_escaped(&mut out, artifact);
                out.push_str("\",\"message\":\"");
                push_escaped(&mut out, message);
                out.push('"');
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Quarantine { reason, .. } => write!(f, "{reason}"),
            Event::RepairAction { action, .. } => write!(f, "{action}"),
            Event::FaultInjected { period, kind } => write!(f, "period {period}: {kind}"),
            Event::Fallback { bound } => {
                write!(f, "fell back to the bounded heuristic (bound {bound})")
            }
            Event::Note { text } => write!(f, "{text}"),
            Event::Checkpoint {
                period,
                fingerprint,
            } => write!(f, "checkpoint after period {period} ({fingerprint:016x})"),
            Event::ShardHealth {
                source,
                state,
                periods,
                detail,
            } => write!(
                f,
                "shard {source} [{state}] after {periods} period(s): {detail}"
            ),
            Event::SpanStart { id, parent, name } => {
                write!(f, "span {id} ({name}) opened under {parent}")
            }
            Event::SpanEnd { id } => write!(f, "span {id} closed"),
            Event::AuditFinding {
                code,
                severity,
                artifact,
                message,
            } => write!(f, "{code} [{severity}] {artifact}: {message}"),
            other => write!(f, "{}", other.to_json(None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn every_event_serializes_to_valid_json() {
        let events = [
            Event::PeriodStart { period: 1 },
            Event::PeriodEnd {
                period: 1,
                hypotheses: 4,
            },
            Event::MessageBranch {
                period: 1,
                message: 7,
                candidates: 3,
                feasible: 9,
            },
            Event::HypothesisSet { period: 1, size: 5 },
            Event::Merge {
                period: 1,
                weights: (2, 4),
                merged_weight: 6,
            },
            Event::Quarantine {
                period: 2,
                reason: "inconsistent \"here\"".into(),
            },
            Event::BudgetTick {
                steps: 1024,
                elapsed_micros: 55,
            },
            Event::RepairAction {
                period: 0,
                action: "synthesized end".into(),
            },
            Event::FaultInjected {
                period: 3,
                kind: "dropped_event".into(),
            },
            Event::Fallback { bound: 64 },
            Event::Convergence {
                period: 5,
                hypotheses: 2,
                lub_weight: 10,
                distance_to_final: 3,
            },
            Event::Note { text: "hi".into() },
            Event::Checkpoint {
                period: 6,
                fingerprint: 0xDEAD_BEEF_0123_4567,
            },
            Event::ShardHealth {
                source: "carA".into(),
                state: "degraded".into(),
                periods: 12,
                detail: "watermark crossed".into(),
            },
            Event::SpanStart {
                id: 7,
                parent: 0,
                name: "ingest".into(),
            },
            Event::SpanEnd { id: 7 },
            Event::AuditFinding {
                code: "BBMG012".into(),
                severity: "error".into(),
                artifact: "model.ckpt".into(),
                message: "cell 2 holds the invalid lattice code 100".into(),
            },
        ];
        for event in &events {
            let parsed = parse(&event.to_json(Some(12))).unwrap();
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some(event.name()),
                "{event:?}"
            );
            assert_eq!(parsed.get("t_us").and_then(Json::as_u64), Some(12));
            if let Some(p) = event.period() {
                assert_eq!(parsed.get("period").and_then(Json::as_u64), Some(p as u64));
            }
            assert!(!event.to_string().is_empty());
        }
    }

    #[test]
    fn timestamp_is_optional() {
        let json = Event::PeriodStart { period: 0 }.to_json(None);
        assert_eq!(json, "{\"event\":\"period_start\",\"period\":0}");
    }
}
