//! Chrome `trace_event` exporter.
//!
//! [`chrome_trace`] renders a recorded event stream as a JSON document
//! loadable by `chrome://tracing` / Perfetto: period boundaries become
//! `B`/`E` duration slices, hypothesis-set sizes and branching factors
//! become `C` counter tracks, and everything else becomes `i` instants, so
//! a learn run reads as a flame-and-counter timeline.
//!
//! [`SpanStart`]/[`SpanEnd`] events also become `B`/`E` slices. Span ids
//! carry their emitter lane in the high bits ([`SPAN_LANE_SHIFT`]): each
//! lane is rendered as its own `tid`, so interleaved shards appear as
//! parallel threads whose spans nest LIFO within the lane — exactly the
//! shape `chrome://tracing` requires.
//!
//! [`SpanStart`]: Event::SpanStart
//! [`SpanEnd`]: Event::SpanEnd

use std::collections::HashMap;

use crate::event::Event;
use crate::json::push_escaped;
use crate::sinks::TimedEvent;

/// Process id stamped on every trace event (one logical process).
const PID: u32 = 1;
/// Thread id stamped on every trace event (the learner is single-threaded).
const TID: u32 = 1;

/// Bit position separating a span id's lane (high bits) from its
/// within-lane counter (low bits). Emitters that interleave — e.g. stream
/// shards — must carve disjoint lanes so their spans stay LIFO per lane.
pub const SPAN_LANE_SHIFT: u32 = 40;

/// The Chrome `tid` a span id renders on: lane 0 shares the main thread,
/// lane `k` becomes `tid k+1`.
fn span_tid(id: u64) -> u32 {
    let lane = id >> SPAN_LANE_SHIFT;
    u32::try_from(lane).unwrap_or(u32::MAX - 1) + TID
}

/// Renders `events` (as captured by a [`Recorder`](crate::sinks::Recorder))
/// into a Chrome `trace_event` JSON document.
#[must_use]
pub fn chrome_trace(events: &[TimedEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    // Names of currently-open spans, so the closing `E` slice can repeat
    // the name its `B` opened with (what trace viewers expect).
    let mut open_spans: HashMap<u64, String> = HashMap::new();
    for timed in events {
        let ts = timed.at_micros;
        let entry = match &timed.event {
            Event::PeriodStart { period } => duration(
                ts,
                "B",
                &format!("period {period}"),
                &[("period", *period as u64)],
            ),
            Event::PeriodEnd { period, hypotheses } => duration(
                ts,
                "E",
                &format!("period {period}"),
                &[
                    ("period", *period as u64),
                    ("hypotheses", *hypotheses as u64),
                ],
            ),
            Event::HypothesisSet { size, .. } => {
                counter(ts, "hypotheses", &[("size", *size as u64)])
            }
            Event::MessageBranch {
                candidates,
                feasible,
                ..
            } => counter(
                ts,
                "branching",
                &[
                    ("candidates", *candidates as u64),
                    ("feasible", *feasible as u64),
                ],
            ),
            Event::Merge { merged_weight, .. } => {
                instant(ts, "merge", &[("merged_weight", *merged_weight)])
            }
            Event::BudgetTick {
                steps,
                elapsed_micros,
            } => counter(
                ts,
                "budget",
                &[("steps", *steps as u64), ("elapsed_us", *elapsed_micros)],
            ),
            Event::Quarantine { period, .. } => {
                instant(ts, "quarantine", &[("period", *period as u64)])
            }
            Event::RepairAction { period, .. } => {
                instant(ts, "repair", &[("period", *period as u64)])
            }
            Event::FaultInjected { period, .. } => {
                instant(ts, "fault", &[("period", *period as u64)])
            }
            Event::Fallback { bound } => instant(ts, "fallback", &[("bound", *bound as u64)]),
            Event::Convergence {
                period,
                hypotheses,
                distance_to_final,
                ..
            } => counter(
                ts,
                "convergence",
                &[
                    ("period", *period as u64),
                    ("hypotheses", *hypotheses as u64),
                    ("distance", *distance_to_final),
                ],
            ),
            Event::Note { text } => {
                let mut name = String::from("note: ");
                push_escaped(&mut name, text);
                raw_instant(ts, &name)
            }
            Event::Checkpoint { period, .. } => {
                instant(ts, "checkpoint", &[("period", *period as u64)])
            }
            Event::ShardHealth {
                source,
                state,
                periods,
                ..
            } => instant(
                ts,
                &format!("shard {source}: {state}"),
                &[("periods", *periods as u64)],
            ),
            Event::SpanStart { id, parent, name } => {
                open_spans.insert(*id, name.clone());
                span_slice(
                    ts,
                    "B",
                    name,
                    span_tid(*id),
                    &[("id", *id), ("parent", *parent)],
                )
            }
            Event::SpanEnd { id } => {
                let name = open_spans.remove(id).unwrap_or_else(|| "span".into());
                span_slice(ts, "E", &name, span_tid(*id), &[("id", *id)])
            }
            Event::AuditFinding {
                code,
                severity,
                artifact,
                ..
            } => {
                let mut name = String::new();
                push_escaped(&mut name, &format!("{code} [{severity}] {artifact}"));
                raw_instant(ts, &name)
            }
        };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&entry);
    }
    out.push_str("]}");
    out
}

fn header(ts: u64, ph: &str, name: &str) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"name\":\"");
    push_escaped(&mut out, name);
    out.push_str(&format!(
        "\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{PID},\"tid\":{TID}"
    ));
    out
}

fn with_args(mut entry: String, args: &[(&str, u64)]) -> String {
    entry.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            entry.push(',');
        }
        entry.push_str(&format!("\"{key}\":{value}"));
    }
    entry.push_str("}}");
    entry
}

fn duration(ts: u64, ph: &str, name: &str, args: &[(&str, u64)]) -> String {
    with_args(header(ts, ph, name), args)
}

fn span_slice(ts: u64, ph: &str, name: &str, tid: u32, args: &[(&str, u64)]) -> String {
    let mut entry = String::with_capacity(96);
    entry.push_str("{\"name\":\"");
    push_escaped(&mut entry, name);
    entry.push_str(&format!(
        "\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{PID},\"tid\":{tid}"
    ));
    with_args(entry, args)
}

fn counter(ts: u64, name: &str, args: &[(&str, u64)]) -> String {
    with_args(header(ts, "C", name), args)
}

fn instant(ts: u64, name: &str, args: &[(&str, u64)]) -> String {
    let mut entry = header(ts, "i", name);
    entry.push_str(",\"s\":\"t\"");
    with_args(entry, args)
}

fn raw_instant(ts: u64, name: &str) -> String {
    // `name` is pre-escaped by the caller.
    format!(
        "{{\"name\":\"{name}\",\"ph\":\"i\",\"ts\":{ts},\"pid\":{PID},\"tid\":{TID},\"s\":\"t\"}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::observer::Observer;
    use crate::sinks::Recorder;

    #[test]
    fn trace_is_valid_json_with_matched_slices() {
        let mut rec = Recorder::new();
        rec.period_start(0);
        rec.message_branch(0, 0, 2, 4);
        rec.hypothesis_set(0, 4);
        rec.merge(0, (1, 2), 3);
        rec.budget_tick(1024, 12);
        rec.period_end(0, 2);
        rec.quarantine(1, "bad \"period\"".into());
        rec.record(Event::Note {
            text: "kept 1/2".into(),
        });
        let doc = chrome_trace(rec.events());
        let parsed = parse(&doc).expect("chrome trace parses as JSON");
        let Some(Json::Array(entries)) = parsed.get("traceEvents") else {
            panic!("traceEvents array")
        };
        assert_eq!(entries.len(), 8);
        let phases: Vec<&str> = entries
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "B").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "E").count(), 1);
        assert!(phases.contains(&"C"));
        assert!(phases.contains(&"i"));
        for entry in entries {
            assert_eq!(
                entry.get("pid").and_then(Json::as_u64),
                Some(u64::from(PID))
            );
            assert!(entry.get("ts").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn spans_render_as_matched_slices_on_their_lane() {
        let lane1 = 1u64 << SPAN_LANE_SHIFT;
        let lane2 = 2u64 << SPAN_LANE_SHIFT;
        let mut rec = Recorder::new();
        rec.span_start(lane1 + 1, 0, "shard a".into());
        rec.span_start(lane2 + 1, 0, "shard b".into());
        rec.span_start(lane1 + 2, lane1 + 1, "ingest".into());
        rec.span_end(lane1 + 2);
        rec.span_end(lane2 + 1);
        rec.span_end(lane1 + 1);
        let doc = chrome_trace(rec.events());
        let parsed = parse(&doc).expect("span trace parses as JSON");
        let Some(Json::Array(entries)) = parsed.get("traceEvents") else {
            panic!("traceEvents array")
        };
        assert_eq!(entries.len(), 6);
        // Every E repeats the name of the B that opened it, on the same tid.
        let slice = |i: usize| {
            let e = &entries[i];
            (
                e.get("ph").and_then(Json::as_str).unwrap().to_string(),
                e.get("name").and_then(Json::as_str).unwrap().to_string(),
                e.get("tid").and_then(Json::as_u64).unwrap(),
            )
        };
        assert_eq!(slice(0), ("B".into(), "shard a".into(), 2));
        assert_eq!(slice(1), ("B".into(), "shard b".into(), 3));
        assert_eq!(slice(2), ("B".into(), "ingest".into(), 2));
        assert_eq!(slice(3), ("E".into(), "ingest".into(), 2));
        assert_eq!(slice(4), ("E".into(), "shard b".into(), 3));
        assert_eq!(slice(5), ("E".into(), "shard a".into(), 2));
    }

    #[test]
    fn empty_stream_renders_empty_trace() {
        let doc = chrome_trace(&[]);
        let parsed = parse(&doc).unwrap();
        assert_eq!(parsed.get("traceEvents"), Some(&Json::Array(Vec::new())));
    }
}
