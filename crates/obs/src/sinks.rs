//! Composable event sinks: in-memory recording and streaming JSONL.

use std::io::{self, Write};
use std::time::Instant;

use crate::event::Event;
use crate::observer::Observer;

/// An [`Event`] stamped with the elapsed time at which the sink saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedEvent {
    /// Microseconds since the sink was created.
    pub at_micros: u64,
    /// The event.
    pub event: Event,
}

/// In-memory sink: every event, timestamped, in arrival order. The buffer
/// feeds post-hoc analysis — metrics recomputation, the
/// [Chrome-trace exporter](crate::chrome_trace), test golden files.
#[derive(Debug, Clone)]
pub struct Recorder {
    start: Instant,
    events: Vec<TimedEvent>,
}

impl Recorder {
    /// An empty recorder; the timestamp clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            start: Instant::now(),
            events: Vec::new(),
        }
    }

    /// The recorded events in arrival order.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Observer for Recorder {
    fn record(&mut self, event: Event) {
        let at_micros = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.events.push(TimedEvent { at_micros, event });
    }
}

/// Streaming sink writing one JSON object per line (JSONL).
///
/// Timestamps (`t_us`, elapsed microseconds) are stamped by default; switch
/// them off with [`without_timestamps`](JsonlSink::without_timestamps) for
/// byte-deterministic output (golden tests, diffable artifacts).
///
/// Write errors are sticky: the first failure stops further writing and is
/// surfaced by [`finish`](JsonlSink::finish).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    start: Instant,
    timestamps: bool,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`; the timestamp clock starts now.
    #[must_use]
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            start: Instant::now(),
            timestamps: true,
            error: None,
        }
    }

    /// Returns `self` with timestamp stamping disabled (deterministic
    /// output).
    #[must_use]
    pub fn without_timestamps(mut self) -> Self {
        self.timestamps = false;
        self
    }

    /// Flushes and returns the writer, or the first write error.
    ///
    /// # Errors
    ///
    /// The first sticky write error, if any write failed.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(err) = self.error {
            return Err(err);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn record(&mut self, event: Event) {
        if self.error.is_some() {
            return;
        }
        let t_us = self
            .timestamps
            .then(|| u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX));
        let mut line = event.to_json(t_us);
        line.push('\n');
        if let Err(err) = self.writer.write_all(line.as_bytes()) {
            self.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_order_and_monotone_stamps() {
        let mut rec = Recorder::new();
        rec.period_start(0);
        rec.hypothesis_set(0, 3);
        rec.period_end(0, 3);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new()).without_timestamps();
        sink.period_start(2);
        sink.merge(2, (1, 3), 4);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"event\":\"period_start\",\"period\":2}\n\
             {\"event\":\"merge\",\"period\":2,\"weight_a\":1,\"weight_b\":3,\"merged_weight\":4}\n"
        );
    }

    #[test]
    fn jsonl_sink_stamps_time_by_default() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.period_start(0);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        assert!(text.contains("\"t_us\":"), "{text}");
    }

    #[test]
    fn jsonl_write_errors_are_sticky() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.period_start(0);
        sink.period_start(1); // must not panic, already failed
        assert!(sink.finish().is_err());
    }
}
