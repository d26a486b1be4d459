//! CAN-style shared bus with identifier-based arbitration.

use bbmg_moc::ChannelId;

/// A frame waiting for, or occupying, the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame {
    /// The design-model channel this frame realizes.
    pub channel: ChannelId,
    /// CAN identifier; **lower wins arbitration** (CAN dominant-bit rule).
    pub can_id: u32,
    /// When the frame was queued by its sender.
    pub queued_at: u64,
}

/// The shared bus: non-preemptive, one frame at a time, pending frames
/// arbitrated by CAN identifier (lowest id wins; FIFO per id).
///
/// The bus is deliberately minimal — exactly the observable the paper's
/// logging device records: anonymous frames with rise/fall times.
#[derive(Debug, Clone, Default)]
pub struct CanBus {
    pending: Vec<Frame>,
    transmitting: Option<(Frame, u64)>, // (frame, fall time)
}

impl CanBus {
    /// An idle bus with no pending frames.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn queue(&mut self, frame: Frame) {
        self.pending.push(frame);
    }

    /// Starts transmitting the arbitration winner, if the bus is idle and a
    /// frame is pending. Returns the started frame and its fall time.
    pub(crate) fn try_start(&mut self, now: u64, frame_time: u64) -> Option<(Frame, u64)> {
        if self.transmitting.is_some() || self.pending.is_empty() {
            return None;
        }
        // Arbitration: lowest CAN id wins; ties broken by queueing time
        // then channel id for determinism.
        let winner = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| (f.can_id, f.queued_at, f.channel))
            .map(|(i, _)| i)
            .expect("pending is nonempty");
        let frame = self.pending.remove(winner);
        let fall = now + frame_time;
        self.transmitting = Some((frame, fall));
        Some((frame, fall))
    }

    /// Completes the current transmission (at its fall time), freeing the
    /// bus. Returns the completed frame.
    ///
    /// # Panics
    ///
    /// Panics if the bus is idle.
    pub(crate) fn finish(&mut self) -> Frame {
        let (frame, _) = self.transmitting.take().expect("bus is transmitting");
        frame
    }

    /// The fall time of the frame currently on the bus, if any.
    #[must_use]
    pub fn busy_until(&self) -> Option<u64> {
        self.transmitting.as_ref().map(|&(_, fall)| fall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(channel: usize, can_id: u32, queued_at: u64) -> Frame {
        Frame {
            channel: ChannelId(channel),
            can_id,
            queued_at,
        }
    }

    #[test]
    fn idle_bus_starts_highest_priority_frame() {
        let mut bus = CanBus::new();
        bus.queue(frame(0, 10, 0));
        bus.queue(frame(1, 3, 0));
        bus.queue(frame(2, 7, 0));
        let (started, fall) = bus.try_start(100, 5).unwrap();
        assert_eq!(started.can_id, 3);
        assert_eq!(fall, 105);
        assert_eq!(bus.pending.len(), 2);
        assert_eq!(bus.busy_until(), Some(105));
    }

    #[test]
    fn busy_bus_does_not_preempt() {
        let mut bus = CanBus::new();
        bus.queue(frame(0, 10, 0));
        bus.try_start(0, 5).unwrap();
        bus.queue(frame(1, 1, 1));
        assert!(bus.try_start(2, 5).is_none(), "non-preemptive");
        let done = bus.finish();
        assert_eq!(done.can_id, 10);
        let (next, _) = bus.try_start(5, 5).unwrap();
        assert_eq!(next.can_id, 1);
    }

    #[test]
    fn ties_break_by_queue_time() {
        let mut bus = CanBus::new();
        bus.queue(frame(5, 4, 9));
        bus.queue(frame(3, 4, 2));
        let (started, _) = bus.try_start(10, 1).unwrap();
        assert_eq!(started.channel, ChannelId(3));
    }

    #[test]
    #[should_panic(expected = "bus is transmitting")]
    fn finish_on_idle_bus_panics() {
        CanBus::new().finish();
    }
}
