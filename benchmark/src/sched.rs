//! Open-loop send schedule.
//!
//! Frames fall due on a fixed grid set by the offered rate, whether or
//! not the system keeps up. Every latency is measured from a frame's
//! **due** time, not from when it was actually written, so a stall that
//! delays later frames is charged to them (no coordinated omission).
//! The pacer also reports how late the generator itself ran and how
//! many frames were still unsent when the schedule ended.

/// What the sender should do at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Send frame `idx` now; its latency clock started at `due_ns`.
    Due { idx: usize, due_ns: u64 },
    /// Nothing is due for this many nanoseconds.
    Wait(u64),
    /// Every frame has been handed out.
    Done,
}

/// A fixed-rate schedule over `frames` frames of `frame_events` events.
#[derive(Debug)]
pub struct Pacer {
    interval_ns: f64,
    frames: usize,
    next: usize,
    late_max_ns: u64,
    backlog_at_end: Option<usize>,
}

impl Pacer {
    pub fn new(events_per_s: f64, frame_events: usize, frames: usize) -> Pacer {
        Pacer {
            interval_ns: frame_events as f64 * 1e9 / events_per_s,
            frames,
            next: 0,
            late_max_ns: 0,
            backlog_at_end: None,
        }
    }

    /// Offset from the schedule's start at which frame `idx` falls due.
    pub fn due_ns(&self, idx: usize) -> u64 {
        (idx as f64 * self.interval_ns) as u64
    }

    /// Advances the schedule to `now_ns` (nanoseconds since its start).
    pub fn poll(&mut self, now_ns: u64) -> Poll {
        if self.next >= self.frames {
            return Poll::Done;
        }
        let last_due = self.due_ns(self.frames - 1);
        if now_ns >= last_due && self.backlog_at_end.is_none() {
            // The schedule has run out: whatever precedes the final
            // frame and is still unsent is backlog the run left behind.
            self.backlog_at_end = Some(self.frames - 1 - self.next);
        }
        let due_ns = self.due_ns(self.next);
        if now_ns < due_ns {
            return Poll::Wait(due_ns - now_ns);
        }
        self.late_max_ns = self.late_max_ns.max(now_ns - due_ns);
        let idx = self.next;
        self.next += 1;
        Poll::Due { idx, due_ns }
    }

    /// The most any frame was handed out after its due time.
    pub fn late_max_ns(&self) -> u64 {
        self.late_max_ns
    }

    /// Frames before the last that were still unsent when the last one
    /// fell due; 0 when the generator and the system kept up.
    pub fn backlog_at_end(&self) -> usize {
        self.backlog_at_end.unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_fall_due_on_the_rate_grid() {
        // 1000 events/s in frames of 10: one frame every 10 ms.
        let mut p = Pacer::new(1000.0, 10, 3);
        assert_eq!(p.poll(0), Poll::Due { idx: 0, due_ns: 0 });
        assert_eq!(p.poll(1_000_000), Poll::Wait(9_000_000));
        assert_eq!(
            p.poll(10_000_000),
            Poll::Due {
                idx: 1,
                due_ns: 10_000_000
            }
        );
        assert_eq!(
            p.poll(20_000_000),
            Poll::Due {
                idx: 2,
                due_ns: 20_000_000
            }
        );
        assert_eq!(p.poll(20_000_001), Poll::Done);
        assert_eq!(p.late_max_ns(), 0);
        assert_eq!(p.backlog_at_end(), 0);
    }

    #[test]
    fn a_stall_is_charged_from_due_time_and_reported_as_lateness() {
        let mut p = Pacer::new(1000.0, 10, 4);
        assert!(matches!(p.poll(0), Poll::Due { idx: 0, .. }));
        // The sender stalls for 35 ms: frames 1..=3 all fell due
        // meanwhile. Each is still stamped with its *own* due time, so
        // a latency measured from it includes the wait the stall caused.
        let now = 35_000_000;
        assert_eq!(
            p.poll(now),
            Poll::Due {
                idx: 1,
                due_ns: 10_000_000
            }
        );
        assert_eq!(
            p.poll(now),
            Poll::Due {
                idx: 2,
                due_ns: 20_000_000
            }
        );
        assert_eq!(
            p.poll(now),
            Poll::Due {
                idx: 3,
                due_ns: 30_000_000
            }
        );
        assert_eq!(p.poll(now), Poll::Done);
        assert_eq!(p.late_max_ns(), 25_000_000);
        // When the last frame fell due (30 ms), frames 1 and 2 were
        // still unsent.
        assert_eq!(p.backlog_at_end(), 2);
    }
}
