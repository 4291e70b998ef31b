//! Open-loop pacing: event `i` is due at `start + i · period` whether or
//! not earlier events have finished.
//!
//! A stalled system therefore cannot slow the load down. Latency is timed
//! from the *due* time, so a stall also counts against every event that
//! queued behind it, and the generator's own lateness (send time minus due
//! time) is reported so a slow generator cannot hide as a fast system.

use std::time::{Duration, Instant};

/// A fixed-rate schedule anchored at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
}

impl Schedule {
    /// Events every `period`, the first due at `start`.
    pub fn new(start: Instant, period: Duration) -> Schedule {
        Schedule { start, period }
    }

    /// When event `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period * u32::try_from(i).expect("schedule index fits in u32")
    }

    /// Sleep until event `i` is due; returns how late the caller already
    /// was (zero when it had to wait).
    pub fn wait_for(&self, i: u64) -> Duration {
        let due = self.due(i);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            Duration::ZERO
        } else {
            now - due
        }
    }

    /// Latency of event `i` finishing at `done`, measured from its due time.
    pub fn latency(&self, i: u64, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }

    /// Whether event `i`, finishing at `done`, overran into the slot of
    /// event `i + 1`.
    pub fn overran(&self, i: u64, done: Instant) -> bool {
        done > self.due(i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_advance_by_the_period() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, Duration::from_millis(10));
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(7), t0 + Duration::from_millis(70));
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, Duration::from_millis(10));
        // Event 2 was due at +20 ms; a stall made it finish at +45 ms.
        let done = t0 + Duration::from_millis(45);
        assert_eq!(s.latency(2, done), Duration::from_millis(25));
        // Finishing before the due time (impossible in practice) is zero.
        assert_eq!(s.latency(9, done), Duration::ZERO);
        assert!(s.overran(2, done));
        assert!(!s.overran(4, done));
    }

    #[test]
    fn waiting_reports_lateness_only_when_behind() {
        let s = Schedule::new(Instant::now(), Duration::from_millis(2));
        // Event 1 lies in the future: the caller waits and is on time.
        assert_eq!(s.wait_for(1), Duration::ZERO);
        assert!(Instant::now() >= s.due(1));
        // Event 0 is already past: no wait, lateness is the overshoot.
        let late = s.wait_for(0);
        assert!(late >= Duration::from_millis(2), "{late:?}");
    }
}
