//! Arrival pacing for the live load generator (`mpil-load`).
//!
//! Two classic load-generation disciplines over one bookkeeping core:
//!
//! * **Open loop** — requests become due on a fixed schedule (`rate`
//!   requests per second from time zero), independent of how fast the
//!   system answers. This is the honest way to measure latency under an
//!   *offered* rate: a slow server does not slow the arrival process
//!   down, it just piles up in-flight requests. A bounded in-flight
//!   window keeps a melted-down server from accumulating unbounded
//!   client state (requests due beyond the window are deferred, and the
//!   achieved-vs-offered gap is visible in the report).
//! * **Closed loop** — a fixed number of virtual workers, each issuing
//!   its next request the moment the previous one completes. Throughput
//!   is whatever the system sustains; the window *is* the worker count.
//!
//! The pacer is deliberately clock-free: callers feed it `now` as a
//! [`Duration`] since their own epoch (the daemon's [`WallClock`] in
//! production, a plain constant in tests), so every schedule decision is
//! a pure function of its inputs — this crate sits in the deterministic
//! zone of the contract (README "Determinism contract & lint rules",
//! rule D002) and must not read wall time itself.
//!
//! [`WallClock`]: crate::WallClock

use std::time::Duration;

/// The arrival discipline of a [`Pacer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacingMode {
    /// Fixed-schedule arrivals: request `i` (0-based) is due at
    /// `i / rate_per_s` seconds after time zero.
    Open {
        /// Target offered rate, requests per second. Must be positive.
        rate_per_s: f64,
    },
    /// Worker-style arrivals: a request is due whenever the in-flight
    /// count is below the window.
    Closed,
}

/// Schedules request issue times against a bounded in-flight window.
///
/// ```
/// use std::time::Duration;
/// use mpil_workload::Pacer;
///
/// // 100 req/s, at most 4 outstanding, 10 requests total.
/// let mut p = Pacer::open_loop(100.0, 4, 10);
/// // At t = 25 ms, arrivals 0..=2 are due (0, 10, 20 ms).
/// assert_eq!(p.due(Duration::from_millis(25)), 3);
/// p.record_issued(3);
/// assert_eq!(p.in_flight(), 3);
/// p.record_completed(1);
/// assert_eq!(p.completed(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pacer {
    mode: PacingMode,
    window: usize,
    total: u64,
    issued: u64,
    completed: u64,
}

impl Pacer {
    /// An open-loop pacer: `rate_per_s` arrivals per second, at most
    /// `window` in flight, `total` requests overall.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_s` is not positive or `window` is zero.
    pub fn open_loop(rate_per_s: f64, window: usize, total: u64) -> Self {
        assert!(
            rate_per_s > 0.0 && rate_per_s.is_finite(),
            "open-loop rate must be positive"
        );
        assert!(window > 0, "in-flight window must be positive");
        Pacer {
            mode: PacingMode::Open { rate_per_s },
            window,
            total,
            issued: 0,
            completed: 0,
        }
    }

    /// A closed-loop pacer: `workers` virtual workers (the in-flight
    /// window), `total` requests overall.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn closed_loop(workers: usize, total: u64) -> Self {
        assert!(workers > 0, "need at least one worker");
        Pacer {
            mode: PacingMode::Closed,
            window: workers,
            total,
            issued: 0,
            completed: 0,
        }
    }

    /// The arrival discipline.
    pub fn mode(&self) -> PacingMode {
        self.mode
    }

    /// The in-flight window (worker count in closed-loop mode).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests the pacer will issue over its lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Requests completed (or failed) so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        (self.issued - self.completed) as usize
    }

    /// `true` once every request has been issued *and* resolved.
    pub fn finished(&self) -> bool {
        self.issued == self.total && self.completed == self.issued
    }

    /// How many requests should be issued at time `now`: the arrivals
    /// the schedule has made due, capped by the free window slots and
    /// the remaining total.
    pub fn due(&self, now: Duration) -> u64 {
        let remaining = self.total - self.issued;
        let room = (self.window - self.in_flight()) as u64;
        let scheduled = match self.mode {
            PacingMode::Open { rate_per_s } => {
                // Arrival i is due at i / rate; by `now`, floor(now·rate) + 1
                // arrivals have passed their due time (arrival 0 at t = 0).
                // The cast saturates at u64::MAX, and so does the count.
                let due_by_now =
                    ((now.as_secs_f64() * rate_per_s).floor() as u64).saturating_add(1);
                due_by_now.saturating_sub(self.issued)
            }
            PacingMode::Closed => room,
        };
        scheduled.min(room).min(remaining)
    }

    /// The schedule time of the next arrival not yet issued: when
    /// [`Pacer::due`] turns positive, assuming a free window slot.
    /// `None` when everything has been issued, or in closed-loop mode
    /// (where issue times are completion-driven, not scheduled).
    pub fn next_due_at(&self) -> Option<Duration> {
        if self.issued >= self.total {
            return None;
        }
        match self.mode {
            PacingMode::Open { rate_per_s } => {
                Some(Duration::from_secs_f64(self.issued as f64 / rate_per_s))
            }
            PacingMode::Closed => None,
        }
    }

    /// Records `n` requests issued.
    ///
    /// # Panics
    ///
    /// Panics if this would exceed the total or the window.
    pub fn record_issued(&mut self, n: u64) {
        assert!(self.issued + n <= self.total, "issued past the total");
        self.issued += n;
        assert!(
            self.in_flight() <= self.window,
            "issued past the in-flight window"
        );
    }

    /// Records `n` requests resolved (completed or failed).
    ///
    /// # Panics
    ///
    /// Panics if more requests resolve than were issued.
    pub fn record_completed(&mut self, n: u64) {
        assert!(self.completed + n <= self.issued, "completed past issued");
        self.completed += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn open_loop_schedule_is_rate_times_time() {
        // 200 req/s: arrivals at 0, 5, 10, 15, ... ms.
        let mut p = Pacer::open_loop(200.0, 1000, 1000);
        assert_eq!(p.due(Duration::ZERO), 1, "arrival 0 is due at t = 0");
        assert_eq!(p.due(4 * MS), 1);
        assert_eq!(p.due(5 * MS), 2);
        assert_eq!(p.due(99 * MS), 20);
        p.record_issued(20);
        assert_eq!(p.due(99 * MS), 0, "schedule caught up");
        assert_eq!(p.due(100 * MS), 1);
    }

    #[test]
    fn open_loop_window_bounds_in_flight() {
        let mut p = Pacer::open_loop(1000.0, 4, 100);
        // At t = 1 s the schedule wants all 100, but only 4 fit.
        assert_eq!(p.due(Duration::from_secs(1)), 4);
        p.record_issued(4);
        assert_eq!(p.in_flight(), 4);
        assert_eq!(p.due(Duration::from_secs(1)), 0, "window full");
        p.record_completed(3);
        assert_eq!(p.due(Duration::from_secs(1)), 3, "slots freed");
        assert_eq!(p.in_flight(), 1);
    }

    #[test]
    fn open_loop_total_caps_the_schedule() {
        let mut p = Pacer::open_loop(100.0, 64, 5);
        assert_eq!(p.due(Duration::from_secs(10)), 5);
        p.record_issued(5);
        assert_eq!(p.due(Duration::from_secs(20)), 0);
        assert!(!p.finished(), "issued but not resolved");
        p.record_completed(5);
        assert!(p.finished());
    }

    #[test]
    fn a_rate_past_u64_makes_the_whole_window_due() {
        assert_eq!(Pacer::open_loop(1e300, 4, 10).due(MS), 4);
    }

    #[test]
    fn next_due_at_names_the_schedule_slot() {
        let mut p = Pacer::open_loop(100.0, 16, 10);
        assert_eq!(p.next_due_at(), Some(Duration::ZERO));
        p.record_issued(3);
        // Arrival 3 is due at 3/100 s = 30 ms.
        assert_eq!(p.next_due_at(), Some(30 * MS));
        p.record_issued(7);
        p.record_completed(10);
        assert_eq!(p.next_due_at(), None, "everything issued");
    }

    #[test]
    fn closed_loop_is_completion_driven() {
        let mut p = Pacer::closed_loop(3, 10);
        // Time is irrelevant: workers fill the window immediately.
        assert_eq!(p.due(Duration::ZERO), 3);
        assert_eq!(p.due(Duration::from_secs(999)), 3);
        p.record_issued(3);
        assert_eq!(p.due(Duration::ZERO), 0);
        assert_eq!(p.next_due_at(), None);
        p.record_completed(2);
        assert_eq!(p.due(Duration::ZERO), 2, "one new request per completion");
        p.record_issued(2);
        p.record_completed(3);
        assert_eq!(p.in_flight(), 0);
    }

    #[test]
    fn closed_loop_tail_respects_the_total() {
        let mut p = Pacer::closed_loop(4, 5);
        p.record_issued(4);
        p.record_completed(4);
        assert_eq!(p.due(Duration::ZERO), 1, "only one request left");
        p.record_issued(1);
        assert_eq!(p.due(Duration::ZERO), 0);
        p.record_completed(1);
        assert!(p.finished());
    }

    /// Only arrival 0 falls at t = 0; the next waits 1/rate.
    #[test]
    fn offered_rate_is_zero_at_time_zero() {
        let mut p = Pacer::open_loop(50.0, 4, 10);
        assert_eq!(p.due(Duration::ZERO), 1);
        p.record_issued(1);
        assert_eq!(p.due(Duration::ZERO), 0);
        assert_eq!(p.next_due_at(), Some(20 * MS));
    }

    #[test]
    #[should_panic(expected = "in-flight window")]
    fn issuing_past_the_window_panics() {
        let mut p = Pacer::open_loop(1000.0, 2, 10);
        p.record_issued(3);
    }

    #[test]
    #[should_panic(expected = "past the total")]
    fn issuing_past_the_total_panics() {
        let mut p = Pacer::closed_loop(8, 2);
        p.record_issued(3);
    }

    #[test]
    #[should_panic(expected = "completed past issued")]
    fn completing_more_than_issued_panics() {
        let mut p = Pacer::closed_loop(8, 5);
        p.record_issued(1);
        p.record_completed(2);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_is_rejected() {
        let _ = Pacer::open_loop(0.0, 1, 1);
    }
}
