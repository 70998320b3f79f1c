//! The open-loop schedule: when each request is due, independent of
//! how the service is doing.
//!
//! The scheduler never reads a clock; the caller passes `now`, so the
//! unit test drives it with a mock one. A request's latency is timed
//! from its *due* instant, not from when the generator got round to
//! sending it, so a stall in the service (or in the generator) is
//! charged to every request it delayed. How late sends ran is reported
//! separately as generator lag.

use crate::svc::mix;

/// A request the schedule has released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// 0-based position in the schedule.
    pub seq: u64,
    /// Nanoseconds into the phase at which it was due.
    pub due_ns: u64,
    /// How far behind the schedule the generator is sending it.
    pub lag_ns: u64,
}

/// A schedule of `rate` requests per second with a cap on requests in
/// flight: evenly spaced, or arriving as independent users do.
#[derive(Debug)]
pub struct OpenLoop {
    interval_ns: f64,
    end_ns: u64,
    cap: usize,
    next_seq: u64,
    /// When request `next_seq` is due.
    next_due_ns: f64,
    /// Seed of the exponential gaps; `None` for even spacing.
    arrivals: Option<u64>,
}

impl OpenLoop {
    /// `rate` evenly spaced requests per second for `duration_ns`,
    /// never more than `cap` in flight.
    pub fn new(rate: f64, duration_ns: u64, cap: usize) -> Self {
        assert!(rate > 0.0 && cap > 0, "rate and cap must be positive");
        OpenLoop {
            interval_ns: 1e9 / rate,
            end_ns: duration_ns,
            cap,
            next_seq: 0,
            next_due_ns: 0.0,
            arrivals: None,
        }
    }

    /// The same mean rate with exponentially distributed gaps drawn from
    /// `seed` (Poisson arrivals): what independent users produce.
    ///
    /// It is also what makes an open-loop latency repeat here. The
    /// daemon and the channel client poll in 1 ms quanta; requests spaced
    /// exactly 2 ms apart keep one phase against those polls for seconds
    /// at a time, and the typical latency then sat at 1.8 or at 2.2 ms
    /// from slice to slice and run to run, depending on the phase.
    /// Random gaps meet every phase in every slice.
    pub fn poisson(rate: f64, duration_ns: u64, cap: usize, seed: u64) -> Self {
        OpenLoop {
            arrivals: Some(seed),
            ..Self::new(rate, duration_ns, cap)
        }
    }

    /// The gap between request `seq` and the one after it.
    fn gap_after(&self, seq: u64) -> f64 {
        match self.arrivals {
            None => self.interval_ns,
            Some(seed) => {
                // 53 random bits as a uniform in [0, 1).
                let u = (mix(seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 11) as f64
                    / (1u64 << 53) as f64;
                -(1.0 - u).ln() * self.interval_ns
            }
        }
    }

    /// When the next request is due, or `None` once the schedule has ended.
    pub fn next_due_ns(&self) -> Option<u64> {
        let due = self.next_due_ns as u64;
        (due < self.end_ns).then_some(due)
    }

    /// Releases the next request if it is due at `now_ns` and the
    /// in-flight cap allows it. A capped request keeps its original due
    /// time, so the wait shows up in its latency.
    pub fn poll(&mut self, now_ns: u64, in_flight: usize) -> Option<Due> {
        let due_ns = self.next_due_ns()?;
        if due_ns > now_ns || in_flight >= self.cap {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.next_due_ns = match self.arrivals {
            // Even spacing is computed, not accumulated: no drift.
            None => self.next_seq as f64 * self.interval_ns,
            Some(_) => self.next_due_ns + self.gap_after(seq),
        };
        Some(Due {
            seq,
            due_ns,
            lag_ns: now_ns - due_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn releases_on_schedule_and_times_from_the_due_instant() {
        // 1000/s for 10 ms under a mock clock that stalls for 3.5 ms.
        let mut sched = OpenLoop::new(1000.0, 10_000_000, 64);
        let mut now = 0u64;
        let first = sched.poll(now, 0).expect("request 0 is due at t=0");
        assert_eq!((first.seq, first.due_ns, first.lag_ns), (0, 0, 0));
        assert_eq!(sched.poll(now, 1), None, "request 1 is not due yet");
        assert_eq!(sched.next_due_ns(), Some(1_000_000));

        now = 4_500_000; // the stall
        let mut released = Vec::new();
        while let Some(d) = sched.poll(now, released.len()) {
            released.push(d);
        }
        // Requests due at 1, 2, 3, 4 ms all go out now, each carrying
        // its own due time and the lag the stall cost it.
        assert_eq!(
            released.iter().map(|d| d.due_ns).collect::<Vec<_>>(),
            [1_000_000, 2_000_000, 3_000_000, 4_000_000]
        );
        assert_eq!(
            released.iter().map(|d| d.lag_ns).collect::<Vec<_>>(),
            [3_500_000, 2_500_000, 1_500_000, 500_000]
        );
        // A reply arriving at t=5 ms for the request due at 1 ms has a
        // latency of 4 ms, not the 0.5 ms since it was sent.
        assert_eq!(5_000_000 - released[0].due_ns, 4_000_000);
    }

    #[test]
    fn the_cap_holds_requests_back_without_moving_their_due_time() {
        let mut sched = OpenLoop::new(1000.0, 5_000_000, 2);
        assert!(sched.poll(0, 0).is_some());
        assert_eq!(sched.poll(2_000_000, 2), None, "window full");
        let held = sched.poll(3_000_000, 1).expect("window opened");
        assert_eq!((held.due_ns, held.lag_ns), (1_000_000, 2_000_000));
    }

    #[test]
    fn poisson_arrivals_keep_the_mean_rate_and_are_seeded() {
        // 1000/s for 20 s: about 20 000 requests, gaps averaging 1 ms
        // with a standard deviation of 1 ms (exponential).
        let dues = |seed: u64| {
            let mut sched = OpenLoop::poisson(1000.0, 20_000_000_000, 8, seed);
            let mut dues = Vec::new();
            while let Some(d) = sched.poll(u64::MAX, 0) {
                dues.push(d.due_ns);
            }
            dues
        };
        let a = dues(7);
        assert_eq!(a, dues(7), "same seed, same schedule");
        assert_ne!(a, dues(8), "seed matters");
        assert!((19_400..20_600).contains(&a.len()), "{} requests", a.len());
        assert!(
            a.windows(2).all(|w| w[0] <= w[1]),
            "due times never go back"
        );
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean / 1e6 - 1.0).abs() < 0.05, "mean gap {mean} ns");
        assert!(
            (var.sqrt() / 1e6 - 1.0).abs() < 0.1,
            "gap deviation {}",
            var.sqrt()
        );
    }

    #[test]
    fn the_schedule_ends() {
        let mut sched = OpenLoop::new(1000.0, 3_000_000, 8);
        let mut n = 0;
        while sched.poll(1_000_000_000, 0).is_some() {
            n += 1;
        }
        assert_eq!(n, 3, "requests due at 0, 1 and 2 ms; 3 ms is the end");
        assert_eq!(sched.next_due_ns(), None);
    }
}
