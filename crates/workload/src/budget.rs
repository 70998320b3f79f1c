//! Wall-clock stopwatches and budgets for scale smokes and benchmark
//! drivers.
//!
//! This is a deterministic crate: simulated runs must be a pure
//! function of the seed, so rule D002 of the determinism contract
//! (README "Determinism contract & lint rules") bans wall-clock reads
//! here. Tripwires ("did the 10k smoke finish inside 150 s?") and the
//! service's stopwatch are the legitimate exceptions, and this module is
//! their single home — the `Instant` touchpoints below carry the
//! workspace's canonical D002 `#[expect]`s, and every caller
//! (the conformance scale smoke, the `scale_run` CI tripwire, the bench
//! stage timings, `mpild`) routes through [`WallClock`] /
//! [`WallClockBudget`] instead of touching `std::time` itself. It lives
//! here, below both the simulation harness (which re-exports it) and
//! the service, so that neither depends on the other for a clock.

use std::time::Duration;
#[expect(clippy::disallowed_types, reason = "D002: wall-clock test budget")]
use std::time::Instant;

/// A started stopwatch: measures real elapsed time without imposing a
/// limit. Use for stage timings that end up in benchmark reports.
#[derive(Debug, Clone, Copy)]
// `allow`, not `expect`: the derives copy an `allow` onto the impls they
// generate, which name the field's type again, and do not copy an `expect`.
#[allow(clippy::disallowed_types, reason = "D002: wall-clock test budget")]
pub struct WallClock {
    started: Instant,
}

impl WallClock {
    /// Starts the stopwatch.
    #[expect(clippy::disallowed_types, reason = "D002: wall-clock test budget")]
    pub fn start() -> Self {
        WallClock {
            started: Instant::now(),
        }
    }

    /// Real time elapsed since [`WallClock::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed time as fractional seconds (benchmark-report friendly).
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// A stopwatch with a wall-clock ceiling: the shared tripwire used by
/// the 10k conformance smoke and the `scale_run --budget-s` CI path.
#[derive(Debug, Clone, Copy)]
pub struct WallClockBudget {
    clock: WallClock,
    budget: Duration,
}

impl WallClockBudget {
    /// Starts the clock against `budget`.
    pub fn start(budget: Duration) -> Self {
        WallClockBudget {
            clock: WallClock::start(),
            budget,
        }
    }

    /// The ceiling this budget enforces.
    pub fn budget(&self) -> Duration {
        self.budget
    }

    /// Real time elapsed so far.
    pub fn elapsed(&self) -> Duration {
        self.clock.elapsed()
    }

    /// `true` while the elapsed time is still under the ceiling.
    pub fn within(&self) -> bool {
        self.clock.elapsed() < self.budget
    }

    /// Returns `Err` with a ready-to-print message if the ceiling has
    /// been crossed; `context` names what was being timed.
    pub fn check(&self, context: &str) -> Result<(), String> {
        let elapsed = self.clock.elapsed();
        if elapsed < self.budget {
            Ok(())
        } else {
            Err(format!(
                "{context} took {elapsed:?} (budget {:?})",
                self.budget
            ))
        }
    }

    /// Panics with the [`WallClockBudget::check`] message if the ceiling
    /// has been crossed (test-assertion flavor).
    pub fn assert_within(&self, context: &str) {
        if let Err(msg) = self.check(context) {
            panic!("{msg}");
        }
    }
}

/// Peak resident set size of this process in MiB, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the field is
/// missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A peak-RSS ceiling: the memory-side sibling of [`WallClockBudget`],
/// used by `scale_run --max-rss-mib` as the CI tripwire for kernel
/// memory regressions (e.g. timer-wheel slots hoarding capacity).
///
/// Unlike the wall-clock budget there is nothing to start: `VmHWM` is
/// the process's high-water mark, so a single reading at check time
/// covers the whole run.
#[derive(Debug, Clone, Copy)]
pub struct RssBudget {
    ceiling_mib: f64,
}

impl RssBudget {
    /// Creates a budget with a peak-RSS ceiling in MiB.
    pub fn new(ceiling_mib: f64) -> Self {
        RssBudget { ceiling_mib }
    }

    /// The ceiling this budget enforces, in MiB.
    pub fn ceiling_mib(&self) -> f64 {
        self.ceiling_mib
    }

    /// Returns `Err` with a ready-to-print message if the process's
    /// peak RSS exceeds the ceiling; `context` names what ran. Where
    /// `/proc` is unavailable the reading is skipped and the check
    /// passes (the gate is a Linux-CI tripwire, not a portability
    /// contract).
    pub fn check(&self, context: &str) -> Result<(), String> {
        match peak_rss_mib() {
            Some(peak) if peak > self.ceiling_mib => Err(format!(
                "{context} peaked at {peak:.1} MiB RSS (ceiling {:.1} MiB)",
                self.ceiling_mib
            )),
            _ => Ok(()),
        }
    }
}

/// A messages-per-lookup ceiling: the traffic-side sibling of
/// [`WallClockBudget`] / [`RssBudget`], used by `scale_run
/// --max-msgs-per-lookup` as the CI tripwire for lookup-traffic
/// regressions (e.g. a Plumtree change quietly degenerating back into
/// expanding-ring flooding).
///
/// Unlike the other budgets this one is fed measurements: callers hand
/// it the lookup-class message count and the number of lookups driven,
/// and it checks the quotient.
#[derive(Debug, Clone, Copy)]
pub struct TrafficBudget {
    ceiling_msgs_per_lookup: f64,
}

impl TrafficBudget {
    /// Creates a budget with a messages-per-lookup ceiling.
    pub fn new(ceiling_msgs_per_lookup: f64) -> Self {
        TrafficBudget {
            ceiling_msgs_per_lookup,
        }
    }

    /// The ceiling this budget enforces, in messages per lookup.
    pub fn ceiling_msgs_per_lookup(&self) -> f64 {
        self.ceiling_msgs_per_lookup
    }

    /// Returns `Err` with a ready-to-print message if `lookup_messages`
    /// averaged over `lookups` exceeds the ceiling; `context` names
    /// what ran. Zero lookups trivially passes (nothing was measured).
    pub fn check(&self, context: &str, lookup_messages: u64, lookups: usize) -> Result<(), String> {
        if lookups == 0 {
            return Ok(());
        }
        let per_lookup = lookup_messages as f64 / lookups as f64;
        if per_lookup > self.ceiling_msgs_per_lookup {
            Err(format!(
                "{context} spent {per_lookup:.1} msgs/lookup ({lookup_messages} over {lookups} \
                 lookups, ceiling {:.1})",
                self.ceiling_msgs_per_lookup
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_generous_budget_is_within() {
        let b = WallClockBudget::start(Duration::from_secs(3600));
        assert!(b.within());
        b.assert_within("trivial work");
        assert!(b.check("trivial work").is_ok());
        assert_eq!(b.budget(), Duration::from_secs(3600));
    }

    #[test]
    fn a_zero_budget_is_exceeded() {
        let b = WallClockBudget::start(Duration::ZERO);
        assert!(!b.within());
        let err = b.check("instant work").unwrap_err();
        assert!(err.contains("instant work"), "{err}");
        assert!(err.contains("budget"), "{err}");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn assert_within_panics_past_the_ceiling() {
        WallClockBudget::start(Duration::ZERO).assert_within("work");
    }

    #[test]
    fn rss_budget_reads_the_high_water_mark() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().expect("VmHWM") > 0.0);
            let err = RssBudget::new(0.001).check("this test").unwrap_err();
            assert!(err.contains("ceiling"), "{err}");
        }
        assert!(RssBudget::new(1e12).check("this test").is_ok());
    }

    #[test]
    fn traffic_budget_checks_the_quotient() {
        let b = TrafficBudget::new(25.0);
        assert_eq!(b.ceiling_msgs_per_lookup(), 25.0);
        assert!(b.check("cheap lookups", 400, 20).is_ok());
        let err = b.check("flooding lookups", 2356, 20).unwrap_err();
        assert!(err.contains("117.8"), "{err}");
        assert!(err.contains("ceiling"), "{err}");
        // No lookups driven means nothing to judge.
        assert!(b.check("empty run", 0, 0).is_ok());
    }

    #[test]
    fn stopwatch_reports_nonnegative_seconds() {
        let w = WallClock::start();
        assert!(w.elapsed_s() >= 0.0);
        assert!(w.elapsed() >= Duration::ZERO);
    }
}
