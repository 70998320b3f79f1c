//! The wall-clock stopwatch and the peak-RSS reading behind the scale
//! smokes' and benchmark drivers' ceilings. A ceiling is its caller's
//! own comparison against these readings.
//!
//! This is a deterministic crate: simulated runs must be a pure
//! function of the seed, so rule D002 of the determinism contract
//! (README "Determinism contract & lint rules") bans wall-clock reads
//! here. Tripwires ("did the 10k smoke finish inside 150 s?") and the
//! service's stopwatch are the legitimate exceptions, and this module is
//! their single home — the `Instant` touchpoints below carry the
//! workspace's canonical D002 `#[expect]`s, and every caller
//! (the conformance scale smoke, the `scale_run` CI tripwire, the bench
//! stage timings, `mpild`) routes through [`WallClock`] instead of
//! touching `std::time` itself. It lives here, below both the
//! simulation harness (which re-exports it) and the service, so that
//! neither depends on the other for a clock.

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

/// Peak resident set size of this process in MiB, from
/// `/proc/self/status` (`VmHWM`). `None` off Linux or if the field is
/// missing.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_reports_nonnegative_seconds() {
        let w = WallClock::start();
        assert!(w.elapsed_s() >= 0.0);
        assert!(w.elapsed() >= Duration::ZERO);
    }
}
