//! The two clocks every measurement in the benchmark reads: the process
//! clock (wall time), and the calling thread's CPU time.

// The repo's clippy.toml bans wall-clock types outside its net/bench
// zone (mpil-lint rule D002); a benchmark is that zone.
#![allow(clippy::disallowed_types)]

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call (made at process start by `main`).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Seconds between two readings of one clock.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

/// Nanoseconds of CPU the calling thread has used (user + system).
///
/// The simulated and static workloads are single-threaded and never
/// block, so on an idle machine this advances exactly as `now_ns` does.
/// On the shared two-vCPU box the benchmark runs on it does not count
/// the time the thread spent waiting for a core that something else was
/// using, which `now_ns` does: with three busy processes beside it the
/// same loop read 2.4x longer on the wall clock and 1.2x longer here.
/// The ratio of the two clocks over a workload is reported with the
/// counts (`cpu_share_pct`), so a program that starts to sleep shows.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std links on
    // Linux; `Timespec` is `struct timespec` of a 64-bit Linux target
    // (two 64-bit signed fields), and `ts` is a valid, exclusive
    // pointer to one for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return now_ns();
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere there is no portable thread clock: wall time.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_ns() -> u64 {
    now_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_clock_counts_work_and_not_sleep() {
        let (cpu0, wall0) = (thread_cpu_ns(), now_ns());
        let mut x = 0u64;
        while now_ns() - wall0 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = thread_cpu_ns() - cpu0;
        // Spinning for 20 ms of wall time uses CPU (how much of it is up
        // to the machine's other tenants, so the floor is low).
        assert!(worked > 2_000_000, "{worked} ns of CPU for a 20 ms spin");

        let (cpu1, wall1) = (thread_cpu_ns(), now_ns());
        std::thread::sleep(std::time::Duration::from_millis(30));
        let (slept_cpu, slept_wall) = (thread_cpu_ns() - cpu1, now_ns() - wall1);
        assert!(slept_wall >= 30_000_000);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(slept_cpu < 10_000_000, "{slept_cpu} ns of CPU asleep");
        }
    }
}
