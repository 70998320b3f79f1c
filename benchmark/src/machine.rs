//! The machine a result was measured on, recorded in every result file.

use std::process::Command;

use crate::json::Json;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// 1-minute load average.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Pins the calling thread, and every thread it starts from here on,
/// to the CPU it is running on; returns that CPU, or `None` where that
/// cannot be done (the run then goes on unpinned).
///
/// The service workloads and the layer probes that start a cluster call
/// this first. A cluster is 50 threads that hand each request from one
/// to the next, on a box with two vCPUs. Left alone, the kernel deals
/// the threads over both in a way that differs from run to run and
/// sometimes changes mid-run, and a hand-off that crosses to the other
/// vCPU costs more than one that stays: with the same build, seed and
/// load, `svc-chan-churn`'s typical latency read 2.15 ms in some runs
/// and 2.47 ms in others (and 2.17-2.23 ms in every run pinned). What
/// is measured is then the service on one core, which at the offered
/// loads is at most a third busy.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `sched_getcpu` takes no arguments and only reads which
    // CPU the caller is on.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid, initialised buffer of the size passed,
    // read only for the duration of the call; pid 0 is the caller.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A run that starts with the machine already busy (load above half its
/// cores) is marked noisy.
pub fn is_noisy(load: Option<f64>) -> bool {
    load.is_some_and(|l| l > 0.5 * cores() as f64)
}

pub fn describe(load_at_start: Option<f64>) -> Json {
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("nproc", Json::Num(cores() as f64)),
        ("cpu", text(cpu_model())),
        ("rustc", text(command_line("rustc", &["-V"]))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "load_1min_at_start",
            load_at_start.map_or(Json::Null, Json::Num),
        ),
    ])
}
