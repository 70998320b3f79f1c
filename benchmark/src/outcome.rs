//! What one workload run hands back: metrics, the operation count, and
//! the correctness checks it made on the program's outputs.

use crate::clock::now_ns;
use crate::hist::median;
use crate::json::Json;
use crate::span::{Recorder, SpanId, NO_PARENT};
use crate::spec::Metrics;

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Sizes cut to about a twentieth; numbers not comparable.
    pub quick: bool,
}

impl RunArgs {
    /// Nanoseconds the workload itself measures for: all of
    /// `--seconds`, or 40 % of it in a traced run, which keeps the rest
    /// for the layer probes.
    pub fn window_ns(&self) -> u64 {
        let share = if self.trace { 0.4 } else { 1.0 };
        (self.seconds * share * 1e9) as u64
    }

    /// Runs `one` over and over until another repetition would overrun
    /// `window_ns` (and at least three times; twice in quick and traced
    /// runs). Each repetition gets its index and a `workload` root span.
    /// Traced and untraced repetitions alternate, so the recorder's cost
    /// can be read off one run; the flag says which a repetition was.
    pub fn repeat<T>(
        &self,
        rec: &mut Recorder,
        window_ns: u64,
        mut one: impl FnMut(usize, &mut Recorder, SpanId) -> T,
    ) -> Vec<(T, bool)> {
        let min_reps = if self.quick || self.trace { 2 } else { 3 };
        let tracing = rec.on;
        let started = now_ns();
        let mut reps = Vec::new();
        loop {
            rec.on = tracing && reps.len() % 2 == 0;
            let rep_start = now_ns();
            let root = rec.begin("workload", NO_PARENT, reps.len() as u64);
            let value = one(reps.len(), rec, root);
            rec.end(root);
            reps.push((value, rec.on));
            let rep_ns = now_ns() - rep_start;
            if reps.len() >= min_reps && now_ns() - started + rep_ns > window_ns {
                break;
            }
        }
        rec.on = tracing;
        reps
    }
}

/// How much slower traced repetitions ran than untraced ones, in
/// percent of the untraced median, from `(wall seconds, was traced)`.
pub fn trace_overhead_pct(walls: &[(f64, bool)]) -> f64 {
    let median_of = |traced: bool| {
        let side: Vec<f64> = walls
            .iter()
            .filter(|w| w.1 == traced)
            .map(|w| w.0)
            .collect();
        median(&side).unwrap_or(0.0)
    };
    let (untraced, traced) = (median_of(false), median_of(true));
    if untraced > 0.0 && traced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations the workload attempted and how many did not succeed.
    pub attempted: u64,
    pub failed: u64,
    /// `(what, passed, detail)` for every correctness check made.
    pub checks: Vec<(String, bool, String)>,
    /// Why this run's numbers must not be compared, if so: the program's
    /// outputs were right, but the benchmark did not offer the load it
    /// says it did (an open-loop generator that ran late). `diff`
    /// reports such a run's workload as unresolved, never as regressed.
    pub invalid: Option<String>,
    /// Exact counts worth pinning beside the metrics (`sim.sent` …).
    pub counts: Vec<(String, f64)>,
}

impl Outcome {
    pub fn check(&mut self, what: &str, passed: bool, detail: String) {
        self.checks.push((what.to_string(), passed, detail));
    }

    /// `lhs == rhs`, recorded with both values.
    pub fn check_eq(&mut self, what: &str, lhs: u64, rhs: u64) {
        self.check(what, lhs == rhs, format!("{lhs} vs {rhs}"));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed, _)| *passed)
    }

    /// The exact counts, as a JSON object (the trace file carries them
    /// beside the spans they were taken at the boundaries of).
    pub fn counts_json(&self) -> Json {
        Json::obj(self.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
    }

    pub fn checks_json(&self) -> Json {
        Json::Arr(
            self.checks
                .iter()
                .map(|(what, passed, detail)| {
                    Json::obj([
                        ("check", Json::Str(what.clone())),
                        ("passed", Json::Bool(*passed)),
                        ("detail", Json::Str(detail.clone())),
                    ])
                })
                .collect(),
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
