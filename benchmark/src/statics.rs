//! The `static-powerlaw-10k` workload: MPIL routing with no simulator
//! at all (paper §6.1). Random nodes insert objects into a power-law
//! overlay through `StaticEngine`, then random nodes look each one up;
//! every call is timed on its own, in the calling thread's CPU time
//! (`clock::thread_cpu_ns`: the engine never blocks, so that is its wall
//! time on an idle machine).

use mpil::{MpilConfig, StaticEngine};
use mpil_overlay::{generators, NodeIdx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::{now_ns, secs, thread_cpu_ns};
use crate::hist::{median, quiet, Histogram};
use crate::outcome::{peak_rss_mib, trace_overhead_pct, Outcome, RunArgs};
use crate::span::{Recorder, SpanId};
use crate::svc::object_id;

/// The overlay is the same graph for every `--seed`; objects and origins
/// come from `--seed`. The hubs of a power-law graph set the cost of
/// every call, and from one graph to the next wall time ranged over 30 %
/// in calibration: more than any change to the program this benchmark is
/// meant to resolve.
const OVERLAY_SEED: u64 = 0x006f_7665_726c_6179;

const LOOKUP_FLOWS: u32 = 20;

/// Overlay size and insert+lookup pairs of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct StaticSize {
    pub nodes: usize,
    pub pairs: usize,
}

pub fn size_of(workload: &str, quick: bool) -> Option<StaticSize> {
    match (workload, quick) {
        ("static-powerlaw-10k", false) => Some(StaticSize {
            nodes: 10_000,
            pairs: 2000,
        }),
        ("static-powerlaw-10k", true) => Some(StaticSize {
            nodes: 1000,
            pairs: 100,
        }),
        _ => None,
    }
}

#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Overlay generation + engine construction.
    pub setup_s: f64,
    pub insert_ns: Vec<u64>,
    pub lookup_ns: Vec<u64>,
    pub insert_msgs: u64,
    pub replicas: u64,
    pub lookup_msgs: u64,
    pub ok: u64,
    /// Wall seconds of the whole repetition.
    pub wall_s: f64,
}

impl Rep {
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (self.insert_msgs, self.replicas, self.lookup_msgs, self.ok)
    }

    fn stage_s(ns: &[u64]) -> f64 {
        ns.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn insert_s(&self) -> f64 {
        Self::stage_s(&self.insert_ns)
    }

    pub fn lookup_s(&self) -> f64 {
        Self::stage_s(&self.lookup_ns)
    }
}

pub fn run_rep(size: StaticSize, seed: u64, rec: &mut Recorder, parent: SpanId) -> Rep {
    // Paper §6.1 / Tables 1-2 insert parameters: 10 flows, 5 replicas
    // per flow, duplicate suppression on (`MpilConfig::default()`).
    let config = MpilConfig::default();
    let mut rep = Rep::default();

    let wall0 = now_ns();
    let t0 = thread_cpu_ns();
    let setup_span = rec.begin("setup", parent, 0);
    let gen_span = rec.begin("overlay.generate", setup_span, 0);
    let mut rng = SmallRng::seed_from_u64(OVERLAY_SEED);
    let topo = generators::power_law(size.nodes, Default::default(), &mut rng)
        .expect("power-law generation with default parameters");
    rec.end(gen_span);
    let mut engine = StaticEngine::new(&topo, config, seed ^ 0x1234);
    rec.end(setup_span);
    rep.setup_s = secs(t0, thread_cpu_ns());

    let mut origins = SmallRng::seed_from_u64(seed ^ 0xabcd);
    let mut origin = || NodeIdx::new(origins.gen_range(0..size.nodes as u32));

    let stage = rec.begin("stage.insert", parent, 0);
    for i in 0..size.pairs as u64 {
        let (object, from) = (object_id(seed, i), origin());
        let (start, cpu) = (now_ns(), thread_cpu_ns());
        let report = engine.insert(from, object);
        rep.insert_ns.push(thread_cpu_ns() - cpu);
        rec.push("static.insert", start, now_ns(), stage, i + 1);
        rep.insert_msgs += report.messages;
        rep.replicas += u64::from(report.replicas);
    }
    rec.end(stage);

    // Lookups get twice the flow budget of inserts (the paper's tables
    // vary it the same way): with 10, about one lookup in 30 000 ends
    // with every flow at a local maximum that holds no replica.
    engine.set_config(config.with_max_flows(LOOKUP_FLOWS));
    let stage = rec.begin("stage.lookup", parent, 0);
    for i in 0..size.pairs as u64 {
        let (object, from) = (object_id(seed, i), origin());
        let (start, cpu) = (now_ns(), thread_cpu_ns());
        let report = engine.lookup(from, object);
        rep.lookup_ns.push(thread_cpu_ns() - cpu);
        rec.push("static.lookup", start, now_ns(), stage, i + 1);
        rep.lookup_msgs += report.messages;
        rep.ok += u64::from(report.success);
    }
    rec.end(stage);
    rep.wall_s = secs(wall0, now_ns());
    rep
}

pub fn run(size: StaticSize, args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let reps: Vec<(Rep, bool)> = args.repeat(rec, args.window_ns(), |_, rec, root| {
        run_rep(size, args.seed, rec, root)
    });

    let first = &reps[0].0;
    let want = first.fingerprint();
    out.check(
        &format!(
            "{} repetitions agree on insert messages, replicas, lookup messages, successes",
            reps.len()
        ),
        reps.iter().all(|(r, _)| r.fingerprint() == want),
        format!("{want:?}"),
    );
    let pairs = size.pairs as f64;
    out.attempted = size.pairs as u64 * reps.len() as u64;
    out.failed = (size.pairs as u64 - first.ok) * reps.len() as u64;
    let cpu_s: f64 = reps
        .iter()
        .map(|(r, _)| r.setup_s + r.insert_s() + r.lookup_s())
        .sum();
    let wall_s: f64 = reps.iter().map(|(r, _)| r.wall_s).sum();
    out.counts.extend([
        ("repetitions".into(), reps.len() as f64),
        ("cpu_share_pct".into(), cpu_s / wall_s.max(1e-9) * 100.0),
        ("insert_msgs".into(), want.0 as f64),
        ("replicas".into(), want.1 as f64),
        ("lookup_msgs".into(), want.2 as f64),
        ("ok".into(), want.3 as f64),
    ]);

    // Every repetition makes the same calls on the same inputs; each
    // yields its own value and the run reports the quiet quartile over
    // them (see `hist::quiet`).
    let per_rep = |lower_is_better: bool, f: &dyn Fn(&Rep) -> f64| -> f64 {
        let values: Vec<f64> = reps.iter().map(|(r, _)| f(r)).collect();
        quiet(&values, lower_is_better).unwrap_or(0.0)
    };
    let (cost, rate) = (true, false);
    let percentile_ms = |ns: &[u64], p: f64| Histogram::of(ns).percentile(p).unwrap_or(0.0) / 1e6;
    let m = &mut out.metrics;
    if args.trace {
        let walls: Vec<(f64, bool)> = reps
            .iter()
            .map(|(r, traced)| (r.insert_s() + r.lookup_s(), *traced))
            .collect();
        m.set("bench.trace_overhead_pct", trace_overhead_pct(&walls));
        m.set("bench.spans_recorded", rec.len() as f64);
        m.set(
            "bench.lookup_p999_ms",
            per_rep(cost, &|r| percentile_ms(&r.lookup_ns, 99.9)),
        );
        // The layers this workload crosses, from its own spans. (The
        // rest are filled by the layer probes.)
        let span_median = |name: &str, per: f64| {
            let values: Vec<f64> = rec
                .durations_of(name)
                .iter()
                .map(|&ns| ns as f64 / per)
                .collect();
            median(&values).unwrap_or(0.0)
        };
        m.set("core.static.insert_us", span_median("static.insert", 1e3));
        m.set("core.static.lookup_us", span_median("static.lookup", 1e3));
        m.set("core.static.insert_msgs", first.insert_msgs as f64 / pairs);
        m.set(
            "core.static.replicas_per_insert",
            first.replicas as f64 / pairs,
        );
        if size.nodes == 10_000 {
            m.set(
                "overlay.powerlaw_10k_ms",
                span_median("overlay.generate", 1e6),
            );
        }
    } else {
        m.set("setup_s", per_rep(cost, &|r| r.setup_s));
        m.set(
            "lookup_per_s",
            per_rep(rate, &|r| r.ok as f64 / r.lookup_s().max(1e-9)),
        );
        m.set(
            "lookup_mid_ms",
            per_rep(cost, &|r| {
                Histogram::of(&r.lookup_ns).mid_mean().unwrap_or(0.0) / 1e6
            }),
        );
        m.set(
            "lookup_p99_ms",
            per_rep(cost, &|r| percentile_ms(&r.lookup_ns, 99.0)),
        );
        m.set(
            "announce_per_s",
            per_rep(rate, &|r| pairs / r.insert_s().max(1e-9)),
        );
        m.set("success_pct", first.ok as f64 / pairs * 100.0);
        m.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        m.set("msgs_per_lookup", first.lookup_msgs as f64 / pairs);
    }
    Ok(out)
}
