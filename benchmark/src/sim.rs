//! The `sim-engines` workload: the paper's two-stage choreography
//! (insert on the quiet overlay, then flap nodes and look up, one lookup
//! per flapping period) driven through `Scenario::build` and the
//! `DiscoveryEngine` trait on five engines back to back, repeated for
//! as long as the run measures.
//!
//! The choreography is the benchmark's own copy: it must not be sped up
//! by editing a driver inside the measured tree.
//!
//! Host time here is the simulation thread's CPU time
//! (`clock::thread_cpu_ns`), and lookup latency is simulated network
//! time: what the simulator's user reads off a run.

use mpil_harness::{EngineSpec, LookupStrategy, OverlaySource, PerturbRun, PreparedRun, Scenario};
use mpil_id::Id;
use mpil_sim::{Flapping, FlappingConfig, LookupOutcome, SimDuration};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::clock::{now_ns, secs, thread_cpu_ns};
use crate::hist::{median, quiet, Histogram};
use crate::outcome::{peak_rss_mib, trace_overhead_pct, Outcome, RunArgs};
use crate::span::{Recorder, SpanId, NO_PARENT};
use crate::svc::object_id;

/// One engine at one size.
#[derive(Debug, Clone, Copy)]
pub struct EngineRun {
    pub label: &'static str,
    pub spec: EngineSpec,
    pub nodes: usize,
    pub ops: usize,
    /// Flapping probability of the lookup stage.
    pub p: f64,
}

pub const PLUMTREE: EngineSpec = EngineSpec::Epidemic {
    active: 5,
    passive: 24,
    strategy: LookupStrategy::Plumtree,
};
pub const CHORD: EngineSpec = EngineSpec::Chord;
pub const PASTRY: EngineSpec = EngineSpec::Pastry {
    replication_on_route: false,
};
pub const KADEMLIA: EngineSpec = EngineSpec::Kademlia { k: 8, alpha: 3 };
pub const MPIL: EngineSpec = EngineSpec::MpilOver(OverlaySource::RandomRegular(8));

fn engine(label: &'static str, spec: EngineSpec, nodes: usize, ops: usize, p: f64) -> EngineRun {
    EngineRun {
        label,
        spec,
        nodes,
        ops,
        p,
    }
}

/// The engines one repetition of `workload` runs back to back.
///
/// Plumtree is kernel-bound (wheel, pooled payloads, broadcast bursts);
/// the three structured overlays are steady per-node maintenance timers
/// on the same kernel; the MPIL agent is few kernel events and heavy
/// per-event routing and allocation. Each engine's own times are
/// per-layer metrics of the traced run.
///
/// The sizes make one repetition about a second and a half, so a run
/// holds a dozen or more: on this box a stretch of seconds runs up to
/// 1.4x slower than the next, and the quiet quartile (`hist::quiet`)
/// needs enough repetitions for a quarter of them to fall outside such
/// stretches. (At 3000, 500 and 100 000 nodes a repetition took 4.3 s,
/// a run held five, and ten runs of one build spread 12-18 %.)
pub fn engines_of(workload: &str, quick: bool) -> Option<Vec<EngineRun>> {
    Some(match (workload, quick) {
        ("sim-engines", false) => vec![
            engine("plumtree", PLUMTREE, 1000, 20, 0.5),
            // The structured overlays run on a quiet network (p = 0):
            // their per-node maintenance timers are what they are here
            // for, and under flapping they lose lookups (the paper's
            // point), which a benchmark that counts failed operations
            // cannot have.
            engine("chord", CHORD, 500, 20, 0.0),
            engine("pastry", PASTRY, 250, 20, 0.0),
            engine("kademlia", KADEMLIA, 250, 20, 0.0),
            // p = 0.1: at 0.5 a few lookups in ten thousand find every
            // replica offline (at 0.2, two in a million), and the
            // benchmark wants workloads where none fails.
            engine("mpil", MPIL, 50_000, 2500, 0.1),
        ],
        ("sim-engines", true) => vec![
            engine("plumtree", PLUMTREE, 300, 5, 0.5),
            engine("chord", CHORD, 100, 5, 0.0),
            engine("pastry", PASTRY, 100, 5, 0.0),
            engine("kademlia", KADEMLIA, 100, 5, 0.0),
            engine("mpil", MPIL, 5000, 200, 0.1),
        ],
        _ => return None,
    })
}

/// Every repetition builds the scenario of this seed: overlays, node
/// ids and latency models are the same for every `--seed`, which draws
/// the traffic (objects, flapping phases and coins). From one overlay to
/// the next a repetition's cost moved 10-20 % in calibration, more than
/// any change to the program this benchmark is meant to resolve.
const SCENARIO_SEED: u64 = 1;

/// `(label, sim.sent, sim.events)` of a full-size reference repetition
/// (scenario seed 1 and the scenario's own traffic), equal to what
/// `scale_run --engine E --nodes N --ops K --p P --seed 1` printed for
/// the same arguments when this baseline was taken. Every full-size run
/// makes one and checks it. A pure speed-up leaves the counts untouched;
/// a change that moves them changed the protocol, and re-pins them in
/// its own PR.
const PINNED_REFERENCE: &[(&str, u64, u64)] = &[
    ("plumtree", 563_131, 819_746),
    ("chord", 131_835, 233_193),
    ("pastry", 378_674, 582_804),
    ("kademlia", 131_132, 198_105),
    ("mpil", 359_579, 56_334),
];

/// Where a repetition's objects and flapping pattern come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// The scenario's own, as `scale_run` drives it.
    Reference,
    /// Drawn from this seed.
    Seeded(u64),
}

/// What one engine's repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// CPU seconds of `Scenario::build`, the insert stage (to
    /// quiescence) and the lookup stage.
    pub build_s: f64,
    pub insert_s: f64,
    pub lookup_s: f64,
    /// Wall seconds of the three together.
    pub wall_s: f64,
    /// CPU ns of each lookup step: advance one flapping period, issue.
    pub steps_ns: Vec<u64>,
    /// Simulated ns from issue to first reply of each lookup answered.
    pub latency_ns: Vec<u64>,
    pub lookups: u64,
    pub ok: u64,
    /// Kernel sends over the whole repetition.
    pub sent: u64,
    /// Deliveries + timer fires of the lookup stage.
    pub events: u64,
    pub lookup_msgs: u64,
    /// Heap allocations of the lookup stage (0 unless counting is on).
    pub allocs: u64,
}

impl Rep {
    /// The seeded statistics that must repeat bit for bit.
    pub fn fingerprint(&self) -> (u64, u64, u64, u64) {
        (self.sent, self.events, self.ok, self.lookup_msgs)
    }
}

/// Runs one engine through build, insert stage and lookup stage.
pub fn run_rep(e: &EngineRun, traffic: Traffic, rec: &mut Recorder, parent: SpanId) -> Rep {
    let mut run = PerturbRun::new(30, 30, e.p);
    run.nodes = e.nodes;
    run.operations = e.ops;
    run.seed = SCENARIO_SEED;
    let scenario = Scenario::new(e.spec, run);

    // Every span of this engine hangs under one named after it, so a
    // trace of several engines back to back can be read per layer.
    let parent = rec.begin(e.label, parent, 0);
    let wall0 = now_ns();
    let t0 = thread_cpu_ns();
    let setup_span = rec.begin("setup", parent, 0);
    let build_span = rec.begin("scenario.build", setup_span, 0);
    let PreparedRun {
        mut engine,
        origin,
        objects,
        mut rng,
        maintenance,
        warmup_secs,
    } = scenario.build();
    rec.end(build_span);
    rec.end(setup_span);
    let (objects, coin_seed): (Vec<Id>, u64) = match traffic {
        Traffic::Reference => (objects, run.seed ^ 0xf1a9),
        Traffic::Seeded(seed) => {
            // Each engine its own objects: `label` tells the tables apart.
            let table = e
                .label
                .bytes()
                .fold(seed, |h, b| h.rotate_left(8) ^ u64::from(b));
            rng = SmallRng::seed_from_u64(seed ^ 0x9a5e);
            let ids = (0..e.ops as u64).map(|i| object_id(table, i)).collect();
            (ids, seed ^ 0xf1a9)
        }
    };
    let t1 = thread_cpu_ns();

    let insert_span = rec.begin("stage.insert", parent, 0);
    for &object in &objects {
        engine.insert(origin, object);
    }
    rec.end(insert_span);
    let quiesce_span = rec.begin("stage.quiesce", parent, 0);
    engine.run_to_quiescence();
    rec.end(quiesce_span);
    let t2 = thread_cpu_ns();

    let stats_before = engine.net_stats();
    let counters_before = engine.counters();
    let allocs_before = mpil_alloc::snapshot();
    let lookup_span = rec.begin("stage.lookup", parent, 0);
    if maintenance {
        engine.start_maintenance();
    }
    if warmup_secs > 0 {
        engine.advance(SimDuration::from_secs(warmup_secs));
    }
    let flap_cfg = FlappingConfig {
        idle: SimDuration::from_secs(run.idle_secs),
        offline: SimDuration::from_secs(run.offline_secs),
        probability: run.probability,
        start: engine.now(),
    };
    let mut flap = Flapping::new(flap_cfg, run.nodes, coin_seed, &mut rng);
    flap.exempt(origin);
    engine.set_availability(Box::new(flap));
    let flap_start = engine.now();
    let period = run.period();
    let window = run.deadline_window();
    let mut handles = Vec::with_capacity(objects.len());
    let mut steps_ns = Vec::with_capacity(objects.len());
    for (i, &object) in objects.iter().enumerate() {
        let step_start = thread_cpu_ns();
        let issue_at = flap_start + period * (i as u64 + 1);
        engine.run_until(issue_at);
        handles.push(engine.issue_lookup(origin, object, issue_at + window));
        steps_ns.push(thread_cpu_ns() - step_start);
    }
    let tail = engine.now() + window + SimDuration::from_secs(30);
    engine.run_until(tail);
    rec.end(lookup_span);
    let t3 = thread_cpu_ns();
    let wall_s = secs(wall0, now_ns());
    rec.end(parent);

    let stats_after = engine.net_stats();
    let counters_after = engine.counters();
    let latency_ns: Vec<u64> = handles
        .iter()
        .filter_map(|&h| match engine.lookup_outcome(h) {
            LookupOutcome::Succeeded { latency, .. } => Some(latency.as_micros() * 1000),
            _ => None,
        })
        .collect();
    Rep {
        build_s: secs(t0, t1),
        insert_s: secs(t1, t2),
        lookup_s: secs(t2, t3),
        wall_s,
        steps_ns,
        lookups: handles.len() as u64,
        ok: latency_ns.len() as u64,
        latency_ns,
        sent: stats_after.sent,
        events: (stats_after.delivered - stats_before.delivered)
            + (stats_after.timers_fired - stats_before.timers_fired),
        lookup_msgs: counters_after.lookup_messages - counters_before.lookup_messages,
        allocs: mpil_alloc::snapshot().since(allocs_before).allocs,
    }
}

/// One repetition of the whole workload: every engine, back to back.
struct WorkloadRep {
    engines: Vec<Rep>,
    traced: bool,
}

impl WorkloadRep {
    fn total(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        self.engines.iter().map(f).sum()
    }

    fn stages_s(&self) -> f64 {
        self.total(|r| r.insert_s + r.lookup_s)
    }

    fn fingerprint(&self) -> Vec<(u64, u64, u64, u64)> {
        self.engines.iter().map(Rep::fingerprint).collect()
    }
}

pub fn run(engines: &[EngineRun], args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let started = now_ns();

    // The reference repetition: unmeasured, it warms the allocator and
    // holds the program to the counts pinned from `scale_run`.
    if !args.quick {
        let mut off = Recorder::new(false);
        for e in engines {
            let rep = run_rep(e, Traffic::Reference, &mut off, NO_PARENT);
            if let Some(&(_, sent, events)) = PINNED_REFERENCE.iter().find(|p| p.0 == e.label) {
                out.check(
                    &format!(
                        "{}: the reference repetition's counts equal the pinned scale_run counts",
                        e.label
                    ),
                    (rep.sent, rep.events) == (sent, events) && rep.ok == rep.lookups,
                    format!(
                        "sent {} events {} ok {}/{} vs pinned {sent} {events}",
                        rep.sent, rep.events, rep.ok, rep.lookups
                    ),
                );
            }
        }
    }

    // Every measured repetition runs `--seed`'s traffic: identical work,
    // so they must agree bit for bit, and what differs between their
    // times is the machine.
    let window_ns = args.window_ns().saturating_sub(now_ns() - started);
    let reps: Vec<WorkloadRep> = args
        .repeat(rec, window_ns, |_, rec, root| {
            engines
                .iter()
                .map(|e| run_rep(e, Traffic::Seeded(args.seed), rec, root))
                .collect()
        })
        .into_iter()
        .map(|(engines, traced)| WorkloadRep { engines, traced })
        .collect();

    let first = &reps[0];
    let want = first.fingerprint();
    out.check(
        &format!(
            "{} repetitions agree on sent, events, successes, lookup messages of every engine",
            reps.len()
        ),
        reps.iter().all(|r| r.fingerprint() == want),
        format!("{want:?}"),
    );
    for (e, rep) in engines.iter().zip(&first.engines) {
        out.counts.extend([
            (format!("{}.sent", e.label), rep.sent as f64),
            (format!("{}.events", e.label), rep.events as f64),
            (format!("{}.ok", e.label), rep.ok as f64),
            (format!("{}.lookup_msgs", e.label), rep.lookup_msgs as f64),
            (format!("{}.build_cpu_s", e.label), rep.build_s),
            (format!("{}.insert_cpu_s", e.label), rep.insert_s),
            (format!("{}.lookup_cpu_s", e.label), rep.lookup_s),
            (format!("{}.wall_s", e.label), rep.wall_s),
        ]);
    }

    let lookups = first.total(|r| r.lookups as f64);
    let ok = first.total(|r| r.ok as f64);
    let inserts: f64 = engines.iter().map(|e| e.ops as f64).sum();
    let sum_over_reps =
        |f: &dyn Fn(&Rep) -> u64| -> u64 { reps.iter().flat_map(|r| &r.engines).map(f).sum() };
    out.attempted = sum_over_reps(&|r| r.lookups);
    out.failed = sum_over_reps(&|r| r.lookups - r.ok);
    let cpu_s: f64 = reps
        .iter()
        .map(|r| r.total(|e| e.build_s + e.insert_s + e.lookup_s))
        .sum();
    let wall_s: f64 = reps.iter().map(|r| r.total(|e| e.wall_s)).sum();
    out.counts.extend([
        ("repetitions".into(), reps.len() as f64),
        ("cpu_share_pct".into(), cpu_s / wall_s.max(1e-9) * 100.0),
    ]);

    // The quiet-machine value over repetitions: first quartile of a
    // cost, third quartile of a rate (see `hist::quiet`).
    let per_rep = |lower_is_better: bool, f: &dyn Fn(&WorkloadRep) -> f64| -> f64 {
        quiet(&reps.iter().map(f).collect::<Vec<_>>(), lower_is_better).unwrap_or(0.0)
    };
    let (cost, rate) = (true, false);
    let hist_of = |pick: &dyn Fn(&Rep) -> &[u64]| {
        let all: Vec<u64> = first.engines.iter().flat_map(pick).copied().collect();
        Histogram::of(&all)
    };
    let ms = |ns: Option<f64>| ns.unwrap_or(0.0) / 1e6;
    let m = &mut out.metrics;
    if args.trace {
        let walls: Vec<(f64, bool)> = reps.iter().map(|r| (r.stages_s(), r.traced)).collect();
        m.set("bench.trace_overhead_pct", trace_overhead_pct(&walls));
        m.set("bench.spans_recorded", rec.len() as f64);
        m.set(
            "bench.lookup_p999_ms",
            ms(hist_of(&|e| &e.steps_ns).percentile(99.9)),
        );
        let events = first.total(|r| r.events as f64);
        m.set("sim.events", events);
        m.set("sim.sent", first.total(|r| r.sent as f64));
        m.set(
            "sim.events_per_s",
            per_rep(rate, &|r| {
                r.total(|e| e.events as f64) / r.total(|e| e.lookup_s).max(1e-9)
            }),
        );
        m.set(
            "sim.allocs_per_event",
            first.total(|e| e.allocs as f64) / events.max(1.0),
        );

        // The layers this workload crosses, from its own spans: seconds
        // of self time under an engine's span, median over the traced
        // repetitions. (Layers it does not cross are filled by probes.)
        let span_s = |pick: &dyn Fn(&[&'static str]) -> bool| -> Vec<f64> {
            rec.self_ns_per_root(pick)
                .iter()
                .map(|&ns| ns as f64 / 1e9)
                .collect()
        };
        let mid = |v: &[f64]| median(v).unwrap_or(0.0);
        m.set(
            "harness.scenario_build_s",
            mid(&span_s(&|path| path.last() == Some(&"scenario.build"))),
        );
        let traced: Vec<&WorkloadRep> = reps.iter().filter(|r| r.traced).collect();
        for (i, e) in engines.iter().enumerate() {
            let under = |names: &'static [&'static str]| {
                span_s(&|path| path.contains(&e.label) && path.iter().any(|n| names.contains(n)))
            };
            let build = under(&["setup"]);
            let insert = under(&["stage.insert", "stage.quiesce"]);
            let lookup = under(&["stage.lookup"]);
            let one = &first.engines[i];
            match e.label {
                "chord" | "pastry" | "kademlia" => {
                    let stage: Vec<f64> = insert.iter().zip(&lookup).map(|(a, b)| a + b).collect();
                    let rate: Vec<f64> = traced
                        .iter()
                        .zip(&lookup)
                        .map(|(r, s)| r.engines[i].events as f64 / s.max(1e-9))
                        .collect();
                    m.set(&format!("{}.build_s", e.label), mid(&build));
                    m.set(&format!("{}.stage_s", e.label), mid(&stage));
                    m.set(&format!("{}.events_per_s", e.label), mid(&rate));
                    m.set(
                        &format!("{}.success_pct", e.label),
                        one.ok as f64 / one.lookups.max(1) as f64 * 100.0,
                    );
                }
                "plumtree" => {
                    m.set("gossip.plumtree.insert_stage_s", mid(&insert));
                    m.set("gossip.plumtree.lookup_stage_s", mid(&lookup));
                }
                "mpil" => {
                    m.set("core.agent.insert_stage_s", mid(&insert));
                    m.set("core.agent.lookup_stage_s", mid(&lookup));
                    m.set(
                        "core.agent.allocs_per_event",
                        one.allocs as f64 / one.events.max(1) as f64,
                    );
                }
                _ => {}
            }
        }
    } else {
        m.set("setup_s", per_rep(cost, &|r| r.total(|e| e.build_s)));
        m.set(
            "lookup_per_s",
            per_rep(rate, &|r| {
                r.total(|e| e.ok as f64) / r.total(|e| e.lookup_s).max(1e-9)
            }),
        );
        let simulated = hist_of(&|e| &e.latency_ns);
        m.set("lookup_mid_ms", ms(simulated.mid_mean()));
        m.set("lookup_p99_ms", ms(simulated.percentile(99.0)));
        m.set(
            "announce_per_s",
            per_rep(rate, &|r| inserts / r.total(|e| e.insert_s).max(1e-9)),
        );
        m.set("success_pct", ok / lookups.max(1.0) * 100.0);
        m.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        m.set(
            "msgs_per_lookup",
            first.total(|r| r.lookup_msgs as f64) / lookups.max(1.0),
        );
    }
    Ok(out)
}
