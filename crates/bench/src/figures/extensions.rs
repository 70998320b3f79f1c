//! Extension experiments beyond the paper: trace-driven churn, the
//! widened DHT comparison, link loss, and overlay-independence across
//! five overlay families.

use mpil::{DynamicConfig, DynamicNetwork, MpilConfig};
use mpil_harness::{
    mean_out_degree, run_prepared, run_scenario, DiscoveryEngine, EngineSpec, ExperimentRunner,
    OverlaySource, PerturbResult, PerturbRun, Report, Scenario,
};
use mpil_id::Id;
use mpil_overlay::transit_stub;
use mpil_overlay::NodeIdx;
use mpil_pastry::{build_converged_states, PastryConfig, PastrySim};
use mpil_sim::{AlwaysOn, SimDuration, SimTime, TraceChurn, TransitStubLatency};
use mpil_workload::Table;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use super::{row, standard, sweep};
use crate::Args;

/// Every spec at every probability under 30:30 flapping, on one worker
/// per core: `[spec][probability]`.
fn sweep_30_30<R: Send>(
    specs: &[EngineSpec],
    probabilities: &[f64],
    nodes: usize,
    ops: usize,
    seed: u64,
    measure: impl Fn(&Scenario) -> R + Sync,
) -> Vec<Vec<R>> {
    let rows: Vec<Scenario> = specs
        .iter()
        .map(|&spec| row(spec, (30, 30), nodes, ops, seed))
        .collect();
    sweep(ExperimentRunner::default(), &rows, probabilities, measure)
}

/// Extension: the Figure 11 comparison widened to three DHT baselines.
///
/// Figure 11 compares MPIL against MSPastry only. This adds Chord (with
/// full stabilization) and Kademlia in two configurations —
/// single-copy/single-path (`k = 1, α = 1`, the apples-to-apples peer of
/// MSPastry's one-root storage) and stock (`k = 8, α = 3`) — all under
/// the same 30:30 flapping sweep, against MPIL over each baseline's own
/// frozen overlay.
///
/// Expected shape: every *single-copy* maintained DHT collapses as p
/// grows; replicated Kademlia holds (the literature's churn-resistance
/// result); MPIL over any frozen graph stays at the top without any
/// maintenance at all.
pub fn ext_dht_comparison(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let specs = [
        EngineSpec::MSPASTRY,
        EngineSpec::Chord,
        EngineSpec::Kademlia { k: 1, alpha: 1 },
        EngineSpec::KADEMLIA,
        EngineSpec::MpilOver(OverlaySource::Pastry),
        EngineSpec::MpilOver(OverlaySource::Chord),
        EngineSpec::MpilOver(OverlaySource::Kademlia),
    ];
    let (nodes, ops) = if full { (1000, 500) } else { (250, 50) };
    let fewest = specs.iter().map(EngineSpec::fewest_nodes).max();
    let nodes = args
        .try_value_in("nodes", fewest.unwrap_or(1)..)?
        .unwrap_or(nodes);
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(ops);
    args.finish()?;
    let probabilities = [0.2, 0.5, 0.9];
    let results = sweep_30_30(&specs, &probabilities, nodes, ops, seed, run_scenario);

    let mut header: Vec<String> = vec!["system".into()];
    header.extend(probabilities.iter().map(|p| format!("p={p} %")));
    let mut table = Table::new(header);
    for (spec, results) in specs.iter().zip(&results) {
        let mut cells = vec![spec.label()];
        for (&p, r) in probabilities.iter().zip(results) {
            let rate = r.success_rate;
            cells.push(format!("{rate:.1}"));
            eprintln!("{} p={p}: {rate:.1}%", spec.label());
        }
        table.row(cells);
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Extension: maintained DHTs vs maintenance-free MPIL under flapping \
             ({nodes} nodes, {ops} lookups, idle:offline=30:30)"
        ),
        table,
    );
    Ok(report)
}

/// Extension: overlay-independence across five overlay families.
///
/// The paper demonstrates overlay-independence on random and power-law
/// graphs (Section 6.1) and on the MSPastry overlay (Section 6.2). This
/// runs the *same* MPIL configuration (max_flows = 10, per-flow
/// replicas = 5, no DS, no maintenance) over the frozen neighbor graphs
/// of all five families — Pastry, Chord, Kademlia, random-regular,
/// power-law — both unperturbed and under 30:30 flapping at p = 0.5 and
/// p = 0.9.
///
/// Expected shape: success stays high and hops/traffic stay in the same
/// band on *every* family; the structured overlays' sparser graphs
/// (Chord's ≈ log N out-degree) cost a few points at heavy flapping but
/// do not change the story.
pub fn ext_overlay_independence(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let sources = [
        OverlaySource::Pastry,
        OverlaySource::Chord,
        OverlaySource::Kademlia,
        OverlaySource::RandomRegular(16),
        OverlaySource::PowerLaw,
    ];
    let specs = sources.map(EngineSpec::MpilOver);
    let (nodes, ops) = if full { (1000, 500) } else { (300, 60) };
    let fewest = specs.iter().map(EngineSpec::fewest_nodes).max();
    let nodes = args
        .try_value_in("nodes", fewest.unwrap_or(1)..)?
        .unwrap_or(nodes);
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(ops);
    args.finish()?;

    let probabilities = [0.0, 0.5, 0.9];
    let results = sweep_30_30(&specs, &probabilities, nodes, ops, seed, run_scenario);

    let mut table = Table::new(vec![
        "overlay".into(),
        "out-degree".into(),
        "p=0 %".into(),
        "p=0.5 %".into(),
        "p=0.9 %".into(),
        "hops (p=0)".into(),
        "msgs/lookup (p=0)".into(),
    ]);
    for (src, results) in sources.iter().zip(&results) {
        let (_, nbrs) = src.build(nodes, seed);
        let degree = mean_out_degree(&nbrs);
        let mut cells = vec![src.label(), format!("{degree:.1}")];
        let mut calm_hops = String::new();
        let mut calm_msgs = String::new();
        for (&p, r) in probabilities.iter().zip(results) {
            cells.push(format!("{:.1}", r.success_rate));
            if p == 0.0 {
                calm_hops = format!("{:.2}", r.mean_reply_hops);
                calm_msgs = format!("{:.1}", r.lookup_messages as f64 / ops as f64);
            }
            eprintln!("{} p={p}: {:.1}%", src.label(), r.success_rate);
        }
        cells.push(calm_hops);
        cells.push(calm_msgs);
        table.row(cells);
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Extension: MPIL overlay-independence across overlay families \
             ({nodes} nodes, {ops} lookups, max_flows=10, r=5, idle:offline=30:30)"
        ),
        table,
    );
    Ok(report)
}

/// Extension: link loss instead of (and combined with) node flapping.
///
/// Castro et al.'s dependability study (cited in Section 2 as the source
/// of MSPastry's maintenance techniques) evaluates Pastry under *network
/// message loss* as well as churn. The MPIL paper only perturbs nodes;
/// this closes that gap: an independent per-message loss probability is
/// injected during the lookup stage, alone and on top of moderate
/// flapping.
///
/// Expected shape: per-hop retransmission lets MSPastry absorb small
/// loss rates; MPIL absorbs them through flow redundancy without any
/// retransmission. Under combined loss + flapping the ordering of
/// Figure 11 (MPIL on top) must persist.
pub fn ext_link_loss(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let (nodes, ops) = if full { (1000, 1000) } else { (300, 60) };
    let nodes = args.try_value_in("nodes", 1..)?.unwrap_or(nodes);
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(ops);
    args.finish()?;

    let losses = [0.0, 0.05, 0.1, 0.2, 0.4];
    let flaps = [0.0, 0.5];
    let mut points = Vec::new();
    for &flap in &flaps {
        for &loss in &losses {
            let mut run = PerturbRun::new(30, 30, flap).with_loss(loss);
            run.nodes = nodes;
            run.operations = ops;
            run.seed = seed;
            points.push(Scenario::new(EngineSpec::MSPASTRY, run));
            points.push(Scenario::new(EngineSpec::MPIL_NO_DS, run));
        }
    }
    let results = ExperimentRunner::default().run_scenarios(&points);

    let mut table = Table::new(vec![
        "loss".into(),
        "flap p".into(),
        "MSPastry %".into(),
        "MPIL w/o DS %".into(),
        "MSPastry msgs/lookup".into(),
        "MPIL msgs/lookup".into(),
    ]);
    for (cell, (&flap, &loss)) in flaps
        .iter()
        .flat_map(|f| losses.iter().map(move |l| (f, l)))
        .enumerate()
    {
        let pastry = &results[2 * cell];
        let mpil = &results[2 * cell + 1];
        table.row(vec![
            format!("{loss:.2}"),
            format!("{flap:.1}"),
            format!("{:.1}", pastry.success_rate),
            format!("{:.1}", mpil.success_rate),
            format!("{:.1}", pastry.lookup_messages as f64 / ops as f64),
            format!("{:.1}", mpil.lookup_messages as f64 / ops as f64),
        ]);
        eprintln!(
            "loss {loss:.2} flap {flap:.1}: pastry {:.1}%, mpil {:.1}%",
            pastry.success_rate, mpil.success_rate
        );
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Extension: success under link loss ({nodes} nodes, {ops} lookups, idle:offline=30:30)"
        ),
        table,
    );
    Ok(report)
}

/// Extension: epidemic gossip vs maintained DHTs vs maintenance-free
/// MPIL under flapping.
///
/// The paper's overlay-independence claim implicitly covers the
/// unstructured/epidemic regime, but every substrate evaluated so far
/// is structured. This puts the `mpil-gossip` engine's two unstructured
/// searches — k-random-walk (Lv et al., Ferretti) and expanding-ring
/// flooding over HyParView active views, looking for the pointers a few
/// insert walks left — through the exact two-stage perturbation
/// methodology the DHT baselines run, and also routes MPIL *over* the
/// frozen HyParView active graph.
///
/// Expected shape: random walks degrade gracefully under flapping
/// (walks need only one live path to a replica) at a modest message
/// cost; expanding-ring holds success highest but pays flood-scale
/// traffic; the maintained single-copy DHT collapses as p grows; and
/// MPIL over the frozen active views matches its behavior on every
/// other overlay family, extending overlay-independence to the
/// epidemic regime.
pub fn ext_gossip_discovery(args: &Args) -> Result<Report, String> {
    let (full, _csv, seed) = standard(args)?;
    let specs = [
        EngineSpec::GOSSIP_WALK,
        EngineSpec::GOSSIP_RING,
        EngineSpec::Chord,
        EngineSpec::KADEMLIA,
        EngineSpec::MpilOver(OverlaySource::HyParView { active: 8 }),
        EngineSpec::MpilOver(OverlaySource::RandomRegular(8)),
    ];
    let (nodes, ops) = if full { (1000, 500) } else { (250, 50) };
    let fewest = specs.iter().map(EngineSpec::fewest_nodes).max();
    let nodes = args
        .try_value_in("nodes", fewest.unwrap_or(1)..)?
        .unwrap_or(nodes);
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(ops);
    let dissemination = args.flag("dissemination");
    args.finish()?;
    if dissemination {
        // A separate mode (not extra rows) so the default table's RNG
        // streams and bytes stay exactly as previous releases printed.
        return Ok(ext_dissemination(nodes, ops, seed));
    }
    let probabilities = [0.0, 0.5, 0.9];

    let results = sweep_30_30(&specs, &probabilities, nodes, ops, seed, run_scenario);

    let mut header: Vec<String> = vec!["system".into()];
    header.extend(probabilities.iter().map(|p| format!("p={p} %")));
    header.push("msgs/lookup (p=0)".into());
    header.push("msgs/lookup (p=0.9)".into());
    header.push("hops (p=0)".into());
    let mut table = Table::new(header);
    for (spec, results) in specs.iter().zip(&results) {
        let mut cells = vec![spec.label()];
        for (&p, r) in probabilities.iter().zip(results) {
            let rate = r.success_rate;
            cells.push(format!("{rate:.1}"));
            eprintln!("{} p={p}: {rate:.1}%", spec.label());
        }
        let (calm, stormy) = (&results[0], &results[probabilities.len() - 1]);
        cells.push(format!("{:.1}", calm.lookup_messages as f64 / ops as f64));
        cells.push(format!("{:.1}", stormy.lookup_messages as f64 / ops as f64));
        cells.push(format!("{:.2}", calm.mean_reply_hops));
        table.row(cells);
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Extension: epidemic gossip discovery vs DHTs vs MPIL under flapping \
             ({nodes} nodes, {ops} lookups, idle:offline=30:30, seed={seed})"
        ),
        table,
    );
    report.note(format!(
        "engines = [{}]; seed range = {seed}..={seed}",
        specs
            .iter()
            .map(EngineSpec::label)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    Ok(report)
}

/// One dissemination-comparison point: the standard two-stage
/// methodology, plus a recovery stage — the flapping model is replaced
/// by full availability, the membership layer gets two calm periods to
/// heal, and the whole workload is looked up again. The recovery
/// success rate is the "convergence after flap" column: it separates
/// engines whose view graph healed (HyParView's reactive replacement)
/// from engines that merely got lucky during the storm.
fn dissemination_point(scenario: &Scenario) -> (PerturbResult, f64) {
    let run = &scenario.run;
    let mut prepared = scenario.build();
    let stormy = run_prepared(&mut prepared, run);

    // Recovery: the storm ends, the overlay heals, the workload repeats.
    let engine = &mut prepared.engine;
    engine.set_availability(Box::new(AlwaysOn));
    engine.run_until(engine.now() + run.period() * 2);
    let deadline = engine.now() + run.deadline_window();
    let recovered: Vec<_> = prepared
        .objects
        .iter()
        .map(|&o| engine.issue_lookup(prepared.origin, o, deadline))
        .collect();
    engine.run_until(deadline + SimDuration::from_secs(30));
    (stormy, prepared.tally(&recovered).success_rate)
}

/// The `--dissemination` mode of [`ext_gossip_discovery`]: Plumtree and
/// FOAF lookups on the HyParView/Plumtree epidemic engine against the
/// expanding-ring flood they replace, plus MPIL routed over the frozen
/// HyParView active graph (overlay-independence on the new view graph).
/// Adds the two columns the flat table lacks: msgs/lookup at both ends
/// of the flapping sweep, and convergence after the flap ends.
fn ext_dissemination(nodes: usize, ops: usize, seed: u64) -> Report {
    let probabilities = [0.0, 0.5, 0.9];
    let specs = [
        EngineSpec::GOSSIP_RING,
        EngineSpec::PLUMTREE,
        EngineSpec::FOAF,
        EngineSpec::MpilOver(OverlaySource::HyParView { active: 8 }),
    ];
    let results = sweep_30_30(
        &specs,
        &probabilities,
        nodes,
        ops,
        seed,
        dissemination_point,
    );

    let mut header: Vec<String> = vec!["system".into()];
    header.extend(probabilities.iter().map(|p| format!("p={p} %")));
    header.push("msgs/lookup (p=0)".into());
    header.push("msgs/lookup (p=0.9)".into());
    header.push("converged % (post-flap)".into());
    let mut table = Table::new(header);
    for (spec, results) in specs.iter().zip(&results) {
        let mut cells = vec![spec.label()];
        for (&p, (r, _)) in probabilities.iter().zip(results) {
            let rate = r.success_rate;
            cells.push(format!("{rate:.1}"));
            eprintln!("{} p={p}: {rate:.1}%", spec.label());
        }
        let (calm, stormy) = (&results[0].0, &results[probabilities.len() - 1]);
        cells.push(format!("{:.1}", calm.lookup_messages as f64 / ops as f64));
        cells.push(format!(
            "{:.1}",
            stormy.0.lookup_messages as f64 / ops as f64
        ));
        cells.push(format!("{:.1}", stormy.1));
        table.row(cells);
    }
    let mut report = Report::new();
    report.table(
        format!(
            "Extension: dissemination layer — Plumtree/FOAF vs expanding-ring flood \
             ({nodes} nodes, {ops} lookups, idle:offline=30:30, seed={seed})"
        ),
        table,
    );
    report.note(format!(
        "engines = [{}]; convergence measured two calm periods after the flapping stops",
        specs
            .iter()
            .map(EngineSpec::label)
            .collect::<Vec<_>>()
            .join(", "),
    ));
    report
}

// --- trace-driven churn ------------------------------------------------------

/// Session scales bracketing the measurement studies (Bhagwan et al.'s
/// Overnet crawl, Saroiu et al.'s Napster/Gnutella study).
struct SessionScale {
    label: &'static str,
    mean_online_s: u64,
    mean_offline_s: u64,
}

/// Extension: trace-driven churn instead of periodic flapping.
///
/// The paper motivates perturbation with the measured availability of
/// real deployments but evaluates only the synthetic flapping model.
/// This replays synthetic session traces with exponential on/off times
/// calibrated to those studies' headline numbers (median session lengths
/// of tens of minutes, mean availability well below 1) and compares MPIL
/// against Pastry-with-maintenance on the same frozen overlay — both
/// engines behind [`DiscoveryEngine`], driven by one loop.
pub fn ext_churn_traces(args: &Args) -> Result<Report, String> {
    let (_full, _csv, seed) = standard(args)?;
    let nodes = args.try_value_in("nodes", 1..)?.unwrap_or(400usize);
    let ops = args.try_value_in("ops", 1..)?.unwrap_or(80usize);
    args.finish()?;

    // Gnutella-like (short sessions, ~50% availability), Overnet-like
    // (longer sessions, ~70%), and a stable fleet (~90%).
    let scenarios = [
        SessionScale {
            label: "gnutella-like (50% up)",
            mean_online_s: 600,
            mean_offline_s: 600,
        },
        SessionScale {
            label: "overnet-like (70% up)",
            mean_online_s: 1400,
            mean_offline_s: 600,
        },
        SessionScale {
            label: "stable fleet (90% up)",
            mean_online_s: 5400,
            mean_offline_s: 600,
        },
    ];

    // (scenario index, mpil?) points, fanned out on the runner.
    let points: Vec<(usize, bool)> = (0..scenarios.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    let rates = ExperimentRunner::default().map(&points, |&(i, mpil)| {
        let sc = &scenarios[i];
        let (engine, objects) = if mpil {
            build_mpil_over_pastry(nodes, ops, seed)
        } else {
            build_maintained_pastry(nodes, ops, seed)
        };
        run_trace(engine, &objects, sc, nodes, seed)
    });

    let mut table = Table::new(vec![
        "scenario".into(),
        "MSPastry %".into(),
        "MPIL w/o DS %".into(),
    ]);
    for (i, sc) in scenarios.iter().enumerate() {
        let pastry = rates[2 * i];
        let mpil = rates[2 * i + 1];
        table.row(vec![
            sc.label.into(),
            format!("{pastry:.1}"),
            format!("{mpil:.1}"),
        ]);
        eprintln!("{}: pastry {pastry:.1}%, mpil {mpil:.1}%", sc.label);
    }
    let mut report = Report::new();
    report.table(
        format!("Extension: success under trace-driven churn ({nodes} nodes, {ops} lookups)"),
        table,
    );
    Ok(report)
}

/// MSPastry with maintenance on a transit-stub topology (trace-churn
/// build; RNG order unchanged since the seed state).
fn build_maintained_pastry(
    nodes: usize,
    ops: usize,
    seed: u64,
) -> (Box<dyn DiscoveryEngine>, Vec<Id>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = mpil_overlay::random_ids(nodes, &mut rng);
    let states = build_converged_states(&ids, &mut rng);
    let ts = transit_stub::generate(nodes, &mut rng).expect("ts");
    let sim = PastrySim::new(
        (ids, states),
        PastryConfig::default(),
        Box::new(AlwaysOn),
        Box::new(TransitStubLatency::new(ts, 0.1)),
        seed ^ 0x77,
    );
    let objects = (0..ops).map(|_| Id::random(&mut rng)).collect();
    (Box::new(sim), objects)
}

/// MPIL (no DS, no maintenance) over the same frozen Pastry overlay.
fn build_mpil_over_pastry(
    nodes: usize,
    ops: usize,
    seed: u64,
) -> (Box<dyn DiscoveryEngine>, Vec<Id>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ids = mpil_overlay::random_ids(nodes, &mut rng);
    let states = build_converged_states(&ids, &mut rng);
    let neighbors: Vec<Vec<NodeIdx>> = states.iter().map(|s| s.neighbor_list()).collect();
    let ts = transit_stub::generate(nodes, &mut rng).expect("ts");
    let net = DynamicNetwork::new(
        (ids, neighbors.into()),
        DynamicConfig {
            mpil: MpilConfig::default().with_duplicate_suppression(false),
            heartbeat_period: None,
        },
        Box::new(AlwaysOn),
        Box::new(TransitStubLatency::new(ts, 0.1)),
        seed ^ 0x77,
    );
    let objects = (0..ops).map(|_| Id::random(&mut rng)).collect();
    (Box::new(net), objects)
}

/// The one trace-churn drive loop: insert, settle, start whatever
/// maintenance the engine has (a no-op for MPIL), replay the session
/// trace, and issue one lookup per 120 s tick.
fn run_trace(
    mut engine: Box<dyn DiscoveryEngine>,
    objects: &[Id],
    sc: &SessionScale,
    nodes: usize,
    seed: u64,
) -> f64 {
    let origin = NodeIdx::new(0);
    for &o in objects {
        engine.insert(origin, o);
    }
    engine.run_to_quiescence();
    engine.start_maintenance();

    let period = SimDuration::from_secs(120);
    let horizon = engine.now() + period * (objects.len() as u64 + 2);
    engine.set_availability(Box::new(trace(sc, nodes, horizon, origin, seed)));

    let mut lookups = Vec::new();
    for &o in objects {
        engine.advance(period);
        let deadline = engine.now() + SimDuration::from_secs(60);
        lookups.push(engine.issue_lookup(origin, o, deadline));
    }
    engine.advance(SimDuration::from_secs(90));
    let ok = lookups
        .iter()
        .filter(|&&l| engine.lookup_outcome(l).is_success())
        .count();
    100.0 * ok as f64 / lookups.len() as f64
}

/// Synthetic session traces with exponential on/off times; the
/// measurement origin is always up.
fn trace(
    sc: &SessionScale,
    nodes: usize,
    horizon: SimTime,
    origin: NodeIdx,
    seed: u64,
) -> TraceChurn {
    use rand::Rng;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);
    let exp = |rng: &mut SmallRng, mean_us: f64| -> u64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-mean_us * u.ln()).max(1.0) as u64
    };
    let on_us = sc.mean_online_s as f64 * 1e6;
    let off_us = sc.mean_offline_s as f64 * 1e6;
    let mut all: Vec<Vec<(SimTime, SimTime)>> = Vec::with_capacity(nodes);
    for i in 0..nodes {
        if i == origin.index() {
            all.push(vec![(
                SimTime::ZERO,
                horizon + SimDuration::from_secs(3600),
            )]);
            continue;
        }
        let mut list = Vec::new();
        let mut t = if rng.gen_bool(0.5) {
            0
        } else {
            exp(&mut rng, off_us)
        };
        while t < horizon.as_micros() {
            let end = (t + exp(&mut rng, on_us)).min(horizon.as_micros());
            list.push((SimTime::from_micros(t), SimTime::from_micros(end)));
            t = end + exp(&mut rng, off_us);
        }
        all.push(list);
    }
    TraceChurn::from_sessions(all)
}
