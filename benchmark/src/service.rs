//! The two `svc-*` workloads: set-up repetitions, an announce phase,
//! a lookup phase, and the accounting checks, against an embedded
//! daemon.

use mpild::daemon::DaemonReport;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::clock::{now_ns, secs};
use crate::hist::{median, quiet};
use crate::machine;
use crate::outcome::{peak_rss_mib, Outcome, RunArgs};
use crate::span::{Recorder, SpanId, NO_PARENT};
use crate::svc::{
    daemon_config, start_daemon, Churn, Client, Load, OpKind, PhasePlan, PhaseStats, Plane, Service,
};

/// Never-announced object indices start here (announce phases count up
/// from 0 and never get near it).
const NEGATIVE_BASE: u64 = 1 << 40;
const NEGATIVE_LOOKUPS: u64 = 100;
/// Share of the measured window given to the announce phase.
const ANNOUNCE_SHARE: f64 = 0.3;
/// Objects announced, unmeasured, as part of set-up, and how many nodes
/// announce each (a resource usually has more than one provider).
const WARM_OBJECTS: u64 = 256;
const WARM_PROVIDERS: u64 = 2;
/// Objects the measured announce phase announces, over and over from
/// fresh origins (providers re-announce what they hold). What a daemon
/// stores is then the same in every run, and so is its memory: when the
/// phase announced a new object every time, peak RSS followed the
/// announce rate (35-50 MiB from run to run on the channel plane).
const ANNOUNCE_OBJECTS: u64 = 8192;
/// Lookups in flight on a closed loop. On loopback UDP a lookup costs
/// two of the daemon's poll quanta (16 ms) whatever the load, in lumps
/// one kernel timer tick (4 ms) apart. With 48 in flight (and the
/// process on one CPU) the quiet rate is 48 / 16 ms and a steady tenth
/// of the lookups take one tick more. With 64 the shares taking one and
/// two ticks more move from slice to slice and the typical latency
/// drifts with them (16.0-17.0 ms); with 96 acknowledgements are lost
/// and one lookup in a hundred waits out a retry with no churn at all.
const IN_FLIGHT: usize = 48;
/// Announces in flight. Every announce is acknowledged by each of its
/// five or so replicas; with 64 in flight on loopback UDP the
/// acknowledgements overflow the daemon's socket buffer while it sits
/// in a poll quantum, 1.6 % of attempts then wait out a 150 ms retry,
/// and about one announce in 30 000 runs out of retries. 16 leave room.
const ANNOUNCE_IN_FLIGHT: usize = 16;
/// An open-loop run whose generator sent later than this at p99 is
/// marked invalid (`Outcome::invalid`). Latency is timed from the due
/// instant either way; this only says the offered load was not the
/// schedule's. The issue asked for 1 ms, which this generator cannot
/// meet: the program's channel client floors every wait at 1 ms, so a
/// send due inside a wait goes out up to 1 ms late by construction, and
/// the generator thread shares two vCPUs with 50 of the program's. Ten
/// runs of `svc-chan-churn` on the unchanged tree read 1.4-7.1 ms (and
/// one 32 ms, which this limit is there to catch).
const GEN_LAG_LIMIT_MS: f64 = 10.0;

/// One service workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct SvcSpec {
    pub plane: Plane,
    pub lookup_load: Load,
    pub churn: Option<Churn>,
}

pub fn spec_of(workload: &str) -> Option<SvcSpec> {
    let closed = Load::Closed {
        in_flight: IN_FLIGHT,
    };
    // Four random nodes go deaf for 100 ms every 250 ms. 100 ms is
    // shorter than one 150 ms retry period, so a lookup whose entry node
    // was deaf (3 % of them) is answered by its first retry: p99 sits on
    // the retry plateau in every slice, and no lookup is lost.
    let churn = Some(Churn {
        period_ns: 250_000_000,
        nodes_per_volley: 4,
        perturb_ms: 100,
    });
    match workload {
        // Under churn like the channel workload, because the tail of a
        // quiet loopback-UDP cluster does not repeat: p99 reads 20 ms for
        // ten runs and then, for ten minutes of the same build on the
        // same machine, 26-28 ms (one or two timer ticks more). A retry
        // plateau of 150 ms does not care about a tick.
        "svc-udp-churn" => Some(SvcSpec {
            plane: Plane::Udp,
            lookup_load: closed,
            churn,
        }),
        "svc-chan-churn" => Some(SvcSpec {
            plane: Plane::Chan,
            // 500/s leaves two of the daemon's 1 ms poll quanta between
            // arrivals. At 2000/s the daemon flips, run by run, between
            // answering in 3 ms and in 20 ms, depending on whether arrivals
            // happen to leave it a 1 ms gap to stop admitting and start
            // replying; that is a finding (README), not a repeatable number.
            lookup_load: Load::Open {
                rate: 500.0,
                cap: 256,
            },
            churn,
        }),
        _ => None,
    }
}

/// Cluster size: 48 nodes of degree 8, or 24 of degree 6 in quick mode.
fn cluster_size(quick: bool) -> (usize, usize) {
    if quick {
        (24, 6)
    } else {
        (48, 8)
    }
}

struct SetUp {
    service: Service,
    client: Client,
    seconds: f64,
}

/// Set-up as a user pays it: spawn the daemon (overlay generation, mesh,
/// node threads) and make the warm-up announces.
fn set_up(
    spec: &SvcSpec,
    args: &RunArgs,
    rec: &mut Recorder,
    parent: SpanId,
) -> Result<SetUp, String> {
    let start = now_ns();
    let span = rec.begin("setup", parent, 0);
    let (nodes, degree) = cluster_size(args.quick);
    let spawn_span = rec.begin("daemon.spawn", span, 0);
    let (service, mut client) = start_daemon(spec.plane, daemon_config(spec.plane, nodes, degree))?;
    rec.end(spawn_span);
    let warm_span = rec.begin("warm.announce", span, 0);
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x5e7);
    let warm_objects: Vec<u64> = (0..WARM_OBJECTS).collect();
    // Two passes over the same objects, the second from fresh origins.
    for _ in 0..WARM_PROVIDERS {
        let warm = client.run_phase(
            &PhasePlan {
                kind: OpKind::Announce,
                load: Load::Closed {
                    in_flight: ANNOUNCE_IN_FLIGHT,
                },
                duration_ns: 5_000_000_000,
                max_ops: WARM_OBJECTS,
                churn: None,
            },
            args.seed,
            &warm_objects,
            &mut rng,
            &mut Recorder::new(false),
            NO_PARENT,
        )?;
        if warm.ok != WARM_OBJECTS {
            return Err(format!(
                "set-up: {} of {WARM_OBJECTS} warm-up announces confirmed",
                warm.ok
            ));
        }
    }
    rec.end(warm_span);
    rec.end(span);
    Ok(SetUp {
        service,
        client,
        seconds: secs(start, now_ns()),
    })
}

fn sum(report: &DaemonReport, field: impl Fn(&mpil_net::NodeStats) -> u64) -> u64 {
    report.node_stats.iter().map(field).sum()
}

/// Checks that hold for every daemon the benchmark runs and drains.
fn check_daemon(out: &mut Outcome, tag: &str, report: &DaemonReport, client: &Client) {
    out.check_eq(
        &format!("{tag}: daemon hits = client Found"),
        report.stats.hits,
        client.found,
    );
    out.check_eq(
        &format!("{tag}: daemon announces = client Announced"),
        report.stats.announces,
        client.announced,
    );
    out.check_eq(
        &format!("{tag}: every admin frame acknowledged"),
        client.admin_acked,
        client.admin_sent(),
    );
    out.check_eq(
        &format!("{tag}: every response token echoes a request"),
        client.unknown_tokens,
        0,
    );
    out.check_eq(
        &format!("{tag}: no wrong-kind or out-of-range answer"),
        client.wrong_answers,
        0,
    );
    let idle = report.aborted_at_drain + report.bad_requests + report.send_errors;
    out.check_eq(
        &format!("{tag}: aborted_at_drain + bad_requests + send_errors"),
        idle,
        0,
    );
}

fn phase_accounts(out: &mut Outcome, tag: &str, phase: &PhaseStats) {
    out.check_eq(
        &format!("{tag}: issued = ok + rejected + timeouts"),
        phase.issued,
        phase.ok + phase.rejected + phase.timeouts,
    );
}

fn ms(ns: Option<f64>) -> f64 {
    ns.unwrap_or(0.0) / 1e6
}

pub fn run(spec: &SvcSpec, args: &RunArgs, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pinned = machine::pin_to_one_cpu();
    out.counts
        .push(("pinned_cpu".into(), pinned.map_or(-1.0, |cpu| cpu as f64)));
    let root = rec.begin("workload", NO_PARENT, 0);
    let window_ns = args.window_ns();
    let announce_ns = (window_ns as f64 * ANNOUNCE_SHARE) as u64;
    let mut setups = Vec::new();
    let mut drains = Vec::new();

    // Throw-away daemons: more set-up samples, and the negative control.
    let throwaway = if args.trace || args.quick { 1 } else { 3 };
    let mut negative_failed = 0;
    for rep in 0..throwaway {
        let SetUp {
            service,
            mut client,
            seconds,
        } = set_up(spec, args, &mut Recorder::new(false), NO_PARENT)?;
        setups.push(seconds);
        if rep == 0 {
            let negatives: Vec<u64> = (0..NEGATIVE_LOOKUPS).map(|i| NEGATIVE_BASE + i).collect();
            let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x4e6);
            let neg = client.run_phase(
                &PhasePlan {
                    kind: OpKind::Lookup,
                    load: Load::Closed {
                        in_flight: NEGATIVE_LOOKUPS as usize,
                    },
                    duration_ns: 5_000_000_000,
                    max_ops: NEGATIVE_LOOKUPS,
                    churn: None,
                },
                args.seed,
                &negatives,
                &mut rng,
                &mut Recorder::new(false),
                NO_PARENT,
            )?;
            negative_failed = NEGATIVE_LOOKUPS - client.not_found.min(NEGATIVE_LOOKUPS);
            out.check(
                "negative control: never-announced ids all NotFound",
                client.not_found == NEGATIVE_LOOKUPS && neg.ok == 0 && neg.timeouts == 0,
                format!(
                    "{} NotFound, {} Found, {} client timeouts of {NEGATIVE_LOOKUPS}",
                    client.not_found, neg.ok, neg.timeouts
                ),
            );
        }
        let (report, drain_ms, client) = client.drain(service)?;
        drains.push(drain_ms);
        check_daemon(
            &mut out,
            &format!("throw-away daemon {rep}"),
            &report,
            &client,
        );
    }

    // The announce daemon serves nothing but announces, so its node
    // counters give forwards per announce exactly.
    let SetUp {
        service,
        mut client,
        seconds,
    } = set_up(spec, args, rec, root)?;
    setups.push(seconds);
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let announce_from = now_ns();
    let announce_span = rec.begin("phase.announce", root, 0);
    let announce = client.run_phase(
        &PhasePlan {
            kind: OpKind::Announce,
            load: Load::Closed {
                in_flight: ANNOUNCE_IN_FLIGHT,
            },
            duration_ns: announce_ns,
            max_ops: u64::MAX,
            churn: None,
        },
        args.seed,
        &(WARM_OBJECTS..WARM_OBJECTS + ANNOUNCE_OBJECTS).collect::<Vec<u64>>(),
        &mut rng,
        rec,
        announce_span,
    )?;
    rec.end(announce_span);
    let drain_span = rec.begin("drain", root, 0);
    let (announce_report, drain_ms, announce_client) = client.drain(service)?;
    rec.end(drain_span);
    let announce_wall_s = secs(announce_from, now_ns());
    drains.push(drain_ms);
    let forwards_per_announce = sum(&announce_report, |s| s.forwards) as f64
        / announce_report.stats.announces.max(1) as f64;

    // The lookup daemon holds only the warm-up objects, and lookups draw
    // from those: what its nodes forwarded beyond the warm-up's share
    // was forwarded for lookups.
    let SetUp {
        service,
        mut client,
        seconds,
    } = set_up(spec, args, rec, root)?;
    setups.push(seconds);
    let spawn_ms = service.spawn_ms;
    let warm_objects: Vec<u64> = (0..WARM_OBJECTS).collect();
    let lookup_from = now_ns();
    let lookup_span = rec.begin("phase.lookup", root, 0);
    let lookup = client.run_phase(
        &PhasePlan {
            kind: OpKind::Lookup,
            load: spec.lookup_load,
            duration_ns: window_ns - announce_ns,
            max_ops: u64::MAX,
            churn: spec.churn,
        },
        args.seed,
        &warm_objects,
        &mut rng,
        rec,
        lookup_span,
    )?;
    rec.end(lookup_span);
    let (after_lookup, _) = client.stats()?;
    let drain_span = rec.begin("drain", root, 0);
    let (report, drain_ms, client) = client.drain(service)?;
    rec.end(drain_span);
    let wall_s = announce_wall_s + secs(lookup_from, now_ns());
    drains.push(drain_ms);
    rec.end(root);

    // Checks.
    phase_accounts(&mut out, "announce", &announce);
    phase_accounts(&mut out, "lookup", &lookup);
    check_daemon(
        &mut out,
        "announce daemon",
        &announce_report,
        &announce_client,
    );
    check_daemon(&mut out, "lookup daemon", &report, &client);
    out.check_eq(
        "churn: daemon applied every perturb sent",
        report.perturbs,
        lookup.churn_perturbs,
    );
    let gen_lag_p99_ms = match spec.lookup_load {
        Load::Open { .. } => Some(ms(lookup.lag.percentile(99.0))),
        Load::Closed { .. } => None,
    };
    if let Some(lag) = gen_lag_p99_ms {
        if lag > GEN_LAG_LIMIT_MS {
            out.invalid = Some(format!(
                "generator ran {lag:.3} ms late at p99 (limit {GEN_LAG_LIMIT_MS} ms)"
            ));
        }
        out.counts.push(("gen_lag_p99_ms".into(), lag));
    }

    let lookup_forwards = (sum(&report, |s| s.forwards) as f64
        - forwards_per_announce * report.stats.announces as f64)
        .max(0.0);
    let lookups = lookup.issued.max(1) as f64;
    let retries = announce_report.stats.retries + after_lookup.retries;

    out.attempted = announce.issued + lookup.issued + NEGATIVE_LOOKUPS;
    out.failed = (announce.issued - announce.ok) + (lookup.issued - lookup.ok) + negative_failed;

    let m = &mut out.metrics;
    if args.trace {
        let (untraced, traced) = (lookup.done_untraced as f64, lookup.done_traced as f64);
        m.set(
            "bench.trace_overhead_pct",
            if untraced > 0.0 {
                (untraced - traced) / untraced * 100.0
            } else {
                0.0
            },
        );
        m.set("bench.spans_recorded", rec.len() as f64);
        m.set("bench.lookup_p999_ms", ms(lookup.latency.percentile(99.9)));
        // The traced workload's own generator and daemons; on workloads
        // without them these names are filled by the layer probes.
        if let Some(lag) = gen_lag_p99_ms {
            m.set("bench.gen_lag_p99_ms", lag);
        }
        let span_ms = |name: &str| {
            let ms: Vec<f64> = rec
                .durations_of(name)
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect();
            median(&ms)
        };
        if let Some(spawn) = span_ms("daemon.spawn") {
            m.set("mpild.daemon.spawn_ms", spawn);
        }
        if let Some(drain) = span_ms("drain") {
            m.set("mpild.daemon.drain_ms", drain);
        }
        m.set(
            "mpild.daemon.retries_per_1k",
            retries as f64 / (announce.issued + lookup.issued).max(1) as f64 * 1000.0,
        );
        m.set(
            "mpild.daemon.lookup_timeouts",
            report.stats.lookup_timeouts as f64,
        );
        m.set(
            "mpild.daemon.announce_timeouts",
            announce_report.stats.announce_timeouts as f64,
        );
        let both = |f: &dyn Fn(&DaemonReport) -> u64| (f(&announce_report) + f(&report)) as f64;
        m.set(
            "mpild.daemon.aborted_at_drain",
            both(&|r| r.aborted_at_drain),
        );
        m.set("mpild.daemon.bad_requests", both(&|r| r.bad_requests));
        m.set("mpild.daemon.send_errors", both(&|r| r.send_errors));
        m.set(
            "net.hops_per_lookup",
            lookup.hops_sum as f64 / lookup.ok.max(1) as f64,
        );
        m.set("net.node.forwards_per_lookup", lookup_forwards / lookups);
        m.set(
            "net.node.stores_per_announce",
            sum(&announce_report, |s| s.stores) as f64
                / announce_report.stats.announces.max(1) as f64,
        );
        m.set(
            "net.node.dropped_perturbed",
            sum(&report, |s| s.dropped_perturbed) as f64,
        );
        m.set(
            "net.node.dropped_at_drain",
            both(&|r| sum(r, |s| s.dropped_at_drain)),
        );
    } else {
        m.set("setup_s", quiet(&setups, true).unwrap_or(0.0));
        // Every figure of a request stream is taken per slice of the
        // phase and the quiet quartile over the slices reported
        // (`PhaseStats::quiet_percentile` says why); the whole-phase
        // figures are among the counts beside them.
        m.set("lookup_per_s", lookup.quiet_per_second());
        m.set("lookup_mid_ms", ms(lookup.quiet_mid_mean()));
        m.set("lookup_p99_ms", ms(lookup.quiet_percentile(99.0)));
        m.set("announce_per_s", announce.quiet_per_second());
        m.set("success_pct", lookup.ok as f64 / lookups * 100.0);
        m.set("peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
        m.set(
            "msgs_per_lookup",
            (lookup_forwards + sum(&report, |s| s.replies) as f64) / lookups,
        );
    }

    out.counts.extend([
        ("announces".into(), announce.ok as f64),
        ("lookups".into(), lookup.ok as f64),
        ("lookup_samples".into(), lookup.latency.len() as f64),
        (
            "lookup_samples_beyond_p99".into(),
            lookup.latency.beyond(99.0) as f64,
        ),
        ("lookup_slices".into(), lookup.slices.len() as f64),
        ("lookup_per_s_whole_phase".into(), lookup.per_second()),
        (
            "lookup_mid_whole_phase_ms".into(),
            ms(lookup.latency.mid_mean()),
        ),
        (
            "lookup_p50_whole_phase_ms".into(),
            ms(lookup.latency.percentile(50.0)),
        ),
        (
            "lookup_p99_whole_phase_ms".into(),
            ms(lookup.latency.percentile(99.0)),
        ),
        ("announce_per_s_whole_phase".into(), announce.per_second()),
        (
            "announce_p50_whole_phase_ms".into(),
            ms(announce.latency.percentile(50.0)),
        ),
        ("wall_s".into(), wall_s),
        ("retries".into(), retries as f64),
        // What became of a lookup that was not answered `Found`.
        ("lookups_rejected".into(), lookup.rejected as f64),
        ("lookups_client_timeout".into(), lookup.timeouts as f64),
        (
            "daemon_lookup_timeouts".into(),
            report.stats.lookup_timeouts as f64,
        ),
        (
            "dropped_perturbed".into(),
            sum(&report, |s| s.dropped_perturbed) as f64,
        ),
        (
            "late_responses".into(),
            (announce_client.late + client.late) as f64,
        ),
        ("spawn_ms".into(), spawn_ms),
        ("drain_ms".into(), median(&drains).unwrap_or(0.0)),
        ("forwards_per_announce".into(), forwards_per_announce),
    ]);
    Ok(out)
}
