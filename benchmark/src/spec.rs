//! What the benchmark declares: workloads, end-to-end metrics and
//! per-layer metrics, by name and unit.
//!
//! `BENCHMARK.json` at the repo root is the contract other tools read;
//! these tables are what the binary emits. A unit test holds the two
//! equal, so neither can drift.

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every workload reports every one of them (see README for what each
/// means on a service, a simulated and a static workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lookup_per_s", "1/s"),
    ("lookup_mid_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("announce_per_s", "1/s"),
    ("success_pct", "%"),
    ("peak_rss_mib", "MiB"),
    ("msgs_per_lookup", "msgs"),
];

/// `(name, unit)` of every per-layer metric. The first dotted segment
/// is the crate (layer) the number describes; `bench.*` describes the
/// benchmark's own generator.
pub const PER_LAYER: &[(&str, &str)] = &[
    // mpild: control codec, control round trip, daemon life cycle.
    ("mpild.proto.req_encode_ns", "ns"),
    ("mpild.proto.req_decode_ns", "ns"),
    ("mpild.proto.resp_encode_ns", "ns"),
    ("mpild.proto.resp_decode_ns", "ns"),
    ("mpild.ctrl.stats_rtt_us.chan", "us"),
    ("mpild.ctrl.stats_rtt_us.udp", "us"),
    ("mpild.ctrl_overhead_us.chan", "us"),
    ("mpild.ctrl_overhead_us.udp", "us"),
    ("mpild.daemon.spawn_ms", "ms"),
    ("mpild.daemon.drain_ms", "ms"),
    ("mpild.daemon.retries_per_1k", "1/1k"),
    ("mpild.daemon.lookup_timeouts", "count"),
    ("mpild.daemon.announce_timeouts", "count"),
    ("mpild.daemon.aborted_at_drain", "count"),
    ("mpild.daemon.bad_requests", "count"),
    ("mpild.daemon.send_errors", "count"),
    // net: wire codec, transports, bare cluster, node counters, tracker.
    ("net.codec.encode_ns", "ns"),
    ("net.codec.decode_ns", "ns"),
    ("net.transport.rtt_us.chan", "us"),
    ("net.transport.rtt_us.udp", "us"),
    ("net.transport.recv_empty_us.chan", "us"),
    ("net.transport.recv_empty_us.udp", "us"),
    ("net.cluster.spawn_ms.chan", "ms"),
    ("net.cluster.spawn_ms.udp", "ms"),
    ("net.cluster.shutdown_ms", "ms"),
    ("net.cluster.lookup_p50_us.chan", "us"),
    ("net.cluster.lookup_p50_us.udp", "us"),
    ("net.cluster.lookup_p99_us.chan", "us"),
    ("net.cluster.lookup_p99_us.udp", "us"),
    ("net.cluster.insert_p50_us.chan", "us"),
    ("net.cluster.insert_p50_us.udp", "us"),
    ("net.hops_per_lookup", "hops"),
    ("net.node.forwards_per_lookup", "msgs"),
    ("net.node.stores_per_announce", "count"),
    ("net.node.dropped_perturbed", "count"),
    ("net.node.dropped_at_drain", "count"),
    ("net.request.track_complete_ns", "ns"),
    ("net.request.expire_retry_ns", "ns"),
    ("workload.generate_ms", "ms"),
    // sim: kernel counts of the traced workload, then kernel probes.
    ("sim.events", "count"),
    ("sim.sent", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.allocs_per_event", "1/event"),
    ("sim.wheel.push_pop_ns.1e4", "ns"),
    ("sim.wheel.push_pop_ns.1e6", "ns"),
    ("sim.net.send_deliver_ns", "ns"),
    ("sim.pool.take_put_ns", "ns"),
    ("gossip.hyparview.shuffle_round_ms.5k", "ms"),
    ("gossip.plumtree.broadcast_ms.5k", "ms"),
    ("gossip.plumtree.insert_stage_s", "s"),
    ("gossip.plumtree.lookup_stage_s", "s"),
    ("chord.build_s", "s"),
    ("chord.stage_s", "s"),
    ("chord.events_per_s", "1/s"),
    ("chord.success_pct", "%"),
    ("pastry.build_s", "s"),
    ("pastry.stage_s", "s"),
    ("pastry.events_per_s", "1/s"),
    ("pastry.success_pct", "%"),
    ("kademlia.build_s", "s"),
    ("kademlia.stage_s", "s"),
    ("kademlia.events_per_s", "1/s"),
    ("kademlia.success_pct", "%"),
    ("core.agent.insert_stage_s", "s"),
    ("core.agent.lookup_stage_s", "s"),
    ("core.agent.allocs_per_event", "1/event"),
    ("core.static.insert_us", "us"),
    ("core.static.lookup_us", "us"),
    ("core.static.insert_msgs", "msgs"),
    ("core.static.replicas_per_insert", "count"),
    ("core.routing.decision_ns", "ns"),
    ("id.metric.common_digits_ns", "ns"),
    ("id.idmap.insert_ns.1e5", "ns"),
    ("id.idmap.get_ns.1e5", "ns"),
    ("overlay.powerlaw_10k_ms", "ms"),
    ("overlay.random_regular_100k_ms", "ms"),
    ("harness.scenario_build_s", "s"),
    // bench: the generator's own health.
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.lookup_p999_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.spans_recorded", "count"),
];

/// The four workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "svc-udp-churn",
    "svc-chan-churn",
    "sim-engines",
    "static-powerlaw-10k",
];

/// Measured seconds of a run when `--seconds` is not given
/// (`run_seconds` in `BENCHMARK.json`), and in `--quick` mode.
pub const RUN_SECONDS: f64 = 25.0;
pub const QUICK_SECONDS: f64 = 0.6;

/// Runs per workload of a suite unless `--runs` says otherwise. `diff`
/// needs each side's own spread to tell a shift from noise, and with a
/// single run a side it can only ever answer `ok` or `unresolved`.
pub const SUITE_RUNS: usize = 3;

/// Metrics whose value is a seeded simulated statistic: on `sim-*` and
/// `static-*` workloads two runs of the same code and seed must agree
/// on them bit for bit, and `diff` holds them to that. On `sim-*` that
/// includes lookup latency, which there is simulated network time.
pub fn is_exact(workload: &str, metric: &str) -> bool {
    let counted = matches!(
        metric,
        "success_pct" | "msgs_per_lookup" | "sim.events" | "sim.sent"
    );
    let simulated_time = matches!(metric, "lookup_mid_ms" | "lookup_p99_ms");
    (workload.starts_with("sim-") && (counted || simulated_time))
        || (workload.starts_with("static-") && counted)
}

/// Measured values of one run, by declared name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name`; the name must be declared in one of the tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in spec.rs"))
            .0;
        match self.0.iter_mut().find(|(n, _)| *n == declared) {
            Some(slot) => slot.1 = value,
            None => self.0.push((declared, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Takes from `other` every metric not measured here yet.
    pub fn fill(&mut self, other: Metrics) {
        for (name, value) in other.0 {
            if self.get(name).is_none() {
                self.set(name, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn name_ok(name: &str) -> bool {
        let first_ok = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract_and_matches_the_tables() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );

        let workloads = doc.get("workloads").expect("workloads").as_arr();
        assert!((2..=8).contains(&workloads.len()));
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
        for w in workloads {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.members().len(), 2);
        }

        let e2e = doc.get("end_to_end").expect("end_to_end").as_arr();
        assert!((1..=16).contains(&e2e.len()));
        let got: Vec<(&str, &str)> = e2e
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
                let better = m.get("better").and_then(Json::as_str).expect("better");
                assert!(better == "lower" || better == "higher");
                assert_eq!(m.members().len(), 4);
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(got, END_TO_END);
        assert!(got.contains(&("setup_s", "s")));

        let layers = doc.get("per_layer").expect("per_layer").as_arr();
        assert!((1..=128).contains(&layers.len()));
        let got: Vec<(&str, &str)> = layers
            .iter()
            .map(|m| {
                assert_eq!(m.members().len(), 3);
                (
                    m.get("name").and_then(Json::as_str).expect("name"),
                    m.get("unit").and_then(Json::as_str).expect("unit"),
                )
            })
            .collect();
        assert_eq!(got, PER_LAYER);

        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n));
        for name in &all {
            assert!(name_ok(name), "bad name {name}");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a name is used twice");
    }

    #[test]
    fn exactness_applies_to_simulated_statistics_only() {
        assert!(is_exact("sim-engines", "msgs_per_lookup"));
        assert!(is_exact("sim-engines", "lookup_p99_ms"));
        assert!(is_exact("static-powerlaw-10k", "success_pct"));
        assert!(!is_exact("static-powerlaw-10k", "lookup_p99_ms"));
        assert!(!is_exact("svc-chan-churn", "success_pct"));
        assert!(!is_exact("sim-engines", "lookup_per_s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
