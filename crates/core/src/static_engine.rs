//! The message-level engine over static overlays.
//!
//! This is the Rust equivalent of the paper's Python simulator (Section
//! 6.1): no virtual time, no failures — messages propagate in strict
//! hop order (breadth-first), which makes "first successful reply" well
//! defined and every run a deterministic function of the seed.
//!
//! What a node does with a copy is the shared routing step
//! ([`crate::step()`]); this world keeps a FIFO queue, two stamps per
//! node that mark the nodes an operation reached (duplicates are met
//! where a copy is enqueued) and stored at, and the per-operation
//! reports. The queue and the stamps live as long as the engine, so
//! an operation allocates only for the copies it routes and forwards.

use std::collections::VecDeque;

use mpil_id::{Id, IdMap};
use mpil_overlay::{NodeIdx, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::MpilConfig;
use crate::message::{Message, MessageId, MessageKind};
use crate::report::{InsertReport, LookupReport};
use crate::step::{step, Verdict};

/// MPIL over a static [`Topology`].
///
/// The engine owns per-node object-pointer stores; run insertions first,
/// then lookups, as the paper's methodology does. See the crate-level
/// example for usage.
pub struct StaticEngine<'a> {
    topo: &'a Topology,
    config: MpilConfig,
    stores: Vec<IdMap<NodeIdx>>,
    rng: SmallRng,
    next_msg_id: u64,
    /// Per node, the stamp (message id + 1) of the last operation that
    /// reached it; 0 for none.
    reached: Vec<u64>,
    /// Per node, the stamp of the last operation that stored at it.
    stored: Vec<u64>,
    /// The copies of the running operation not yet handled, in hop
    /// order; empty between operations.
    queue: VecDeque<(NodeIdx, Message)>,
}

impl<'a> StaticEngine<'a> {
    /// Creates an engine over `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero `max_flows` or
    /// `num_replicas`); use [`MpilConfig::validate`] to check first.
    pub fn new(topo: &'a Topology, config: MpilConfig, seed: u64) -> Self {
        config.validate().expect("invalid MPIL configuration");
        StaticEngine {
            topo,
            config,
            stores: vec![IdMap::new(); topo.len()],
            rng: SmallRng::seed_from_u64(seed),
            next_msg_id: 0,
            reached: vec![0; topo.len()],
            stored: vec![0; topo.len()],
            queue: VecDeque::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> MpilConfig {
        self.config
    }

    /// Changes the algorithm parameters for subsequent operations
    /// (the paper inserts with one setting and looks up with another).
    ///
    /// # Panics
    ///
    /// Panics if the new configuration is invalid.
    pub fn set_config(&mut self, config: MpilConfig) {
        config.validate().expect("invalid MPIL configuration");
        self.config = config;
    }

    /// Nodes currently storing a pointer for `object`.
    pub fn replica_holders(&self, object: Id) -> Vec<NodeIdx> {
        self.topo
            .iter_nodes()
            .filter(|n| self.stores[n.index()].contains_key(&object))
            .collect()
    }

    /// Number of nodes storing a pointer for `object`, without
    /// materialising the holder list.
    pub fn replica_count(&self, object: Id) -> usize {
        self.stores
            .iter()
            .filter(|s| s.contains_key(&object))
            .count()
    }

    /// Removes every replica of `object` (the owner-driven delete of
    /// Section 4.4); returns how many replicas were removed.
    pub fn delete(&mut self, object: Id) -> usize {
        let mut removed = 0;
        for store in &mut self.stores {
            if store.remove(&object).is_some() {
                removed += 1;
            }
        }
        removed
    }

    /// Inserts a pointer to `object` (owned by `origin`) from `origin`.
    pub fn insert(&mut self, origin: NodeIdx, object: Id) -> InsertReport {
        let (report, _) = self.run_operation(origin, object, MessageKind::Insert);
        report
    }

    /// Looks `object` up from `origin`.
    pub fn lookup(&mut self, origin: NodeIdx, object: Id) -> LookupReport {
        let (_, report) = self.run_operation(origin, object, MessageKind::Lookup);
        report
    }

    /// Shared propagation loop. Exactly one of the two reports is
    /// meaningful, depending on `kind`.
    fn run_operation(
        &mut self,
        origin: NodeIdx,
        object: Id,
        kind: MessageKind,
    ) -> (InsertReport, LookupReport) {
        assert!(origin.index() < self.topo.len(), "origin out of range");
        let msg_id = MessageId(self.next_msg_id);
        self.next_msg_id += 1;
        let stamp = self.next_msg_id;

        let mut ins = InsertReport::default();
        let mut look = LookupReport::default();

        let initial = Message::initial(
            msg_id,
            kind,
            object,
            origin,
            self.config.max_flows,
            self.config.num_replicas,
        );

        // FIFO processing = strict hop order (all copies at hop h are
        // handled before any copy at hop h+1).
        let queue = &mut self.queue;
        queue.push_back((origin, initial));
        self.reached[origin.index()] = stamp;

        while let Some((at, msg)) = queue.pop_front() {
            let hops = msg.hops;
            let holds = self.stores[at.index()].contains_key(&object);
            let verdict = step(
                &self.config,
                at,
                self.topo.neighbors(at),
                self.topo.ids(),
                holds,
                msg,
                &mut self.rng,
            );
            let (deposited, flows_created, copies) = match verdict {
                // Lookup short-circuit: a recipient holding the object
                // replies directly and stops forwarding this flow
                // (Section 4.4).
                Verdict::Replied => {
                    if !look.success {
                        look.success = true;
                        look.first_reply_hops = Some(hops);
                        look.messages_until_first_reply = look.messages;
                    }
                    continue;
                }
                Verdict::Routed {
                    deposited,
                    flows_created,
                    copies,
                } => (deposited, flows_created, copies),
            };
            if deposited {
                self.stores[at.index()].insert(object, origin);
                if self.stored[at.index()] != stamp {
                    self.stored[at.index()] = stamp;
                    ins.replicas += 1;
                }
            }
            match kind {
                MessageKind::Insert => ins.flows_created += flows_created,
                MessageKind::Lookup => look.flows_created += flows_created,
            }
            for (target, fwd) in copies {
                match kind {
                    MessageKind::Insert => {
                        ins.messages += 1;
                        ins.max_hops = ins.max_hops.max(fwd.hops);
                    }
                    MessageKind::Lookup => look.messages += 1,
                }
                // Duplicate accounting happens at reception: a node that
                // has already received this operation's message counts a
                // duplicate, and under DS drops it silently.
                let reached = &mut self.reached[target.index()];
                if *reached == stamp {
                    match kind {
                        MessageKind::Insert => ins.duplicates += 1,
                        MessageKind::Lookup => look.duplicates += 1,
                    }
                    if self.config.duplicate_suppression {
                        continue;
                    }
                }
                *reached = stamp;
                queue.push_back((target, fwd));
            }
        }

        (ins, look)
    }
}

impl std::fmt::Debug for StaticEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticEngine")
            .field("nodes", &self.topo.len())
            .field("config", &self.config)
            .field("operations_run", &self.next_msg_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpil_id::IdSpace;
    use mpil_overlay::generators;
    use mpil_overlay::TopologyBuilder;
    use rand::Rng;

    use crate::config::SplitPolicy;

    fn cfg(max_flows: u32, replicas: u32) -> MpilConfig {
        MpilConfig::default()
            .with_max_flows(max_flows)
            .with_num_replicas(replicas)
    }

    /// The Figure 5/6 trace semantics: tie-based splitting.
    fn cfg_ties(max_flows: u32, replicas: u32) -> MpilConfig {
        cfg(max_flows, replicas).with_split_policy(SplitPolicy::MetricTies)
    }

    /// Reconstructs the paper's Figure 6 example: nodes with 4-bit IDs
    /// (embedded in 160-bit space, high bits zero), object 1011 inserted
    /// from 0001 with max_flows=2 and num_replicas=2.
    fn figure6_topology() -> (Topology, Vec<NodeIdx>) {
        let bits = [
            0b0001u64, // 0: origin
            0b1001,    // 1
            0b0000,    // 2
            0b1110,    // 3
            0b1111,    // 4
            0b0011,    // 5
            0b0101,    // 6
            0b0010,    // 7
            0b0100,    // 8
        ];
        let ids: Vec<Id> = bits.iter().map(|&b| Id::from_low_u64(b)).collect();
        let mut builder = TopologyBuilder::new(ids);
        let e = |b: &mut TopologyBuilder, x: usize, y: usize| {
            b.add_edge(NodeIdx::new(x as u32), NodeIdx::new(y as u32));
        };
        // Edges as drawn in Figure 6.
        e(&mut builder, 0, 1); // 0001 - 1001
        e(&mut builder, 0, 2); // 0001 - 0000
        e(&mut builder, 1, 3); // 1001 - 1110
        e(&mut builder, 3, 4); // 1110 - 1111
        e(&mut builder, 3, 5); // 1110 - 0011
        e(&mut builder, 4, 6); // 1111 - 0101
        e(&mut builder, 5, 7); // 0011 - 0010
        e(&mut builder, 5, 8); // 0011 - 0100
        let nodes = (0..9).map(|i| NodeIdx::new(i as u32)).collect();
        (builder.build(), nodes)
    }

    #[test]
    fn figure6_insert_places_replicas_at_1001_1111_0011() {
        let (topo, n) = figure6_topology();
        let config = cfg_ties(2, 2).with_space(IdSpace::base2());
        let mut engine = StaticEngine::new(&topo, config, 1);
        let object = Id::from_low_u64(0b1011);
        let report = engine.insert(n[0], object);
        let mut holders = engine.replica_holders(object);
        holders.sort();
        assert_eq!(holders, vec![n[1], n[4], n[5]], "gray nodes of Figure 6");
        assert_eq!(report.replicas, 3);
        // One additional flow is created (by 1110), plus the initial one.
        assert_eq!(report.flows_created, 2);
    }

    #[test]
    fn figure6_lookup_finds_the_object() {
        let (topo, n) = figure6_topology();
        let config = cfg_ties(2, 2).with_space(IdSpace::base2());
        let mut engine = StaticEngine::new(&topo, config, 1);
        let object = Id::from_low_u64(0b1011);
        engine.insert(n[0], object);
        // Lookup from a different node (0100 = node 8).
        let report = engine.lookup(n[8], object);
        assert!(report.success);
        assert!(report.first_reply_hops.unwrap() >= 1);
    }

    #[test]
    fn lookup_misses_when_nothing_inserted() {
        let (topo, n) = figure6_topology();
        let mut engine = StaticEngine::new(&topo, cfg(2, 2), 1);
        let report = engine.lookup(n[0], Id::from_low_u64(0xabc));
        assert!(!report.success);
        assert_eq!(report.first_reply_hops, None);
    }

    #[test]
    fn replica_bound_holds() {
        let mut rng = SmallRng::seed_from_u64(3);
        let topo = generators::random_regular(200, 12, &mut rng).unwrap();
        for (mf, r) in [(1u32, 1u32), (3, 2), (10, 5), (30, 5)] {
            let mut engine = StaticEngine::new(&topo, cfg(mf, r), 5);
            for k in 0..20u64 {
                let obj = Id::from_low_u64(k * 7919 + 1);
                let report = engine.insert(NodeIdx::new((k % 200) as u32), obj);
                assert!(
                    u64::from(report.replicas) <= u64::from(mf) * u64::from(r),
                    "replicas {} exceed bound {}",
                    report.replicas,
                    mf * r
                );
                assert!(report.flows_created <= mf);
                assert!(report.replicas >= 1, "at least one local max stores");
            }
        }
    }

    #[test]
    fn single_flow_single_replica_is_greedy_routing() {
        // Topology seed chosen so the origin is not itself a local
        // maximum for the object: an immediate deposit would end the
        // flow before any forwarding and flows_created would be 0.
        let mut rng = SmallRng::seed_from_u64(5);
        let topo = generators::random_regular(100, 8, &mut rng).unwrap();
        let mut engine = StaticEngine::new(&topo, cfg(1, 1), 6);
        let obj = Id::from_low_u64(12345);
        let report = engine.insert(NodeIdx::new(0), obj);
        assert_eq!(report.replicas, 1);
        assert_eq!(report.flows_created, 1);
        assert_eq!(report.duplicates, 0, "a single path cannot duplicate");
    }

    #[test]
    fn lookup_succeeds_on_every_topology_family_with_enough_redundancy() {
        // Well-connected overlays (the paper's random & power-law) should
        // be near-perfect; pathological low-degree shapes (ring, grid)
        // still work for a solid majority of lookups, which is the
        // overlay-independence claim — MPIL runs *anywhere*, with success
        // degrading gracefully rather than collapsing.
        let mut rng = SmallRng::seed_from_u64(5);
        let cases = vec![
            (generators::random_regular(150, 10, &mut rng).unwrap(), 21),
            (
                generators::power_law(150, Default::default(), &mut rng).unwrap(),
                21,
            ),
            (generators::ring(60, &mut rng).unwrap(), 5),
            (generators::grid(10, 12, &mut rng).unwrap(), 8),
        ];
        for (topo, floor) in &cases {
            let mut engine = StaticEngine::new(topo, cfg(30, 5), 7);
            let mut hits = 0;
            let total = 25;
            for k in 0..total {
                let obj = Id::from_low_u64(k * 31 + 7);
                let a = NodeIdx::new((k % topo.len() as u64) as u32);
                let b = NodeIdx::new(((k * 13 + 1) % topo.len() as u64) as u32);
                engine.insert(a, obj);
                if engine.lookup(b, obj).success {
                    hits += 1;
                }
            }
            assert!(
                hits >= *floor,
                "overlay-independence: {hits}/{total} (floor {floor}) on {} nodes",
                topo.len()
            );
        }
    }

    #[test]
    fn duplicate_suppression_reduces_traffic() {
        let mut rng = SmallRng::seed_from_u64(8);
        let topo = generators::random_regular(120, 10, &mut rng).unwrap();
        let obj = Id::from_low_u64(555);
        let with_ds = {
            let mut e = StaticEngine::new(&topo, cfg(10, 3).with_duplicate_suppression(true), 9);
            e.insert(NodeIdx::new(0), obj);
            e.lookup(NodeIdx::new(60), obj)
        };
        let without_ds = {
            let mut e = StaticEngine::new(&topo, cfg(10, 3).with_duplicate_suppression(false), 9);
            e.insert(NodeIdx::new(0), obj);
            e.lookup(NodeIdx::new(60), obj)
        };
        assert!(with_ds.messages <= without_ds.messages);
    }

    #[test]
    fn delete_removes_all_replicas() {
        let mut rng = SmallRng::seed_from_u64(10);
        let topo = generators::random_regular(100, 8, &mut rng).unwrap();
        let mut engine = StaticEngine::new(&topo, cfg(10, 3), 11);
        let obj = Id::from_low_u64(777);
        let ins = engine.insert(NodeIdx::new(5), obj);
        assert!(ins.replicas >= 1);
        let removed = engine.delete(obj);
        assert_eq!(removed as u32, ins.replicas);
        assert!(!engine.lookup(NodeIdx::new(50), obj).success);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = SmallRng::seed_from_u64(12);
        let topo = generators::power_law(300, Default::default(), &mut rng).unwrap();
        let run = |seed: u64| {
            let mut e = StaticEngine::new(&topo, cfg(10, 5), seed);
            let mut out = Vec::new();
            for k in 0..10u64 {
                let obj = Id::from_low_u64(k + 1);
                let r = e.insert(NodeIdx::new((k * 17 % 300) as u32), obj);
                out.push((r.replicas, r.messages, r.duplicates, r.flows_created));
            }
            out
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn first_reply_hops_is_minimal_over_flows() {
        // On a star, any lookup reaches the hub in 1 hop; replicas at
        // leaves need 2. If the hub holds the object the first reply must
        // be 1 hop.
        let mut rng = SmallRng::seed_from_u64(13);
        let topo = generators::star(20, &mut rng).unwrap();
        let mut engine = StaticEngine::new(&topo, cfg(5, 2), 14);
        let obj = Id::from_low_u64(4242);
        engine.insert(NodeIdx::new(3), obj);
        if engine.replica_holders(obj).contains(&NodeIdx::new(0)) {
            let report = engine.lookup(NodeIdx::new(7), obj);
            assert_eq!(report.first_reply_hops, Some(1));
        }
    }

    #[test]
    fn larger_lookup_budgets_do_not_reduce_success() {
        let mut rng = SmallRng::seed_from_u64(15);
        let topo = generators::power_law(400, Default::default(), &mut rng).unwrap();
        let mut engine = StaticEngine::new(&topo, cfg(30, 5), 16);
        let mut objects = Vec::new();
        for k in 0..40u64 {
            let obj = Id::from_low_u64((k + 1) * 997);
            engine.insert(NodeIdx::new(rng.gen_range(0..400)), obj);
            objects.push(obj);
        }
        let success_rate = |engine: &mut StaticEngine<'_>, mf: u32, r: u32| {
            engine.set_config(cfg(mf, r));
            let mut ok = 0;
            for (k, obj) in objects.iter().enumerate() {
                let origin = NodeIdx::new(((k * 37 + 11) % 400) as u32);
                if engine.lookup(origin, *obj).success {
                    ok += 1;
                }
            }
            ok
        };
        let weak = success_rate(&mut engine, 5, 1);
        let strong = success_rate(&mut engine, 15, 5);
        assert!(
            strong >= weak,
            "more redundancy can't hurt: {strong} vs {weak}"
        );
        assert!(
            strong >= 38,
            "15 flows x 5 replicas should nearly always hit"
        );
    }
}
