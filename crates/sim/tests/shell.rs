//! The simulation shell ([`Sim`]) under a toy protocol: the lifecycle,
//! the lookup ledger's deadline rule, and the maintenance flag, with no
//! real substrate in the way.

use mpil_id::Id;
use mpil_overlay::NodeIdx;
use mpil_sim::{
    AlwaysOn, Class, ConstantLatency, Counters, Cx, Event, LookupOutcome, Protocol, Sim,
    SimDuration, SimTime,
};

/// A ring of `n` nodes: a lookup walks clockwise from its origin
/// until it meets the object's one holder, which replies; a
/// heartbeat timer per node once maintenance runs.
struct Ring {
    n: usize,
    holder: Vec<Option<Id>>,
    next_lookup: u64,
    beats: u64,
    rearmed: u64,
}

enum RingMsg {
    Store(Id),
    Walk { lookup: u64, object: Id, hops: u32 },
    Found { lookup: u64, hops: u32 },
}

impl Ring {
    fn succ(&self, node: NodeIdx) -> NodeIdx {
        NodeIdx::new((node.index() as u32 + 1) % self.n as u32)
    }
}

impl Protocol for Ring {
    type Msg = RingMsg;
    type Timer = ();
    type Parts = usize;
    type Config = ();

    fn build(n: usize, (): ()) -> Self {
        Ring {
            n,
            holder: vec![None; n],
            next_lookup: 0,
            beats: 0,
            rearmed: 0,
        }
    }

    fn name(&self) -> &'static str {
        "Ring"
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn on_event(&mut self, cx: &mut Cx<'_, Ring>, event: Event<RingMsg, ()>) {
        match event {
            Event::Message { to, msg, .. } => match msg {
                RingMsg::Store(object) => self.holder[to.index()] = Some(object),
                RingMsg::Walk {
                    lookup,
                    object,
                    hops,
                } => {
                    if self.holder[to.index()] == Some(object) {
                        cx.send(to, to, Class::Reply, RingMsg::Found { lookup, hops });
                    } else if hops as usize >= self.n {
                        cx.fail_lookup(lookup);
                    } else {
                        let walk = RingMsg::Walk {
                            lookup,
                            object,
                            hops: hops + 1,
                        };
                        cx.send(to, self.succ(to), Class::Lookup, walk);
                    }
                }
                RingMsg::Found { lookup, hops } => cx.complete_lookup(lookup, hops),
            },
            Event::Timer { node, timer: () } => {
                self.beats += 1;
                cx.schedule(node, SimDuration::from_secs(1), ());
            }
        }
    }

    fn insert(&mut self, cx: &mut Cx<'_, Ring>, origin: NodeIdx, object: Id) {
        cx.send(
            origin,
            self.succ(origin),
            Class::Insert,
            RingMsg::Store(object),
        );
    }

    fn lookup(
        &mut self,
        cx: &mut Cx<'_, Ring>,
        origin: NodeIdx,
        object: Id,
        deadline: SimTime,
    ) -> u64 {
        let lookup = self.next_lookup;
        self.next_lookup += 1;
        cx.open_lookup(lookup, deadline);
        let walk = RingMsg::Walk {
            lookup,
            object,
            hops: 1,
        };
        cx.send(origin, self.succ(origin), Class::Lookup, walk);
        lookup
    }

    fn start_maintenance(&mut self, cx: &mut Cx<'_, Ring>) -> bool {
        for i in 0..self.n as u32 {
            cx.schedule(NodeIdx::new(i), SimDuration::from_secs(1), ());
        }
        true
    }

    fn availability_changed(&mut self, _cx: &mut Cx<'_, Ring>) {
        self.rearmed += 1;
    }

    fn holds(&self, node: NodeIdx, object: Id) -> bool {
        self.holder[node.index()] == Some(object)
    }
}

fn ring(n: usize) -> Sim<Ring> {
    Sim::new(
        n,
        (),
        Box::new(AlwaysOn),
        Box::new(ConstantLatency(SimDuration::from_millis(10))),
        1,
    )
}

#[test]
fn the_lifecycle_runs_a_protocol_end_to_end() {
    let mut sim = ring(8);
    assert_eq!((sim.name(), sim.len()), ("Ring", 8));
    let object = Id::from_low_u64(7);
    sim.insert(NodeIdx::new(2), object);
    sim.run_to_quiescence();
    assert_eq!(sim.replica_holders(object), vec![NodeIdx::new(3)]);
    assert_eq!(sim.replica_count(object), 1);

    let issued = sim.now();
    let found = sim.issue_lookup(NodeIdx::new(0), object, issued + SimDuration::from_secs(1));
    let absent = sim.issue_lookup(
        NodeIdx::new(0),
        Id::from_low_u64(8),
        issued + SimDuration::from_secs(1),
    );
    assert_eq!(sim.lookup_outcome(found), LookupOutcome::Pending);
    sim.run_to_quiescence();
    // Three hops out, one self-addressed reply: 40 ms.
    assert_eq!(
        sim.lookup_outcome(found),
        LookupOutcome::Succeeded {
            hops: 3,
            latency: SimDuration::from_millis(40),
        }
    );
    assert_eq!(sim.lookup_outcome(absent), LookupOutcome::Failed);
    assert_eq!(sim.lookup_outcome(99), LookupOutcome::Failed, "unknown id");
    // One store, three walk steps for the found lookup and eight for the
    // absent one, one reply: each counted once, in the class it was
    // sent in.
    assert_eq!(
        sim.counters(),
        Counters {
            lookup_messages: 11,
            insert_messages: 1,
            reply_messages: 1,
            maintenance_messages: 0,
            ack_messages: 0,
            total_messages: 13,
            ..Counters::default()
        }
    );
    assert_eq!(sim.net_stats().sent, 13);
}

#[test]
fn pending_at_the_deadline_reads_failed_and_late_replies_do_not_count() {
    let mut sim = ring(8);
    let object = Id::from_low_u64(7);
    sim.insert(NodeIdx::new(2), object);
    sim.run_to_quiescence();
    // The reply lands 40 ms after issue; the deadline is 20 ms.
    let deadline = sim.now() + SimDuration::from_millis(20);
    let lookup = sim.issue_lookup(NodeIdx::new(0), object, deadline);
    sim.run_until(deadline - SimDuration::from_micros(1));
    assert_eq!(sim.lookup_outcome(lookup), LookupOutcome::Pending);
    sim.run_until(deadline);
    assert_eq!(sim.lookup_outcome(lookup), LookupOutcome::Failed);
    sim.run_to_quiescence();
    assert_eq!(sim.lookup_outcome(lookup), LookupOutcome::Failed);
    assert!(sim.with(|_, cx| !cx.lookup_is_open(lookup)));
}

#[test]
fn maintenance_blocks_quiescence_and_hears_availability_swaps() {
    let mut sim = ring(4);
    sim.set_availability(Box::new(AlwaysOn));
    assert_eq!(sim.rearmed, 0, "nothing armed yet, nothing to re-arm");
    sim.start_maintenance();
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(sim.beats, 12);
    sim.set_availability(Box::new(AlwaysOn));
    assert_eq!(sim.rearmed, 1);
    let quiesce = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_to_quiescence();
    }));
    assert!(quiesce.is_err(), "periodic timers never run dry");
}
