//! Property tests: every well-formed frame round-trips; no input slice
//! can panic the decoder, damaged valid frames included; whatever a
//! damaged frame still decodes to is a value the encoder can write, and
//! a Forward it decodes to is a copy every node can route.

use mpil::{Message, MessageId, MessageKind, MpilConfig, Verdict};
use mpil_id::Id;
use mpil_net::{DecodeError, WireMessage};
use mpil_overlay::NodeIdx;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u64>(),
        any::<bool>(),
        arb_id(),
        0u32..10_000,
        // The largest quota and hop count are where a relay's budget
        // and a forward's hop count would wrap.
        prop_oneof![any::<u32>(), Just(u32::MAX)],
        0u32..64,
        prop_oneof![0u32..64, Just(u32::MAX)],
        proptest::collection::vec(0u32..100_000, 0..40),
    )
        .prop_map(
            |(msg_id, insert, object, origin, quota, replicas, hops, route)| Message {
                msg_id: MessageId(msg_id),
                kind: if insert {
                    MessageKind::Insert
                } else {
                    MessageKind::Lookup
                },
                object,
                origin: NodeIdx::new(origin),
                quota,
                replicas_left: replicas,
                hops,
                route: route.into_iter().map(NodeIdx::new).collect(),
            },
        )
}

fn arb_wire() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        arb_message().prop_map(WireMessage::Forward),
        (any::<u64>(), arb_id(), 0u32..100_000, any::<u32>()).prop_map(|(m, o, h, hops)| {
            WireMessage::Reply {
                msg_id: MessageId(m),
                object: o,
                holder: NodeIdx::new(h),
                hops,
            }
        }),
        (any::<u64>(), arb_id(), 0u32..100_000).prop_map(|(m, o, h)| WireMessage::StoreAck {
            msg_id: MessageId(m),
            object: o,
            holder: NodeIdx::new(h),
        }),
        Just(WireMessage::Shutdown),
    ]
}

/// `decode` must not panic on `data`; if it reads a frame there, that
/// frame re-encodes and reads back as the same value.
fn decodes_to_nothing_or_to_a_frame(data: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(wire) = WireMessage::decode(data) {
        let again = wire
            .encode()
            .expect("a decoded route fits the length field");
        prop_assert_eq!(WireMessage::decode(&again), Ok(wire));
    }
    Ok(())
}

/// A shard hands every Forward it decodes to `mpil::step`: at every
/// node of a small fixed graph, whatever its quota, replicas or hops,
/// the copy is routed without an arithmetic overflow, its copies are
/// made, and no copy carries fewer hops than it arrived with.
fn every_node_routes(msg: &Message) {
    // Node 4 has no neighbors, so every copy is at a local maximum there.
    let neighbors: [&[u32]; 5] = [&[1, 2], &[0, 2, 3], &[0, 1], &[1], &[]];
    let ids: Vec<Id> = (0..5u64)
        .map(|i| Id::from_low_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    let config = MpilConfig::default();
    let mut rng = SmallRng::seed_from_u64(1);
    for (at, list) in neighbors.iter().enumerate() {
        let list: Vec<NodeIdx> = list.iter().map(|&n| NodeIdx::new(n)).collect();
        let at = NodeIdx::new(at as u32);
        let verdict = mpil::step(&config, at, &list, &ids, false, msg.clone(), &mut rng);
        let Verdict::Routed { copies, .. } = verdict else {
            panic!("a node holding nothing replied");
        };
        for (_, copy) in copies {
            assert!(copy.hops >= msg.hops);
        }
    }
}

proptest! {
    /// And the format's decision on trailing bytes: a frame ends where
    /// its last field ends, what follows it in the datagram is ignored.
    #[test]
    fn encode_decode_round_trips(
        wire in arb_wire(),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut encoded = wire.encode().expect("bounded routes encode").to_vec();
        prop_assert_eq!(WireMessage::decode(&encoded), Ok(wire.clone()));
        encoded.extend_from_slice(&trailing);
        prop_assert_eq!(WireMessage::decode(&encoded), Ok(wire));
    }

    /// Every strict prefix of a valid frame, of every kind, is a clean
    /// Truncated error: no cut decodes as something else or panics.
    #[test]
    fn prefixes_fail_cleanly(wire in arb_wire()) {
        let encoded = wire.encode().expect("bounded routes encode");
        for cut in 0..encoded.len() {
            prop_assert_eq!(
                WireMessage::decode(&encoded[..cut]),
                Err(DecodeError::Truncated),
                "cut {} of {:?}", cut, wire
            );
        }
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = WireMessage::decode(&data);
    }

    /// One byte of a valid frame replaced, at every index in turn: the
    /// kind, the route length, a field. (Arbitrary bytes almost never get
    /// past the version byte; these do.) A Forward among what decodes
    /// goes through the routing step at every node, as a shard would
    /// hand it on.
    #[test]
    fn a_frame_with_one_byte_replaced_decodes_to_nothing_or_to_a_frame(
        wire in arb_wire(),
        byte in any::<u8>(),
    ) {
        let whole = wire.encode().expect("bounded routes encode");
        for at in 0..whole.len() {
            let mut data = whole.to_vec();
            data[at] = byte;
            decodes_to_nothing_or_to_a_frame(&data)?;
            if let Ok(WireMessage::Forward(msg)) = WireMessage::decode(&data) {
                every_node_routes(&msg);
            }
        }
    }

    /// The head of one valid frame joined to the tail of another.
    #[test]
    fn two_frames_spliced_decode_to_nothing_or_to_a_frame(
        head in arb_wire(),
        tail in arb_wire(),
        cut in any::<usize>(),
        resume in any::<usize>(),
    ) {
        let head = head.encode().expect("bounded routes encode");
        let tail = tail.encode().expect("bounded routes encode");
        let mut data = head[..cut % (head.len() + 1)].to_vec();
        data.extend_from_slice(&tail[resume % (tail.len() + 1)..]);
        decodes_to_nothing_or_to_a_frame(&data)?;
    }

    /// Frames are version-guarded: flipping the version byte always
    /// fails with BadVersion.
    #[test]
    fn version_is_enforced(wire in arb_wire(), v in 2u8..255) {
        let mut enc = wire.encode().expect("bounded routes encode").to_vec();
        enc[0] = v;
        prop_assert_eq!(WireMessage::decode(&enc), Err(DecodeError::BadVersion(v)));
    }

    /// Routes of every length from empty to 16 hops round-trip
    /// bit-exactly, and every cut of their frames fails cleanly.
    #[test]
    fn payload_boundary_round_trips(
        route_len in 0usize..=16,
        seed in any::<u32>(),
        cut in 0usize..400,
    ) {
        let route: Vec<NodeIdx> = (0..route_len)
            .map(|i| NodeIdx::new(seed.wrapping_add(i as u32) % 100_000))
            .collect();

        let msg = Message {
            msg_id: MessageId(u64::from(seed)),
            kind: MessageKind::Lookup,
            object: Id::from_low_u64(u64::from(seed) | 1),
            origin: NodeIdx::new(seed % 4096),
            quota: 4,
            replicas_left: 0,
            hops: route_len as u32,
            route,
        };
        let wire = WireMessage::Forward(msg);
        let encoded = wire.encode().expect("boundary-length routes encode");
        prop_assert_eq!(WireMessage::decode(&encoded).expect("well-formed frame"), wire);

        // Every strict prefix of the frame is a clean Truncated error —
        // in particular the cuts that land inside the route section,
        // where the header's claimed length exceeds the bytes present.
        let cut = cut.min(encoded.len().saturating_sub(1));
        prop_assert_eq!(
            WireMessage::decode(&encoded[..cut]),
            Err(DecodeError::Truncated)
        );
    }
}
