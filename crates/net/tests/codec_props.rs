//! Property tests: every well-formed frame round-trips; no input slice
//! can panic the decoder, damaged valid frames included; whatever a
//! damaged frame still decodes to is a value the encoder can write.

use mpil::{Message, MessageId, MessageKind};
use mpil_id::Id;
use mpil_net::{DecodeError, WireMessage};
use mpil_overlay::NodeIdx;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u64>(),
        any::<bool>(),
        arb_id(),
        0u32..10_000,
        any::<u32>(),
        0u32..64,
        0u32..64,
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
    /// past the version byte; these do.)
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
