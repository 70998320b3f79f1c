//! Property tests for the control-plane codec: no datagram can panic a
//! decoder, damaged valid frames included; every well-formed frame
//! round-trips under its token; every strict prefix of one is a clean
//! `Truncated`; whatever a damaged frame still decodes to is a value
//! the encoder can write.

use mpil_id::Id;
use mpild::proto::{CtrlDecodeError, CtrlRequest, CtrlResponse, StatsBody};
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = Id> {
    proptest::array::uniform20(any::<u8>()).prop_map(Id::from_bytes)
}

fn arb_request() -> impl Strategy<Value = CtrlRequest> {
    prop_oneof![
        (arb_id(), any::<u32>())
            .prop_map(|(object, origin)| CtrlRequest::Announce { object, origin }),
        (arb_id(), any::<u32>())
            .prop_map(|(object, origin)| CtrlRequest::Lookup { object, origin }),
        any::<u32>().prop_map(|node| CtrlRequest::Join { node }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(node, millis)| CtrlRequest::Perturb { node, millis }),
        any::<u32>().prop_map(|node| CtrlRequest::Heal { node }),
        Just(CtrlRequest::Stats),
        any::<u32>().prop_map(|millis| CtrlRequest::Drain { millis }),
    ]
}

fn arb_stats() -> impl Strategy<Value = StatsBody> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                announces,
                hits,
                lookup_timeouts,
                announce_timeouts,
                retries,
                live_nodes,
                parked,
                uptime_ms,
            )| StatsBody {
                announces,
                hits,
                lookup_timeouts,
                announce_timeouts,
                retries,
                live_nodes,
                parked,
                uptime_ms,
            },
        )
}

fn arb_response() -> impl Strategy<Value = CtrlResponse> {
    prop_oneof![
        any::<u32>().prop_map(|holder| CtrlResponse::Announced { holder }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(holder, hops)| CtrlResponse::Found { holder, hops }),
        Just(CtrlResponse::NotFound),
        Just(CtrlResponse::Ok),
        arb_stats().prop_map(CtrlResponse::Stats),
        any::<u8>().prop_map(|code| CtrlResponse::Err { code }),
    ]
}

/// Neither decoder may panic on `data`; if one reads a frame there,
/// that frame re-encodes and reads back as the same value.
fn decodes_to_nothing_or_to_a_frame(data: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((token, request)) = CtrlRequest::decode(data) {
        let again = request.encode(token);
        prop_assert_eq!(CtrlRequest::decode(&again), Ok((token, request)));
    }
    if let Ok((token, response)) = CtrlResponse::decode(data) {
        let again = response.encode(token);
        prop_assert_eq!(CtrlResponse::decode(&again), Ok((token, response)));
    }
    Ok(())
}

proptest! {
    /// Arbitrary bytes never panic either decoder.
    #[test]
    fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..129)) {
        let _ = CtrlRequest::decode(&data);
        let _ = CtrlResponse::decode(&data);
    }

    #[test]
    fn requests_round_trip_and_every_strict_prefix_is_truncated(
        request in arb_request(),
        token in any::<u64>(),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = request.encode(token);
        prop_assert_eq!(CtrlRequest::decode(&frame), Ok((token, request)));
        // The format's decision on trailing bytes: a frame ends where
        // its last field ends, what follows it is ignored.
        let padded = [&frame[..], &trailing[..]].concat();
        prop_assert_eq!(CtrlRequest::decode(&padded), Ok((token, request)));
        for cut in 0..frame.len() {
            prop_assert_eq!(
                CtrlRequest::decode(&frame[..cut]),
                Err(CtrlDecodeError::Truncated),
                "cut {} of {:?}", cut, request
            );
        }
    }

    #[test]
    fn responses_round_trip_and_every_strict_prefix_is_truncated(
        response in arb_response(),
        token in any::<u64>(),
        trailing in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = response.encode(token);
        prop_assert_eq!(CtrlResponse::decode(&frame), Ok((token, response)));
        // The format's decision on trailing bytes: a frame ends where
        // its last field ends, what follows it is ignored.
        let padded = [&frame[..], &trailing[..]].concat();
        prop_assert_eq!(CtrlResponse::decode(&padded), Ok((token, response)));
        for cut in 0..frame.len() {
            prop_assert_eq!(
                CtrlResponse::decode(&frame[..cut]),
                Err(CtrlDecodeError::Truncated),
                "cut {} of {:?}", cut, response
            );
        }
    }

    /// One byte of a valid frame replaced, at every index in turn: a
    /// request kind made a response kind, a field. (Arbitrary bytes almost
    /// never get past the version byte; these do.)
    #[test]
    fn a_frame_with_one_byte_replaced_decodes_to_nothing_or_to_a_frame(
        request in arb_request(),
        response in arb_response(),
        token in any::<u64>(),
        byte in any::<u8>(),
    ) {
        for whole in [request.encode(token), response.encode(token)] {
            for at in 0..whole.len() {
                let mut data = whole.clone();
                data[at] = byte;
                decodes_to_nothing_or_to_a_frame(&data)?;
            }
        }
    }

    /// The head of one valid frame joined to the tail of another, a
    /// request's to a response's and the other way round.
    #[test]
    fn two_frames_spliced_decode_to_nothing_or_to_a_frame(
        request in arb_request(),
        response in arb_response(),
        token in any::<u64>(),
        cut in any::<usize>(),
        resume in any::<usize>(),
    ) {
        let (request, response) = (request.encode(token), response.encode(!token));
        for (head, tail) in [(&request, &response), (&response, &request)] {
            let mut data = head[..cut % (head.len() + 1)].to_vec();
            data.extend_from_slice(&tail[resume % (tail.len() + 1)..]);
            decodes_to_nothing_or_to_a_frame(&data)?;
        }
    }
}
