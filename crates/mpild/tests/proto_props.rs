//! Property tests for the control-plane codec: no datagram can panic a
//! decoder, every well-formed frame round-trips under its token, and
//! every strict prefix of one is a clean `Truncated`.

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
    ) {
        let frame = request.encode(token);
        prop_assert_eq!(CtrlRequest::decode(&frame), Ok((token, request)));
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
    ) {
        let frame = response.encode(token);
        prop_assert_eq!(CtrlResponse::decode(&frame), Ok((token, response)));
        for cut in 0..frame.len() {
            prop_assert_eq!(
                CtrlResponse::decode(&frame[..cut]),
                Err(CtrlDecodeError::Truncated),
                "cut {} of {:?}", cut, response
            );
        }
    }
}
