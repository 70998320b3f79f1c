//! Loopback integration tests for [`UdpMesh`]/[`UdpTransport`]: real
//! sockets, real datagrams. Covers plain send/recv with sender
//! attribution, codec frames over the wire, the `Oversized` and
//! `UnknownEndpoint` error paths, the datagram-size boundary, and UDP's
//! teardown semantics (closed peers look like silence, not errors —
//! the opposite of the channel mesh).

use std::time::Duration;

use bytes::Bytes;
use mpil::MessageId;
use mpil_id::Id;
use mpil_net::MAX_DATAGRAM;
use mpil_net::{Transport, TransportError, UdpMesh, WireMessage};
use mpil_overlay::NodeIdx;

const RECV: Duration = Duration::from_secs(2);
const SHORT: Duration = Duration::from_millis(30);

#[test]
fn frames_arrive_with_sender_attribution() {
    let mesh = UdpMesh::build(3).expect("bind loopback sockets");
    assert_eq!(mesh[1].local_index(), 1);
    assert_eq!(mesh[1].endpoints(), 3);

    mesh[0]
        .send(1, Bytes::from_static(b"from zero"))
        .expect("send 0->1");
    mesh[2]
        .send(1, Bytes::from_static(b"from two"))
        .expect("send 2->1");

    // Loopback UDP does not reorder in practice, but don't depend on it.
    let mut got = Vec::new();
    for _ in 0..2 {
        let (from, payload) = mesh[1]
            .recv_timeout(RECV)
            .expect("recv")
            .expect("frame before timeout");
        got.push((from, payload));
    }
    got.sort_by_key(|(from, _)| *from);
    assert_eq!(got[0], (0, Bytes::from_static(b"from zero")));
    assert_eq!(got[1], (2, Bytes::from_static(b"from two")));

    // Nothing else in flight: the timeout path returns None cleanly.
    assert!(mesh[1].recv_timeout(SHORT).expect("recv").is_none());
}

#[test]
fn codec_frames_cross_the_socket_intact() {
    let mesh = UdpMesh::build(2).expect("bind loopback sockets");
    let wire = WireMessage::Reply {
        msg_id: MessageId(0xdead_beef),
        object: Id::from_low_u64(42),
        holder: NodeIdx::new(7),
        hops: 3,
    };
    mesh[0]
        .send(1, wire.encode().expect("encode"))
        .expect("send");
    let (from, payload) = mesh[1]
        .recv_timeout(RECV)
        .expect("recv")
        .expect("frame before timeout");
    assert_eq!(from, 0);
    assert_eq!(WireMessage::decode(&payload).expect("decode"), wire);
}

#[test]
fn oversized_frames_are_rejected_at_the_boundary() {
    let mesh = UdpMesh::build(2).expect("bind loopback sockets");

    // Largest frame that fits: payload + 4-byte sender prefix == budget.
    let max_payload = MAX_DATAGRAM - 4;
    mesh[0]
        .send(1, Bytes::from(vec![0xabu8; max_payload]))
        .expect("boundary frame fits");
    let (_, got) = mesh[1]
        .recv_timeout(RECV)
        .expect("recv")
        .expect("boundary frame arrives");
    assert_eq!(got.len(), max_payload);

    // One byte more is rejected locally, before touching the socket.
    match mesh[0].send(1, Bytes::from(vec![0u8; max_payload + 1])) {
        Err(TransportError::Oversized { len, max }) => {
            assert_eq!(len, MAX_DATAGRAM + 1);
            assert_eq!(max, MAX_DATAGRAM);
        }
        other => panic!("expected Oversized, got {other:?}"),
    }
    // The failed send left nothing in flight.
    assert!(mesh[1].recv_timeout(SHORT).expect("recv").is_none());
}

#[test]
fn unknown_endpoints_are_rejected() {
    let mesh = UdpMesh::build(2).expect("bind loopback sockets");
    match mesh[0].send(5, Bytes::from_static(b"x")) {
        Err(TransportError::UnknownEndpoint {
            endpoint,
            endpoints,
        }) => {
            assert_eq!(endpoint, 5);
            assert_eq!(endpoints, 2);
        }
        other => panic!("expected UnknownEndpoint, got {other:?}"),
    }
}

#[test]
fn teardown_is_silence_not_error() {
    // UDP has no connection state: once a peer's socket is dropped,
    // sends to it still succeed locally (fire-and-forget) and the
    // survivor's receives simply time out. Callers that need liveness
    // detection must layer it on top (the daemon's RequestTracker
    // timeouts) — the transport will not tell them.
    let mut mesh = UdpMesh::build(3).expect("bind loopback sockets");
    let survivor = mesh.remove(0);
    drop(mesh); // endpoints 1 and 2 close their sockets

    survivor
        .send(1, Bytes::from_static(b"into the void"))
        .expect("send to a closed peer still succeeds");
    assert!(
        survivor.recv_timeout(SHORT).expect("recv").is_none(),
        "closed peers produce silence, not frames or errors"
    );

    // The surviving endpoint keeps working for loop-back-to-self sends.
    survivor
        .send(0, Bytes::from_static(b"note to self"))
        .expect("send to self");
    let (from, payload) = survivor
        .recv_timeout(RECV)
        .expect("recv")
        .expect("own frame arrives");
    assert_eq!(from, 0);
    assert_eq!(payload, Bytes::from_static(b"note to self"));
}
