//! Message transports for the live cluster.
//!
//! A [`Transport`] is one endpoint of a fully connected mesh (the live
//! cluster builds one endpoint per shard and two for its client). Two
//! implementations:
//!
//! * [`ChannelMesh`] — in-process `std::sync::mpsc` channels; fast, loss-free,
//!   used by most tests;
//! * [`UdpMesh`] — one UDP socket per endpoint on the loopback
//!   interface; real datagrams, real (if unlikely) loss, demonstrating
//!   that the protocol logic runs over an actual network stack.

use std::net::UdpSocket;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use bytes::Bytes;

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The peer endpoint is gone (mesh torn down).
    Disconnected,
    /// The destination index names no endpoint of this mesh.
    UnknownEndpoint {
        /// The requested destination.
        endpoint: usize,
        /// How many endpoints the mesh has.
        endpoints: usize,
    },
    /// The frame exceeds the transport's datagram budget (UDP only).
    Oversized {
        /// Frame size including the sender-index prefix.
        len: usize,
        /// The budget ([`MAX_DATAGRAM`]).
        max: usize,
    },
    /// An I/O error from the OS (UDP only).
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "endpoint disconnected"),
            TransportError::UnknownEndpoint {
                endpoint,
                endpoints,
            } => {
                write!(f, "endpoint {endpoint} out of range (mesh has {endpoints})")
            }
            TransportError::Oversized { len, max } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {max}-byte datagram budget"
                )
            }
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Disconnected
            | TransportError::UnknownEndpoint { .. }
            | TransportError::Oversized { .. } => None,
        }
    }
}

/// One endpoint of the mesh.
pub trait Transport: Send {
    /// This endpoint's index in the mesh.
    fn local_index(&self) -> usize;

    /// Number of endpoints in the mesh.
    fn endpoints(&self) -> usize;

    /// Sends `payload` to endpoint `to`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the mesh is gone,
    /// [`TransportError::UnknownEndpoint`] for an out-of-range
    /// destination, [`TransportError::Oversized`] for a frame beyond the
    /// datagram budget, [`TransportError::Io`] for socket failures.
    fn send(&self, to: usize, payload: Bytes) -> Result<(), TransportError>;

    /// Receives the next frame, waiting at most `timeout`. Returns
    /// `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// [`TransportError`] on teardown or socket failure.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Bytes)>, TransportError>;
}

// --- in-process channels -----------------------------------------------------

/// An in-process mesh of `std::sync::mpsc` channels.
#[derive(Debug)]
pub struct ChannelMesh;

/// One channel endpoint.
#[derive(Debug)]
pub struct ChannelTransport {
    index: usize,
    senders: Arc<Vec<Sender<(usize, Bytes)>>>,
    receiver: Receiver<(usize, Bytes)>,
}

impl ChannelMesh {
    /// Builds a fully-connected mesh of `endpoints` endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `endpoints` is zero.
    pub fn build(endpoints: usize) -> Vec<ChannelTransport> {
        assert!(endpoints > 0, "a mesh needs at least one endpoint");
        let mut senders = Vec::with_capacity(endpoints);
        let mut receivers = Vec::with_capacity(endpoints);
        for _ in 0..endpoints {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);
        receivers
            .into_iter()
            .enumerate()
            .map(|(index, receiver)| ChannelTransport {
                index,
                senders: Arc::clone(&senders),
                receiver,
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn local_index(&self) -> usize {
        self.index
    }

    fn endpoints(&self) -> usize {
        self.senders.len()
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), TransportError> {
        let tx = self
            .senders
            .get(to)
            .ok_or(TransportError::UnknownEndpoint {
                endpoint: to,
                endpoints: self.senders.len(),
            })?;
        tx.send((self.index, payload))
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Bytes)>, TransportError> {
        match self.receiver.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

// --- UDP over loopback ---------------------------------------------------------

/// A loopback UDP mesh: one socket per endpoint, frames carry a 4-byte
/// sender-index prefix.
#[derive(Debug)]
pub struct UdpMesh;

/// One UDP endpoint.
#[derive(Debug)]
pub struct UdpTransport {
    index: usize,
    socket: UdpSocket,
    peers: Arc<Vec<std::net::SocketAddr>>,
    recv: Mutex<RecvState>,
}

/// The receive side of a [`UdpTransport`].
struct RecvState {
    /// The read timeout the socket has now: changing it is a system
    /// call, made only when a different wait is asked for.
    timeout: Option<Duration>,
    /// Every datagram is received into this buffer and its payload
    /// copied out, so a frame owns its own bytes and nothing else.
    buf: Vec<u8>,
}

impl std::fmt::Debug for RecvState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvState")
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

/// Maximum UDP payload the mesh will attempt (loopback handles the
/// theoretical UDP maximum, but stay clear of it).
pub const MAX_DATAGRAM: usize = 60_000;

/// Largest datagram [`UdpTransport::send`] assembles without allocating.
const STACK_DATAGRAM: usize = 512;

/// Shortest read timeout handed to a socket (zero is rejected; the
/// kernel rounds anything this short up to its own timer tick anyway).
const MIN_READ_TIMEOUT: Duration = Duration::from_micros(50);

impl UdpMesh {
    /// Binds `endpoints` sockets on `127.0.0.1` and wires them together.
    ///
    /// # Errors
    ///
    /// Any socket `bind`/`local_addr`/`set_read_timeout` failure.
    pub fn build(endpoints: usize) -> std::io::Result<Vec<UdpTransport>> {
        assert!(endpoints > 0, "a mesh needs at least one endpoint");
        let mut sockets = Vec::with_capacity(endpoints);
        let mut addrs = Vec::with_capacity(endpoints);
        for _ in 0..endpoints {
            let socket = UdpSocket::bind(("127.0.0.1", 0))?;
            addrs.push(socket.local_addr()?);
            sockets.push(socket);
        }
        let peers = Arc::new(addrs);
        Ok(sockets
            .into_iter()
            .enumerate()
            .map(|(index, socket)| UdpTransport {
                index,
                socket,
                peers: Arc::clone(&peers),
                recv: Mutex::new(RecvState {
                    timeout: None,
                    buf: vec![0u8; MAX_DATAGRAM],
                }),
            })
            .collect())
    }
}

impl Transport for UdpTransport {
    fn local_index(&self) -> usize {
        self.index
    }

    fn endpoints(&self) -> usize {
        self.peers.len()
    }

    fn send(&self, to: usize, payload: Bytes) -> Result<(), TransportError> {
        if payload.len() + 4 > MAX_DATAGRAM {
            return Err(TransportError::Oversized {
                len: payload.len() + 4,
                max: MAX_DATAGRAM,
            });
        }
        let addr = self.peers.get(to).ok_or(TransportError::UnknownEndpoint {
            endpoint: to,
            endpoints: self.peers.len(),
        })?;
        // MPIL frames are a few dozen bytes plus four per hop of route:
        // prefix and payload meet on the stack, and only a datagram
        // beyond that takes a buffer from the heap.
        let len = payload.len() + 4;
        let mut stack = [0u8; STACK_DATAGRAM];
        let mut heap = Vec::new();
        let frame = match stack.get_mut(..len) {
            Some(frame) => frame,
            None => {
                heap.resize(len, 0);
                &mut heap[..]
            }
        };
        frame[..4].copy_from_slice(&(self.index as u32).to_be_bytes());
        frame[4..].copy_from_slice(&payload);
        self.socket
            .send_to(frame, addr)
            .map_err(TransportError::Io)?;
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Bytes)>, TransportError> {
        // A poisoned lock is taken anyway: the state is a scratch buffer
        // and a cached timeout, valid after every step that can fail.
        let mut state = self.recv.lock().unwrap_or_else(PoisonError::into_inner);
        let RecvState { timeout: set, buf } = &mut *state;
        let deadline = Instant::now() + timeout;
        // Sockets reject a zero read timeout.
        let mut wait = timeout.max(MIN_READ_TIMEOUT);
        loop {
            if *set != Some(wait) {
                self.socket
                    .set_read_timeout(Some(wait))
                    .map_err(TransportError::Io)?;
                *set = Some(wait);
            }
            match self.socket.recv(buf) {
                Ok(len) if len >= 4 => {
                    let from = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    return Ok(Some((from, Bytes::copy_from_slice(&buf[4..len]))));
                }
                // A datagram too short to carry the sender prefix is
                // garbage, not a timeout: keep receiving until the
                // deadline.
                Ok(_) => {
                    wait = deadline.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        return Ok(None);
                    }
                    wait = wait.max(MIN_READ_TIMEOUT);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mesh: Vec<Box<dyn Transport>>) {
        let payload = Bytes::from_static(b"hello overlay");
        mesh[0].send(1, payload.clone()).expect("send");
        let (from, got) = mesh[1]
            .recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .expect("frame before timeout");
        assert_eq!(from, 0);
        assert_eq!(got, payload);
        // Timeout path.
        assert!(mesh[1]
            .recv_timeout(Duration::from_millis(20))
            .expect("recv")
            .is_none());
    }

    #[test]
    fn channel_mesh_round_trips() {
        let mesh: Vec<Box<dyn Transport>> = ChannelMesh::build(3)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        assert_eq!(mesh[2].endpoints(), 3);
        assert_eq!(mesh[2].local_index(), 2);
        roundtrip(mesh);
    }

    #[test]
    fn udp_mesh_round_trips() {
        let mesh: Vec<Box<dyn Transport>> = UdpMesh::build(3)
            .expect("bind loopback")
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect();
        roundtrip(mesh);
    }

    #[test]
    fn channel_mesh_is_fifo_per_pair() {
        let mesh = ChannelMesh::build(2);
        for i in 0..50u8 {
            mesh[0].send(1, Bytes::copy_from_slice(&[i])).expect("send");
        }
        for i in 0..50u8 {
            let (_, b) = mesh[1]
                .recv_timeout(Duration::from_secs(1))
                .expect("recv")
                .expect("frame");
            assert_eq!(b[0], i);
        }
    }

    #[test]
    fn udp_garbage_datagram_is_not_a_timeout() {
        let mesh = UdpMesh::build(2).expect("bind");
        let stranger = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        // Too short to carry a sender index, then a real frame.
        stranger.send_to(b"xy", mesh[1].peers[1]).expect("send");
        mesh[0].send(1, Bytes::from_static(b"real")).expect("send");
        let (from, got) = mesh[1]
            .recv_timeout(Duration::from_secs(2))
            .expect("recv")
            .expect("the frame behind the garbage");
        assert_eq!((from, &got[..]), (0, &b"real"[..]));
        // Garbage alone is waited out, not reported early.
        let wait = Duration::from_millis(40);
        stranger.send_to(b"xy", mesh[1].peers[1]).expect("send");
        let started = Instant::now();
        assert!(mesh[1].recv_timeout(wait).expect("recv").is_none());
        assert!(started.elapsed() >= wait);
    }

    #[test]
    fn udp_frames_own_only_their_bytes() {
        let mesh = UdpMesh::build(1).expect("bind");
        for round in 0..3u8 {
            mesh[0].send(0, Bytes::from(vec![round; 9])).expect("send");
        }
        let frames: Vec<Bytes> = (0..3)
            .map(|_| {
                mesh[0]
                    .recv_timeout(Duration::from_secs(1))
                    .expect("recv")
                    .expect("frame")
                    .1
            })
            .collect();
        // One receive buffer serves every datagram; what was handed out
        // earlier must not change under a later receive.
        for (round, frame) in frames.iter().enumerate() {
            assert_eq!(frame[..], [round as u8; 9]);
        }
    }

    /// Datagrams are assembled on the stack up to a size and on the
    /// heap beyond it; both sides of the boundary arrive intact.
    #[test]
    fn udp_frames_around_the_stack_buffer_arrive_intact() {
        let mesh = UdpMesh::build(2).expect("bind");
        for len in [
            0,
            1,
            STACK_DATAGRAM - 5,
            STACK_DATAGRAM - 4,
            STACK_DATAGRAM - 3,
            4000,
        ] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            mesh[0].send(1, Bytes::from(payload.clone())).expect("send");
            let (from, got) = mesh[1]
                .recv_timeout(Duration::from_secs(2))
                .expect("recv")
                .expect("frame");
            assert_eq!((from, &got[..]), (0, &payload[..]), "{len} bytes");
        }
    }

    #[test]
    fn udp_self_send_works() {
        let mesh = UdpMesh::build(1).expect("bind");
        mesh[0].send(0, Bytes::from_static(b"loop")).expect("send");
        let (from, got) = mesh[0]
            .recv_timeout(Duration::from_secs(1))
            .expect("recv")
            .expect("frame");
        assert_eq!(from, 0);
        assert_eq!(&got[..], b"loop");
    }

    #[test]
    fn channel_send_out_of_range_is_an_error() {
        let mesh = ChannelMesh::build(1);
        let err = mesh[0].send(5, Bytes::new()).expect_err("out of range");
        assert!(
            matches!(
                err,
                TransportError::UnknownEndpoint {
                    endpoint: 5,
                    endpoints: 1
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn udp_send_out_of_range_is_an_error() {
        let mesh = UdpMesh::build(1).expect("bind");
        let err = mesh[0].send(9, Bytes::new()).expect_err("out of range");
        assert!(
            matches!(err, TransportError::UnknownEndpoint { .. }),
            "{err}"
        );
    }

    #[test]
    fn udp_oversized_frame_is_an_error() {
        let mesh = UdpMesh::build(1).expect("bind");
        let big = Bytes::from(vec![0u8; MAX_DATAGRAM]);
        let err = mesh[0].send(0, big).expect_err("oversized");
        assert!(matches!(err, TransportError::Oversized { .. }), "{err}");
        assert!(err.to_string().contains("datagram budget"));
    }
}
