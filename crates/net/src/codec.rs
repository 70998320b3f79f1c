//! Wire format for live MPIL messages.
//!
//! A compact, versioned binary framing built on [`bytes`]. The format is
//! deliberately simple — fixed-width integers, big-endian, no
//! compression — so that a non-Rust implementation could interoperate
//! from this module's documentation alone:
//!
//! ```text
//! offset  size  field
//! 0       1     version (currently 1)
//! 1       1     kind: 0 insert, 1 lookup, 2 reply, 3 store-ack, 4 shutdown
//! --- kinds 0/1 (forwarded MPIL message) ---
//! 2       8     msg_id
//! 10      20    object ID
//! 30      4     origin node index
//! 34      4     remaining flow quota
//! 38      4     replicas_left
//! 42      4     hops
//! 46      2     route length L
//! 48      4·L   route (node indices, oldest first)
//! --- kind 2 (lookup reply) / kind 3 (store ack) ---
//! 2       8     msg_id
//! 10      20    object ID
//! 30      4     holder node index
//! 34      4     hops (kind 2 only)
//! --- kind 4: no payload ---
//! ```
//!
//! A frame ends where its last field ends: bytes that follow it in the
//! same datagram are ignored, not an error. A frame cut short anywhere
//! is [`DecodeError::Truncated`]. `tests/codec_props.rs` pins both.

use bytes::{BufMut, Bytes, BytesMut};
use mpil::{Message, MessageId, MessageKind};
use mpil_id::{Id, ID_BYTES};
use mpil_overlay::NodeIdx;

/// Current wire version.
pub const WIRE_VERSION: u8 = 1;

/// The encoding of [`WireMessage::Shutdown`], for receivers that tell a
/// wake-up from traffic before they decode anything.
pub(crate) const SHUTDOWN_FRAME: [u8; 2] = [WIRE_VERSION, 4];

/// Longest route a forwarded message may carry: what fits the format's
/// 16-bit length field. A copy handed over inside a shard never meets
/// the encoder and is held to the same limit.
pub(crate) const MAX_ROUTE: usize = u16::MAX as usize;

/// A frame of the live MPIL protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// A forwarded MPIL message (one flow's head).
    Forward(Message),
    /// A replica holder's positive answer, sent to the client endpoint.
    Reply {
        /// The lookup operation this answers.
        msg_id: MessageId,
        /// The object that was found.
        object: Id,
        /// The node holding the replica.
        holder: NodeIdx,
        /// Forward-path hops the lookup traveled.
        hops: u32,
    },
    /// Confirmation that a replica was deposited, sent to the client
    /// endpoint.
    StoreAck {
        /// The insert operation this confirms.
        msg_id: MessageId,
        /// The inserted object.
        object: Id,
        /// The node that stored the replica.
        holder: NodeIdx,
    },
    /// Orderly termination request.
    Shutdown,
}

/// Why a frame failed to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The route does not fit the 16-bit length field of the wire
    /// format.
    RouteTooLong {
        /// Actual route length.
        len: usize,
        /// The format's limit (`u16::MAX`).
        max: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::RouteTooLong { len, max } => {
                write!(f, "route of {len} hops exceeds the wire limit of {max}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the header or the announced payload requires.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown kind byte.
    BadKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown message kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl WireMessage {
    /// Encodes the frame.
    ///
    /// # Errors
    ///
    /// [`EncodeError::RouteTooLong`] if a forwarded message's route
    /// exceeds the format's 16-bit length field (a frame that long
    /// would silently truncate on the wire otherwise).
    pub fn encode(&self) -> Result<Bytes, EncodeError> {
        let mut buf = BytesMut::with_capacity(64);
        self.write(&mut buf)?;
        Ok(buf.freeze())
    }

    /// Encodes the frame behind the envelope a shard's endpoint expects:
    /// the index of the node it is for, four bytes, big-endian. The
    /// envelope belongs to the cluster's mesh, not to the wire format.
    pub(crate) fn encode_for(&self, node: NodeIdx) -> Result<Bytes, EncodeError> {
        let mut buf = BytesMut::with_capacity(72);
        buf.put_u32(node.index() as u32);
        self.write(&mut buf)?;
        Ok(buf.freeze())
    }

    fn write(&self, buf: &mut BytesMut) -> Result<(), EncodeError> {
        buf.put_u8(WIRE_VERSION);
        match self {
            WireMessage::Forward(m) => {
                if m.route.len() > MAX_ROUTE {
                    return Err(EncodeError::RouteTooLong {
                        len: m.route.len(),
                        max: MAX_ROUTE,
                    });
                }
                buf.put_u8(match m.kind {
                    MessageKind::Insert => 0,
                    MessageKind::Lookup => 1,
                });
                buf.put_u64(m.msg_id.0);
                buf.put_slice(m.object.as_bytes());
                buf.put_u32(m.origin.index() as u32);
                buf.put_u32(m.quota);
                buf.put_u32(m.replicas_left);
                buf.put_u32(m.hops);
                buf.put_u16(m.route.len() as u16);
                for n in &m.route {
                    buf.put_u32(n.index() as u32);
                }
            }
            WireMessage::Reply {
                msg_id,
                object,
                holder,
                hops,
            } => {
                buf.put_u8(2);
                buf.put_u64(msg_id.0);
                buf.put_slice(object.as_bytes());
                buf.put_u32(holder.index() as u32);
                buf.put_u32(*hops);
            }
            WireMessage::StoreAck {
                msg_id,
                object,
                holder,
            } => {
                buf.put_u8(3);
                buf.put_u64(msg_id.0);
                buf.put_slice(object.as_bytes());
                buf.put_u32(holder.index() as u32);
            }
            WireMessage::Shutdown => buf.put_u8(4),
        }
        Ok(())
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation, a version mismatch, or an
    /// unknown kind byte.
    pub fn decode(data: &[u8]) -> Result<WireMessage, DecodeError> {
        fn need<T>(field: Option<T>) -> Result<T, DecodeError> {
            field.ok_or(DecodeError::Truncated)
        }
        let r = &mut Reader::new(data);
        let (version, kind) = (need(r.u8())?, need(r.u8())?);
        if version != WIRE_VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        match kind {
            0 | 1 => Ok(WireMessage::Forward(Message {
                msg_id: MessageId(need(r.u64())?),
                kind: if kind == 0 {
                    MessageKind::Insert
                } else {
                    MessageKind::Lookup
                },
                object: need(r.id())?,
                origin: NodeIdx::new(need(r.u32())?),
                quota: need(r.u32())?,
                replicas_left: need(r.u32())?,
                hops: need(r.u32())?,
                route: {
                    let len = usize::from(need(r.u16())?);
                    need(r.u32s(len))?.map(NodeIdx::new).collect()
                },
            })),
            2 => Ok(WireMessage::Reply {
                msg_id: MessageId(need(r.u64())?),
                object: need(r.id())?,
                holder: NodeIdx::new(need(r.u32())?),
                hops: need(r.u32())?,
            }),
            3 => Ok(WireMessage::StoreAck {
                msg_id: MessageId(need(r.u64())?),
                object: need(r.id())?,
                holder: NodeIdx::new(need(r.u32())?),
            }),
            4 => Ok(WireMessage::Shutdown),
            k => Err(DecodeError::BadKind(k)),
        }
    }
}

/// A checked big-endian cursor over a received frame: each getter takes
/// its bytes off the front and returns `None` once the frame has run
/// out, so a decoder names its fields in wire order and maps `None` to
/// its own "truncated" error instead of summing field widths by hand.
/// Both of the workspace's frame formats (this module's data plane and
/// `mpild`'s control plane) read through it; the getters are `#[inline]`
/// because the second of those decodes in another crate, where a call
/// per field tripled the cost of a control frame.
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A cursor at the first byte of `frame`.
    #[inline]
    pub fn new(frame: &'a [u8]) -> Self {
        Reader(frame)
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    /// The next two bytes as a big-endian integer.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_be_bytes)
    }

    /// The next four bytes as a big-endian integer.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_be_bytes)
    }

    /// The next eight bytes as a big-endian integer.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_be_bytes)
    }

    /// The next [`ID_BYTES`] bytes as an identifier.
    #[inline]
    pub fn id(&mut self) -> Option<Id> {
        self.take::<ID_BYTES>().map(Id::from_bytes)
    }

    /// The next `n` big-endian `u32`s, checked as one block: a length
    /// field read from the frame is held against the bytes that are
    /// really there before anything is allocated for it, and the
    /// iterator knows its exact length.
    #[inline]
    pub fn u32s(&mut self, n: usize) -> Option<impl ExactSizeIterator<Item = u32> + 'a> {
        let (head, rest) = self.0.split_at_checked(n.checked_mul(4)?)?;
        self.0 = rest;
        Some(
            head.chunks_exact(4)
                .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_message() -> Message {
        let mut m = Message::initial(
            MessageId(77),
            MessageKind::Lookup,
            Id::from_low_u64(0xdead_beef),
            NodeIdx::new(3),
            10,
            5,
        );
        m = m.forwarded(NodeIdx::new(3), 4);
        m = m.forwarded(NodeIdx::new(9), 2);
        m
    }

    #[test]
    fn forward_round_trips() {
        let m = sample_message();
        let wire = WireMessage::Forward(m);
        let decoded = WireMessage::decode(&wire.encode().expect("encode")).expect("decode");
        assert_eq!(decoded, wire);
    }

    #[test]
    fn the_envelope_is_the_node_index_in_front_of_the_frame() {
        let wire = WireMessage::Forward(sample_message());
        let enveloped = wire.encode_for(NodeIdx::new(0x0102_0304)).expect("encode");
        assert_eq!(enveloped[..4], [1, 2, 3, 4]);
        assert_eq!(enveloped[4..], wire.encode().expect("encode")[..]);
    }

    #[test]
    fn insert_and_lookup_kinds_are_distinct() {
        let mut m = sample_message();
        m.kind = MessageKind::Insert;
        let enc = WireMessage::Forward(m.clone()).encode().expect("encode");
        assert_eq!(enc[1], 0);
        m.kind = MessageKind::Lookup;
        let enc = WireMessage::Forward(m).encode().expect("encode");
        assert_eq!(enc[1], 1);
    }

    #[test]
    fn reply_round_trips() {
        let wire = WireMessage::Reply {
            msg_id: MessageId(5),
            object: Id::from_low_u64(42),
            holder: NodeIdx::new(17),
            hops: 3,
        };
        assert_eq!(
            WireMessage::decode(&wire.encode().expect("encode")).expect("decode"),
            wire
        );
    }

    #[test]
    fn store_ack_round_trips() {
        let wire = WireMessage::StoreAck {
            msg_id: MessageId(9),
            object: Id::MAX,
            holder: NodeIdx::new(0),
        };
        assert_eq!(
            WireMessage::decode(&wire.encode().expect("encode")).expect("decode"),
            wire
        );
    }

    #[test]
    fn shutdown_is_two_bytes() {
        let enc = WireMessage::Shutdown.encode().expect("encode");
        assert_eq!(enc[..], SHUTDOWN_FRAME);
        assert_eq!(
            WireMessage::decode(&enc).expect("decode"),
            WireMessage::Shutdown
        );
    }

    #[test]
    fn empty_and_short_frames_are_truncated() {
        assert_eq!(WireMessage::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(WireMessage::decode(&[1]), Err(DecodeError::Truncated));
        assert_eq!(WireMessage::decode(&[1, 0, 9]), Err(DecodeError::Truncated));
    }

    #[test]
    fn bad_version_rejected() {
        let mut enc = WireMessage::Shutdown.encode().expect("encode").to_vec();
        enc[0] = 9;
        assert_eq!(WireMessage::decode(&enc), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn bad_kind_rejected() {
        assert_eq!(
            WireMessage::decode(&[1, 200]),
            Err(DecodeError::BadKind(200))
        );
    }

    #[test]
    fn truncated_route_rejected() {
        let m = sample_message();
        let enc = WireMessage::Forward(m).encode().expect("encode");
        // Chop off the last route entry.
        assert_eq!(
            WireMessage::decode(&enc[..enc.len() - 2]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn decode_errors_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadVersion(3).to_string().contains('3'));
        assert!(DecodeError::BadKind(7).to_string().contains('7'));
    }

    #[test]
    fn overlong_route_is_an_encode_error() {
        let mut m = sample_message();
        m.route = vec![NodeIdx::new(0); usize::from(u16::MAX) + 1];
        let err = WireMessage::Forward(m).encode().expect_err("too long");
        assert_eq!(
            err,
            EncodeError::RouteTooLong {
                len: usize::from(u16::MAX) + 1,
                max: usize::from(u16::MAX),
            }
        );
        assert!(err.to_string().contains("wire limit"));
    }

    #[test]
    fn longest_legal_route_still_encodes() {
        let mut m = sample_message();
        m.route = vec![NodeIdx::new(0); usize::from(u16::MAX)];
        let enc = WireMessage::Forward(m.clone()).encode().expect("encode");
        assert_eq!(
            WireMessage::decode(&enc).expect("decode"),
            WireMessage::Forward(m)
        );
    }
}
