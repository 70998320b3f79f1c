//! The `mpild` control-plane wire format.
//!
//! Clients drive the daemon with single-datagram request/response
//! frames — small enough that fragmentation is never a concern and
//! simple enough to decode without allocation. Every request carries a
//! client-chosen 64-bit **token** which the daemon echoes verbatim in
//! the response; with an unordered datagram transport underneath, the
//! token is how a pipelined client matches responses (which may arrive
//! in any order, or never) back to requests.
//!
//! Frame layout, byte-for-byte (all integers big-endian):
//!
//! ```text
//! offset  size  field
//! 0       1     version  (CTRL_VERSION = 1)
//! 1       1     kind     (request kinds 0x0_, response kinds 0x1_)
//! 2       8     token    (echoed verbatim in the response)
//! 10      ...   kind-specific fields (u32s, u64s, 20-byte object ids)
//! ```
//!
//! As on the data plane, a frame ends where its last field ends: bytes
//! that follow it in the datagram are ignored, and a frame cut short
//! anywhere is [`CtrlDecodeError::Truncated`]
//! (`tests/proto_props.rs` pins both).
//!
//! The format is versioned exactly like the data-plane codec in
//! `mpil_net::codec`: a daemon never guesses at frames from a different
//! protocol revision.

use mpil_id::{Id, ID_BYTES};
use mpil_net::codec::Reader;

/// Control protocol revision. Bump on any frame-layout change.
pub const CTRL_VERSION: u8 = 1;

/// A client → daemon request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlRequest {
    /// Insert `object` into the overlay through entry node `origin`.
    Announce {
        /// Object id to announce.
        object: Id,
        /// Entry node index.
        origin: u32,
    },
    /// Look `object` up through entry node `origin`.
    Lookup {
        /// Object id to find.
        object: Id,
        /// Entry node index.
        origin: u32,
    },
    /// Bring the parked spare `node` into service.
    Join {
        /// Node index to unpark.
        node: u32,
    },
    /// Perturb `node` for `millis` milliseconds (it drops frames).
    Perturb {
        /// Node index to perturb.
        node: u32,
        /// Perturbation length in milliseconds.
        millis: u32,
    },
    /// Clear any perturbation on `node` immediately.
    Heal {
        /// Node index to heal.
        node: u32,
    },
    /// Ask for the daemon's service counters.
    Stats,
    /// Gracefully shut the daemon down, draining in-flight work for at
    /// most `millis` milliseconds.
    Drain {
        /// Drain budget in milliseconds.
        millis: u32,
    },
}

/// Daemon-side service counters, reported by [`CtrlResponse::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Announces answered (first replica confirmed).
    pub announces: u64,
    /// Lookups answered with a holder.
    pub hits: u64,
    /// Lookups that exhausted their retries.
    pub lookup_timeouts: u64,
    /// Announces that exhausted their retries.
    pub announce_timeouts: u64,
    /// Data-plane retries issued.
    pub retries: u64,
    /// Nodes currently in service (spawned minus parked).
    pub live_nodes: u32,
    /// Spares still parked.
    pub parked: u32,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

/// A daemon → client response. The token of the request it answers is
/// carried alongside by [`CtrlResponse::decode`]/[`CtrlResponse::encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlResponse {
    /// The announce deposited a replica at `holder`.
    Announced {
        /// First node that confirmed a replica.
        holder: u32,
    },
    /// The lookup found `object` at `holder` after `hops` hops.
    Found {
        /// Node holding a replica.
        holder: u32,
        /// Hop count of the successful flow.
        hops: u32,
    },
    /// The lookup exhausted its retries without an answer.
    NotFound,
    /// The admin operation (join/perturb/heal/drain) was applied.
    Ok,
    /// Service counters.
    Stats(StatsBody),
    /// The request was rejected; see [`err_code`] for the values.
    Err {
        /// Rejection reason, one of the [`err_code`] constants.
        code: u8,
    },
}

/// Rejection codes carried by [`CtrlResponse::Err`].
pub mod err_code {
    /// The named node index does not exist.
    pub const BAD_NODE: u8 = 1;
    /// The operation timed out inside the daemon (announce retries
    /// exhausted).
    pub const TIMEOUT: u8 = 2;
    /// The entry node is parked or otherwise out of service.
    pub const UNAVAILABLE: u8 = 3;
    /// The daemon could not inject the request into the cluster.
    pub const TRANSPORT: u8 = 4;
    /// The request frame did not decode.
    pub const BAD_REQUEST: u8 = 5;
}

/// Why a control frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlDecodeError {
    /// The frame ended before its fields did.
    Truncated,
    /// The version byte is from a different protocol revision.
    BadVersion(u8),
    /// The kind byte names no known frame kind.
    BadKind(u8),
}

impl std::fmt::Display for CtrlDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtrlDecodeError::Truncated => write!(f, "truncated control frame"),
            CtrlDecodeError::BadVersion(v) => {
                write!(f, "control version {v} (want {CTRL_VERSION})")
            }
            CtrlDecodeError::BadKind(k) => write!(f, "unknown control frame kind {k}"),
        }
    }
}

impl std::error::Error for CtrlDecodeError {}

// Request kinds.
const K_ANNOUNCE: u8 = 0x00;
const K_LOOKUP: u8 = 0x01;
const K_JOIN: u8 = 0x02;
const K_PERTURB: u8 = 0x03;
const K_HEAL: u8 = 0x04;
const K_STATS: u8 = 0x05;
const K_DRAIN: u8 = 0x06;
// Response kinds.
const K_ANNOUNCED: u8 = 0x10;
const K_FOUND: u8 = 0x11;
const K_NOT_FOUND: u8 = 0x12;
const K_OK: u8 = 0x13;
const K_STATS_BODY: u8 = 0x14;
const K_ERR: u8 = 0x15;

fn header(kind: u8, token: u64, body: usize) -> Vec<u8> {
    let mut f = Vec::with_capacity(10 + body);
    f.push(CTRL_VERSION);
    f.push(kind);
    f.extend_from_slice(&token.to_be_bytes());
    f
}

/// A field the cursor ran out of bytes for is a truncated frame.
fn need<T>(field: Option<T>) -> Result<T, CtrlDecodeError> {
    field.ok_or(CtrlDecodeError::Truncated)
}

fn check_header(r: &mut Reader<'_>) -> Result<(u8, u64), CtrlDecodeError> {
    let version = need(r.u8())?;
    if version != CTRL_VERSION {
        return Err(CtrlDecodeError::BadVersion(version));
    }
    let kind = need(r.u8())?;
    let token = need(r.u64())?;
    Ok((kind, token))
}

impl CtrlRequest {
    /// Encodes the request under `token`.
    pub fn encode(&self, token: u64) -> Vec<u8> {
        match *self {
            CtrlRequest::Announce { object, origin } => {
                let mut f = header(K_ANNOUNCE, token, ID_BYTES + 4);
                f.extend_from_slice(object.as_bytes());
                f.extend_from_slice(&origin.to_be_bytes());
                f
            }
            CtrlRequest::Lookup { object, origin } => {
                let mut f = header(K_LOOKUP, token, ID_BYTES + 4);
                f.extend_from_slice(object.as_bytes());
                f.extend_from_slice(&origin.to_be_bytes());
                f
            }
            CtrlRequest::Join { node } => {
                let mut f = header(K_JOIN, token, 4);
                f.extend_from_slice(&node.to_be_bytes());
                f
            }
            CtrlRequest::Perturb { node, millis } => {
                let mut f = header(K_PERTURB, token, 8);
                f.extend_from_slice(&node.to_be_bytes());
                f.extend_from_slice(&millis.to_be_bytes());
                f
            }
            CtrlRequest::Heal { node } => {
                let mut f = header(K_HEAL, token, 4);
                f.extend_from_slice(&node.to_be_bytes());
                f
            }
            CtrlRequest::Stats => header(K_STATS, token, 0),
            CtrlRequest::Drain { millis } => {
                let mut f = header(K_DRAIN, token, 4);
                f.extend_from_slice(&millis.to_be_bytes());
                f
            }
        }
    }

    /// Decodes a request frame into `(token, request)`.
    ///
    /// # Errors
    ///
    /// [`CtrlDecodeError`] on truncation, version mismatch, or a
    /// response-kind (or unknown) kind byte.
    pub fn decode(frame: &[u8]) -> Result<(u64, Self), CtrlDecodeError> {
        let r = &mut Reader::new(frame);
        let (kind, token) = check_header(r)?;
        let req = match kind {
            K_ANNOUNCE => CtrlRequest::Announce {
                object: need(r.id())?,
                origin: need(r.u32())?,
            },
            K_LOOKUP => CtrlRequest::Lookup {
                object: need(r.id())?,
                origin: need(r.u32())?,
            },
            K_JOIN => CtrlRequest::Join {
                node: need(r.u32())?,
            },
            K_PERTURB => CtrlRequest::Perturb {
                node: need(r.u32())?,
                millis: need(r.u32())?,
            },
            K_HEAL => CtrlRequest::Heal {
                node: need(r.u32())?,
            },
            K_STATS => CtrlRequest::Stats,
            K_DRAIN => CtrlRequest::Drain {
                millis: need(r.u32())?,
            },
            other => return Err(CtrlDecodeError::BadKind(other)),
        };
        Ok((token, req))
    }
}

impl CtrlResponse {
    /// Encodes the response, echoing the request's `token`.
    pub fn encode(&self, token: u64) -> Vec<u8> {
        match *self {
            CtrlResponse::Announced { holder } => {
                let mut f = header(K_ANNOUNCED, token, 4);
                f.extend_from_slice(&holder.to_be_bytes());
                f
            }
            CtrlResponse::Found { holder, hops } => {
                let mut f = header(K_FOUND, token, 8);
                f.extend_from_slice(&holder.to_be_bytes());
                f.extend_from_slice(&hops.to_be_bytes());
                f
            }
            CtrlResponse::NotFound => header(K_NOT_FOUND, token, 0),
            CtrlResponse::Ok => header(K_OK, token, 0),
            CtrlResponse::Stats(s) => {
                let mut f = header(K_STATS_BODY, token, 5 * 8 + 2 * 4 + 8);
                f.extend_from_slice(&s.announces.to_be_bytes());
                f.extend_from_slice(&s.hits.to_be_bytes());
                f.extend_from_slice(&s.lookup_timeouts.to_be_bytes());
                f.extend_from_slice(&s.announce_timeouts.to_be_bytes());
                f.extend_from_slice(&s.retries.to_be_bytes());
                f.extend_from_slice(&s.live_nodes.to_be_bytes());
                f.extend_from_slice(&s.parked.to_be_bytes());
                f.extend_from_slice(&s.uptime_ms.to_be_bytes());
                f
            }
            CtrlResponse::Err { code } => {
                let mut f = header(K_ERR, token, 1);
                f.push(code);
                f
            }
        }
    }

    /// Decodes a response frame into `(token, response)`.
    ///
    /// # Errors
    ///
    /// [`CtrlDecodeError`] on truncation, version mismatch, or a
    /// request-kind (or unknown) kind byte.
    pub fn decode(frame: &[u8]) -> Result<(u64, Self), CtrlDecodeError> {
        let r = &mut Reader::new(frame);
        let (kind, token) = check_header(r)?;
        let resp = match kind {
            K_ANNOUNCED => CtrlResponse::Announced {
                holder: need(r.u32())?,
            },
            K_FOUND => CtrlResponse::Found {
                holder: need(r.u32())?,
                hops: need(r.u32())?,
            },
            K_NOT_FOUND => CtrlResponse::NotFound,
            K_OK => CtrlResponse::Ok,
            K_STATS_BODY => CtrlResponse::Stats(StatsBody {
                announces: need(r.u64())?,
                hits: need(r.u64())?,
                lookup_timeouts: need(r.u64())?,
                announce_timeouts: need(r.u64())?,
                retries: need(r.u64())?,
                live_nodes: need(r.u32())?,
                parked: need(r.u32())?,
                uptime_ms: need(r.u64())?,
            }),
            K_ERR => CtrlResponse::Err {
                code: need(r.u8())?,
            },
            other => return Err(CtrlDecodeError::BadKind(other)),
        };
        Ok((token, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests() -> Vec<CtrlRequest> {
        vec![
            CtrlRequest::Announce {
                object: Id::from_low_u64(0xabc),
                origin: 7,
            },
            CtrlRequest::Lookup {
                object: Id::MAX,
                origin: 0,
            },
            CtrlRequest::Join { node: 99 },
            CtrlRequest::Perturb {
                node: 3,
                millis: 1500,
            },
            CtrlRequest::Heal { node: 3 },
            CtrlRequest::Stats,
            CtrlRequest::Drain { millis: 400 },
        ]
    }

    fn responses() -> Vec<CtrlResponse> {
        vec![
            CtrlResponse::Announced { holder: 12 },
            CtrlResponse::Found {
                holder: 31,
                hops: 4,
            },
            CtrlResponse::NotFound,
            CtrlResponse::Ok,
            CtrlResponse::Stats(StatsBody {
                announces: 1,
                hits: 2,
                lookup_timeouts: 3,
                announce_timeouts: 4,
                retries: 5,
                live_nodes: 6,
                parked: 7,
                uptime_ms: 8,
            }),
            CtrlResponse::Err {
                code: err_code::BAD_NODE,
            },
        ]
    }

    #[test]
    fn requests_round_trip_with_token() {
        for (i, req) in requests().into_iter().enumerate() {
            let token = 0x1000 + i as u64;
            let frame = req.encode(token);
            assert_eq!(CtrlRequest::decode(&frame), Ok((token, req)));
        }
    }

    #[test]
    fn responses_round_trip_with_token() {
        for (i, resp) in responses().into_iter().enumerate() {
            let token = u64::MAX - i as u64;
            let frame = resp.encode(token);
            assert_eq!(CtrlResponse::decode(&frame), Ok((token, resp)));
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        for req in requests() {
            let frame = req.encode(42);
            for cut in 0..frame.len() {
                assert_eq!(
                    CtrlRequest::decode(&frame[..cut]),
                    Err(CtrlDecodeError::Truncated),
                    "cut {cut} of {req:?}"
                );
            }
        }
        for resp in responses() {
            let frame = resp.encode(42);
            for cut in 0..frame.len() {
                assert_eq!(
                    CtrlResponse::decode(&frame[..cut]),
                    Err(CtrlDecodeError::Truncated),
                    "cut {cut} of {resp:?}"
                );
            }
        }
    }

    #[test]
    fn version_and_kind_are_guarded() {
        let mut frame = CtrlRequest::Stats.encode(1);
        frame[0] = 9;
        assert_eq!(
            CtrlRequest::decode(&frame),
            Err(CtrlDecodeError::BadVersion(9))
        );
        let mut frame = CtrlRequest::Stats.encode(1);
        frame[1] = 0xee;
        assert_eq!(
            CtrlRequest::decode(&frame),
            Err(CtrlDecodeError::BadKind(0xee))
        );
        // A response frame is not a request and vice versa.
        let frame = CtrlResponse::Ok.encode(1);
        assert_eq!(
            CtrlRequest::decode(&frame),
            Err(CtrlDecodeError::BadKind(K_OK))
        );
        let frame = CtrlRequest::Stats.encode(1);
        assert_eq!(
            CtrlResponse::decode(&frame),
            Err(CtrlDecodeError::BadKind(K_STATS))
        );
    }
}
