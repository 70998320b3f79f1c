//! [`Outstanding`]: the requests a node has sent and is still waiting on.
//!
//! MSPastry's dependability machinery — per-hop acks with
//! retransmission, probe-based failure declaration — is one policy:
//! resend a request up to `retries` times, one timeout apart, then give
//! up on the peer. The Chord and MSPastry baselines keep every request
//! they retry (a routed hop, a liveness probe, a stabilize request) in
//! one of these tables and arm a timer per attempt. The table decides
//! what a timeout means ([`Expiry`]); the protocol builds and sends its
//! own messages, counts them, and decides what a failure means.
//!
//! No table is ever iterated, so a token is opaque: it only has to be
//! unique within its table, and it is never reused.

use fxhash::FxHashMap;
use mpil_overlay::NodeIdx;

/// One request a node sent: who sent it, to whom, and what it carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<T> {
    /// The node waiting on the answer; its timer drives the retries.
    pub from: NodeIdx,
    /// The peer asked.
    pub to: NodeIdx,
    /// What the protocol needs to resend the request or act on it.
    pub body: T,
}

/// What a request's timeout finds ([`Outstanding::expire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry<T> {
    /// The request was settled (or given up) before its timer fired.
    Settled,
    /// The sender is offline: the request is dropped with it.
    Dropped(Request<T>),
    /// Send it again and re-arm the timer: the attempt is counted and
    /// the request stays open under the same token.
    Resend(Request<T>),
    /// Every resend went unanswered: the request is dropped and the
    /// peer is presumed dead.
    Exhausted(Request<T>),
}

/// A token-keyed table of open requests, each resent at most `retries`
/// times. Entries are stored inline in the map.
#[derive(Debug)]
pub struct Outstanding<T> {
    /// Each open request and the resends it has had.
    open: FxHashMap<u64, (Request<T>, u32)>,
    retries: u32,
    issued: u64,
}

impl<T: Copy> Outstanding<T> {
    /// An empty table whose requests are resent at most `retries` times.
    pub fn new(retries: u32) -> Self {
        Outstanding {
            open: FxHashMap::default(),
            retries,
            issued: 0,
        }
    }

    /// Opens a request from `from` to `to` and returns its token.
    pub fn open(&mut self, from: NodeIdx, to: NodeIdx, body: T) -> u64 {
        let token = self.issued;
        self.issued += 1;
        self.open.insert(token, (Request { from, to, body }, 0));
        token
    }

    /// Closes request `token` on its answer; `None` if it is no longer
    /// open (a duplicate or late answer).
    pub fn settle(&mut self, token: u64) -> Option<Request<T>> {
        self.open.remove(&token).map(|(request, _)| request)
    }

    /// Request `token`'s timeout fired; `online` says whether its sender
    /// is up (asked only if the request is still open).
    pub fn expire(&mut self, token: u64, online: impl FnOnce(NodeIdx) -> bool) -> Expiry<T> {
        let Some((request, resends)) = self.open.get_mut(&token) else {
            return Expiry::Settled;
        };
        let request = *request;
        if !online(request.from) {
            self.open.remove(&token);
            return Expiry::Dropped(request);
        }
        if *resends < self.retries {
            *resends += 1;
            return Expiry::Resend(request);
        }
        self.open.remove(&token);
        Expiry::Exhausted(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeIdx = NodeIdx::new(0);
    const B: NodeIdx = NodeIdx::new(1);
    const UP: fn(NodeIdx) -> bool = |_| true;

    #[test]
    fn a_settled_request_expires_to_nothing() {
        let mut table = Outstanding::new(3);
        let token = table.open(A, B, 'x');
        let request = Request {
            from: A,
            to: B,
            body: 'x',
        };
        assert_eq!(table.settle(token), Some(request));
        assert_eq!(table.expire(token, UP), Expiry::Settled);
        assert_eq!(table.settle(token), None, "a second answer finds nothing");
    }

    #[test]
    fn a_request_is_resent_exactly_retries_times_then_exhausted() {
        for retries in 0..4 {
            let mut table = Outstanding::new(retries);
            let token = table.open(A, B, ());
            let request = Request {
                from: A,
                to: B,
                body: (),
            };
            for _ in 0..retries {
                assert_eq!(table.expire(token, UP), Expiry::Resend(request));
            }
            assert_eq!(table.expire(token, UP), Expiry::Exhausted(request));
            assert_eq!(table.expire(token, UP), Expiry::Settled, "dropped");
        }
    }

    #[test]
    fn an_offline_sender_drops_its_request_without_a_resend() {
        let mut table = Outstanding::new(2);
        let token = table.open(A, B, 7u8);
        let mut asked = Vec::new();
        let outcome = table.expire(token, |n| {
            asked.push(n);
            false
        });
        let request = Request {
            from: A,
            to: B,
            body: 7,
        };
        assert_eq!((outcome, asked), (Expiry::Dropped(request), vec![A]));
        assert_eq!(
            table.expire(token, |_| panic!("not asked")),
            Expiry::Settled
        );
    }

    #[test]
    fn a_token_is_never_reused() {
        let mut table = Outstanding::new(0);
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..50 {
            let token = table.open(A, B, ());
            assert!(seen.insert(token), "token {token} issued twice");
            if round % 2 == 0 {
                table.settle(token);
            } else {
                table.expire(token, UP);
            }
        }
    }
}
