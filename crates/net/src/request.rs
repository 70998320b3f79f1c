//! Per-request timeout/retry bookkeeping for a pipelined client.
//!
//! [`LiveCluster::submit`] injects operations without waiting; something
//! has to remember which requests are outstanding, notice the ones the
//! network swallowed, and decide whether to try again. That something is
//! [`RequestTracker`]: a deadline queue over the in-flight set, keyed by
//! the [`MessageId`] the submit returned, carrying an opaque per-request
//! token (the daemon stores the requesting client's address and ticket
//! in it).
//!
//! The tracker never reads the clock itself — every operation takes
//! `now` as a [`Duration`] since the caller's epoch, so the whole retry
//! state machine is unit-testable with synthetic time. Feed it
//! monotonically non-decreasing `now` values; the expiry queue relies on
//! issue order matching deadline order.
//!
//! A retried request gets a **fresh** message id (the old flow may still
//! be limping through the mesh, and a late reply to the old id must not
//! be double-counted): [`RequestTracker::pop_expired`] hands the expired
//! request back, the caller re-submits and re-arms it with
//! [`RequestTracker::retry`] under the new id, or gives up and fails the
//! ticket.
//!
//! [`LiveCluster::submit`]: crate::LiveCluster::submit

use std::collections::VecDeque;
use std::time::Duration;

use fxhash::FxHashMap;
use mpil::MessageId;

/// Per-request timeout/retry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How long one attempt may stay unanswered.
    pub timeout: Duration,
    /// How many *additional* attempts follow a timed-out first try
    /// (0 = fail on the first timeout).
    pub retries: u32,
}

impl Default for RetryPolicy {
    /// 150 ms per attempt, two retries — tuned for loopback transports
    /// where a healthy lookup answers in well under a millisecond, on
    /// channels and on UDP sockets alike, and a timeout almost always
    /// means the flow hit perturbed nodes. One flat period is hundreds
    /// of times the typical latency, so it *is* the tail under churn
    /// (`lookup_p99_ms` of the `svc-*` benchmark workloads); a
    /// hop-aware deadline is an open ROADMAP item.
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(150),
            retries: 2,
        }
    }
}

/// One outstanding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending<T> {
    /// Caller-supplied per-request payload (client address, ticket, …).
    pub token: T,
    /// 0-based attempt index of the current try.
    pub attempt: u32,
    /// When the first attempt was issued (latency is measured from
    /// here, across retries).
    pub first_issued_at: Duration,
    /// When the current attempt was issued.
    pub issued_at: Duration,
}

/// Outstanding-request table with deadline scanning and retry
/// accounting. `T` is the caller's per-request token.
#[derive(Debug)]
pub struct RequestTracker<T> {
    policy: RetryPolicy,
    pending: FxHashMap<u64, Pending<T>>,
    /// `(deadline, msg_id)` in issue order; entries whose id has left
    /// `pending` (completed, or re-armed under a new id) are skipped
    /// lazily.
    expiry: VecDeque<(Duration, u64)>,
    completed: u64,
    expired: u64,
    retried: u64,
}

impl<T> RequestTracker<T> {
    /// An empty tracker under `policy`.
    pub fn new(policy: RetryPolicy) -> Self {
        RequestTracker {
            policy,
            pending: FxHashMap::default(),
            expiry: VecDeque::new(),
            completed: 0,
            expired: 0,
            retried: 0,
        }
    }

    /// The timeout/retry parameters.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Starts tracking a first attempt issued at `now`.
    pub fn track(&mut self, id: MessageId, token: T, now: Duration) {
        self.pending.insert(
            id.0,
            Pending {
                token,
                attempt: 0,
                first_issued_at: now,
                issued_at: now,
            },
        );
        self.expiry.push_back((now + self.policy.timeout, id.0));
    }

    /// Resolves `id` (a reply arrived); returns its bookkeeping, or
    /// `None` for an unknown/stale id (late duplicate, already timed
    /// out — the caller should ignore those).
    pub fn complete(&mut self, id: MessageId) -> Option<Pending<T>> {
        let p = self.pending.remove(&id.0)?;
        self.completed += 1;
        Some(p)
    }

    /// Pops the next request whose deadline has passed at `now`, if
    /// any. The caller decides its fate: re-arm with
    /// [`RequestTracker::retry`] (after re-submitting under a fresh
    /// id) when [`RequestTracker::should_retry`] allows, or fail it.
    pub fn pop_expired(&mut self, now: Duration) -> Option<(MessageId, Pending<T>)> {
        while let Some(&(deadline, id)) = self.expiry.front() {
            if deadline > now {
                return None;
            }
            self.expiry.pop_front();
            if let Some(p) = self.pending.remove(&id) {
                self.expired += 1;
                return Some((MessageId(id), p));
            }
            // Stale entry: completed or re-armed since; skip.
        }
        None
    }

    /// Whether an expired request has attempts left under the policy.
    pub fn should_retry(&self, pending: &Pending<T>) -> bool {
        pending.attempt < self.policy.retries
    }

    /// Re-arms an expired request under the fresh id its re-submission
    /// got, bumping the attempt counter; `first_issued_at` is
    /// preserved so end-to-end latency spans all attempts.
    pub fn retry(&mut self, new_id: MessageId, pending: Pending<T>, now: Duration) {
        self.retried += 1;
        self.pending.insert(
            new_id.0,
            Pending {
                attempt: pending.attempt + 1,
                issued_at: now,
                ..pending
            },
        );
        self.expiry.push_back((now + self.policy.timeout, new_id.0));
    }

    /// The earliest live deadline, for sizing poll timeouts. Prunes
    /// stale queue entries as a side effect.
    pub fn next_deadline(&mut self) -> Option<Duration> {
        while let Some(&(deadline, id)) = self.expiry.front() {
            if self.pending.contains_key(&id) {
                return Some(deadline);
            }
            self.expiry.pop_front();
        }
        None
    }

    /// Requests currently outstanding.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// `true` when nothing is outstanding (the drain-complete
    /// condition).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Requests resolved by a reply.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Attempts that hit their deadline (includes the ones that were
    /// then retried).
    pub fn expired(&self) -> u64 {
        self.expired
    }

    /// Expired attempts that were re-armed.
    pub fn retried(&self) -> u64 {
        self.retried
    }

    /// Fails every outstanding request (drain deadline reached),
    /// returning their tokens.
    pub fn abort_all(&mut self) -> Vec<Pending<T>> {
        self.expiry.clear();
        let mut ids: Vec<u64> = self.pending.keys().copied().collect();
        ids.sort_unstable(); // issue order: deterministic abort reporting
        ids.iter()
            .filter_map(|id| self.pending.remove(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn tracker() -> RequestTracker<&'static str> {
        RequestTracker::new(RetryPolicy {
            timeout: 100 * MS,
            retries: 2,
        })
    }

    #[test]
    fn complete_before_deadline_leaves_nothing_expired() {
        let mut t = tracker();
        t.track(MessageId(1), "a", Duration::ZERO);
        t.track(MessageId(2), "b", 10 * MS);
        assert_eq!(t.in_flight(), 2);
        let done = t.complete(MessageId(1)).expect("tracked");
        assert_eq!(done.token, "a");
        assert_eq!(done.attempt, 0);
        assert!(t.pop_expired(99 * MS).is_none(), "deadline not reached");
        assert_eq!(t.completed(), 1);
        assert_eq!(t.in_flight(), 1);
        // The completed id's queue entry is skipped lazily.
        assert_eq!(t.next_deadline(), Some(110 * MS));
    }

    #[test]
    fn expiry_pops_in_deadline_order() {
        let mut t = tracker();
        t.track(MessageId(1), "a", Duration::ZERO);
        t.track(MessageId(2), "b", 30 * MS);
        let (id, p) = t.pop_expired(100 * MS).expect("first deadline passed");
        assert_eq!(id, MessageId(1));
        assert_eq!(p.token, "a");
        assert!(t.pop_expired(100 * MS).is_none(), "second still live");
        let (id, _) = t.pop_expired(130 * MS).expect("second deadline passed");
        assert_eq!(id, MessageId(2));
        assert_eq!(t.expired(), 2);
        assert!(t.is_idle());
    }

    #[test]
    fn retry_rearms_under_a_fresh_id_and_preserves_first_issue() {
        let mut t = tracker();
        t.track(MessageId(7), "x", Duration::ZERO);
        let (_, p) = t.pop_expired(100 * MS).expect("expired");
        assert!(t.should_retry(&p));
        t.retry(MessageId(8), p, 100 * MS);
        assert_eq!(t.in_flight(), 1);
        // Old id is stale now.
        assert!(t.complete(MessageId(7)).is_none());
        let done = t.complete(MessageId(8)).expect("re-armed");
        assert_eq!(done.attempt, 1);
        assert_eq!(done.first_issued_at, Duration::ZERO);
        assert_eq!(done.issued_at, 100 * MS);
        assert_eq!(t.retried(), 1);
    }

    #[test]
    fn retries_run_out_per_policy() {
        let mut t = tracker();
        t.track(MessageId(1), "x", Duration::ZERO);
        let mut now = Duration::ZERO;
        let mut next_id = 2;
        let mut attempts = 1;
        loop {
            now += 100 * MS;
            let (_, p) = t.pop_expired(now).expect("expired");
            if !t.should_retry(&p) {
                break;
            }
            t.retry(MessageId(next_id), p, now);
            next_id += 1;
            attempts += 1;
        }
        assert_eq!(attempts, 3, "1 try + 2 retries");
        assert!(t.is_idle());
    }

    #[test]
    fn late_reply_after_timeout_is_stale() {
        let mut t = tracker();
        t.track(MessageId(1), "x", Duration::ZERO);
        let _ = t.pop_expired(200 * MS).expect("expired");
        assert!(t.complete(MessageId(1)).is_none(), "already failed");
    }

    #[test]
    fn abort_all_fails_everything_in_issue_order() {
        let mut t = tracker();
        t.track(MessageId(3), "c", Duration::ZERO);
        t.track(MessageId(1), "a", Duration::ZERO);
        t.track(MessageId(2), "b", Duration::ZERO);
        let aborted = t.abort_all();
        assert_eq!(
            aborted.iter().map(|p| p.token).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(t.is_idle());
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn next_deadline_prunes_stale_entries() {
        let mut t = tracker();
        t.track(MessageId(1), "a", Duration::ZERO);
        t.track(MessageId(2), "b", 5 * MS);
        let _ = t.complete(MessageId(1));
        assert_eq!(t.next_deadline(), Some(105 * MS));
        let _ = t.complete(MessageId(2));
        assert_eq!(t.next_deadline(), None);
    }
}
