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
//! state machine is unit-testable with synthetic time. Attempts may be
//! given any patience in any order and still expire earliest first: a
//! deadline no earlier than every one queued before it joins a FIFO,
//! any other a min-heap, and the earlier of the two heads is next.
//!
//! A re-submitted request gets a **fresh** message id (the old flow may
//! still be limping through the mesh): [`RequestTracker::pop_expired`]
//! takes the request whose attempt ran out of patience off the table and
//! hands it to the caller, who re-submits and puts it back under the new
//! id, or drops it and fails the ticket. There are two ways back:
//!
//! * [`RequestTracker::retry`] forgets the old id. A late reply to it is
//!   stale, and the new attempt waits one flat [`RetryPolicy::timeout`].
//! * [`RequestTracker::hedge`] keeps every earlier id resolvable beside
//!   the new one and takes the new attempt's patience from the caller.
//!   The first reply to *any* of a request's ids settles it, once; the
//!   other ids then read unknown. The table counts requests, not ids.
//!
//! [`LiveCluster::submit`]: crate::LiveCluster::submit

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use fxhash::FxHashMap;
use mpil::MessageId;

/// Per-request timeout/retry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// The longest one attempt may stay unanswered before the request is
    /// re-submitted. A tracker used flat ([`RequestTracker::track`],
    /// [`RequestTracker::retry`]) waits exactly this long every time; a
    /// caller that hedges re-submits sooner and treats it as the cap.
    pub timeout: Duration,
    /// How many *additional* such periods follow the first before the
    /// request is given up (0 = fail after one `timeout`).
    pub retries: u32,
}

impl RetryPolicy {
    /// The whole patience a request gets, however its attempts are
    /// spaced: `(retries + 1) × timeout`, saturating at [`Duration::MAX`]
    /// (so `retries = u32::MAX` is a long budget, not a wrapped zero).
    pub fn budget(&self) -> Duration {
        self.timeout
            .saturating_mul(self.retries)
            .saturating_add(self.timeout)
    }
}

impl Default for RetryPolicy {
    /// 150 ms per period, two more periods after the first — 450 ms
    /// before a request is given up. On loopback transports a healthy
    /// lookup answers in well under a millisecond, on channels and on
    /// UDP sockets alike, so an attempt unanswered for a whole period
    /// almost always met perturbed nodes. The period used to be the tail
    /// under churn as well (`lookup_p99_ms` of the `svc-*` benchmark
    /// workloads read 150 ms + one lookup): `mpild` now re-submits a
    /// lookup through another entry node after a delay it derives from
    /// the replies it sees, and only the cap on that delay and the
    /// patience for what is never answered come from here.
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(150),
            retries: 2,
        }
    }
}

/// One outstanding request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pending<T> {
    /// Caller-supplied per-request payload (client address, ticket, …).
    pub token: T,
    /// 0-based attempt index of the latest try.
    pub attempt: u32,
    /// When the first attempt was issued (latency is measured from
    /// here, across retries).
    pub first_issued_at: Duration,
    /// When the latest attempt was issued; on what
    /// [`RequestTracker::complete`] returns, when the attempt that was
    /// answered was.
    pub issued_at: Duration,
    /// Id and issue time of every earlier attempt that is still
    /// resolvable (hedged requests only; empty costs no allocation).
    earlier: Vec<(u64, Duration)>,
}

/// `(deadline, msg_id)`, ordered so that the earliest is the greatest.
type Due = Reverse<(Duration, u64)>;

/// Deadlines, earliest out first whatever order they came in.
///
/// One caller's flat timeouts, and most of any caller's deadlines, are
/// issued in the order they fall due; those cost a queue's push and pop
/// (a binary heap of the 16 384 in flight in a retry storm costs six
/// times that per pop). Only a deadline earlier than one already queued
/// pays for the heap.
#[derive(Debug, Default)]
struct Deadlines {
    in_order: VecDeque<Due>,
    early: BinaryHeap<Due>,
}

impl Deadlines {
    fn push(&mut self, due: Due) {
        // `Reverse`: greater is earlier.
        if self.in_order.back().is_some_and(|last| due > *last) {
            self.early.push(due);
        } else {
            self.in_order.push_back(due);
        }
    }

    fn peek(&self) -> Option<Due> {
        self.in_order.front().max(self.early.peek()).copied()
    }

    /// Removes what [`Deadlines::peek`] returned.
    fn pop(&mut self) {
        if self.early.peek() > self.in_order.front() {
            self.early.pop();
        } else {
            self.in_order.pop_front();
        }
    }

    fn clear(&mut self) {
        self.in_order.clear();
        self.early.clear();
    }
}

/// Outstanding-request table with deadline scanning and retry
/// accounting. `T` is the caller's per-request token.
#[derive(Debug)]
pub struct RequestTracker<T> {
    policy: RetryPolicy,
    /// One entry per request, under the id of its latest attempt.
    pending: FxHashMap<u64, Pending<T>>,
    /// The ids in the `earlier` lists of `pending`, each with the key
    /// its request is under.
    earlier: FxHashMap<u64, u64>,
    /// Entries whose id has left `pending` (completed, or re-armed
    /// under a new id) are skipped lazily.
    expiry: Deadlines,
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
            earlier: FxHashMap::default(),
            expiry: Deadlines::default(),
            completed: 0,
            expired: 0,
            retried: 0,
        }
    }

    /// The timeout/retry parameters.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Starts tracking a first attempt issued at `now`, to expire one
    /// [`RetryPolicy::timeout`] later.
    pub fn track(&mut self, id: MessageId, token: T, now: Duration) {
        self.track_for(id, token, now, self.policy.timeout);
    }

    /// [`RequestTracker::track`] with the attempt's `patience` chosen by
    /// the caller.
    pub fn track_for(&mut self, id: MessageId, token: T, now: Duration, patience: Duration) {
        let pending = Pending {
            token,
            attempt: 0,
            first_issued_at: now,
            issued_at: now,
            earlier: Vec::new(),
        };
        self.arm(id.0, pending, now + patience);
    }

    /// Puts a request on the table under `id`, its earlier ids beside it.
    fn arm(&mut self, id: u64, pending: Pending<T>, deadline: Duration) {
        for &(earlier, _) in &pending.earlier {
            self.earlier.insert(earlier, id);
        }
        self.pending.insert(id, pending);
        self.expiry.push(Reverse((deadline, id)));
    }

    /// Takes the request under `id` off the table, earlier ids and all.
    fn disarm(&mut self, id: u64) -> Option<Pending<T>> {
        let pending = self.pending.remove(&id)?;
        for (earlier, _) in &pending.earlier {
            self.earlier.remove(earlier);
        }
        Some(pending)
    }

    /// Resolves the request `id` belongs to (a reply arrived) and
    /// returns its bookkeeping, or `None` for an unknown/stale id (late
    /// duplicate, another attempt of the request answered first, already
    /// timed out — the caller should ignore those).
    pub fn complete(&mut self, id: MessageId) -> Option<Pending<T>> {
        let mut pending = match self.disarm(id.0) {
            Some(p) => p,
            None => {
                let latest = *self.earlier.get(&id.0)?;
                let mut p = self.disarm(latest)?;
                if let Some(&(_, at)) = p.earlier.iter().find(|(e, _)| *e == id.0) {
                    p.issued_at = at;
                }
                p
            }
        };
        pending.earlier.clear();
        self.completed += 1;
        Some(pending)
    }

    /// Pops the next request whose latest attempt has run out of
    /// patience at `now`, if any, earliest deadline first, with the id
    /// of that attempt. The caller decides its fate: re-submit under a
    /// fresh id and put it back with [`RequestTracker::retry`] or
    /// [`RequestTracker::hedge`], or fail it.
    pub fn pop_expired(&mut self, now: Duration) -> Option<(MessageId, Pending<T>)> {
        while let Some(Reverse((deadline, id))) = self.expiry.peek() {
            if deadline > now {
                return None;
            }
            self.expiry.pop();
            if let Some(p) = self.disarm(id) {
                self.expired += 1;
                return Some((MessageId(id), p));
            }
            // Stale entry: completed or re-armed since; skip.
        }
        None
    }

    /// What is left at `now` of the request's whole patience,
    /// [`RetryPolicy::budget`] from its first attempt: nothing, once an
    /// expired request is to be failed rather than re-submitted. Under
    /// flat timeouts that is after `retries` re-submissions.
    pub fn budget_left(&self, pending: &Pending<T>, now: Duration) -> Duration {
        pending
            .first_issued_at
            .saturating_add(self.policy.budget())
            .saturating_sub(now)
    }

    /// Re-arms an expired request under the fresh id its re-submission
    /// got, for one [`RetryPolicy::timeout`], bumping the attempt
    /// counter; `first_issued_at` is preserved so end-to-end latency
    /// spans all attempts. Ids of earlier attempts are forgotten.
    pub fn retry(&mut self, new_id: MessageId, mut pending: Pending<T>, now: Duration) {
        pending.earlier.clear();
        self.rearm(new_id, pending, now, self.policy.timeout);
    }

    /// Like [`RequestTracker::retry`], but `old_id` (the attempt
    /// [`RequestTracker::pop_expired`] reported) and every id before it
    /// stay resolvable until the request settles, and the new attempt
    /// waits `patience`.
    pub fn hedge(
        &mut self,
        new_id: MessageId,
        old_id: MessageId,
        mut pending: Pending<T>,
        now: Duration,
        patience: Duration,
    ) {
        pending.earlier.push((old_id.0, pending.issued_at));
        self.rearm(new_id, pending, now, patience);
    }

    fn rearm(
        &mut self,
        new_id: MessageId,
        mut pending: Pending<T>,
        now: Duration,
        patience: Duration,
    ) {
        self.retried += 1;
        pending.attempt += 1;
        pending.issued_at = now;
        self.arm(new_id.0, pending, now + patience);
    }

    /// The earliest live deadline, for sizing poll timeouts. Prunes
    /// stale queue entries as a side effect.
    pub fn next_deadline(&mut self) -> Option<Duration> {
        while let Some(Reverse((deadline, id))) = self.expiry.peek() {
            if self.pending.contains_key(&id) {
                return Some(deadline);
            }
            self.expiry.pop();
        }
        None
    }

    /// Requests currently outstanding, however many attempts each has.
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
    /// returning each once, in the order their first attempts were
    /// issued.
    pub fn abort_all(&mut self) -> Vec<Pending<T>> {
        self.expiry.clear();
        self.earlier.clear();
        #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
        let mut all: Vec<(u64, Pending<T>)> = self
            .pending
            .drain()
            .map(|(id, p)| (p.earlier.first().map_or(id, |&(first, _)| first), p))
            .collect();
        all.sort_unstable_by_key(|&(first, _)| first); // deterministic abort reporting
        all.into_iter().map(|(_, p)| p).collect()
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
        assert!(!t.budget_left(&p, 100 * MS).is_zero());
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
            if t.budget_left(&p, now).is_zero() {
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

    #[test]
    fn deadlines_out_of_issue_order_pop_in_deadline_order() {
        let mut t = tracker();
        t.track(MessageId(1), "flat", Duration::ZERO); // until 100 ms
        t.track_for(MessageId(2), "short", MS, 3 * MS); // until 4 ms
        t.track_for(MessageId(3), "mid", 2 * MS, 48 * MS); // until 50 ms
        assert_eq!(t.next_deadline(), Some(4 * MS));
        assert!(t.pop_expired(3 * MS).is_none());
        let (id, p) = t.pop_expired(4 * MS).expect("the short one first");
        assert_eq!((id, p.token), (MessageId(2), "short"));
        // Its next attempt is due before either of the others.
        t.hedge(MessageId(4), id, p, 4 * MS, 6 * MS);
        assert_eq!(t.next_deadline(), Some(10 * MS));
        let order: Vec<_> = std::iter::from_fn(|| t.pop_expired(Duration::from_secs(1)))
            .map(|(id, p)| (id.0, p.token))
            .collect();
        assert_eq!(order, vec![(4, "short"), (3, "mid"), (1, "flat")]);
        assert!(t.is_idle());
    }

    #[test]
    fn any_attempt_of_a_hedged_request_settles_it_once() {
        let mut t = tracker();
        t.track_for(MessageId(1), "x", Duration::ZERO, 3 * MS);
        let (first, p) = t.pop_expired(3 * MS).expect("expired");
        t.hedge(MessageId(2), first, p, 3 * MS, 6 * MS);
        let (second, p) = t.pop_expired(9 * MS).expect("expired");
        assert_eq!((second, p.attempt), (MessageId(2), 1));
        t.hedge(MessageId(3), second, p, 9 * MS, 12 * MS);
        assert_eq!(t.in_flight(), 1, "three ids, one request");
        // The second attempt answers, late.
        let done = t.complete(MessageId(2)).expect("still listened for");
        assert_eq!(done.token, "x");
        assert_eq!(done.attempt, 2);
        assert_eq!(done.first_issued_at, Duration::ZERO);
        assert_eq!(done.issued_at, 3 * MS, "of the attempt that answered");
        assert!(t.is_idle());
        assert_eq!((t.completed(), t.retried()), (1, 2));
        for sibling in [1, 2, 3] {
            assert!(t.complete(MessageId(sibling)).is_none(), "id {sibling}");
        }
        assert!(t.earlier.is_empty(), "no id outlives its request");
        assert!(t.pop_expired(Duration::from_secs(1)).is_none());
        assert_eq!(t.next_deadline(), None);
    }

    #[test]
    fn a_request_that_is_dropped_or_aborted_takes_its_ids_along() {
        let mut t = tracker();
        for (id, token) in [(5, "b"), (1, "a")] {
            t.track_for(MessageId(id), token, Duration::ZERO, 3 * MS);
        }
        // "a" is re-armed under a higher id than "b" has.
        let (id, p) = t.pop_expired(3 * MS).expect("expired");
        assert_eq!(id, MessageId(1));
        t.hedge(MessageId(9), id, p, 3 * MS, 6 * MS);
        let (id, p) = t.pop_expired(3 * MS).expect("expired");
        t.hedge(MessageId(10), id, p, 3 * MS, 6 * MS);
        assert_eq!(t.in_flight(), 2);
        // Given up on: no id of "a" is known any more.
        let (_, gone) = t.pop_expired(9 * MS).expect("expired");
        assert_eq!(gone.token, "a");
        assert!(t.complete(MessageId(1)).is_none() && t.complete(MessageId(9)).is_none());
        assert_eq!(t.earlier.len(), 1, "the one earlier id of \"b\"");
        t.track(MessageId(11), "c", 9 * MS);
        let aborted: Vec<_> = t.abort_all().into_iter().map(|p| p.token).collect();
        assert_eq!(aborted, vec!["b", "c"], "each once, by first id");
        assert!(t.complete(MessageId(5)).is_none() && t.complete(MessageId(10)).is_none());
        assert!(t.is_idle() && t.earlier.is_empty());
    }

    #[test]
    fn the_budget_is_counted_from_the_first_attempt() {
        let mut t = tracker();
        assert_eq!(t.policy().budget(), 300 * MS);
        t.track_for(MessageId(1), "x", 10 * MS, 3 * MS);
        let (id, p) = t.pop_expired(13 * MS).expect("expired");
        assert_eq!(t.budget_left(&p, 13 * MS), 297 * MS);
        t.hedge(MessageId(2), id, p, 13 * MS, 6 * MS);
        let (_, p) = t.pop_expired(400 * MS).expect("expired");
        assert_eq!(t.budget_left(&p, 310 * MS), Duration::ZERO);
        assert_eq!(t.budget_left(&p, 400 * MS), Duration::ZERO);
    }

    /// `--retries 4294967295` is a long budget, not one wrapped to zero
    /// that fails every request whose first attempt missed, and a huge
    /// timeout on top saturates rather than overflows.
    #[test]
    fn the_budget_saturates_instead_of_wrapping() {
        let most = RetryPolicy {
            timeout: 150 * MS,
            retries: u32::MAX,
        };
        assert_eq!(most.budget(), 150 * MS * u32::MAX + 150 * MS);
        let longest = RetryPolicy {
            timeout: Duration::from_millis(u64::MAX),
            retries: u32::MAX,
        };
        assert_eq!(longest.budget(), Duration::MAX);
        let mut t = RequestTracker::new(longest);
        t.track(MessageId(1), "x", 10 * MS);
        let due = t.next_deadline().expect("tracked");
        let (_, p) = t.pop_expired(due).expect("expired");
        assert_eq!(t.budget_left(&p, due), Duration::MAX - due);
    }
}
