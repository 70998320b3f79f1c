//! k-buckets and the Kademlia routing table.

use mpil_id::{xor_distance, Id, ID_BITS};
use mpil_overlay::NodeIdx;

/// Index of the bucket that holds IDs at XOR distance `d` from us: the
/// position of the highest set bit of `d` (bucket `i` covers distances
/// in `[2^i, 2^(i+1))`). Returns `None` for distance zero (self).
pub fn bucket_index(a: Id, b: Id) -> Option<usize> {
    let d = xor_distance(a, b);
    if d.is_zero() {
        return None;
    }
    Some(ID_BITS - 1 - d.leading_zeros() as usize)
}

/// What [`KBucket::offer`] wants the caller to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The peer was inserted (or refreshed) in place.
    Admitted,
    /// The bucket is full; Kademlia pings the least-recently-seen entry
    /// and only evicts it if it fails to answer.
    PingEvictionCandidate(NodeIdx),
}

/// One k-bucket: peers ordered least-recently-seen first (the original
/// paper's eviction order).
#[derive(Debug, Clone, Default)]
pub struct KBucket {
    entries: Vec<NodeIdx>,
}

impl KBucket {
    /// Number of peers held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the bucket holds no peers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Peers, least-recently-seen first.
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.entries.iter().copied()
    }

    /// Is `peer` present?
    pub fn contains(&self, peer: NodeIdx) -> bool {
        self.entries.contains(&peer)
    }

    /// Records fresh evidence that `peer` is alive. Present peers move
    /// to the most-recently-seen end; absent peers are inserted if there
    /// is room, otherwise the caller is asked to ping the
    /// least-recently-seen entry.
    pub fn offer(&mut self, peer: NodeIdx, capacity: usize) -> Admission {
        if let Some(pos) = self.entries.iter().position(|&e| e == peer) {
            let e = self.entries.remove(pos);
            self.entries.push(e);
            return Admission::Admitted;
        }
        if self.entries.len() < capacity {
            self.entries.push(peer);
            return Admission::Admitted;
        }
        Admission::PingEvictionCandidate(self.entries[0])
    }

    /// Removes `peer` (failure eviction). Returns `true` if present.
    pub fn remove(&mut self, peer: NodeIdx) -> bool {
        let before = self.entries.len();
        self.entries.retain(|&e| e != peer);
        self.entries.len() != before
    }

    /// Evicts `dead` and admits `replacement` in one step (the
    /// ping-eviction resolution). No-op if `dead` already left.
    pub fn replace(&mut self, dead: NodeIdx, replacement: NodeIdx, capacity: usize) {
        if self.remove(dead) && self.entries.len() < capacity && !self.contains(replacement) {
            self.entries.push(replacement);
        }
    }
}

/// A node's full routing table: 160 k-buckets.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    node: NodeIdx,
    id: Id,
    k: usize,
    buckets: Vec<KBucket>,
}

impl RoutingTable {
    /// Creates an empty table for `node` with identifier `id`.
    pub fn new(node: NodeIdx, id: Id, k: usize) -> Self {
        assert!(k >= 1, "bucket capacity must be >= 1");
        RoutingTable {
            node,
            id,
            k,
            buckets: vec![KBucket::default(); ID_BITS],
        }
    }

    /// This node's index.
    pub fn node(&self) -> NodeIdx {
        self.node
    }

    /// This node's identifier.
    pub fn id(&self) -> Id {
        self.id
    }

    /// Total peers across all buckets.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(KBucket::len).sum()
    }

    /// Returns `true` if no peers are known.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(KBucket::is_empty)
    }

    /// The bucket that would hold `peer_id`, if distinct from us.
    pub fn bucket_of(&self, peer_id: Id) -> Option<usize> {
        bucket_index(self.id, peer_id)
    }

    /// Records fresh evidence that `peer` (with `peer_id`) is alive.
    pub fn offer(&mut self, peer: NodeIdx, peer_id: Id) -> Admission {
        match self.bucket_of(peer_id) {
            None => Admission::Admitted, // self: nothing to store
            Some(i) => self.buckets[i].offer(peer, self.k),
        }
    }

    /// Removes `peer` with `peer_id` from its bucket.
    pub fn remove(&mut self, peer: NodeIdx, peer_id: Id) -> bool {
        match self.bucket_of(peer_id) {
            None => false,
            Some(i) => self.buckets[i].remove(peer),
        }
    }

    /// Resolves a ping-eviction: `dead` is replaced by `replacement`.
    pub fn replace(&mut self, dead: NodeIdx, dead_id: Id, replacement: NodeIdx) {
        if let Some(i) = self.bucket_of(dead_id) {
            let k = self.k;
            self.buckets[i].replace(dead, replacement, k);
        }
    }

    /// The `count` known peers closest to `target` by XOR distance,
    /// closest first; peers at one distance (duplicate ids) keep table
    /// order, as a stable sort of the whole table would.
    pub fn closest(&self, target: Id, count: usize, ids: &[Id]) -> Vec<NodeIdx> {
        self.closest_with(target, count, ids, &mut Vec::new())
    }

    /// [`closest`](Self::closest) with its scratch: each peer's distance
    /// is computed once into `keyed`, the `count` nearest are selected in
    /// linear time, and only they are sorted. A caller that keeps `keyed`
    /// between calls allocates only the answer.
    pub(crate) fn closest_with(
        &self,
        target: Id,
        count: usize,
        ids: &[Id],
        keyed: &mut Vec<(Id, u32, NodeIdx)>,
    ) -> Vec<NodeIdx> {
        keyed.clear();
        keyed.extend(
            self.iter()
                .zip(0..)
                .map(|(p, pos)| (xor_distance(ids[p.index()], target), pos, p)),
        );
        if count < keyed.len() {
            keyed.select_nth_unstable_by_key(count, |&(d, pos, _)| (d, pos));
            keyed.truncate(count);
        }
        keyed.sort_unstable_by_key(|&(d, pos, _)| (d, pos));
        keyed.iter().map(|&(_, _, p)| p).collect()
    }

    /// Every known peer (the frozen neighbor list MPIL routes on).
    pub fn iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.buckets.iter().flat_map(KBucket::iter)
    }

    /// Direct access to bucket `i` (diagnostics, tests).
    pub fn bucket(&self, i: usize) -> &KBucket {
        &self.buckets[i]
    }
}

/// An identifier in bucket `bucket`'s distance range from `own`
/// (`[2^bucket, 2^(bucket+1))`, used by bucket refresh): `own` with bit
/// `bucket` flipped and each bit below it flipped where `draw` has that
/// bit set, so uniform draws give a uniform target. The bytes are drawn
/// before the call, so the kernel RNG and the table are never borrowed
/// together.
pub(crate) fn random_target_in_bucket(own: Id, bucket: usize, draw: &[u8; 20]) -> Id {
    let mut bytes = own.to_bytes();
    let flip_byte = mpil_id::ID_BYTES - 1 - bucket / 8;
    bytes[flip_byte] ^= 1u8 << (bucket % 8);
    for b in 0..bucket {
        let byte = mpil_id::ID_BYTES - 1 - b / 8;
        if draw[byte] & (1u8 << (b % 8)) != 0 {
            bytes[byte] ^= 1u8 << (b % 8);
        }
    }
    Id::from_bytes(bytes)
}

/// Builds the converged routing table of every node: each bucket holds
/// up to `k` peers from its distance range (the XOR-closest ones, the
/// fixed point of a network that has seen plenty of traffic).
///
/// Sorts the ids once, after which every bucket of every node is a
/// contiguous run of the sorted array (ids sharing a prefix are
/// adjacent) and the k XOR-closest members of a run come out of a
/// preferred-branch-first binary descent — `O(n (k + log n) log n)`
/// overall instead of the `O(n^2)` all-pairs grouping, with bucket
/// contents and entry order identical pair for pair (pinned by the
/// `fast_build_matches_quadratic_reference` test).
pub fn build_converged_tables(ids: &[Id], config: &crate::KademliaConfig) -> Vec<RoutingTable> {
    assert!(!ids.is_empty(), "cannot build an empty network");
    config.assert_valid();
    let n = ids.len();
    // Stable sort by id: equal ids keep index order, which is also how
    // the all-pairs reference breaks its (distance-tied) duplicates.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| ids[a as usize].cmp(&ids[b as usize]));
    let mut scratch: Vec<NodeIdx> = Vec::with_capacity(config.k);
    (0..n)
        .map(|i| {
            let target = ids[i];
            let mut rt = RoutingTable::new(NodeIdx::new(i as u32), target, config.k);
            let query = RunQuery {
                order: &order,
                ids,
                target,
                k: config.k,
            };
            // Walk from the top bit down, keeping [lo, hi) = the run of
            // ids agreeing with `target` on every bit above `bucket`.
            // The half that disagrees at `bucket` is exactly bucket
            // `bucket`'s candidate set.
            let (mut lo, mut hi) = (0usize, n);
            let mut bucket = ID_BITS;
            while bucket > 0 && hi - lo > 1 {
                bucket -= 1;
                let msb = ID_BITS - 1 - bucket;
                let mid = lo + order[lo..hi].partition_point(|&j| ids[j as usize].bit(msb) == 0);
                let (same, diff) = if target.bit(msb) == 0 {
                    ((lo, mid), (mid, hi))
                } else {
                    ((mid, hi), (lo, mid))
                };
                scratch.clear();
                query.nearest(diff.0, diff.1, bucket, &mut scratch);
                for &p in &scratch {
                    let admission = rt.offer(p, ids[p.index()]);
                    debug_assert_eq!(admission, Admission::Admitted, "bucket {bucket} overflow");
                }
                (lo, hi) = same;
            }
            // Our own id is always inside [lo, hi), so once the run is a
            // single entry (or only exact duplicates remain after bit 0)
            // every unprocessed bucket is empty: nothing left to offer.
            rt
        })
        .collect()
}

/// A k-nearest query against one node's view of the sorted id array
/// (see [`build_converged_tables`]).
struct RunQuery<'a> {
    order: &'a [u32],
    ids: &'a [Id],
    target: Id,
    k: usize,
}

impl RunQuery<'_> {
    /// Appends to `out` the up-to-`k` ids XOR-closest to `target` from
    /// the sorted run `order[lo..hi]`, closest first. `bits` is how many
    /// low bits still vary inside the run. The half matching `target`'s
    /// next bit holds the strictly smaller XOR distances, so visiting it
    /// first yields ascending order without computing a single distance;
    /// distance ties (duplicate ids) sit adjacent and fall out in index
    /// order, matching the reference's stable sort.
    fn nearest(&self, lo: usize, hi: usize, bits: usize, out: &mut Vec<NodeIdx>) {
        if lo >= hi || out.len() == self.k {
            return;
        }
        if bits == 0 || hi - lo == 1 {
            let take = hi.min(lo + (self.k - out.len()));
            out.extend(self.order[lo..take].iter().map(|&j| NodeIdx::new(j)));
            return;
        }
        let bit = bits - 1;
        let msb = ID_BITS - 1 - bit;
        let mid = lo + self.order[lo..hi].partition_point(|&j| self.ids[j as usize].bit(msb) == 0);
        let (near, far) = if self.target.bit(msb) == 0 {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        self.nearest(near.0, near.1, bit, out);
        self.nearest(far.0, far.1, bit, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KademliaConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    #[test]
    fn bucket_index_is_highest_differing_bit() {
        let a = Id::from_low_u64(0b1000);
        let b = Id::from_low_u64(0b1001);
        assert_eq!(bucket_index(a, b), Some(0));
        let c = Id::from_low_u64(0b0000);
        assert_eq!(bucket_index(a, c), Some(3));
        assert_eq!(bucket_index(a, a), None);
        // Top bit.
        let mut bytes = [0u8; mpil_id::ID_BYTES];
        bytes[0] = 0x80;
        assert_eq!(bucket_index(Id::ZERO, Id::from_bytes(bytes)), Some(159));
    }

    #[test]
    fn bucket_moves_reseen_peers_to_tail() {
        let mut b = KBucket::default();
        assert_eq!(b.offer(n(1), 3), Admission::Admitted);
        assert_eq!(b.offer(n(2), 3), Admission::Admitted);
        assert_eq!(b.offer(n(3), 3), Admission::Admitted);
        // Re-seeing n(1) moves it to most-recently-seen.
        assert_eq!(b.offer(n(1), 3), Admission::Admitted);
        let order: Vec<NodeIdx> = b.iter().collect();
        assert_eq!(order, vec![n(2), n(3), n(1)]);
    }

    #[test]
    fn full_bucket_asks_to_ping_lru() {
        let mut b = KBucket::default();
        b.offer(n(1), 2);
        b.offer(n(2), 2);
        assert_eq!(b.offer(n(3), 2), Admission::PingEvictionCandidate(n(1)));
        assert_eq!(b.len(), 2);
        // Resolution: the LRU is dead; the newcomer takes its slot.
        b.replace(n(1), n(3), 2);
        assert!(b.contains(n(3)));
        assert!(!b.contains(n(1)));
    }

    #[test]
    fn replace_is_noop_when_dead_already_left() {
        let mut b = KBucket::default();
        b.offer(n(1), 2);
        b.offer(n(2), 2);
        b.replace(n(9), n(3), 2);
        assert!(!b.contains(n(3)));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn table_closest_sorts_by_xor() {
        let ids: Vec<Id> = [0b0000u64, 0b0001, 0b0010, 0b0100, 0b1000]
            .iter()
            .map(|&v| Id::from_low_u64(v))
            .collect();
        let mut rt = RoutingTable::new(n(0), ids[0], 8);
        for i in 1..5u32 {
            rt.offer(n(i), ids[i as usize]);
        }
        let target = Id::from_low_u64(0b0011);
        let c = rt.closest(target, 3, &ids);
        // XOR distances from 0b0011: n1→2, n2→1, n3→7, n4→11.
        assert_eq!(c, vec![n(2), n(1), n(3)]);
    }

    #[test]
    fn closest_equals_the_full_stable_sort() {
        let mut rng = SmallRng::seed_from_u64(17);
        // One scratch for every call: what an earlier table or target
        // left in it must not leak into an answer.
        let mut keyed = Vec::new();
        for round in 0..40 {
            let mut ids: Vec<Id> = (0..60).map(|_| Id::random(&mut rng)).collect();
            // Duplicate ids tie on distance: table order must break it.
            ids[5] = ids[4];
            ids[9] = ids[4];
            let k = 1 + round % 6;
            let mut rt = RoutingTable::new(n(0), ids[0], k);
            for (i, &id) in ids.iter().enumerate().skip(1) {
                rt.offer(n(i as u32), id);
            }
            let targets = [Id::random(&mut rng), ids[4], ids[0]];
            for target in targets {
                let mut all: Vec<NodeIdx> = rt.iter().collect();
                all.sort_by_key(|&p| xor_distance(ids[p.index()], target));
                for count in 0..=rt.len() + 1 {
                    let expect = &all[..count.min(all.len())];
                    let why = format!("round {round}, count {count}");
                    assert_eq!(rt.closest(target, count, &ids), expect, "{why}");
                    let reused = rt.closest_with(target, count, &ids, &mut keyed);
                    assert_eq!(reused, expect, "{why}, reused scratch");
                }
            }
        }
    }

    #[test]
    fn converged_tables_cover_every_occupied_bucket() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ids: Vec<Id> = (0..64).map(|_| Id::random(&mut rng)).collect();
        let config = KademliaConfig::default();
        let tables = build_converged_tables(&ids, &config);
        for (i, rt) in tables.iter().enumerate() {
            assert!(rt.len() >= config.k, "node {i} knows too few peers");
            // No bucket exceeds k, no entry is self.
            for b in 0..ID_BITS {
                assert!(rt.bucket(b).len() <= config.k);
                assert!(!rt.bucket(b).contains(n(i as u32)));
            }
        }
    }

    /// The original all-pairs builder, kept as the oracle for the fast
    /// sorted-array implementation.
    fn quadratic_reference(ids: &[Id], config: &KademliaConfig) -> Vec<RoutingTable> {
        (0..ids.len())
            .map(|i| {
                let mut rt = RoutingTable::new(n(i as u32), ids[i], config.k);
                let mut per_bucket: Vec<Vec<NodeIdx>> = vec![Vec::new(); ID_BITS];
                for (j, &jid) in ids.iter().enumerate() {
                    if let Some(b) = bucket_index(ids[i], jid) {
                        per_bucket[b].push(n(j as u32));
                    }
                }
                for mut peers in per_bucket.into_iter() {
                    peers.sort_by_key(|&p| xor_distance(ids[p.index()], ids[i]));
                    for p in peers.into_iter().take(config.k) {
                        rt.offer(p, ids[p.index()]);
                    }
                }
                rt
            })
            .collect()
    }

    #[test]
    fn fast_build_matches_quadratic_reference() {
        let config = KademliaConfig::default();
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ids: Vec<Id> = (0..200).map(|_| Id::random(&mut rng)).collect();
            // Stress the descent with shared prefixes and exact
            // duplicates (distance ties must break by node index).
            ids.push(ids[0]);
            ids.push(ids[0]);
            let mut near = ids[1].to_bytes();
            near[mpil_id::ID_BYTES - 1] ^= 1;
            ids.push(Id::from_bytes(near));
            let fast = build_converged_tables(&ids, &config);
            let slow = quadratic_reference(&ids, &config);
            assert_eq!(fast.len(), slow.len());
            for (f, s) in fast.iter().zip(&slow) {
                for b in 0..ID_BITS {
                    let fb: Vec<NodeIdx> = f.bucket(b).iter().collect();
                    let sb: Vec<NodeIdx> = s.bucket(b).iter().collect();
                    assert_eq!(fb, sb, "node {:?} bucket {b}", f.node());
                }
            }
        }
    }

    #[test]
    fn random_id_in_bucket_lands_in_range() {
        let mut rng = SmallRng::seed_from_u64(9);
        let id = Id::random(&mut rng);
        for i in 0..ID_BITS {
            let mut draws = vec![[0u8; 20], [0xff; 20]];
            for _ in 0..16 {
                let mut draw = [0u8; 20];
                rng.fill(&mut draw);
                draws.push(draw);
            }
            for draw in &draws {
                let r = random_target_in_bucket(id, i, draw);
                assert_eq!(bucket_index(id, r), Some(i), "bucket {i}, draw {draw:?}");
            }
        }
    }

    #[test]
    fn offer_self_is_ignored() {
        let id = Id::from_low_u64(42);
        let mut rt = RoutingTable::new(n(0), id, 4);
        assert_eq!(rt.offer(n(0), id), Admission::Admitted);
        assert!(rt.is_empty());
    }

    #[test]
    fn remove_evicts_from_the_right_bucket() {
        let ids: Vec<Id> = [5u64, 6, 7].iter().map(|&v| Id::from_low_u64(v)).collect();
        let mut rt = RoutingTable::new(n(0), ids[0], 4);
        rt.offer(n(1), ids[1]);
        rt.offer(n(2), ids[2]);
        assert!(rt.remove(n(1), ids[1]));
        assert!(!rt.remove(n(1), ids[1]));
        assert_eq!(rt.len(), 1);
    }
}
