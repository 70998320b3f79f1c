//! [`IdMap`]/[`IdSet`]: open-addressed tables keyed by [`Id`].
//!
//! Simulation engines keep one small object store per node —
//! `Vec<HashMap<Id, _>>` at a million nodes means a million SipHash
//! states and heap-heavy bucket arrays dominating the profile. These
//! tables exploit what the workspace knows about its keys: every [`Id`]
//! is (a hash of) a uniformly random 160-bit value, so **the id is its
//! own hash**. Lookups mix the low 64 bits with one multiply and probe
//! linearly through a flat power-of-two slot array: no hasher state, no
//! per-entry allocation, cache-line-friendly collisions.
//!
//! Determinism: layout and iteration order are pure functions of the
//! insertion/removal history (tombstone-free backward-shift deletion),
//! so seeded experiments reproduce exactly — unlike `RandomState` maps,
//! which may not even iterate the same way twice in one process.
//!
//! An empty map allocates nothing: the per-node `Vec<IdMap<_>>` pattern
//! stays cheap for the (common) nodes that never store an object. A
//! storing node starts small too: the first allocation has room for one
//! entry (`INITIAL_SLOTS`) and each grow doubles, because most per-node
//! stores hold a handful (a median of 2 in a 50 000-node MPIL run).

use crate::id::Id;

/// Fibonacci-style mixer (the 64-bit golden-ratio constant); ids are
/// already uniform, the multiply just spreads the low bits into the
/// high bits the index mask uses.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Slot count of the first allocation (power of two).
///
/// Sized by the replica stores of a 50 000-node MPIL simulation
/// (`scale_run --engine mpil-regular --nodes 50000 --ops 2500 --p
/// 0.1`): 40 868 nodes store 118 843 entries, a median of 2 each. From
/// an 8-slot first allocation, 39 504 of those nodes never grew past it
/// and the stores filled 31 % of 381 104 slots of 28 B (10.2 MiB). From 2 slots
/// they fill 55 % of 217 208 (5.8 MiB); from 4 the point peaks 1 MiB
/// higher than from 2.
const INITIAL_SLOTS: usize = 2;

#[inline]
fn slot_hash(id: &Id) -> u64 {
    let bytes = id.as_bytes();
    let mut low = [0u8; 8];
    low.copy_from_slice(&bytes[12..20]);
    u64::from_le_bytes(low).wrapping_mul(MIX)
}

/// An open-addressed `Id -> V` map (see the module docs).
#[derive(Debug, Clone)]
pub struct IdMap<V> {
    /// Power-of-two slot array; `None` is an empty slot.
    slots: Vec<Option<(Id, V)>>,
    len: usize,
}

impl<V> Default for IdMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IdMap<V> {
    /// An empty map. Allocates on first insert, not here.
    pub fn new() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// An empty map pre-sized for `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let mut m = Self::new();
        if n > 0 {
            m.slots = Self::empty_slots((n * 4 / 3 + 1).next_power_of_two().max(INITIAL_SLOTS));
        }
        m
    }

    fn empty_slots(count: usize) -> Vec<Option<(Id, V)>> {
        let mut v = Vec::with_capacity(count);
        v.resize_with(count, || None);
        v
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries the map holds without growing: 0 until the first insert.
    pub fn capacity(&self) -> usize {
        self.slots.len() * 3 / 4
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn start_slot(&self, id: &Id) -> usize {
        // High bits of the mixed hash, folded onto the table size.
        (slot_hash(id) >> 32) as usize & self.mask()
    }

    /// The slot holding `id`, if any.
    #[inline]
    fn find(&self, id: &Id) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.mask();
        let mut i = self.start_slot(id);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if k == id => return Some(i),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Looks up the value stored under `id`.
    pub fn get(&self, id: &Id) -> Option<&V> {
        let i = self.find(id)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Looks up the value stored under `id`, mutably.
    pub fn get_mut(&mut self, id: &Id) -> Option<&mut V> {
        let i = self.find(id)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Returns `true` if `id` has an entry.
    pub fn contains_key(&self, id: &Id) -> bool {
        self.get(id).is_some()
    }

    /// Inserts `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: Id, value: V) -> Option<V> {
        if self.slots.is_empty() {
            self.slots = Self::empty_slots(INITIAL_SLOTS);
        } else if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.start_slot(&id);
        loop {
            match &mut self.slots[i] {
                slot @ None => {
                    *slot = Some((id, value));
                    self.len += 1;
                    return None;
                }
                Some((k, v)) if *k == id => return Some(std::mem::replace(v, value)),
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    /// Removes the entry under `id`, returning its value if present.
    ///
    /// Uses backward-shift deletion, keeping probe chains tombstone-free
    /// (and layout a pure function of the operation history).
    pub fn remove(&mut self, id: &Id) -> Option<V> {
        let i = self.find(id)?;
        let (_, value) = self.slots[i].take()?;
        let mask = self.mask();
        self.len -= 1;
        // Shift the probe chain back over the hole.
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = self.start_slot(k);
            // Move k back iff the hole lies cyclically in [home, j).
            let wraps = if hole <= j {
                home <= hole || home > j
            } else {
                home <= hole && home > j
            };
            if wraps {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }

    /// Iterates entries in slot order (deterministic for a given
    /// operation history).
    pub fn iter(&self) -> impl Iterator<Item = (&Id, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, Self::empty_slots(new_len));
        self.len = 0;
        for (k, v) in old.into_iter().flatten() {
            self.insert(k, v);
        }
    }
}

/// An open-addressed set of [`Id`]s over [`IdMap`].
#[derive(Debug, Clone, Default)]
pub struct IdSet(IdMap<()>);

impl IdSet {
    /// An empty set. Allocates on first insert, not here.
    pub fn new() -> Self {
        IdSet(IdMap::new())
    }

    /// An empty set pre-sized for `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        IdSet(IdMap::with_capacity(n))
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Adds `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: Id) -> bool {
        self.0.insert(id, ()).is_none()
    }

    /// Returns `true` if `id` is in the set.
    pub fn contains(&self, id: &Id) -> bool {
        self.0.contains_key(id)
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: &Id) -> bool {
        self.0.remove(id).is_some()
    }

    /// Removes every id, keeping the allocation.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Iterates ids in slot order (deterministic for a given history).
    pub fn iter(&self) -> impl Iterator<Item = &Id> {
        self.0.iter().map(|(k, _)| k)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "D001: std HashMap is the differential oracle here")]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn empty_maps_do_not_allocate() {
        let m: IdMap<u32> = IdMap::new();
        assert_eq!(m.slots.capacity(), 0);
        assert!(m.is_empty());
        assert!(!m.contains_key(&Id::from_low_u64(1)));
    }

    #[test]
    fn small_maps_start_small_and_stay_right_across_the_first_grows() {
        let keys: Vec<Id> = (1..=4).map(Id::from_low_u64).collect();
        let mut m = IdMap::new();
        m.insert(keys[0], 0);
        assert_eq!(
            m.slots.len(),
            INITIAL_SLOTS,
            "one entry, one first allocation"
        );
        assert!(m.slots.capacity() <= INITIAL_SLOTS);
        // The second and fourth inserts each double the table.
        for (i, &k) in keys.iter().enumerate().skip(1) {
            m.insert(k, i);
            assert_eq!(m.len(), i + 1);
            for (j, key) in keys.iter().enumerate() {
                assert_eq!(m.get(key), (j <= i).then_some(&j), "{j} after {i} inserts");
            }
        }
        assert_eq!(m.slots.len(), 4 * INITIAL_SLOTS);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(m.remove(key), Some(i));
            assert_eq!(m.len(), keys.len() - i - 1);
            assert!(keys[i + 1..].iter().all(|k| m.contains_key(k)));
        }
        assert_eq!(m.remove(&keys[0]), None);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = IdMap::new();
        let a = Id::from_low_u64(1);
        let b = Id::from_low_u64(2);
        assert_eq!(m.insert(a, 10), None);
        assert_eq!(m.insert(b, 20), None);
        assert_eq!(m.insert(a, 11), Some(10));
        assert_eq!(m.get(&a), Some(&11));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&a), Some(11));
        assert_eq!(m.remove(&a), None);
        assert_eq!(m.get(&b), Some(&20));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn differential_against_std_hashmap() {
        let mut rng = SmallRng::seed_from_u64(0xbeef);
        let mut ours: IdMap<u64> = IdMap::new();
        let mut reference: HashMap<Id, u64> = HashMap::new();
        // A small key universe forces collisions, duplicate inserts, and
        // removals of present and absent keys.
        let universe: Vec<Id> = (0..64).map(|_| Id::random(&mut rng)).collect();
        for step in 0..20_000u64 {
            let key = universe[rng.gen_range(0..universe.len())];
            match rng.gen_range(0u8..10) {
                0..=5 => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                6..=7 => {
                    assert_eq!(ours.remove(&key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(&key), reference.get(&key));
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        for key in &universe {
            assert_eq!(ours.get(key), reference.get(key));
        }
    }

    #[test]
    fn growth_keeps_all_entries() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut m = IdMap::new();
        let keys: Vec<Id> = (0..1000).map(|_| Id::random(&mut rng)).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i);
        }
        assert_eq!(m.len(), 1000);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(&i));
        }
        assert_eq!(m.iter().count(), 1000);
    }

    #[test]
    fn sets_behave_like_sets() {
        let mut s = IdSet::new();
        let a = Id::from_low_u64(5);
        assert!(s.insert(a));
        assert!(!s.insert(a));
        assert!(s.contains(&a));
        assert_eq!(s.len(), 1);
        assert!(s.remove(&a));
        assert!(!s.remove(&a));
        assert!(s.is_empty());
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut m = IdMap::new();
        for i in 0..100 {
            m.insert(Id::random(&mut rng), i);
        }
        let cap = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), cap);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn with_capacity_does_not_rehash_under_n_inserts() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut m: IdMap<u32> = IdMap::with_capacity(100);
        let cap = m.slots.len();
        for i in 0..100 {
            m.insert(Id::random(&mut rng), i);
        }
        assert_eq!(m.slots.len(), cap, "no growth within the stated capacity");
    }
}
