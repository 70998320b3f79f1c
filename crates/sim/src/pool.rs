//! Pooled inline-first payload buffers: the allocation-free message
//! plane.
//!
//! The kernel's dominant cost at scale is protocol payloads: a gossip
//! shuffle carries a handful of peer indices, and a million-node run
//! pushes hundreds of millions of such messages. Boxing each payload in
//! a fresh `Vec` (and cloning it for bookkeeping) puts two `malloc`/
//! `free` pairs on every message — death by a billion tiny allocations,
//! plus the RSS fragmentation that comes with them.
//!
//! [`PayloadBuf`] fixes the common case structurally: payloads up to `N`
//! entries (sized to the default HyParView shuffle, see [`PAYLOAD_INLINE`]) live
//! inline in the message itself, so building, cloning, and dropping them
//! never touches the heap. Oversized payloads spill to a boxed `Vec`
//! drawn from a [`PayloadPool`] — a recycling free list owned by the
//! [`crate::Network`] — and handlers return the spill to the pool once
//! the message is consumed ([`PayloadBuf::recycle`]). Steady state is
//! allocation-free either way: inline by construction, or pooled on the
//! rare spill.
//!
//! Layout matters as much as allocation count: wheel slots copy queued
//! events around, so the buffer is a two-variant enum — `u8` length +
//! inline array, or one boxed pointer — that stays within one word of
//! the `Vec` it replaces (32 bytes at `N = 7` versus 24) instead of the
//! ~64 bytes a `Vec`-backed inline struct would occupy. The capacity is
//! deliberately 7, not 8: at `N = 7` a `u32` buffer packs its length
//! into enum padding and a message embedding it next to a `u64` token
//! stays on the 48-byte footprint of the fattest fixed-size payloads,
//! while `N = 8` would grow every queued event by 8 bytes — measurably
//! slower, because the wheel memcpys entries on every cascade.
//!
//! Determinism: the buffer is pure data and the pool is a LIFO free
//! list; neither consumes randomness nor observes wall-clock, so the
//! event stream of a seeded run is unchanged by pooling.

/// Inline capacity tuned to the epidemic engine's shuffle: one exchange
/// carries the initiator plus at most `SHUFFLE_ACTIVE + SHUFFLE_PASSIVE`
/// = 3 + 3 peers (`mpil_gossip::epidemic`), 7 in all, so every shuffle
/// payload fits inline — while the buffer
/// itself stays within one word of a `Vec` (see the module docs for why
/// 7 beats 8 here).
pub const PAYLOAD_INLINE: usize = 7;

/// Upper bound on spill vectors retained by a [`PayloadPool`]; beyond
/// it, returned buffers are simply freed. Spills need a payload larger
/// than the inline capacity, so in practice the list stays tiny — the
/// cap just bounds worst-case retention.
const MAX_POOLED: usize = 64;

#[derive(Debug, Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    /// The common case: the whole payload lives in the message value.
    Inline { len: u8, data: [T; N] },
    /// Past `N` entries the payload moves to a pooled, boxed `Vec`
    /// (boxed so the rare case costs the enum one pointer, not three
    /// words — the double indirection is the point, not an accident).
    #[expect(clippy::box_collection, reason = "one pointer in the enum, not three words")]
    Spilled(Box<Vec<T>>),
}

/// An inline-first payload buffer: up to `N` entries stored in the
/// value itself, larger payloads spilled to a pooled boxed `Vec`.
///
/// All mutating operations take the owning [`PayloadPool`] so spill
/// storage is drawn from (and can be returned to) the free list rather
/// than the allocator. A buffer that never exceeds `N` entries never
/// touches the heap at all.
///
/// `Clone` is derived for container ergonomics but allocates when the
/// buffer has spilled; hot paths should use [`PayloadBuf::clone_in`],
/// which draws from the pool instead.
#[derive(Debug, Clone)]
pub struct PayloadBuf<T: Copy + Default, const N: usize = PAYLOAD_INLINE>(Repr<T, N>);

impl<T: Copy + Default, const N: usize> PayloadBuf<T, N> {
    /// An empty buffer (no heap allocation).
    pub fn new() -> Self {
        const {
            assert!(N >= 1 && N <= u8::MAX as usize, "inline length is a u8");
        }
        PayloadBuf(Repr::Inline {
            len: 0,
            data: [T::default(); N],
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spilled(v) => v.len(),
        }
    }

    /// Returns `true` when the buffer holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` once the payload has outgrown the inline array.
    pub fn spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// The entries as a slice, wherever they live.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Appends `value`, spilling to a pooled `Vec` when the inline
    /// array is full.
    pub fn push(&mut self, value: T, pool: &mut PayloadPool<T>) {
        match &mut self.0 {
            Repr::Inline { len, data } => {
                let at = *len as usize;
                if at < N {
                    data[at] = value;
                    *len += 1;
                } else {
                    // First entry past the inline capacity: migrate to
                    // a pooled spill vector.
                    let mut spill = pool.take();
                    spill.extend_from_slice(data);
                    spill.push(value);
                    self.0 = Repr::Spilled(spill);
                }
            }
            Repr::Spilled(v) => v.push(value),
        }
    }

    /// Appends every entry of `items`.
    pub fn extend_from_slice(&mut self, items: &[T], pool: &mut PayloadPool<T>) {
        for &item in items {
            self.push(item, pool);
        }
    }

    /// A copy of this buffer whose spill storage (if any) comes from
    /// the pool — the allocation-free replacement for `.clone()` on hot
    /// paths.
    pub fn clone_in(&self, pool: &mut PayloadPool<T>) -> Self {
        match &self.0 {
            Repr::Inline { .. } => PayloadBuf(self.0.clone()),
            Repr::Spilled(v) => {
                let mut spill = pool.take();
                spill.extend_from_slice(v);
                PayloadBuf(Repr::Spilled(spill))
            }
        }
    }

    /// Consumes the buffer, returning any spill storage to the pool.
    /// Inline buffers are free to drop, so this is a no-op for them;
    /// handlers call it unconditionally once a payload is consumed.
    pub fn recycle(self, pool: &mut PayloadPool<T>) {
        if let Repr::Spilled(v) = self.0 {
            pool.put(v);
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for PayloadBuf<T, N> {
    fn default() -> Self {
        PayloadBuf::new()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for PayloadBuf<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for PayloadBuf<T, N> {}

/// Running counters a [`PayloadPool`] keeps about its own traffic
/// (pool health diagnostics next to the allocator counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Spill vectors handed out, total.
    pub taken: u64,
    /// Of those, how many were reused from the free list (the rest were
    /// fresh allocations).
    pub reused: u64,
    /// Spill vectors returned to the free list.
    pub recycled: u64,
    /// Returned vectors dropped because the free list was full.
    pub discarded: u64,
}

/// A LIFO free list of spill vectors, owned by the [`crate::Network`]
/// and threaded through every [`PayloadBuf`] operation that may need
/// heap storage. Once warm, spills recycle instead of allocating.
#[derive(Debug, Default)]
pub struct PayloadPool<T> {
    // Boxed so a vector parks and leaves the free list without its
    // 3-word header moving; the box is what `Repr::Spilled` stores.
    #[expect(clippy::vec_box, reason = "the box is what `Repr::Spilled` stores")]
    free: Vec<Box<Vec<T>>>,
    stats: PoolStats,
}

impl<T> PayloadPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool {
            free: Vec::new(),
            stats: PoolStats::default(),
        }
    }

    /// Hands out an empty vector, reusing a recycled one when possible.
    pub fn take(&mut self) -> Box<Vec<T>> {
        self.stats.taken += 1;
        match self.free.pop() {
            Some(v) => {
                self.stats.reused += 1;
                v
            }
            None => Box::new(Vec::new()),
        }
    }

    /// Returns a vector to the free list; beyond [`MAX_POOLED`]
    /// retained vectors, the excess is freed.
    pub fn put(&mut self, mut v: Box<Vec<T>>) {
        if self.free.len() >= MAX_POOLED {
            self.stats.discarded += 1;
            return;
        }
        v.clear();
        self.stats.recycled += 1;
        self.free.push(v);
    }

    /// Number of vectors currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// The pool's traffic counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Buf = PayloadBuf<u32, 4>;

    #[test]
    fn inline_payloads_never_spill() {
        let mut pool = PayloadPool::new();
        let mut buf = Buf::new();
        assert!(buf.is_empty());
        for i in 0..4 {
            buf.push(i, &mut pool);
        }
        assert_eq!(buf.as_slice(), &[0, 1, 2, 3]);
        assert!(!buf.spilled());
        assert_eq!(pool.stats().taken, 0, "inline pushes must not hit the pool");
        buf.recycle(&mut pool);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn the_buffer_stays_one_word_of_the_vec_it_replaces() {
        use std::mem::size_of;
        // The whole point of the enum repr: a wheel entry carrying the
        // default inline buffer must not balloon past Vec + one word.
        assert!(
            size_of::<PayloadBuf<u32, PAYLOAD_INLINE>>() <= size_of::<Vec<u32>>() + 8,
            "PayloadBuf grew to {} bytes",
            size_of::<PayloadBuf<u32, PAYLOAD_INLINE>>()
        );
    }

    #[test]
    fn the_fifth_entry_spills_and_keeps_order() {
        let mut pool = PayloadPool::new();
        let mut buf = Buf::new();
        buf.extend_from_slice(&[10, 11, 12, 13, 14, 15], &mut pool);
        assert!(buf.spilled());
        assert_eq!(buf.as_slice(), &[10, 11, 12, 13, 14, 15]);
        assert_eq!(buf.len(), 6);
        assert_eq!(pool.stats().taken, 1);
    }

    #[test]
    fn recycled_spills_are_reused() {
        let mut pool = PayloadPool::new();
        let mut a = Buf::new();
        a.extend_from_slice(&[1, 2, 3, 4, 5], &mut pool);
        a.recycle(&mut pool);
        assert_eq!(pool.idle(), 1);
        let mut b = Buf::new();
        b.extend_from_slice(&[9, 8, 7, 6, 5, 4], &mut pool);
        assert_eq!(b.as_slice(), &[9, 8, 7, 6, 5, 4]);
        let s = pool.stats();
        assert_eq!((s.taken, s.reused), (2, 1), "second spill reuses the first");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn clone_in_copies_inline_and_spilled_buffers() {
        let mut pool = PayloadPool::new();
        let mut small = Buf::new();
        small.extend_from_slice(&[1, 2], &mut pool);
        let small2 = small.clone_in(&mut pool);
        assert_eq!(small, small2);
        assert_eq!(pool.stats().taken, 0);

        let mut big = Buf::new();
        big.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7], &mut pool);
        let big2 = big.clone_in(&mut pool);
        assert_eq!(big, big2);
        assert_eq!(big2.as_slice(), &[1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn equality_ignores_storage_location() {
        let mut pool = PayloadPool::new();
        let mut spilled = PayloadBuf::<u32, 2>::new();
        spilled.extend_from_slice(&[1, 2, 3], &mut pool);
        let mut inline = PayloadBuf::<u32, 8>::new();
        inline.extend_from_slice(&[1, 2, 3], &mut pool);
        assert_eq!(spilled.as_slice(), inline.as_slice());
    }

    #[test]
    fn the_free_list_is_bounded() {
        let mut pool: PayloadPool<u32> = PayloadPool::new();
        for _ in 0..(MAX_POOLED + 10) {
            pool.put(Box::new(Vec::with_capacity(8)));
        }
        assert_eq!(pool.idle(), MAX_POOLED);
        assert_eq!(pool.stats().discarded, 10);
    }
}
