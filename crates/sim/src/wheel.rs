//! A hierarchical timer wheel: the kernel's event scheduler.
//!
//! The [`Network`](crate::Network) event loop used to run on one global
//! `BinaryHeap`, paying `O(log n)` cache-hostile sift operations per
//! event with hundreds of thousands of pending maintenance timers at
//! large overlay sizes. This wheel makes push and pop `O(1)` amortized
//! by exploiting what a discrete-event simulation knows about its own
//! time: microsecond ticks, monotone `now`, and bounded horizons.
//!
//! # Layout
//!
//! Six levels of 256 slots each. A pending event's level is the highest
//! bit at which its due time differs from `now` (8 bits per level), so
//! level `L` slots are `256^L` µs wide and the wheel spans `2^48` µs
//! (≈ 8.9 simulated years). Wide levels keep cascades rare: an entry
//! pays one memcpy per level it descends through, and at 8 bits the
//! common delay classes — tens-of-ms message latencies, seconds-scale
//! maintenance timers — sit one level lower than a 64-slot wheel would
//! put them. A level-0 slot is one µs wide, so it holds one tick's
//! entries bare; only higher slots store a due time beside each entry.
//! Events beyond the horizon go to a small overflow `BinaryHeap` — the
//! heap fallback for far-future events — and migrate into the wheel as
//! `now` approaches them. Per-level occupancy bitmaps (four `u64` words
//! each) make "find the next occupied slot" a handful of bit
//! instructions; empty stretches of virtual time cost nothing to skip.
//!
//! # Determinism contract
//!
//! Pops reproduce the old heap's global `(due, seq)` order **exactly**:
//!
//! * Any two entries with the same due time traverse identical wheel
//!   paths (their slot assignments depend only on `(now, due)`), so
//!   per-slot buffers stay in push order and cascades preserve relative
//!   order. Only the overflow heap needs an explicit sequence number.
//! * A tick leaves the wheel in one piece: [`TimerWheel::take_tick`]
//!   swaps its level-0 slot with the caller's empty buffer. Entries due
//!   exactly `now` that did not come through a level-0 slot — zero-delay
//!   pushes, cascades landing on `now`, overflow arrivals — queue in
//!   `current` behind the tick, in push order (FIFO within a tick).
//! * Overflow entries migrate as soon as the clock brings them within
//!   the horizon, before any push at that clock, so the two stores never
//!   interleave within a tick.
//!
//! `fig10_lookup_cost` and the perturbation figures are byte-identical
//! under either scheduler; the wheel changes speed, not results.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// Bits per wheel level: 256 slots. Wider levels mean fewer cascades
/// per entry — the dominant wheel cost is the memcpy an entry pays at
/// each level it descends through, and at 8 bits the common delay
/// classes (tens-of-ms message latencies, single-digit-second
/// maintenance timers) land one whole level lower than they would at
/// 6 bits.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// `u64` words per per-level occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Number of levels; the wheel spans `2^(8*LEVELS)` µs from `now`
/// (≈ 8.9 simulated years).
const LEVELS: usize = 6;
/// Largest buffer capacity kept alive after a drain: a slot's,
/// `current`'s, and the one a caller gives back to
/// [`TimerWheel::take_tick`] in exchange for a tick. High-level slots
/// are wide (a level-3 slot spans ≈ 16.8 simulated seconds) and
/// transiently collect tens of thousands of entries before cascading
/// them down, and one tick of a multi-path insert wave is 25 000 events;
/// retaining every such high-water allocation across the wheel's
/// rotation is the difference between a working set proportional to
/// *pending entries* and one proportional to *entries ever enqueued per
/// rotation* (gigabytes at million-node scale). Small buffers are kept —
/// reallocating the hot low-level slots every rotation would put
/// allocator traffic back on the message plane.
const SLOT_KEEP_CAP: usize = 1024;

/// An entry of a slot above level 0, which needs its due time to
/// cascade.
struct Entry<V> {
    at: u64,
    item: V,
}

/// An entry beyond the horizon, ordered by `(at, seq)` like the old
/// heap.
struct OverflowEntry<V> {
    at: u64,
    seq: u64,
    item: V,
}

impl<V> PartialEq for OverflowEntry<V> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<V> Eq for OverflowEntry<V> {}
impl<V> PartialOrd for OverflowEntry<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V> Ord for OverflowEntry<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The hierarchical timer wheel (see the module docs).
pub(crate) struct TimerWheel<V> {
    /// The wheel clock (µs). Never exceeds the due time of any pending
    /// entry.
    now: u64,
    /// Monotone sequence counter of overflow pushes (FIFO tiebreak).
    seq: u64,
    /// Total pending entries across slots, `current`, and overflow.
    len: usize,
    /// The `SLOTS` level-0 slots: each is one tick, in push order.
    ticks: Vec<Vec<V>>,
    /// The `(LEVELS - 1) * SLOTS` slots of levels 1 and up, level-major.
    slots: Vec<Vec<Entry<V>>>,
    /// Per-level occupancy bitmaps, `WORDS` words per level.
    occupied: [[u64; WORDS]; LEVELS],
    /// Entries due exactly `now` that did not come through a level-0
    /// slot, or the rest of a tick being popped one at a time; in push
    /// order, popped from the front.
    current: VecDeque<V>,
    /// Entries beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<OverflowEntry<V>>>,
}

/// The wheel level for an entry due at `at` when the clock reads `now`,
/// or `LEVELS` and beyond for overflow. Depends only on `(now, at)`, so
/// same-due entries always share slot paths (the determinism contract).
fn level_for(now: u64, at: u64) -> usize {
    debug_assert!(at > now, "level_for needs a strictly future due time");
    let highest_bit = 63 - (at ^ now).leading_zeros();
    (highest_bit / LEVEL_BITS) as usize
}

impl<V> TimerWheel<V> {
    pub(crate) fn new() -> Self {
        TimerWheel {
            now: 0,
            seq: 0,
            len: 0,
            ticks: (0..SLOTS).map(|_| Vec::new()).collect(),
            slots: (SLOTS..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [[0; WORDS]; LEVELS],
            current: VecDeque::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Number of pending entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The wheel clock, in µs.
    #[cfg(test)]
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `item` at absolute time `at` (µs).
    pub(crate) fn push(&mut self, at: u64, item: V) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.len += 1;
        self.place(at, item);
    }

    /// Files an entry due at `at >= now`: behind everything already due
    /// now, into its slot, or into the overflow heap.
    fn place(&mut self, at: u64, item: V) {
        if at == self.now {
            self.current.push_back(item);
            return;
        }
        let level = level_for(self.now, at);
        if level >= LEVELS {
            let seq = self.seq;
            self.seq += 1;
            self.overflow.push(Reverse(OverflowEntry { at, seq, item }));
            return;
        }
        let slot = ((at >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        if level == 0 {
            self.ticks[slot].push(item);
        } else {
            self.slots[(level - 1) * SLOTS + slot].push(Entry { at, item });
        }
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// The lowest occupied slot at `level`, scanning the level's
    /// occupancy words (a handful of bit instructions).
    fn first_occupied(&self, level: usize) -> Option<usize> {
        for (w, &word) in self.occupied[level].iter().enumerate() {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Advances the wheel clock without popping (the caller verified no
    /// entry is due at or before `to`). Slot positions left stale by the
    /// jump are re-cascaded lazily by the next pop.
    pub(crate) fn set_now(&mut self, to: u64) {
        debug_assert!(to >= self.now, "clock must be monotone");
        debug_assert!(self.current.is_empty(), "current tick undrained");
        self.advance(to);
    }

    /// Moves the clock to `to` and migrates the overflow entries that
    /// came within the horizon, so a push at the new clock lands behind
    /// them.
    fn advance(&mut self, to: u64) {
        self.now = to;
        while let Some(Reverse(head)) = self.overflow.peek() {
            if head.at > self.now && level_for(self.now, head.at) >= LEVELS {
                break;
            }
            let Some(Reverse(OverflowEntry { at, item, .. })) = self.overflow.pop() else {
                unreachable!("peeked above");
            };
            self.place(at, item);
        }
    }

    /// Moves the clock to the earliest pending tick if it is due by
    /// `limit`, and returns `false` (the clock not past `limit`) if none
    /// is. The tick is then `current` if that is non-empty, else the
    /// whole level-0 slot at `now`.
    fn seek(&mut self, limit: u64) -> bool {
        loop {
            if !self.current.is_empty() {
                return self.now <= limit;
            }
            // Find the lowest occupied level.
            let Some((level, slot)) = (0..LEVELS).find_map(|l| Some((l, self.first_occupied(l)?)))
            else {
                // Wheel empty: the overflow heap (all beyond the
                // horizon) holds the earliest entries, if any; arriving,
                // they fill `current` in `(at, seq)` order.
                match self.overflow.peek() {
                    Some(Reverse(head)) if head.at <= limit => self.advance(head.at),
                    _ => return false,
                }
                continue;
            };

            let shift = LEVEL_BITS * level as u32;
            let pos = ((self.now >> shift) & (SLOTS as u64 - 1)) as usize;
            debug_assert!(slot >= pos, "an occupied slot fell behind the clock");

            if level > 0 && slot == pos {
                // A clock jump (deadline advance) left this slot at the
                // current position holding entries that now belong at a
                // lower level: cascade them without moving the clock.
                self.cascade(level, slot);
                continue;
            }

            // Base time of the slot: the clock's bits above the level,
            // the slot index at the level, zeros below.
            let above = if shift + LEVEL_BITS >= 64 {
                0
            } else {
                (self.now >> (shift + LEVEL_BITS)) << (shift + LEVEL_BITS)
            };
            let base = above | ((slot as u64) << shift);
            if base > limit {
                return false;
            }
            debug_assert!(base > self.now);
            self.advance(base);
            if level == 0 {
                debug_assert!(self.current.is_empty(), "a tick split across stores");
                return true;
            }
            self.cascade(level, slot);
        }
    }

    /// Hands the tick [`Self::seek`] found out in exchange for `spare`,
    /// an empty buffer that takes its place (or is freed, if larger than
    /// [`SLOT_KEEP_CAP`]). No entry is moved.
    fn swap_tick(&mut self, spare: Vec<V>) -> Vec<V> {
        let spare = bounded_keep(spare);
        if !self.current.is_empty() {
            return Vec::from(mem::replace(&mut self.current, VecDeque::from(spare)));
        }
        let slot = (self.now % SLOTS as u64) as usize;
        self.occupied[0][slot / 64] &= !(1 << (slot % 64));
        mem::replace(&mut self.ticks[slot], spare)
    }

    /// Pops the next entry due at or before `limit`, advancing the wheel
    /// clock to its due time; `None`, with the clock not past `limit`,
    /// if there is none.
    pub(crate) fn pop_before(&mut self, limit: u64) -> Option<(u64, V)> {
        if !self.seek(limit) {
            return None;
        }
        if self.current.is_empty() {
            let spare = Vec::from(mem::take(&mut self.current));
            self.current = VecDeque::from(self.swap_tick(spare));
        }
        let item = self.current.pop_front().expect("seek found a tick");
        self.len -= 1;
        Some((self.now, item))
    }

    /// Takes every entry of the next tick due at or before `limit` into
    /// `out` (which must be empty) and returns the tick's time, the new
    /// wheel clock; `None`, with the clock not past `limit`, if there is
    /// none. The tick's buffer becomes `out` and `out`'s old one takes
    /// its place, so a tick costs no copy however many entries it holds.
    /// Entries pushed at the returned time while the caller handles the
    /// tick make up the next one.
    pub(crate) fn take_tick(&mut self, limit: u64, out: &mut Vec<V>) -> Option<u64> {
        debug_assert!(out.is_empty(), "take_tick into an undrained buffer");
        // An oversized buffer goes before the seek's cascades allocate.
        *out = bounded_keep(mem::take(out));
        if !self.seek(limit) {
            return None;
        }
        *out = self.swap_tick(mem::take(out));
        self.len -= out.len();
        Some(self.now)
    }

    /// Re-files every entry of `(level, slot)` relative to the current
    /// clock; each lands at a strictly lower level (or `current`).
    fn cascade(&mut self, level: usize, slot: usize) {
        let idx = (level - 1) * SLOTS + slot;
        let mut pending = mem::take(&mut self.slots[idx]);
        self.occupied[level][slot / 64] &= !(1 << (slot % 64));
        for Entry { at, item } in pending.drain(..) {
            debug_assert!(at == self.now || level_for(self.now, at) < level);
            self.place(at, item);
        }
        self.slots[idx] = bounded_keep(pending);
    }
}

/// Returns a drained buffer for reuse, unless its high-water capacity
/// exceeds [`SLOT_KEEP_CAP`] (see there for why oversized buffers must
/// be released).
fn bounded_keep<E>(buf: Vec<E>) -> Vec<E> {
    debug_assert!(buf.is_empty());
    if buf.capacity() > SLOT_KEEP_CAP {
        Vec::new()
    } else {
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference model: the old BinaryHeap scheduler.
    struct HeapModel {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, at: u64, item: u32) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq, item)));
        }
        fn pop_before(&mut self, limit: u64) -> Option<(u64, u32)> {
            match self.heap.peek() {
                None => None,
                Some(&Reverse((at, _, _))) if at > limit => None,
                Some(_) => {
                    let Reverse((at, _, item)) = self.heap.pop().expect("peeked");
                    Some((at, item))
                }
            }
        }
        /// The run of entries sharing the earliest due time, if that is
        /// at or before `limit`.
        fn take_tick(&mut self, limit: u64) -> Option<(u64, Vec<u32>)> {
            let (at, first) = self.pop_before(limit)?;
            let mut tick = vec![first];
            while let Some(&Reverse((next, _, _))) = self.heap.peek() {
                if next != at {
                    break;
                }
                tick.push(self.pop_before(at).expect("peeked").1);
            }
            Some((at, tick))
        }
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(50, 1);
        w.push(10, 2);
        w.push(50, 3);
        w.push(10, 4);
        let mut got = Vec::new();
        while let Some(popped) = w.pop_before(u64::MAX) {
            got.push(popped);
        }
        assert_eq!(got, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn same_tick_pushes_during_drain_stay_fifo() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(10, 1);
        w.push(10, 2);
        assert_eq!(w.pop_before(u64::MAX), Some((10, 1)));
        // A zero-delay push lands on the tick being drained, after the
        // entries already buffered.
        w.push(10, 3);
        let mut rest = Vec::new();
        while let Some((_, item)) = w.pop_before(u64::MAX) {
            rest.push(item);
        }
        assert_eq!(rest, vec![2, 3]);
    }

    #[test]
    fn later_when_everything_is_past_the_limit() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(1_000_000, 1);
        assert_eq!(w.pop_before(10), None);
        // The clock never passed the limit.
        assert!(w.now() <= 10);
        w.set_now(10);
        assert_eq!(w.pop_before(999_999), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_before(1_000_000), Some((1_000_000, 1)));
        assert_eq!(w.pop_before(u64::MAX), None);
    }

    #[test]
    fn overflow_events_round_trip() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let far = 1u64 << 50; // beyond the 2^48 horizon
        w.push(far, 7);
        w.push(far, 8);
        w.push(3, 9);
        assert_eq!(w.pop_before(u64::MAX), Some((3, 9)));
        assert_eq!(w.pop_before(u64::MAX), Some((far, 7)));
        assert_eq!(w.pop_before(u64::MAX), Some((far, 8)));
        assert_eq!(w.pop_before(u64::MAX), None);
    }

    #[test]
    fn deadline_jumps_do_not_lose_or_reorder_entries() {
        // Regression shape for the stale-slot case: an entry at level 1,
        // then a clock jump that makes its slot the current position.
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(130, 1); // level 1, slot 2 relative to now = 0
        w.set_now(128); // pos_1(128) = 2: the slot is now "current"
        assert_eq!(w.pop_before(129), None);
        assert_eq!(w.pop_before(200), Some((130, 1)));
    }

    #[test]
    fn take_tick_takes_only_the_tick() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(10, 1);
        w.push(10, 2);
        w.push(20, 3);
        assert_eq!(w.pop_before(u64::MAX), Some((10, 1)));
        // The rest of a tick begun by single pops, then a zero-delay
        // push behind it.
        w.push(10, 4);
        let mut tick = Vec::new();
        assert_eq!(w.take_tick(u64::MAX, &mut tick), Some(10));
        assert_eq!(tick, vec![2, 4]);
        tick.clear();
        assert_eq!(w.take_tick(19, &mut tick), None); // 20 is a later tick
        assert_eq!(w.take_tick(u64::MAX, &mut tick), Some(20));
        assert_eq!(tick, vec![3]);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn a_tick_is_handed_over_in_its_slots_own_allocation() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..5 {
            w.push(10, i);
        }
        let slot = w.ticks[10].as_ptr();
        let mut tick = Vec::new();
        assert_eq!(w.take_tick(u64::MAX, &mut tick), Some(10));
        assert_eq!(tick, vec![0, 1, 2, 3, 4]);
        assert_eq!(tick.as_ptr(), slot, "the tick was copied, not handed over");

        // A buffer handed back above the cap is freed, not kept in the
        // slot it is swapped into.
        for i in 0..2 * SLOT_KEEP_CAP as u32 {
            w.push(20, i);
        }
        w.push(30, 0);
        tick.clear();
        assert_eq!(w.take_tick(u64::MAX, &mut tick), Some(20));
        assert!(tick.capacity() > SLOT_KEEP_CAP);
        tick.clear();
        assert_eq!(w.take_tick(u64::MAX, &mut tick), Some(30));
        assert_eq!(w.ticks[30].capacity(), 0, "an oversized buffer was kept");
    }

    #[test]
    fn overflow_entries_stay_ahead_of_later_pushes_for_their_tick() {
        let far = 1u64 << 48; // the horizon seen from 0
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.push(far, 1);
        w.push(far + 100, 2); // beyond the horizon now, within it from `far`
        assert_eq!(w.pop_before(u64::MAX), Some((far, 1)));
        w.push(far + 100, 3);
        assert_eq!(w.pop_before(u64::MAX), Some((far + 100, 2)));
        assert_eq!(w.pop_before(u64::MAX), Some((far + 100, 3)));
    }

    /// Pops one entry or takes a whole tick, at random, checks it
    /// against the model, and returns the due time if anything was due.
    fn step(
        rng: &mut SmallRng,
        wheel: &mut TimerWheel<u32>,
        model: &mut HeapModel,
        limit: u64,
    ) -> Option<u64> {
        if rng.gen_bool(0.5) {
            let got = wheel.pop_before(limit);
            assert_eq!(got, model.pop_before(limit), "pop diverged");
            got.map(|(at, _)| at)
        } else {
            let mut tick = Vec::new();
            let got = wheel.take_tick(limit, &mut tick).map(|at| (at, tick));
            assert_eq!(got, model.take_tick(limit), "take diverged");
            got.map(|(at, _)| at)
        }
    }

    #[test]
    fn differential_against_the_heap_model() {
        let mut rng = SmallRng::seed_from_u64(0xa11ce);
        for round in 0..50u64 {
            let mut wheel: TimerWheel<u32> = TimerWheel::new();
            let mut model = HeapModel::new();
            // Odd rounds cross the 2^48 µs horizon seen from 0.
            let mut now = (round % 2) * ((1 << 48) - 1_000_000);
            wheel.set_now(now);
            let mut next_item = 0u32;
            for _ in 0..400 {
                if rng.gen_range(0u8..10) < 6 {
                    // Push with a mix of near, far, and same-tick delays.
                    let delay = match rng.gen_range(0u8..4) {
                        0 => 0,
                        1 => rng.gen_range(0..100),
                        2 => rng.gen_range(0..1_000_000),
                        _ => rng.gen_range(0..(1u64 << 45)),
                    };
                    wheel.push(now + delay, next_item);
                    model.push(now + delay, next_item);
                    next_item += 1;
                } else {
                    // A random deadline (sometimes a pure jump).
                    let limit = now + rng.gen_range(0u64..2_000_000);
                    match step(&mut rng, &mut wheel, &mut model, limit) {
                        Some(at) => now = at,
                        None => {
                            if limit > now {
                                now = limit;
                                wheel.set_now(limit);
                            }
                        }
                    }
                }
                assert_eq!(wheel.len(), model.heap.len(), "round {round} length");
            }
            // Full drain must agree to the end.
            while step(&mut rng, &mut wheel, &mut model, u64::MAX).is_some() {
                assert_eq!(wheel.len(), model.heap.len(), "round {round} length");
            }
            assert_eq!(wheel.len(), 0);
        }
    }
}
