//! 160-bit modular arithmetic on [`Id`]s.
//!
//! Pastry's leaf set and "numerically closest" tests treat IDs as unsigned
//! integers on a ring of size 2^160. We represent an ID for arithmetic as
//! a `(u32, u128)` pair (high 32 bits, low 128 bits).

use crate::id::{Id, ID_BYTES};

fn split(id: Id) -> (u32, u128) {
    let b = id.to_bytes();
    let hi = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
    let mut lo_bytes = [0u8; 16];
    lo_bytes.copy_from_slice(&b[4..]);
    (hi, u128::from_be_bytes(lo_bytes))
}

fn join(hi: u32, lo: u128) -> Id {
    let mut out = [0u8; ID_BYTES];
    out[..4].copy_from_slice(&hi.to_be_bytes());
    out[4..].copy_from_slice(&lo.to_be_bytes());
    Id::from_bytes(out)
}

/// `a + b` modulo 2^160.
pub fn wrapping_add(a: Id, b: Id) -> Id {
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let (lo, carry) = al.overflowing_add(bl);
    let hi = ah.wrapping_add(bh).wrapping_add(u32::from(carry));
    join(hi, lo)
}

/// `a - b` modulo 2^160.
pub fn wrapping_sub(a: Id, b: Id) -> Id {
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let (lo, borrow) = al.overflowing_sub(bl);
    let hi = ah.wrapping_sub(bh).wrapping_sub(u32::from(borrow));
    join(hi, lo)
}

/// The clockwise offset `to - from` modulo 2^160, as native integers:
/// the high 128 bits and the low 32 bits. The pair orders as the 160-bit
/// offset does, and it is computed from the IDs' big-endian words with
/// no round trip through bytes, so a leaf set can binary-search its
/// sides by offset at the cost of one subtraction per probe.
#[inline]
pub fn clockwise_offset(from: Id, to: Id) -> (u128, u32) {
    let (fh, fm, fl) = from.words();
    let (th, tm, tl) = to.words();
    let (lo, borrow) = tl.overflowing_sub(fl);
    let high = |h: u64, m: u64| (u128::from(h) << 64) | u128::from(m);
    let hi = high(th, tm)
        .wrapping_sub(high(fh, fm))
        .wrapping_sub(u128::from(borrow));
    (hi, lo)
}

/// Absolute numeric distance `|a - b|` (no wraparound).
pub fn numeric_distance(a: Id, b: Id) -> Id {
    if a >= b {
        wrapping_sub(a, b)
    } else {
        wrapping_sub(b, a)
    }
}

/// Ring distance: `min(a - b mod 2^160, b - a mod 2^160)`.
///
/// This is the metric Pastry uses to decide which leaf-set member is
/// numerically closest to a key.
pub fn ring_distance(a: Id, b: Id) -> Id {
    let d1 = wrapping_sub(a, b);
    let d2 = wrapping_sub(b, a);
    if d1 <= d2 {
        d1
    } else {
        d2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_sub_small_values() {
        let a = Id::from_low_u64(100);
        let b = Id::from_low_u64(42);
        assert_eq!(wrapping_add(a, b), Id::from_low_u64(142));
        assert_eq!(wrapping_sub(a, b), Id::from_low_u64(58));
    }

    #[test]
    fn sub_wraps_around() {
        let a = Id::from_low_u64(1);
        let b = Id::from_low_u64(2);
        // 1 - 2 mod 2^160 = 2^160 - 1 = MAX.
        assert_eq!(wrapping_sub(a, b), Id::MAX);
        assert_eq!(wrapping_add(Id::MAX, Id::from_low_u64(1)), Id::ZERO);
    }

    #[test]
    fn carry_propagates_across_the_128_bit_boundary() {
        // lo = all ones, +1 must carry into the high 32 bits.
        let mut bytes = [0xffu8; ID_BYTES];
        bytes[..4].copy_from_slice(&[0, 0, 0, 0]);
        let a = Id::from_bytes(bytes);
        let one = Id::from_low_u64(1);
        let sum = wrapping_add(a, one);
        let sb = sum.to_bytes();
        assert_eq!(&sb[..4], &[0, 0, 0, 1]);
        assert!(sb[4..].iter().all(|&x| x == 0));
    }

    #[test]
    fn numeric_distance_is_symmetric() {
        let a = Id::from_low_u64(7);
        let b = Id::from_low_u64(19);
        assert_eq!(numeric_distance(a, b), numeric_distance(b, a));
        assert_eq!(numeric_distance(a, b), Id::from_low_u64(12));
        assert_eq!(numeric_distance(a, a), Id::ZERO);
    }

    #[test]
    fn ring_distance_takes_the_short_way() {
        // ZERO and MAX are adjacent on the ring.
        assert_eq!(ring_distance(Id::ZERO, Id::MAX), Id::from_low_u64(1));
        let a = Id::from_low_u64(10);
        let b = Id::from_low_u64(20);
        assert_eq!(ring_distance(a, b), Id::from_low_u64(10));
    }

    #[test]
    fn clockwise_offset_is_wrapping_sub_without_bytes() {
        let offset = |id: Id| {
            let b = id.to_bytes();
            let mut hi = [0u8; 16];
            hi.copy_from_slice(&b[..16]);
            let lo = u32::from_be_bytes([b[16], b[17], b[18], b[19]]);
            (u128::from_be_bytes(hi), lo)
        };
        let mut rng = SmallRng::seed_from_u64(9);
        let one = Id::from_low_u64(1);
        let mut ids = vec![Id::ZERO, Id::MAX, one, Id::from_low_u64(u64::MAX)];
        ids.extend((0..16).map(|_| Id::random(&mut rng)));
        // Borrows out of the low word: the low 32 bits of `to` below
        // those of `from`.
        ids.push(Id::from_low_u64(0x1_0000_0000));
        ids.push(Id::from_low_u64(0xffff_ffff));
        for &a in &ids {
            for &b in &ids {
                assert_eq!(
                    clockwise_offset(a, b),
                    offset(wrapping_sub(b, a)),
                    "{a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn random_add_sub_round_trip() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            let a = Id::random(&mut rng);
            let b = Id::random(&mut rng);
            assert_eq!(wrapping_sub(wrapping_add(a, b), b), a);
            assert_eq!(wrapping_add(wrapping_sub(a, b), b), a);
        }
    }
}
