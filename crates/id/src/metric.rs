//! Routing metrics over [`Id`]s.
//!
//! The MPIL metric (Section 4.1 of the paper) counts the digits two IDs
//! share *at the same positions* — the number of zero digits of their XOR.
//! For contrast we also provide prefix/suffix match lengths (what Pastry
//! and Tapestry route on) and the Kademlia XOR distance; Section 4.2 argues
//! the common-digit metric distinguishes neighbors far better than prefix
//! matching on arbitrary overlays, and the ablation benches quantify that.

use crate::id::{Id, ID_BITS};

/// Counts digits (width `digit_bits`) equal at the same positions.
///
/// This is the MPIL routing metric. A higher value means "closer".
///
/// It is evaluated once per neighbor per routing step, so it works on
/// words, not digits: the XOR of the two IDs is read as two `u64` and
/// one `u32`, and every non-zero digit of it is folded down to one
/// marker bit (its lowest). For binary digits the three words are
/// counted as they are. For wider digits the three marker words are
/// *added*: each `W`-bit digit position of the sum is a lane holding
/// how many of the three words differ there, at most 3, and a lane is at
/// least two bits wide, so no lane carries into the next. One SWAR lane
/// sum (`lane_sum`) then counts the differing digits of all three
/// words at once, where a population count per word is a SWAR sequence
/// of its own on a target without `popcnt` (the default x86-64 one). No
/// digit straddles a byte and the count does not care where in a word
/// a byte sits, so the words are loaded in the machine's own byte
/// order.
///
/// ```
/// use mpil_id::{common_digits, Id};
/// // 1001 vs 1011 in base-2: bits differ only at one position.
/// let a = Id::from_low_u64(0b1001);
/// let b = Id::from_low_u64(0b1011);
/// assert_eq!(common_digits(a, b, 1), 159);
/// ```
///
/// # Panics
///
/// Panics if `digit_bits` is not one of 1, 2, 4, 8.
#[inline]
pub fn common_digits(a: Id, b: Id, digit_bits: u8) -> u32 {
    let [x0, x1, x2] = xor_words(&a, &b);
    let differing = match digit_bits {
        1 => x0.count_ones() + x1.count_ones() + x2.count_ones(),
        2 => lane_sum::<2>(markers::<2>(x0) + markers::<2>(x1) + markers::<2>(x2)),
        4 => lane_sum::<4>(markers::<4>(x0) + markers::<4>(x1) + markers::<4>(x2)),
        8 => lane_sum::<8>(markers::<8>(x0) + markers::<8>(x1) + markers::<8>(x2)),
        other => panic!("unsupported digit width {other}"),
    };
    ID_BITS as u32 / u32::from(digit_bits) - differing
}

/// `a ^ b` as three native-endian words: bytes 0–7, 8–15 and 16–19 (the
/// last zero-extended).
#[inline]
fn xor_words(a: &Id, b: &Id) -> [u64; 3] {
    let load = |id: &Id| {
        let b = id.as_bytes();
        [
            u64::from_ne_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            u64::from_ne_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
            u64::from(u32::from_ne_bytes([b[16], b[17], b[18], b[19]])),
        ]
    };
    let (a, b) = (load(a), load(b));
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]]
}

/// The lowest bit of every non-zero `W`-bit digit of `x`, all else clear.
///
/// ORing `x` with itself shifted right by 1, 2, .. `W / 2` gathers each
/// digit's bits in its lowest one; what leaks in from the digit above
/// lands only in the higher bits, which the mask drops.
#[inline]
fn markers<const W: u32>(mut x: u64) -> u64 {
    let mut shift = 1;
    while shift < W {
        x |= x >> shift;
        shift *= 2;
    }
    // 0x5555.., 0x1111.., 0x0101..: bit 0 of every W-bit digit.
    x & (u64::MAX / ((1 << W) - 1))
}

/// The sum of the `W`-bit lanes of `x` (`W` one of 2, 4, 8), each lane
/// holding at most 3.
///
/// 2-bit lanes are added pairwise into 4-bit lanes (at most 6), 4-bit
/// lanes pairwise into bytes (at most 12), and one multiply by
/// `0x0101..01` adds every byte into the top one: at most 32 lanes of 3,
/// so 96 fits there too.
#[inline]
fn lane_sum<const W: u32>(mut x: u64) -> u32 {
    if W == 2 {
        x = (x & 0x3333_3333_3333_3333) + (x >> 2 & 0x3333_3333_3333_3333);
    }
    if W <= 4 {
        x = (x + (x >> 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    }
    (x.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

/// Length of the shared prefix, in digits of width `digit_bits`.
///
/// This is what Pastry's prefix routing uses (with `digit_bits = 4` for its
/// default `b = 4` configuration).
///
/// # Panics
///
/// Panics if `digit_bits` is not one of 1, 2, 4, 8.
pub fn prefix_match_digits(a: Id, b: Id, digit_bits: u8) -> u32 {
    assert!(
        matches!(digit_bits, 1 | 2 | 4 | 8),
        "unsupported digit width"
    );
    (a ^ b).leading_zeros() / u32::from(digit_bits)
}

/// Length of the shared suffix, in digits of width `digit_bits`.
///
/// Tapestry-style routing matches suffixes; included for the metric
/// ablation experiments.
///
/// # Panics
///
/// Panics if `digit_bits` is not one of 1, 2, 4, 8.
pub fn suffix_match_digits(a: Id, b: Id, digit_bits: u8) -> u32 {
    assert!(
        matches!(digit_bits, 1 | 2 | 4 | 8),
        "unsupported digit width"
    );
    (a ^ b).trailing_zeros() / u32::from(digit_bits)
}

/// The Kademlia XOR distance between two IDs (lower is closer).
///
/// Returned as an [`Id`] whose numeric (big-endian) ordering is the
/// distance ordering.
pub fn xor_distance(a: Id, b: Id) -> Id {
    a ^ b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ID_BYTES;

    #[test]
    fn paper_example_base2() {
        // Fig. 3: 1001 vs 1011 in a 4-bit space has metric 3. Our space is
        // 160-bit, so the other 156 bits also match: 159 total.
        let a = Id::from_low_u64(0b1001);
        let b = Id::from_low_u64(0b1011);
        assert_eq!(common_digits(a, b, 1), 159);
        // 1001 vs 0010: bits differ at positions 0,1,2... 1001^0010=1011,
        // three ones -> 157 zero bits.
        let c = Id::from_low_u64(0b0010);
        assert_eq!(common_digits(a, c, 1), 157);
    }

    #[test]
    fn identical_ids_match_everywhere() {
        let a = Id::from_low_u64(0xabcdef);
        assert_eq!(common_digits(a, a, 1), 160);
        assert_eq!(common_digits(a, a, 2), 80);
        assert_eq!(common_digits(a, a, 4), 40);
        assert_eq!(common_digits(a, a, 8), 20);
    }

    #[test]
    fn complement_ids_match_nowhere() {
        let a = Id::ZERO;
        let b = Id::MAX;
        assert_eq!(common_digits(a, b, 1), 0);
        assert_eq!(common_digits(a, b, 2), 0);
        assert_eq!(common_digits(a, b, 4), 0);
        assert_eq!(common_digits(a, b, 8), 0);
    }

    #[test]
    fn base4_counts_digit_pairs() {
        // XOR = ...0001: one base-4 digit differs.
        let a = Id::from_low_u64(0);
        let b = Id::from_low_u64(1);
        assert_eq!(common_digits(a, b, 2), 79);
        // XOR = ...0101: two base-4 digits differ.
        let c = Id::from_low_u64(0b0101);
        assert_eq!(common_digits(a, c, 2), 78);
        // XOR = ...1100_0000: one base-4 digit (the 4th from the end).
        let d = Id::from_low_u64(0b1100_0000);
        assert_eq!(common_digits(a, d, 2), 79);
    }

    #[test]
    fn base16_counts_nibbles() {
        let a = Id::from_low_u64(0);
        let b = Id::from_low_u64(0x10);
        assert_eq!(common_digits(a, b, 4), 39);
        let c = Id::from_low_u64(0x11);
        assert_eq!(common_digits(a, c, 4), 38);
    }

    #[test]
    fn prefix_match_counts_leading_digits() {
        let a = Id::ZERO;
        let b = Id::from_low_u64(1); // first 159 bits match
        assert_eq!(prefix_match_digits(a, b, 1), 159);
        assert_eq!(prefix_match_digits(a, b, 2), 79);
        assert_eq!(prefix_match_digits(a, b, 4), 39);
        let mut high = [0u8; ID_BYTES];
        high[0] = 0x80;
        let c = Id::from_bytes(high);
        assert_eq!(prefix_match_digits(a, c, 1), 0);
        assert_eq!(prefix_match_digits(a, c, 4), 0);
        assert_eq!(prefix_match_digits(a, a, 4), 40);
    }

    #[test]
    fn suffix_match_counts_trailing_digits() {
        let a = Id::ZERO;
        let mut high = [0u8; ID_BYTES];
        high[0] = 0x80;
        let c = Id::from_bytes(high);
        assert_eq!(suffix_match_digits(a, c, 1), 159);
        assert_eq!(suffix_match_digits(a, c, 4), 39);
        let b = Id::from_low_u64(1);
        assert_eq!(suffix_match_digits(a, b, 1), 0);
        assert_eq!(suffix_match_digits(a, a, 2), 80);
    }

    #[test]
    fn xor_distance_orders_like_kademlia() {
        let target = Id::from_low_u64(8);
        let near = Id::from_low_u64(9); // d = 1
        let far = Id::from_low_u64(0); // d = 8
        assert!(xor_distance(target, near) < xor_distance(target, far));
    }

    #[test]
    fn common_digit_sum_consistency_across_bases() {
        // A base-16 match implies two base-4 matches and four base-2
        // matches at those positions; so counts are monotone when scaled.
        let a = Id::from_low_u64(0x00ff_13a7);
        let b = Id::from_low_u64(0x00f0_03a7);
        let c1 = common_digits(a, b, 1);
        let c2 = common_digits(a, b, 2);
        let c4 = common_digits(a, b, 4);
        assert!(c1 >= 2 * c2);
        assert!(c2 >= 2 * c4);
    }

    #[test]
    fn every_digit_position_and_value_counts_once() {
        for bits in [1u8, 2, 4, 8] {
            let m = 160 / u32::from(bits);
            let base = Id::from_bytes([0xa5; ID_BYTES]);
            for pos in 0..m as usize {
                for delta in 1..=(u8::MAX >> (8 - bits)) {
                    let other = base.with_digit(pos, bits, base.digit(pos, bits) ^ delta);
                    assert_eq!(
                        common_digits(base, other, bits),
                        m - 1,
                        "width {bits}, digit {pos}, xor {delta:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn same_offset_in_different_words_counts_separately() {
        // Bytes 0, 8 and 16 open the three words the kernel loads; their
        // markers land in one lane of the sum, and a lane that could not
        // hold all three would carry into the next.
        for bits in [1u8, 2, 4, 8] {
            let m = 160 / u32::from(bits);
            let per_byte = 8 / usize::from(bits);
            for within in 0..8 * per_byte {
                // The last word is four bytes long.
                let words: &[usize] = if within < 4 * per_byte {
                    &[0, 8, 16]
                } else {
                    &[0, 8]
                };
                for delta in 1..=(u8::MAX >> (8 - bits)) {
                    let mut other = Id::ZERO;
                    for (differing, first_byte) in words.iter().enumerate() {
                        other = other.with_digit(first_byte * per_byte + within, bits, delta);
                        assert_eq!(
                            common_digits(Id::ZERO, other, bits),
                            m - 1 - differing as u32,
                            "width {bits}, digit {within} of words 0..={differing}, value {delta:#x}"
                        );
                    }
                }
            }
        }
    }
}
