//! The [`Id`] type: a 160-bit identifier.

use std::fmt;
use std::str::FromStr;

use rand::Rng;

/// Number of bits in an identifier.
pub const ID_BITS: usize = 160;
/// Number of bytes in an identifier.
pub const ID_BYTES: usize = ID_BITS / 8;

/// A 160-bit identifier in the MPIL/Pastry key space.
///
/// Stored big-endian: byte 0 holds the most significant bits, so byte
/// order is the order of IDs as 160-bit unsigned integers, which is what
/// Pastry's leaf set, Chord's ring and Kademlia's XOR sort require. `Ord`
/// compares the ID as three big-endian words (bits 0–63, 64–127 and
/// 128–159; one load and one byte swap each) rather than the twenty
/// bytes one by one; it is the same order. `Eq` and `Hash` are derived and still see the bytes,
/// so hash-map layouts do not depend on how `Ord` is computed.
///
/// ```
/// use mpil_id::Id;
/// let a = Id::from_low_u64(5);
/// let b = Id::from_low_u64(9);
/// assert!(a < b);
/// assert_eq!((a ^ b), Id::from_low_u64(12));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Id(pub(crate) [u8; ID_BYTES]);

impl Id {
    /// The all-zero identifier.
    pub const ZERO: Id = Id([0u8; ID_BYTES]);
    /// The all-one identifier (the largest key).
    pub const MAX: Id = Id([0xffu8; ID_BYTES]);

    /// Creates an identifier from its big-endian byte representation.
    pub const fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }

    /// Returns the big-endian byte representation.
    pub const fn to_bytes(self) -> [u8; ID_BYTES] {
        self.0
    }

    /// Borrows the big-endian bytes.
    pub fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// Creates an identifier whose low 64 bits are `v` and whose remaining
    /// bits are zero. Handy for tests and doc examples.
    pub const fn from_low_u64(v: u64) -> Self {
        let mut b = [0u8; ID_BYTES];
        let vb = v.to_be_bytes();
        let mut i = 0;
        while i < 8 {
            b[ID_BYTES - 8 + i] = vb[i];
            i += 1;
        }
        Id(b)
    }

    /// Draws a uniformly random identifier from the full 160-bit space.
    ///
    /// All randomness in the reproduction flows through caller-provided
    /// seeded RNGs so that experiments are reproducible.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut b = [0u8; ID_BYTES];
        rng.fill(&mut b[..]);
        Id(b)
    }

    /// Returns the bit at position `i` counting from the most significant
    /// bit (bit 0 is the MSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 160`.
    pub fn bit(&self, i: usize) -> u8 {
        assert!(i < ID_BITS, "bit index {i} out of range");
        (self.0[i / 8] >> (7 - (i % 8))) & 1
    }

    /// Returns the `i`-th digit of width `bits` counting from the most
    /// significant digit. `bits` must divide 8 or be 8 (i.e. 1, 2, 4, 8).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not one of 1, 2, 4, 8 or if the digit index is
    /// out of range.
    pub fn digit(&self, i: usize, bits: u8) -> u8 {
        assert!(
            matches!(bits, 1 | 2 | 4 | 8),
            "unsupported digit width {bits}"
        );
        let per_byte = (8 / bits) as usize;
        let n_digits = ID_BYTES * per_byte;
        assert!(
            i < n_digits,
            "digit index {i} out of range for width {bits}"
        );
        let byte = self.0[i / per_byte];
        let within = i % per_byte;
        let shift = 8 - bits as usize * (within + 1);
        (byte >> shift) & ((1u16 << bits) - 1) as u8
    }

    /// Returns a copy of this identifier with digit `i` (width `bits`) set
    /// to `value`.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported width, out-of-range index, or a `value`
    /// that does not fit in `bits` bits.
    pub fn with_digit(mut self, i: usize, bits: u8, value: u8) -> Self {
        assert!(
            matches!(bits, 1 | 2 | 4 | 8),
            "unsupported digit width {bits}"
        );
        assert!(
            u32::from(value) < (1u32 << bits),
            "digit value {value} too wide"
        );
        let per_byte = (8 / bits) as usize;
        let n_digits = ID_BYTES * per_byte;
        assert!(
            i < n_digits,
            "digit index {i} out of range for width {bits}"
        );
        let within = i % per_byte;
        let shift = 8 - bits as usize * (within + 1);
        let mask = (((1u16 << bits) - 1) as u8) << shift;
        let byte = &mut self.0[i / per_byte];
        *byte = (*byte & !mask) | (value << shift);
        self
    }

    /// Counts leading zero bits.
    pub fn leading_zeros(&self) -> u32 {
        match self.words() {
            (0, 0, lo) => 128 + lo.leading_zeros(),
            (0, mid, _) => 64 + mid.leading_zeros(),
            (hi, _, _) => hi.leading_zeros(),
        }
    }

    /// Counts trailing zero bits.
    pub(crate) fn trailing_zeros(&self) -> u32 {
        match self.words() {
            (hi, 0, 0) => 96 + hi.trailing_zeros(),
            (_, mid, 0) => 32 + mid.trailing_zeros(),
            (_, _, lo) => lo.trailing_zeros(),
        }
    }

    /// Returns `true` if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words() == (0, 0, 0)
    }

    /// The identifier as three big-endian words: bits 0–63, 64–127 and
    /// 128–159, bit 0 being the most significant. Each word is one load
    /// and one byte swap, so whole-ID scans cost three steps, not twenty.
    #[inline]
    pub(crate) fn words(&self) -> (u64, u64, u32) {
        let b = &self.0;
        (
            u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
            u64::from_be_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
            u32::from_be_bytes([b[16], b[17], b[18], b[19]]),
        )
    }

    /// Inverse of [`Id::words`].
    #[inline]
    fn from_words(hi: u64, mid: u64, lo: u32) -> Id {
        let mut out = [0u8; ID_BYTES];
        out[..8].copy_from_slice(&hi.to_be_bytes());
        out[8..16].copy_from_slice(&mid.to_be_bytes());
        out[16..].copy_from_slice(&lo.to_be_bytes());
        Id(out)
    }
}

impl Ord for Id {
    #[inline]
    fn cmp(&self, other: &Id) -> std::cmp::Ordering {
        self.words().cmp(&other.words())
    }
}

impl PartialOrd for Id {
    #[inline]
    fn partial_cmp(&self, other: &Id) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::ops::BitXor for Id {
    type Output = Id;

    #[inline]
    fn bitxor(self, rhs: Id) -> Id {
        let (a, b) = (self.words(), rhs.words());
        Id::from_words(a.0 ^ b.0, a.1 ^ b.1, a.2 ^ b.2)
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({self})")
    }
}

impl fmt::Display for Id {
    /// Renders the identifier as 40 lowercase hex digits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error returned when parsing an [`Id`] from a hex string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError {
    kind: ParseIdErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseIdErrorKind {
    Length(usize),
    Digit(char),
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseIdErrorKind::Length(n) => {
                write!(f, "expected 40 hex digits, found {n}")
            }
            ParseIdErrorKind::Digit(c) => write!(f, "invalid hex digit {c:?}"),
        }
    }
}

impl std::error::Error for ParseIdError {}

impl FromStr for Id {
    type Err = ParseIdError;

    /// Parses 40 hex digits (with an optional `0x` prefix) into an [`Id`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseIdError`] if the string is not exactly 40 hex digits.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.len() != ID_BYTES * 2 {
            return Err(ParseIdError {
                kind: ParseIdErrorKind::Length(s.len()),
            });
        }
        let mut out = [0u8; ID_BYTES];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = hex_val(chunk[0] as char)?;
            let lo = hex_val(chunk[1] as char)?;
            out[i] = (hi << 4) | lo;
        }
        Ok(Id(out))
    }
}

fn hex_val(c: char) -> Result<u8, ParseIdError> {
    c.to_digit(16).map(|d| d as u8).ok_or(ParseIdError {
        kind: ParseIdErrorKind::Digit(c),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn from_low_u64_round_trip() {
        let id = Id::from_low_u64(0xdead_beef);
        let bytes = id.to_bytes();
        assert_eq!(&bytes[..16], &[0u8; 16]);
        assert_eq!(&bytes[16..], &0xdead_beefu32.to_be_bytes());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Id::from_low_u64(1) < Id::from_low_u64(2));
        assert!(Id::ZERO < Id::MAX);
        let mut high = [0u8; ID_BYTES];
        high[0] = 1;
        assert!(Id::from_bytes(high) > Id::from_low_u64(u64::MAX));
    }

    #[test]
    fn bit_extraction_msb_first() {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0b1010_0000;
        let id = Id::from_bytes(b);
        assert_eq!(id.bit(0), 1);
        assert_eq!(id.bit(1), 0);
        assert_eq!(id.bit(2), 1);
        assert_eq!(id.bit(3), 0);
    }

    #[test]
    fn digit_extraction_base4() {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0b11_01_00_10;
        let id = Id::from_bytes(b);
        assert_eq!(id.digit(0, 2), 0b11);
        assert_eq!(id.digit(1, 2), 0b01);
        assert_eq!(id.digit(2, 2), 0b00);
        assert_eq!(id.digit(3, 2), 0b10);
    }

    #[test]
    fn digit_extraction_base16() {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0xab;
        b[19] = 0xcd;
        let id = Id::from_bytes(b);
        assert_eq!(id.digit(0, 4), 0xa);
        assert_eq!(id.digit(1, 4), 0xb);
        assert_eq!(id.digit(38, 4), 0xc);
        assert_eq!(id.digit(39, 4), 0xd);
    }

    #[test]
    fn with_digit_sets_and_preserves() {
        let id = Id::ZERO.with_digit(3, 4, 0x7).with_digit(0, 4, 0x2);
        assert_eq!(id.digit(0, 4), 0x2);
        assert_eq!(id.digit(3, 4), 0x7);
        assert_eq!(id.digit(1, 4), 0);
        assert_eq!(id.digit(2, 4), 0);
    }

    #[test]
    fn xor_is_bitwise() {
        let a = Id::from_low_u64(0b1100);
        let b = Id::from_low_u64(0b1010);
        assert_eq!(a ^ b, Id::from_low_u64(0b0110));
        assert_eq!(a ^ a, Id::ZERO);
    }

    #[test]
    fn display_and_parse_round_trip() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..32 {
            let id = Id::random(&mut rng);
            let s = id.to_string();
            assert_eq!(s.len(), 40);
            assert_eq!(s.parse::<Id>().unwrap(), id);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("zz".parse::<Id>().is_err());
        assert!("12345".parse::<Id>().is_err());
        let bad = "g".repeat(40);
        assert!(bad.parse::<Id>().is_err());
    }

    #[test]
    fn leading_zeros_counts() {
        assert_eq!(Id::ZERO.leading_zeros(), 160);
        assert_eq!(Id::MAX.leading_zeros(), 0);
        assert_eq!(Id::from_low_u64(1).leading_zeros(), 159);
    }

    #[test]
    fn random_ids_differ() {
        let mut rng = SmallRng::seed_from_u64(1);
        let a = Id::random(&mut rng);
        let b = Id::random(&mut rng);
        assert_ne!(a, b);
    }
}
