//! [`IdSpace`]: the digit-width configuration of the 160-bit key space.

use std::fmt;

use crate::id::{Id, ID_BITS};
use crate::metric;

/// Digit width in bits (the `b` of a base-2^b representation).
///
/// The paper analyses base-4 (`b = 2`) for MPIL's static-overlay study and
/// uses base-16 (`b = 4`) for the MSPastry comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DigitBits {
    /// Binary digits (base 2).
    B1 = 1,
    /// Base-4 digits — the paper's default for MPIL.
    B2 = 2,
    /// Base-16 digits — Pastry's default (`b = 4`).
    B4 = 4,
    /// Byte digits (base 256).
    B8 = 8,
}

impl DigitBits {
    /// The width in bits.
    pub const fn bits(self) -> u8 {
        self as u8
    }

    /// Number of distinct digit values, `2^b`.
    pub const fn radix(self) -> u16 {
        1 << (self as u8)
    }
}

/// Error returned by [`IdSpace::new`] for an unsupported digit width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidDigitBits(pub u8);

impl fmt::Display for InvalidDigitBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "digit width must be 1, 2, 4 or 8 bits, got {}", self.0)
    }
}

impl std::error::Error for InvalidDigitBits {}

/// The 160-bit identifier space viewed as `M` digits of width `b` bits.
///
/// Bundles the digit width with the metric functions so that call sites
/// can't mix widths by accident.
///
/// ```
/// use mpil_id::{Id, IdSpace};
/// let space = IdSpace::base16();
/// assert_eq!(space.num_digits(), 40);
/// let a = Id::from_low_u64(0xa0);
/// let b = Id::from_low_u64(0xb0);
/// assert_eq!(space.common_digits(a, b), 39);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IdSpace {
    digit_bits: DigitBits,
}

impl IdSpace {
    /// Creates a space with the given digit width.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDigitBits`] if `bits` is not 1, 2, 4 or 8.
    pub fn new(bits: u8) -> Result<Self, InvalidDigitBits> {
        let digit_bits = match bits {
            1 => DigitBits::B1,
            2 => DigitBits::B2,
            4 => DigitBits::B4,
            8 => DigitBits::B8,
            other => return Err(InvalidDigitBits(other)),
        };
        Ok(IdSpace { digit_bits })
    }

    /// Binary digit space (160 digits).
    pub const fn base2() -> Self {
        IdSpace {
            digit_bits: DigitBits::B1,
        }
    }

    /// Base-4 digit space (80 digits) — the paper's MPIL default.
    pub const fn base4() -> Self {
        IdSpace {
            digit_bits: DigitBits::B2,
        }
    }

    /// Base-16 digit space (40 digits) — Pastry's default.
    pub const fn base16() -> Self {
        IdSpace {
            digit_bits: DigitBits::B4,
        }
    }

    /// The digit width.
    pub const fn digit_bits(self) -> DigitBits {
        self.digit_bits
    }

    /// Number of digits `M = 160 / b`.
    pub const fn num_digits(self) -> u32 {
        (ID_BITS as u32) / (self.digit_bits as u8 as u32)
    }

    /// The MPIL common-digit metric in this space. Higher is closer.
    #[inline]
    pub fn common_digits(self, a: Id, b: Id) -> u32 {
        metric::common_digits(a, b, self.digit_bits.bits())
    }

    /// Shared-prefix length in digits (Pastry's metric).
    pub fn prefix_match(self, a: Id, b: Id) -> u32 {
        metric::prefix_match_digits(a, b, self.digit_bits.bits())
    }

    /// Shared-suffix length in digits (Tapestry's metric).
    pub fn suffix_match(self, a: Id, b: Id) -> u32 {
        metric::suffix_match_digits(a, b, self.digit_bits.bits())
    }

    /// Extracts digit `i` (0 = most significant) of `id`.
    pub fn digit(self, id: Id, i: usize) -> u8 {
        id.digit(i, self.digit_bits.bits())
    }
}

impl Default for IdSpace {
    /// Defaults to base-4, the paper's MPIL configuration.
    fn default() -> Self {
        IdSpace::base4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_digit_counts() {
        assert_eq!(IdSpace::base2().num_digits(), 160);
        assert_eq!(IdSpace::base4().num_digits(), 80);
        assert_eq!(IdSpace::base16().num_digits(), 40);
        assert_eq!(IdSpace::new(8).unwrap().num_digits(), 20);
        assert!(IdSpace::new(3).is_err());
        assert!(IdSpace::new(0).is_err());
    }

    #[test]
    fn radix_matches_width() {
        assert_eq!(DigitBits::B1.radix(), 2);
        assert_eq!(DigitBits::B2.radix(), 4);
        assert_eq!(DigitBits::B4.radix(), 16);
        assert_eq!(DigitBits::B8.radix(), 256);
    }

    #[test]
    fn metric_dispatch_matches_free_functions() {
        let a = Id::from_low_u64(0x1234);
        let b = Id::from_low_u64(0x1235);
        let s = IdSpace::base4();
        assert_eq!(s.common_digits(a, b), metric::common_digits(a, b, 2));
        assert_eq!(s.prefix_match(a, b), metric::prefix_match_digits(a, b, 2));
        assert_eq!(s.suffix_match(a, b), metric::suffix_match_digits(a, b, 2));
    }

    #[test]
    fn default_is_base4() {
        assert_eq!(IdSpace::default(), IdSpace::base4());
    }

    #[test]
    fn error_displays_width() {
        let err = IdSpace::new(5).unwrap_err();
        assert!(err.to_string().contains('5'));
    }
}
