//! # mpil-id
//!
//! The 160-bit identifier space used throughout the MPIL reproduction, plus
//! the routing metrics the paper discusses (Section 4.1–4.2):
//!
//! * the **MPIL common-digit metric** — the number of digit positions (in
//!   base `2^b`) at which two IDs agree, equivalently the number of zero
//!   digits of their XOR;
//! * **prefix** and **suffix** match lengths (Pastry/Tapestry-style);
//! * the **Kademlia XOR distance**;
//! * **numeric ring distance** (Chord/Pastry leaf-set style).
//!
//! IDs are 160 bits, matching the paper ("we use random numbers picked from
//! 160-bit ID space"). The digit width `b` is configurable through
//! [`IdSpace`]; the paper's static-overlay experiments use base-4 (`b = 2`,
//! 80 digits) and the MSPastry comparison uses base-16 (`b = 4`, 40 digits).
//!
//! ```
//! use mpil_id::{Id, IdSpace};
//!
//! let space = IdSpace::base4();
//! let a = Id::from_low_u64(0b1001);
//! let b = Id::from_low_u64(0b1011);
//! // 160 bits = 80 base-4 digits; the two IDs differ in exactly one digit.
//! assert_eq!(space.common_digits(a, b), 79);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod id;
mod map;
mod metric;
mod num;
mod space;

pub use id::{Id, ParseIdError, ID_BITS, ID_BYTES};
pub use map::{IdMap, IdSet};
pub use metric::{common_digits, prefix_match_digits, suffix_match_digits, xor_distance};
pub use num::{clockwise_offset, numeric_distance, ring_distance, wrapping_add, wrapping_sub};
pub use space::{DigitBits, IdSpace, InvalidDigitBits};
