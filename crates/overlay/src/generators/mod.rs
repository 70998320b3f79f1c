//! Topology generators.
//!
//! The paper's static-overlay study (Section 6.1) runs over power-law
//! graphs ([`power_law`]) and 100-regular random graphs
//! ([`random_regular`]); the analysis (Section 5) additionally covers
//! [`complete()`] topologies. The simple shapes ([`ring`], [`line()`],
//! [`star`], [`grid`]) exercise overlay-independence in tests and the
//! pathological-overlay example.

mod complete;
mod powerlaw;
mod random;
mod regular;
mod simple;

pub use complete::complete;
pub use powerlaw::{power_law, PowerLawConfig};
pub use random::erdos_renyi;
pub use regular::random_regular;
pub use simple::{grid, line, ring, star};

use std::fmt;

/// Error returned when a generator's parameters are inconsistent or the
/// generator fails to realize them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerateError {
    /// The requested node count is too small for the requested shape.
    TooFewNodes {
        /// Nodes requested.
        requested: usize,
        /// Minimum supported.
        minimum: usize,
    },
    /// A degree parameter is infeasible (e.g. `d >= n`, or `n*d` odd).
    InfeasibleDegree {
        /// Nodes requested.
        nodes: usize,
        /// Degree requested.
        degree: usize,
        /// Why the combination cannot be realized.
        reason: &'static str,
    },
    /// A probability or exponent parameter is out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Human-readable constraint.
        constraint: &'static str,
    },
    /// The randomized construction failed to converge after many retries.
    DidNotConverge {
        /// The generator that failed.
        generator: &'static str,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::TooFewNodes { requested, minimum } => {
                write!(f, "need at least {minimum} nodes, requested {requested}")
            }
            GenerateError::InfeasibleDegree {
                nodes,
                degree,
                reason,
            } => write!(f, "degree {degree} infeasible for {nodes} nodes: {reason}"),
            GenerateError::InvalidParameter { name, constraint } => {
                write!(f, "parameter {name} invalid: must satisfy {constraint}")
            }
            GenerateError::DidNotConverge { generator } => {
                write!(f, "generator {generator} did not converge")
            }
        }
    }
}

impl std::error::Error for GenerateError {}
