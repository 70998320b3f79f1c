//! # mpil-analysis
//!
//! The closed-form analysis of Section 5 of the paper: expected numbers of
//! **local maxima**, **replicas**, and **hops** for MPIL over general,
//! random-regular, and complete topologies.
//!
//! With an `M`-digit ID space in base `2^b` and uniformly random IDs, the
//! probability that a node's ID shares exactly `k` digit positions with a
//! message ID is the binomial
//!
//! ```text
//! A(k) = C(M,k) · (1/2^b)^k · ((2^b−1)/2^b)^(M−k)
//! ```
//!
//! A node of degree `d` is a *local maximum* for the message when every
//! neighbor matches strictly fewer digits, giving
//!
//! ```text
//! C(d) = Σ_{k=1}^{M} A(k) · B(k)^d ,   B(k) = Σ_{j<k} A(j)
//! ```
//!
//! The expected number of local maxima is `N·C` (weighted by the degree
//! distribution for irregular graphs), the expected random-walk hop count
//! to a local maximum is `1/C`, and on a complete topology the expected
//! number of replicas is `N · Σ_k A(k) · D(k)^(N−1)` with the *inclusive*
//! CDF `D` (ties all store).
//!
//! ```
//! use mpil_analysis::AnalysisModel;
//! let model = AnalysisModel::base4();
//! // Figure 7's middle curve: 8000 nodes, degree 40.
//! let maxima = model.expected_local_maxima_regular(8000, 40);
//! assert!(maxima > 100.0 && maxima < 400.0);
//! // Figure 8: complete topologies sit near 1.6 replicas.
//! let replicas = model.expected_replicas_complete(8000);
//! assert!(replicas > 1.4 && replicas < 1.8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod lgamma;
mod model;

pub use model::{AnalysisModel, DegreeDistribution};
