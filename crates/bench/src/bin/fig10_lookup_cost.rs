//! Figure 10: MPIL lookup latency and traffic vs overlay size
//! ([`mpil_bench::figures::fig10_lookup_cost`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig10_lookup_cost [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig10_lookup_cost);
}
