//! Figure 12: overall traffic under perturbation
//! ([`mpil_bench::figures::fig12_traffic`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig12_traffic [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig12_traffic);
}
