//! Ablation: the MPIL common-digit metric vs prefix and suffix matching
//! ([`mpil_bench::figures::ablation_metric`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ablation_metric [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ablation_metric);
}
