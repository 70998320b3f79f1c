//! Ablation: tie-based vs top-k flow splitting
//! ([`mpil_bench::figures::ablation_split_policy`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ablation_split_policy [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ablation_split_policy);
}
