//! Baselines: MPIL vs Gnutella-style flooding vs k random walks
//! ([`mpil_bench::figures::ablation_baselines`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ablation_baselines [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ablation_baselines);
}
