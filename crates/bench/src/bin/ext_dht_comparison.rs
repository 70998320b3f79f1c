//! Extension: the Figure 11 comparison widened to three DHT baselines
//! ([`mpil_bench::figures::ext_dht_comparison`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_dht_comparison [--full] [--csv] [--seed N] [--nodes N] [--ops K]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_dht_comparison);
}
