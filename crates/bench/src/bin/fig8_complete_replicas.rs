//! Figure 8: expected number of replicas on complete topologies
//! ([`mpil_bench::figures::fig8_complete_replicas`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig8_complete_replicas [--csv] [--validate]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig8_complete_replicas);
}
