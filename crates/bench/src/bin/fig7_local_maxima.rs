//! Figure 7: expected number of local maxima for random regular
//! topologies ([`mpil_bench::figures::fig7_local_maxima`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig7_local_maxima [--csv] [--validate]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig7_local_maxima);
}
