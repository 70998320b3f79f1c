//! Tables 1 and 2: MPIL lookup success rates
//! ([`mpil_bench::figures::table1_2_lookup_success`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin table1_2_lookup_success [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::table1_2_lookup_success);
}
