//! Table 3: the actual number of flows created by lookups
//! ([`mpil_bench::figures::table3_flows`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin table3_flows [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::table3_flows);
}
