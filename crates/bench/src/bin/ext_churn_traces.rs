//! Extension: trace-driven churn instead of periodic flapping
//! ([`mpil_bench::figures::ext_churn_traces`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_churn_traces [--csv] [--seed N] [--nodes N] [--ops K]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_churn_traces);
}
