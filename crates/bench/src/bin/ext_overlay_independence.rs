//! Extension: overlay-independence across five overlay families
//! ([`mpil_bench::figures::ext_overlay_independence`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_overlay_independence [--full] [--csv] [--seed N] [--nodes N] [--ops K]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_overlay_independence);
}
