//! Figure 9: MPIL insertion behavior over power-law and random overlays
//! ([`mpil_bench::figures::fig9_insertion`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig9_insertion [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig9_insertion);
}
