//! Figure 1: the effect of perturbation on MSPastry
//! ([`mpil_bench::figures::fig1_pastry_perturbation`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig1_pastry_perturbation [--full] [--csv] [--seed N]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::fig1_pastry_perturbation);
}
