//! Figure 11: success rate under perturbation for the four systems
//! ([`mpil_bench::figures::fig11_perturbation`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin fig11_perturbation [--full] [--csv] [--seed N]
//! ```

fn main() {
    // fig11 streams: each idle:offline setting's table prints as soon
    // as its sweep completes.
    mpil_bench::run(mpil_bench::figures::fig11_perturbation);
}
