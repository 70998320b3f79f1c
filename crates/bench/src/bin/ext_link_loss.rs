//! Extension: link loss instead of (and combined with) node flapping
//! ([`mpil_bench::figures::ext_link_loss`]).
//!
//! ```text
//! cargo run --release -p mpil-bench --bin ext_link_loss [--full] [--csv] [--seed N] [--nodes N] [--ops K]
//! ```

fn main() {
    mpil_bench::print(mpil_bench::figures::ext_link_loss);
}
