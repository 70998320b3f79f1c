//! Smoke tests for the `vendor/` stub layer (see `vendor/README.md`).
//!
//! Experiments in this repo cite seeds; their results are only
//! reproducible while the vendored `rand` stream stays fixed. These
//! tests pin it **from the consumer side** — a stub regression that
//! would silently skew every experiment fails here first.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// The raw xoshiro256++ stream for a fixed seed, pinned to exact
/// values. If this test fails, the vendored `rand` changed behavior and
/// every seeded experiment in the repo silently changed with it.
#[test]
fn small_rng_stream_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(0xD5_2005);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            0x3dac_06b9_ab0a_438f,
            0x1161_9537_833f_005b,
            0x05e4_09cb_e873_d93b,
            0x66c9_1937_ed0e_a0d4,
        ],
        "vendored SmallRng stream changed — seeded experiments are no \
         longer reproducible"
    );

    let mut rng = SmallRng::seed_from_u64(0xD5_2005);
    let draws: Vec<u32> = (0..4).map(|_| rng.gen_range(0..1000u32)).collect();
    assert_eq!(draws, vec![935, 603, 683, 876]);

    let mut rng = SmallRng::seed_from_u64(0xD5_2005);
    let f: f64 = rng.gen();
    assert!((f - 0.240_906_162_575_847_74).abs() < 1e-15, "got {f}");
}

/// Same seed, same stream — across independent constructions.
#[test]
fn small_rng_is_deterministic_per_seed() {
    let mut a = SmallRng::seed_from_u64(99);
    let mut b = SmallRng::seed_from_u64(99);
    for _ in 0..256 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    let mut c = SmallRng::seed_from_u64(100);
    let diverged = (0..64).any(|_| a.next_u64() != c.next_u64());
    assert!(diverged, "different seeds must give different streams");
}
