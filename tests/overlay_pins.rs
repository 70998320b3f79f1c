//! Every generated graph, byte for byte.
//!
//! Each row hashes (64-bit FNV-1a) a graph's ids and then every
//! neighbour list in node order, its length first: a generator, an
//! [`OverlaySource`] or the way a graph is stored that moves one RNG
//! draw, one id or one list entry moves its hash. The values were
//! recorded while every graph was still kept as one `Vec` per node, so
//! they hold the single-array storage to the same lists, in the same
//! order.

use mpil_suite::mpil_harness::OverlaySource;
use mpil_suite::mpil_id::Id;
use mpil_suite::mpil_overlay::{generators, NodeIdx, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The overlay seed of the `static-powerlaw-10k` benchmark workload.
const POWER_LAW_SEED: u64 = 0x006f_7665_726c_6179;

fn eat(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest<'a>(ids: &[Id], lists: impl Iterator<Item = &'a [NodeIdx]>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for id in ids {
        eat(&mut h, id.as_bytes());
    }
    for list in lists {
        eat(&mut h, &(list.len() as u32).to_le_bytes());
        for n in list {
            eat(&mut h, &(n.index() as u32).to_le_bytes());
        }
    }
    h
}

fn of(t: &Topology) -> u64 {
    digest(t.ids(), t.iter_nodes().map(|n| t.neighbors(n)))
}

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Asserts every `(name, got, pinned)` row at once, so one failure
/// shows all of them.
fn check(rows: &[(&str, u64, u64)]) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, pinned)| got != pinned)
        .map(|(name, got, pinned)| format!("{name}: {got:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(moved.is_empty(), "graphs moved:\n{}", moved.join("\n"));
}

#[test]
fn random_regular_graphs_are_pinned() {
    let rr = |n, d| of(&generators::random_regular(n, d, &mut rng(1)).expect("feasible"));
    check(&[
        (
            "random_regular(50 000, 8)",
            rr(50_000, 8),
            0x3717_0d7a_5fc9_2584,
        ),
        (
            "random_regular(1 000, 12)",
            rr(1_000, 12),
            0xa353_a156_64ff_e0c1,
        ),
        (
            "random_regular(1 000, 16)",
            rr(1_000, 16),
            0xf00f_10a4_4881_62e0,
        ),
    ]);
}

/// One hash over many `random_regular` graphs: each graph's digest (or
/// a marker for a refusal) and then the generator's next RNG draw feed a
/// running FNV, so a change that keeps every graph but draws once more
/// or once less moves it too.
fn random_regular_sweep(cases: &[(usize, usize)], seeds: std::ops::RangeInclusive<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for &(n, d) in cases {
        for seed in seeds.clone() {
            let mut r = rng(seed);
            match generators::random_regular(n, d, &mut r) {
                Ok(t) => eat(&mut h, &of(&t).to_le_bytes()),
                Err(_) => eat(&mut h, b"refused"),
            }
            eat(&mut h, &r.gen::<u64>().to_le_bytes());
        }
    }
    h
}

/// The pairing's repair, from sparse graphs to the edge of the dense
/// switch (2d < n − 1). Everywhere the first pass repairs every bad edge
/// and the graph is returned without a recount, except on three seeds
/// of the last three sizes (70, 30) seed 36, (80, 39) seed 17 and
/// (100, 49) seed 21: there one bad edge survives its 64 swap tries and
/// the full recount and a second pass run.
#[test]
fn random_regular_sweep_is_pinned() {
    let sizes = [
        (10, 3),
        (20, 4),
        (30, 2),
        (50, 6),
        (60, 29),
        (100, 3),
        (100, 8),
        (200, 10),
        (1_000, 8),
        (2_000, 30),
        (5_000, 8),
        (70, 30),
        (80, 39),
        (100, 49),
    ];
    check(&[
        (
            "random_regular(14 sizes) x seeds 1..=40",
            random_regular_sweep(&sizes, 1..=40),
            0x5798_2de3_33e8_88b6,
        ),
        (
            "random_regular(50 000, 8) x seeds 2..=4",
            random_regular_sweep(&[(50_000, 8)], 2..=4),
            0x99f6_1f8f_ba17_3f50,
        ),
    ]);
}

#[test]
fn power_law_and_small_generators_are_pinned() {
    let power_law = generators::power_law(10_000, Default::default(), &mut rng(POWER_LAW_SEED));
    check(&[
        (
            "power_law(10 000)",
            of(&power_law.expect("valid")),
            0x69ee_33b7_9af4_ced3,
        ),
        (
            "erdos_renyi(200, 0.05)",
            of(&generators::erdos_renyi(200, 0.05, &mut rng(2)).expect("valid")),
            0x7af2_4beb_d50e_d8e9,
        ),
        (
            "complete(20)",
            of(&generators::complete(20, &mut rng(3)).expect("valid")),
            0xf213_f012_aa80_5eb8,
        ),
        (
            "ring(30)",
            of(&generators::ring(30, &mut rng(4)).expect("valid")),
            0x078b_5136_86ab_9bdf,
        ),
        (
            "line(30)",
            of(&generators::line(30, &mut rng(5)).expect("valid")),
            0x4841_7fee_b5cc_26ab,
        ),
        (
            "star(30)",
            of(&generators::star(30, &mut rng(6)).expect("valid")),
            0x2917_176a_3d96_a3c4,
        ),
        (
            "grid(5, 6)",
            of(&generators::grid(5, 6, &mut rng(7)).expect("valid")),
            0xd958_0af1_585a_5cb4,
        ),
    ]);
}

/// One hash over many small `power_law` graphs: each graph's digest is
/// fed into a running FNV, so n ≤ 16 (where the second hub is not
/// pinned) and the powers of two are all held by one row.
fn power_law_sweep(nodes: impl IntoIterator<Item = usize>, min_degree: usize) -> u64 {
    let config = generators::PowerLawConfig {
        min_degree,
        ..Default::default()
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for n in nodes {
        for seed in 1..=5 {
            let t = generators::power_law(n, config, &mut rng(seed)).expect("valid");
            eat(&mut h, &of(&t).to_le_bytes());
        }
    }
    h
}

#[test]
fn power_law_at_scale_and_small_are_pinned() {
    let power_law = generators::power_law(100_000, Default::default(), &mut rng(POWER_LAW_SEED));
    check(&[
        (
            "power_law(100 000)",
            of(&power_law.expect("valid")),
            0xe772_c2f6_a823_0ccf,
        ),
        (
            "power_law(4..=64) x seeds 1..=5",
            power_law_sweep(4..=64, 2),
            0xd6f8_3f8e_942f_097e,
        ),
        // `min_degree: 1` is what reaches the attachment's fallback
        // (no attached node has a free stub left).
        (
            "power_law({4, 8, 16, 64}, min_degree 1) x seeds 1..=5",
            power_law_sweep([4, 8, 16, 64], 1),
            0x4395_2175_8805_8c9a,
        ),
    ]);
}

#[test]
fn overlay_sources_are_pinned() {
    let source = |src: OverlaySource| {
        let (ids, nbrs) = src.build(1_000, 1);
        digest(&ids, nbrs.iter())
    };
    check(&[
        (
            "Pastry",
            source(OverlaySource::Pastry),
            0x3e49_58d1_daed_9b8d,
        ),
        ("Chord", source(OverlaySource::Chord), 0xdfa0_457d_450d_0ffd),
        (
            "Kademlia",
            source(OverlaySource::Kademlia),
            0x4a8e_c0d2_f3ec_2981,
        ),
        (
            "HyParView(5)",
            source(OverlaySource::HyParView { active: 5 }),
            0x083f_0796_c850_8615,
        ),
        (
            "RandomRegular(8)",
            source(OverlaySource::RandomRegular(8)),
            0x3d48_0a60_55e2_499b,
        ),
        (
            "PowerLaw",
            source(OverlaySource::PowerLaw),
            0x7872_b29d_70ce_f6df,
        ),
    ]);
}
