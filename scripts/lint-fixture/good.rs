//! Known-good: the reasoned twin of every line `bad.rs` marks.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // P001

use fxhash::FxHashMap;

#[expect(clippy::disallowed_types, reason = "D001: a differential oracle")]
pub fn d001(_: std::collections::HashMap<u8, u8>) {}
#[expect(clippy::disallowed_types, reason = "D002: a wall-clock budget")]
pub fn d002(_: std::time::Instant) {}

pub fn d003(m: FxHashMap<u8, u8>) -> Vec<u8> {
    #[expect(clippy::iter_over_hash_type, reason = "D003: order-free count")]
    for _ in &m {}
    #[expect(clippy::disallowed_methods, reason = "D003: sorted below")]
    let mut keys: Vec<u8> = m.into_keys().collect();
    keys.sort_unstable();
    keys
}

#[expect(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "P001: the caller checked"
)]
pub fn p001(v: Option<u8>) -> u8 {
    if v.is_none() {
        panic!("none");
    }
    v.unwrap() + v.expect("some")
}

#[allow(dead_code, reason = "S001: an allow that says why")]
fn s001() {}
