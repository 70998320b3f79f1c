//! Known-bad: one violation per rule form, each marked with the lint that
//! must flag it; clippy must flag those lines and no other.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // P001

use fxhash::{FxHashMap, FxHashSet};

pub fn d001(_: std::collections::HashMap<u8, u8>) {} //~ clippy::disallowed_types
pub fn d002(_: std::time::Instant) {} //~ clippy::disallowed_types

pub fn d003(mut m: FxHashMap<u8, u8>, mut s: FxHashSet<u8>) -> Vec<u8> {
    for _ in &m {} //~ clippy::iter_over_hash_type
    let _ = m.iter().min(); //~ clippy::disallowed_methods
    let _ = m.iter_mut().min(); //~ clippy::disallowed_methods
    let _ = m.keys().min(); //~ clippy::disallowed_methods
    let _ = m.values().min(); //~ clippy::disallowed_methods
    let _ = m.values_mut().min(); //~ clippy::disallowed_methods
    let _ = m.drain().min(); //~ clippy::disallowed_methods
    m.retain(|_, _| true); //~ clippy::disallowed_methods
    let _ = m.clone().into_values().min(); //~ clippy::disallowed_methods
    let _ = s.iter().min(); //~ clippy::disallowed_methods
    let _ = s.drain().min(); //~ clippy::disallowed_methods
    s.retain(|_| true); //~ clippy::disallowed_methods
    m.into_keys().collect() //~ clippy::disallowed_methods
}

pub fn p001(v: Option<u8>) -> u8 {
    if v.is_none() {
        panic!("none"); //~ clippy::panic
    }
    let a = v.unwrap(); //~ clippy::unwrap_used
    a + v.expect("some") //~ clippy::expect_used
}

#[allow(dead_code)] //~ clippy::allow_attributes_without_reason
fn s001_no_reason() {}

#[expect(clippy::no_such_lint, reason = "S001: names no rule")] //~ unknown_lints
pub fn s001_unknown() {}

#[expect(clippy::disallowed_methods, reason = "D003: nothing iterates here")] //~ unfulfilled_lint_expectations
pub fn s001_stale() {}

fn main() {}
