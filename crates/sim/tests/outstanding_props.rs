//! Property test for the retry table: [`Outstanding`] driven through an
//! arbitrary mix of open, settle and expire calls answers every call
//! exactly as a plain map of `token -> (request, resends)` does, and
//! never issues a token twice.

use std::collections::{BTreeMap, BTreeSet};

use mpil_overlay::NodeIdx;
use mpil_sim::{Expiry, Outstanding, Request};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Open a request `from -> to` carrying `body`.
    Open(u32, u32, u16),
    /// Settle a token picked by index among those issued (or one never
    /// issued, one pick in `issued + 1`).
    Settle(usize),
    /// Expire a token picked the same way, its sender up or not.
    Expire(usize, bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..6, 0u32..6, any::<u16>()).prop_map(|(from, to, body)| Op::Open(from, to, body)),
        (0usize..64).prop_map(Op::Settle),
        // Senders are up three times in four, so requests also run out
        // of retries rather than only being dropped.
        (0usize..64, 0u8..4).prop_map(|(pick, coin)| Op::Expire(pick, coin != 0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn outstanding_matches_a_plain_map(
        retries in 0u32..4,
        ops in prop::collection::vec(op(), 0..120),
    ) {
        let mut table = Outstanding::new(retries);
        let mut model: BTreeMap<u64, (Request<u16>, u32)> = BTreeMap::new();
        let mut issued: Vec<u64> = Vec::new();
        let pick = |issued: &[u64], n: usize| {
            issued.get(n % (issued.len() + 1)).copied().unwrap_or(u64::MAX)
        };
        for op in ops {
            match op {
                Op::Open(from, to, body) => {
                    let (from, to) = (NodeIdx::new(from), NodeIdx::new(to));
                    let token = table.open(from, to, body);
                    prop_assert!(!issued.contains(&token), "token {} reissued", token);
                    issued.push(token);
                    model.insert(token, (Request { from, to, body }, 0));
                }
                Op::Settle(n) => {
                    let token = pick(&issued, n);
                    let want = model.remove(&token).map(|(request, _)| request);
                    prop_assert_eq!(table.settle(token), want);
                }
                Op::Expire(n, up) => {
                    let token = pick(&issued, n);
                    let entry = model.get(&token).copied();
                    let want = match entry {
                        None => Expiry::Settled,
                        Some((request, _)) if !up => Expiry::Dropped(request),
                        Some((request, resends)) if resends < retries => Expiry::Resend(request),
                        Some((request, _)) => Expiry::Exhausted(request),
                    };
                    match want {
                        Expiry::Settled => {}
                        Expiry::Resend(_) => model.get_mut(&token).expect("open").1 += 1,
                        Expiry::Dropped(_) | Expiry::Exhausted(_) => {
                            model.remove(&token);
                        }
                    }
                    let mut asked = None;
                    let got = table.expire(token, |node| {
                        asked = Some(node);
                        up
                    });
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(asked, entry.map(|(request, _)| request.from));
                }
            }
        }
        // What is still open is exactly what the model holds.
        let open: BTreeSet<u64> = issued.iter().copied().filter(|t| table.settle(*t).is_some()).collect();
        prop_assert_eq!(open, model.keys().copied().collect::<BTreeSet<u64>>());
    }
}
