#!/usr/bin/env bash
# Tier-1 verification, fully offline: every dependency resolves from
# vendor/ path entries (see vendor/README.md), so this must pass from a
# clean checkout with no network access.
#
# Usage: scripts/verify.sh [--benches]
#   --benches   additionally compile-check the criterion bench targets
#               (they are test = false, so plain `cargo test` skips them)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# --locked: a dependency-graph change that forgets Cargo.lock fails here
# instead of being rewritten silently.
cargo build --release --locked
# --no-fail-fast: one red test binary must not hide the ones behind it.
# The exit status is non-zero on any failure all the same.
tests=0
cargo test -q --no-fail-fast --locked || tests=$?

if [[ "${1:-}" == "--benches" ]]; then
    cargo check --benches --locked
fi

if [[ "$tests" != 0 ]]; then
    echo "verify: FAILED (cargo test exited $tests)" >&2
    exit "$tests"
fi
echo "verify: OK"
