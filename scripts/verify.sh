#!/usr/bin/env bash
# Tier-1 verification, fully offline: every dependency resolves from
# vendor/ path entries (see vendor/README.md), so this must pass from a
# clean checkout with no network access.
#
# Usage: scripts/verify.sh
set -euo pipefail
(($# == 0)) || { echo "verify: takes no arguments (got $*)" >&2; exit 2; }
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# --locked: a dependency-graph change that forgets Cargo.lock fails here
# instead of being rewritten silently.
cargo build --release --locked
# --no-fail-fast: one red test binary must not hide the ones behind it.
# The exit status is non-zero on any failure all the same.
tests=0
cargo test -q --no-fail-fast --locked || tests=$?

if [[ "$tests" != 0 ]]; then
    echo "verify: FAILED (cargo test exited $tests)" >&2
    exit "$tests"
fi
echo "verify: OK"
