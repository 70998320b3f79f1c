#!/usr/bin/env bash
# Self-test of the determinism gate (README "Determinism contract & lint
# rules"): under the root clippy.toml and the lint flags of ci.sh's
# clippy step, clippy must pass scripts/lint-fixture/good.rs and flag
# exactly the lines bad.rs marks `//~ <lint>`, naming each such lint, so
# deleting a line of clippy.toml or a flag cannot switch a rule off.
# P001's zone is three crate-root attributes, and an `#[expect]` under a
# deleted one still holds: those are checked by name, as is the
# `unreachable_pub` warning every library root carries (without it a
# `pub` item no other crate can reach compiles silently, and the
# `dead_code` lint cannot see it).
#
# Usage: scripts/lint-selftest.sh <the lint flags of ci.sh's clippy step>
set -euo pipefail
cd "$(dirname "$0")/lint-fixture"
export CARGO_NET_OFFLINE=true CARGO_TARGET_DIR=../../target/lint-fixture

cargo clippy -q --lib -- "$@" || { echo "lint-selftest: good.rs is not clean" >&2; exit 1; }
out=$(cargo clippy -q --bin bad -- "$@" 2>&1) && { echo "lint-selftest: bad.rs passed" >&2; exit 1; }
diff <(grep -n '//~' bad.rs | cut -d: -f1) \
    <(grep -A1 '^error' <<<"$out" | sed -n 's/^ *--> bad\.rs:\([0-9]*\):.*/\1/p' | sort -un) \
    || { echo "lint-selftest: lines bad.rs marks (<) are not the lines clippy flags (>)" >&2; exit 1; }
for lint in $(sed -n 's|.*//~ ||p' bad.rs | sort -u); do
    grep -qF "#[allow($lint)]" <<<"$out" || { echo "lint-selftest: $lint flagged nothing" >&2; exit 1; }
done
bare=$(grep -L '^#!\[warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)\]' \
    ../../crates/{net,harness,mpild}/src/lib.rs || true)
[[ -z "$bare" ]] || { echo "lint-selftest: no P001 attribute at the root of" $bare >&2; exit 1; }
bare=$(grep -L '^#!\[warn(unreachable_pub)\]' ../../crates/*/src/lib.rs || true)
[[ -z "$bare" ]] || { echo "lint-selftest: no unreachable_pub warning at the root of" $bare >&2; exit 1; }
echo "lint-selftest: OK"
