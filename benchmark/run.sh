#!/usr/bin/env bash
# The benchmark's front door. Builds the benchmark (release, offline)
# and hands every argument to it:
#
#   benchmark/run.sh [--seed S] [--trace] [--quick] [--runs N] [--out FILE]
#       every workload, each in its own child process, one result file
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload; the last line of output is the result as JSON
#   benchmark/run.sh diff A.json B.json
#       compare two result files under the bounds in BENCHMARK.json
#
# See benchmark/README.md.
set -euo pipefail

# A relative target directory is relative to where we were called from.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"

# Build output goes to stderr: stdout belongs to the result.
CARGO_NET_OFFLINE=true cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2

exec "$target/release/mpil-benchmark" "$@"
