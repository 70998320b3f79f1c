#!/usr/bin/env bash
# The byte-identity oracle: the seeded figure CSVs must come out of the
# release build exactly as they did when scripts/oracles.sha256 was
# recorded. A refactor of the simulator, an engine or the harness that
# moves one RNG draw, one send or one same-tick order changes a hash.
#
# The default set is the thirteen figure binaries that finish in seconds
# (~30 s together; seven are the static engine's own Section 6.1 outputs,
# both split policies and all three metrics among them); --all adds
# fig1_pastry_perturbation (~110 s) and fig11_perturbation (~190 s).
# --record runs everything and rewrites scripts/oracles.sha256 — only on
# a commit whose output is the new reference (a change that is *meant* to
# move a figure), never to make a refactor pass.
#
# Needs ./target/release (scripts/verify.sh or cargo build --release).
#
# Usage: scripts/oracles.sh [--all | --record]
set -euo pipefail
cd "$(dirname "$0")/.."

mode=${1:-}
case "$mode" in
    "" | --all | --record) ;;
    *) echo "usage: scripts/oracles.sh [--all | --record]" >&2; exit 2 ;;
esac

sums=$PWD/scripts/oracles.sha256
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# oracle NAME BINARY [ARGS..]: stdout of the seeded CSV run -> $out/NAME.csv
oracle() {
    local name=$1 bin=$2
    shift 2
    "./target/release/$bin" "$@" --csv --seed 1 >"$out/$name.csv" 2>/dev/null \
        || { echo "oracles: $bin $* failed" >&2; exit 1; }
}

oracle fig9_insertion fig9_insertion
oracle fig10_lookup_cost fig10_lookup_cost
oracle fig12_traffic fig12_traffic
oracle table1_2_lookup_success table1_2_lookup_success
oracle table3_flows table3_flows
oracle ablation_split_policy ablation_split_policy
oracle ablation_metric ablation_metric
oracle ext_gossip_discovery ext_gossip_discovery
oracle ext_gossip_discovery.dissemination ext_gossip_discovery --dissemination
oracle ext_dht_comparison ext_dht_comparison --nodes 200 --ops 40
oracle ext_link_loss ext_link_loss
oracle ext_overlay_independence ext_overlay_independence
oracle ext_churn_traces ext_churn_traces
if [[ -n "$mode" ]]; then
    oracle fig1_pastry_perturbation fig1_pastry_perturbation
    oracle fig11_perturbation fig11_perturbation
fi

cd "$out"
if [[ "$mode" == --record ]]; then
    sha256sum -- *.csv >"$sums"
    echo "oracles: recorded $(wc -l <"$sums") hashes in scripts/oracles.sha256"
else
    # --ignore-missing: the fast form leaves the two slow CSVs out; every
    # CSV it does name was written above or the script has already exited.
    sha256sum --check --quiet --ignore-missing "$sums" \
        || { echo "oracles: a seeded figure CSV differs from scripts/oracles.sha256" >&2; exit 1; }
    echo "oracles: OK ($(ls | wc -l) CSVs byte-identical)"
fi
