#!/usr/bin/env bash
# CI gate, fully offline: the tier-1 verify plus formatting, lints,
# and a large-N kernel tripwire.
#
#   tier-1:  cargo build --release && cargo test -q --no-fail-fast,
#            both --locked (a failure here is reported and fails the
#            gate at the end; the smokes below still run, on the release
#            build it made)
#   format:  cargo fmt --check       (stable rustfmt; options in rustfmt.toml)
#   sans-io: the daemon's core (crates/mpild/src/daemon/{core,window,
#            admission,hedge}.rs) names no clock, socket or thread
#            outside its tests: time reaches it as an argument
#            (daemon/mod.rs, "Core and shell"), so every decision it
#            makes can be replayed; a listed file that is gone fails the
#            gate
#   vendor:  the directories under vendor/, the rows of
#            vendor/README.md's table and the vendor/ paths of
#            [workspace.dependencies] are one set
#   lints:   cargo clippy --workspace --all-targets -- -D warnings, with
#            clippy.toml the gate of the determinism contract (rules
#            D001-D003, P001, S001 — see README "Determinism contract &
#            lint rules"); then scripts/lint-selftest.sh, the same gate
#            held to a known-bad and a known-good fixture
#   docs:    cargo doc of every workspace crate but the vendor/ stubs,
#            rustdoc warnings denied: an intra-doc link that does not
#            resolve, is ambiguous, or points at an item no longer public
#            fails here
#   bench:   cargo check of the benchmark package (benchmark/), which is
#            outside the workspace: a change to a public item it uses
#            fails here instead of when the benchmark next runs
#   scale:   scale_run at 20k nodes under --budget-s — catches an
#            accidental O(n²) (or worse) regression in the simulation
#            kernel long before a full scaling curve would
#   build:   a 300k-node MPIL point over a power-law overlay under
#            --budget-s — catches the overlay generator's attachment
#            going back to a quadratic scan
#   traffic: a 20k-node plumtree point under --max-msgs-per-lookup —
#            catches the dissemination layer regressing to flood-scale
#            lookup traffic
#   engines: the five sim-engines reference points (Plumtree, Chord,
#            MSPastry, Kademlia, the 50k-node MPIL agent), send, event
#            and lookup-message counts exact — catches a change to an
#            engine, to the one MPIL receive path (mpil::Agent), to the
#            baselines' retry table (mpil_sim::Outstanding) or to the
#            class a send is counted in that moves a single send (the
#            notes a handler makes through mpil_sim::Cx::note are
#            pinned by the conformance suite, not here); a
#            million-node MPIL build under a peak-RSS ceiling; and
#            both MPIL rows' allocation counts under a ceiling
#   service: an embedded mpild + mpil-load smoke with live churn —
#            catches the daemon/load-generator path (request tracking,
#            hedged lookups, drain) failing under perturbation or its
#            tail going back to the retry period — and a quiet one on
#            real sockets, which catches a poll interval coming back
#            into the request path
#   oracles: scripts/oracles.sh — the seeded figure CSVs that finish in
#            seconds, byte for byte against scripts/oracles.sha256
#
# Everything resolves from vendor/ path entries (see vendor/README.md),
# so this must pass from a clean checkout with no network access.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo fmt --check
sans_io=(crates/mpild/src/daemon/{core,window,admission,hedge}.rs)
for file in "${sans_io[@]}"; do
    [[ -f $file ]] || { echo "ci: $file is gone: point the sans-io check at the daemon's core" >&2; exit 1; }
done
if awk 'FNR == 1 { test = 0 } /^#\[cfg\(test\)\]/ { test = 1 } !test { print FILENAME ":" FNR ": " $0 }' \
    "${sans_io[@]}" \
    | grep -E 'WallClock|Instant|recv_timeout|UdpSocket|thread::'; then
    echo "ci: the daemon's core names a clock, a socket or a thread (see crates/mpild/src/daemon/mod.rs)" >&2
    exit 1
fi
# A stub cannot come back, or be orphaned, without vendor/README.md's
# table saying so.
stubs=$(cd vendor && ls -d -- */ | tr -d / | sort | xargs)
rows=$(sed -n 's/^| `\([a-z0-9_]*\)` .*/\1/p' vendor/README.md | sort | xargs)
deps=$(sed -n 's/.*path = "vendor\/\([^"]*\)".*/\1/p' Cargo.toml | sort | xargs)
if [[ "$stubs" != "$rows" || "$stubs" != "$deps" ]]; then
    echo "ci: vendor/ holds [$stubs], vendor/README.md's table lists [$rows], [workspace.dependencies] wires [$deps]" >&2
    exit 1
fi
# The contract's two restriction lints (clippy.toml, "Not in this file").
contract=(-D warnings -W clippy::iter_over_hash_type -W clippy::allow_attributes_without_reason)
cargo clippy --workspace --all-targets -- "${contract[@]}"
scripts/lint-selftest.sh "${contract[@]}"
# The vendor/ stubs stand in for external crates; their docs are not ours.
undocumented=()
for stub in $stubs; do undocumented+=(--exclude "$stub"); done
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet "${undocumented[@]}"
# The benchmark's committed Cargo.lock is stale, so the check cannot run
# --locked and rewrites it; it is put back byte for byte either way.
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
bench=ok
cargo check --manifest-path benchmark/Cargo.toml --offline --quiet || bench=failed
cp "$bench_lock" benchmark/Cargo.lock
rm -f "$bench_lock"
[[ "$bench" == ok ]] || { echo "ci: the benchmark (benchmark/) does not compile against the tree" >&2; exit 1; }
tier1=ok
scripts/verify.sh \
    || { tier1=failed; echo "ci: tier-1 (scripts/verify.sh) failed; carrying on to the smokes" >&2; }

# Byte-identity oracle: tier-1 pins counts at 300 nodes; this holds the
# figure CSVs themselves (~22 s on the release build tier-1 just made).
scripts/oracles.sh \
    || { echo "ci: a seeded figure CSV moved (scripts/oracles.sh)" >&2; exit 1; }

# Kernel scale tripwire: a 20k-node gossip point (HyParView maintenance
# under k-random-walk lookups: 8.5M sends and 16.1M kernel events, 50 %
# of lookups answered at p = 0.5) must finish well inside the budget.
# It reads 13.7-16.9 s on two shared vCPUs; the old binary-heap kernel
# grew superlinearly towards ~100s at 100k nodes, so a 120s ceiling
# trips on any such regression while leaving slack for slow CI
# machines. scale_run compares the point's wall clock with --budget-s
# itself and exits 1 past it; the outer `timeout` only remains as a
# hang backstop.
#
# --max-rss-mib is the memory-side tripwire (scale_run compares the
# process's peak RSS with it): the allocation-free message plane holds
# this point at 30-31 MiB peak.
# Wheel slots that hoarded drained capacity once held a 20k-node gossip
# point above 130 MiB, so a 100 MiB ceiling trips on a return of that
# pathology (or any new kernel memory regression) with ~3x slack.
timeout 150 ./target/release/scale_run --engine gossip --nodes 20000 --seed 1 \
    --budget-s 120 --max-rss-mib 100 \
    || { echo "ci: 20k-node scale smoke exceeded a budget or failed" >&2; exit 1; }

# Overlay build tripwire: a 300 000-node MPIL point over an Inet-style
# power-law overlay is almost all graph build. The generator finds each
# node's attachment target by a descent of a Fenwick tree of free stubs,
# and the point reads 0.46-0.64 s; a scan of every attached node for
# each attachment made the build quadratic and read 11.0-16.6 s, so 4 s
# trips on that scan with slack for a slow machine.
timeout 60 ./target/release/scale_run --engine mpil-powerlaw --nodes 300000 --ops 20 --seed 1 \
    --budget-s 4 \
    || { echo "ci: 300k-node power-law point exceeded its budget or failed" >&2; exit 1; }

# Traffic tripwire (scale_run compares the point's stage-2 messages per
# lookup with --max-msgs-per-lookup): the whole point of the epidemic
# stack is that Plumtree tree queries cost a handful of messages per
# lookup where expanding-ring flooding costs >100. A 20k-node plumtree
# point runs near 5 msgs/lookup; a 25-message ceiling trips if tree
# repair ever degenerates back towards flooding, while leaving slack
# for unlucky seeds. The RSS ceiling is higher than the gossip point's:
# the harness issues all 20 broadcasts back-to-back, so ~13M
# messages are in flight at the stage-1 peak (~171 MiB today, one tick
# in one buffer from wheel slot to dispatch). It read 269.5 MiB when
# each tick was copied through the wheel's `current` queue and the
# batch, and 207.2 MiB when the drained batch was kept through the
# wheel's next cascade; 190 MiB trips on both.
timeout 150 ./target/release/scale_run --engine plumtree --nodes 20000 --seed 1 \
    --budget-s 120 --max-rss-mib 190 --max-msgs-per-lookup 25 \
    || { echo "ci: 20k-node plumtree smoke exceeded a budget or failed" >&2; exit 1; }

# Engine pins: the five rows of benchmark/src/sim.rs's PINNED_REFERENCE
# (~1.5 s together), which otherwise only a full benchmark run checks.
# Every copy at every node of Sim<Mpil> and of the live shard goes
# through `mpil::Agent::receive`; every ack, probe and stabilize retry of
# Chord and MSPastry through `mpil_sim::Outstanding`; every send of every
# engine through `mpil_sim::Cx::send`, which counts it in the class its
# handler names. A change to any of them that moves one send, or counts
# one lookup send in another class, fails here first. Each row also
# holds the engine label its point prints (after the `|`), so a name
# that comes to mean another system fails by name.
#
# The MPIL and plumtree rows also hold their memory. A 50 000-node
# Sim<Mpil> peaks at 26.8-27.0 MiB with replica stores that start at two
# slots, heartbeat registries only when heartbeats run, one flat
# neighbour array, and each tick handed from its wheel slot to the run
# loop by a buffer swap. It read 31.8-32.0 MiB with each tick copied
# through the wheel's `current` queue and the batch, 30.4 MiB with the
# drained batch kept through the wheel's next cascade, 36.0 MiB with
# 8-slot stores and 40.1 MiB without the first three, so the ceiling
# sits below all of them. The 1 000-node plumtree point peaks at
# 11.2-11.3 MiB; copied ticks read 19.1-19.3 MiB, the kept batch 13.7.
#
# The million-node MPIL row (1.3-1.7 s) holds the graph's build: a
# Topology is one CSR array that random_regular fills from its pairing
# and Sim<Mpil> takes by move, and the run peaks at 159.0-159.1 MiB. The
# same point read 201.0 MiB with the ids and array cloned into the
# engine instead of moved, and 309.6 MiB with one list per node built
# and then flattened, so 180 trips on both.
#
# The two MPIL rows also hold their allocations (the fourth column, a
# ceiling on the point's "allocs"; `-` for none). That count repeats
# exactly from run to run: 92 963 at 50 000 nodes and 985 at 1 000 000,
# where a routing step allocates its candidate list and the metrics it
# keeps them by, each forwarded copy its route, and nothing else. A
# forwarding plan that deals its quotas out of a list of its own again
# reads 117 527 and 1 185; the ceilings sit between.
#
# The last two rows hold the DHT baselines where their converged state is
# large: a 2 000-node Kademlia table holds far more than k contacts, so
# every FIND_NODE picks its k closest out of a long list, and a
# 10 000-node Chord ring has gaps near 2^147, so each node's fingers are
# mostly its successor and the rest a search. A shortcut in either that
# moves one contact or one finger moves a send here (~2 s and ~4 s).
#
# The last row holds MSPastry's leaf-set repair. The 250-node row runs
# at --p 0, where no node fails and no leaf set shrinks; at --p 0.2 a
# declared failure leaves a leaf set with room, which pulls a survivor's
# members, and each of them goes through LeafSet::consider. A side kept
# in another order or cut at another length moves a send here (~0.5 s).
while IFS='|' read -r pins engine; do
    read -r sent events lookup_msgs max_allocs flags <<<"$pins"
    engine=${engine# }
    # shellcheck disable=SC2086 # $flags is a list of flags
    point=$(./target/release/scale_run $flags --seed 1) \
        || { echo "ci: scale_run $flags --seed 1 failed or exceeded a budget" >&2; exit 1; }
    if ! grep -qF "\"engine\": \"$engine\"," <<<"$point"; then
        echo "ci: scale_run $flags --seed 1 ran another engine (pinned: $engine): $point" >&2
        exit 1
    fi
    if ! grep -q "\"sent\": $sent, \"events\": $events," <<<"$point" \
        || ! grep -q "\"lookup_msgs\": $lookup_msgs," <<<"$point"; then
        echo "ci: scale_run $flags --seed 1 moved (pinned: sent $sent, events $events, lookup_msgs $lookup_msgs): $point" >&2
        exit 1
    fi
    if [[ $max_allocs != - ]]; then
        if [[ ! $point =~ \"allocs\":\ ([0-9]+), ]]; then
            echo "ci: scale_run $flags --seed 1 printed no allocs: $point" >&2
            exit 1
        fi
        if (( BASH_REMATCH[1] > max_allocs )); then
            echo "ci: scale_run $flags --seed 1 made ${BASH_REMATCH[1]} allocations (ceiling $max_allocs)" >&2
            exit 1
        fi
    fi
done <<'PINS'
563131 819746 97 - --engine plumtree --nodes 1000 --ops 20 --p 0.5 --max-rss-mib 13 | Plumtree active=5 passive=24
131835 233193 85 - --engine chord --nodes 500 --ops 20 --p 0 | Chord
378674 582804 40 - --engine pastry --nodes 250 --ops 20 --p 0 | MSPastry
131132 198105 120 - --engine kademlia --nodes 250 --ops 20 --p 0 | Kademlia k=8 α=3
359579 56334 41862 105000 --engine mpil-regular --nodes 50000 --ops 2500 --p 0.1 --max-rss-mib 29 | MPIL over random d=8
2941 472 354 1085 --engine mpil-regular --nodes 1000000 --ops 20 --p 0.1 --max-rss-mib 180 | MPIL over random d=8
1472597 2232490 210 - --engine kademlia --nodes 2000 --ops 20 --p 0 | Kademlia k=8 α=3
2685949 4742639 137 - --engine chord --nodes 10000 --ops 20 --p 0 | Chord
729345 1061354 70 - --engine pastry --nodes 500 --ops 20 --p 0.2 | MSPastry
PINS

# The message ceiling of a service smoke: the node forwards of the run
# that passed ($smoke, its JSON line) may not exceed $2. A lookup's first
# attempt carries 2 flows and only its hedges all 10, so a daemon that
# sends every first attempt at full width again forwards about four
# times as much on the quiet smoke and over twice as much on the
# churned one.
smoke=
message_ceiling() {
    local name=$1 ceiling=$2
    if [[ ! $smoke =~ \"node_forwards\":([0-9]+) ]]; then
        echo "ci: the $name smoke printed no node_forwards: $smoke" >&2
        exit 1
    fi
    if (( BASH_REMATCH[1] > ceiling )); then
        echo "ci: the $name smoke forwarded ${BASH_REMATCH[1]} messages (ceiling $ceiling)" >&2
        exit 1
    fi
}

# Service-plane smoke (satellite of the mpild subsystem): an embedded
# daemon on the channel transport, driven open-loop at 400/s with a
# perturbation volley making two nodes deaf for 200 ms every 150 ms, so
# one lookup in twenty names a deaf entry node. The daemon hedges those
# through another entry after 3 ms (the floor of the delay it measures),
# as it does the lookups whose two first flows found no replica by then:
# 34-44 hedges per 400 lookups in ten runs (15-24 when every first
# attempt carried all ten flows). The p99 of the 400 reads 3.1-3.6 ms
# with none lost, seeds 1-6; a daemon that waited out its flat 150 ms
# period instead read 150-300 ms
# and lost a lookup on two seeds in six. 50 ms sits between the two: it
# trips if lookups stop being hedged, if hedges go back in through the
# deaf node, or if the drain path stalls, and 99.9 % admits no lost
# lookup at all. The shared host can take the CPU away for longer than
# that in the middle of a run (one run in nine when this gate was
# sized read 535 ms with every lookup answered, then 3.2 ms three
# times; twelve runs of the finished build met no stall), hence the
# second attempt, as for the quiet smoke below; a daemon that does not
# hedge fails both. A run takes ~2 s; --budget-s 60 is the hang
# tripwire. Its nodes forwarded 3 489 messages in nine of ten runs and
# 3 665 in the tenth (8 600 with full-width first attempts): the
# ceiling of 5 000 leaves room for forty more hedges.
churned_smoke() {
    smoke=$(./target/release/mpil-load --embedded --nodes 48 --degree 8 --seed 1 \
        --objects 60 --lookups 400 --rate 400 --window 64 \
        --churn-period-ms 150 --churn-count 2 --churn-length-ms 200 \
        --min-success 99.9 --max-p99-ms 50 --budget-s 60)
    local status=$?
    echo "$smoke"
    return "$status"
}
retrying() { echo "ci: $1 smoke missed a gate on its first attempt; retrying" >&2; }
churned_smoke || { retrying "churned mpild service"; churned_smoke; } \
    || { echo "ci: churned mpild service smoke failed a gate twice" >&2; exit 1; }
message_ceiling churned 5000

# Quiet service smoke on the real sockets (loopback UDP data and control
# planes), open loop at 250/s, no churn. The daemon is event-driven: a
# request wakes each thread on its path and nothing waits out a poll
# interval, so the p99 of 1000 lookups reads 0.7-1.3 ms here (3.4 ms at
# worst in 50 runs). A socket read timeout costs one or two 4 ms kernel
# ticks however short it is asked to be, so with one of those anywhere
# on the path the *median* is 8-16 ms. The 6 ms ceiling sits below one
# such quantum and five times above what the service needs; without
# churn nothing may be lost either, and nothing is hedged (`hedges` 0
# in the report of nine runs in ten: no lookup here takes the 3 ms a
# hedge waits unless the host stalls for as long). Run on its own, the
# first attempt met every gate in 40 runs of 40 (20 of each of two
# builds, alternating); run here, right after the tier-1 suite, it
# missed the 6 ms gate in two of four runs (p99 9.2 and 6.2 ms, every
# lookup answered), and one run once read a p99 near 190 ms: the shared
# host took the CPU away in the middle of a four-second run. Hence the
# second attempt, announced on stderr; a poll interval fails both.
# Its nodes forwarded 4 998-5 282 messages in the 40 runs (19 487 with
# full-width first attempts): the ceiling of 8 000 leaves room for a
# stall that hedges a sixth of the lookups.
quiet_udp_smoke() {
    smoke=$(./target/release/mpil-load --embedded --udp --ctrl-udp --nodes 48 --degree 8 \
        --seed 1 --objects 60 --lookups 1000 --rate 250 --window 64 \
        --min-success 99.9 --max-p99-ms 6 --budget-s 60)
    local status=$?
    echo "$smoke"
    return "$status"
}
quiet_udp_smoke || { retrying "quiet UDP service"; quiet_udp_smoke; } \
    || { echo "ci: quiet UDP service smoke failed a gate twice" >&2; exit 1; }
message_ceiling "quiet UDP" 8000

[[ "$tier1" == ok ]] || { echo "ci: every later step passed, but tier-1 failed (see above)" >&2; exit 1; }
echo "ci: OK"
