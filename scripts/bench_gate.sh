#!/usr/bin/env bash
# Benchmark gate: this checkout against a base commit, on this host,
# now.
#
#   bench_gate.sh <base-ref>
#
# The base is checked out beside the head with `git worktree add`, each
# side builds its own harness from its own source (benchmark/run.sh),
# and the two run the BENCHMARK.json suite in alternating rounds — the
# host has a fast and a slow state minutes long, so only runs taken
# side by side compare, and who goes first flips every round so that
# neither side always inherits the other's warm caches. The rounds'
# results are merged per side and handed to the harness's own -compare,
# which applies BENCHMARK.json's bounds to the medians. Exit status: 0
# when nothing regressed, 1 when any metric of any workload did.
# `unresolved` (runs spread wider than the bound) does not fail the
# gate; it is printed for the reviewer to read.
set -euo pipefail

base_ref=${1:?usage: bench_gate.sh <base-ref>}

# How long and how often. One round is the four workloads once on each
# side; a run is SECONDS_PER_RUN measured seconds plus ~2 s of set-up
# and oracle gate, so the whole gate takes
# 2 sides x ROUNDS x 4 workloads x (SECONDS_PER_RUN + 2) s = 5.3 min
# plus two builds (5.7 min measured).
#
# What that buys, measured with these settings on the 2-vCPU shared
# host this repo is developed on (EXPERIMENTS.md has that run's table):
# the spread -compare computes — the distance between a side's
# quartiles over its median, the wider side counting — came out at
# 2-6% for throughput, median latency and CPU per packet on the three
# in-process workloads and 3-16% on nat_wire, 9-16% for p90 latency,
# and under 2% for rss_mb, against bounds of 25% and 5%. So a
# regression the size of the bound resolves and one a third of it
# does not. setup_s is tens of milliseconds measured once per run and
# spread 21-24%, a hair inside its bound: expect it to read
# `unresolved` now and then. More ROUNDS do not narrow any of this much
# — the spread is the host's two speeds, not sampling noise — they
# only make the quartiles of five numbers less of a guess.
# BENCHMARK.json's own 25 s x 10 runs is the setting for claiming a
# gain; this one answers "did the PR break something".
ROUNDS=5
SECONDS_PER_RUN=6

head_root=$(git rev-parse --show-toplevel)
cd "$head_root"
work="$head_root/.bench_build/gate"
base_root="$work/base"
cleanup() {
    git worktree remove --force "$base_root" 2>/dev/null || true
    git worktree prune
}
trap cleanup EXIT
rm -rf "$work"
mkdir -p "$work"
git worktree add --detach "$base_root" "$base_ref" >&2

# One round of one side: the suite once (-runs 1) on the round's seed,
# from that side's own checkout with that side's own harness.
round() { # side-root out-file seed
    (cd "$1" && bash benchmark/run.sh -suite "$2" -runs 1 --seed "$3" --seconds "$SECONDS_PER_RUN") >&2
}
for i in $(seq 1 "$ROUNDS"); do
    if [ $((i % 2)) -eq 1 ]; then
        round "$base_root" "$work/base.$i.json" "$i"
        round "$head_root" "$work/head.$i.json" "$i"
    else
        round "$head_root" "$work/head.$i.json" "$i"
        round "$base_root" "$work/base.$i.json" "$i"
    fi
done

# A side's suite file is its first round's header with every round's
# runs appended.
for side in base head; do
    jq -s '.[0] + {runs: (map(.runs) | add)}' "$work/$side".*.json > "$work/$side.json"
done

echo "base $(git rev-parse --short "$base_ref") (A) vs head $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted') (B): $ROUNDS alternating rounds of $SECONDS_PER_RUN s"
bash benchmark/run.sh -compare "$work/base.json" "$work/head.json"
