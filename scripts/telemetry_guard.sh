#!/usr/bin/env bash
# Telemetry bench guard: holds the observability layer to its budget.
#
#   telemetry_guard.sh FRESH.json
#
# Fails if, in the fresh run,
#   1. the telemetry-enabled gateway overhead exceeds 3%, or
#   2. either side of the NAT fast/slow histogram split is empty.
# Both are paired within one run on one host. The absolute ns/pkt of
# the telemetry-off leg is not held to a committed figure: the host's
# speed wanders by more than any budget one could set on it.
set -euo pipefail

fresh=${1:?usage: telemetry_guard.sh FRESH.json}

# First numeric value of a top-level-unique key in the indented JSON.
val() {
    awk -v key="\"$2\":" '$1 == key {gsub(/,/, "", $2); print $2; exit}' "$1"
}

overhead=$(val "$fresh" overhead_pct)
fast=$(val "$fresh" fast_pkts)
slow=$(val "$fresh" slow_pkts)
for v in "$overhead" "$fast" "$slow"; do
    [ -n "$v" ] || { echo "telemetry guard: $fresh is missing a required field" >&2; exit 1; }
done

if awk -v o="$overhead" 'BEGIN {exit !(o > 3.0)}'; then
    echo "telemetry guard: enabled overhead ${overhead}% exceeds the 3% budget" >&2
    exit 1
fi
if [ "$fast" -eq 0 ] || [ "$slow" -eq 0 ]; then
    echo "telemetry guard: fast/slow split empty (fast=$fast slow=$slow)" >&2
    exit 1
fi
echo "telemetry guard: ok (overhead ${overhead}%, fast=$fast slow=$slow)"
