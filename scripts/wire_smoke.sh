#!/usr/bin/env bash
# Two-process smoke test: a vignat daemon in wire mode and the vigwire
# generator/sink exchange real packets over loopback sockets — UDP
# first, unix SOCK_SEQPACKET (the transport the benchmark measures) in
# the last two legs — separate processes, kernel transport, no shared
# memory.
# The run passes only if vigwire's RFC 3022 oracle accepts every
# observed translation, including the return traffic, and the NAT
# shuts down cleanly (zero drops, no mbuf leaks) on SIGINT.
#
# The NAT also serves /metrics (telemetry on), and the script scrapes
# the Prometheus endpoint while traffic flows: every scrape must be one
# read of the counters (nf_processed_total = Σ nf_reason_total =
# nf_forwarded_total + nf_dropped_total) and every _total series
# monotone from one scrape to the next, reshards included; on the
# quiesced scrape the drop-class reason counters must sum to
# nf_dropped_total, the per-worker poll histogram must be populated —
# the live-observability half of the verified-path telemetry
# acceptance — every RX queue's mempool high-water mark must be
# reported and below its pool size, and every shard's flow-table
# high-water mark reported, populated and at most its capacity.
#
# The control plane rides the same run: the NAT mounts /control/v1 on
# the metrics mux, and mid-exchange the script reshards it 2 → 4 → 3
# workers — the oracle must stay clean across both live migrations.
# Every control transaction is recorded in reshard_trace.json (JSONL),
# the artifact CI uploads. The resharded daemon's peak resident set
# (VmHWM, read before SIGINT) must stay under udp_hwm_mb. Two further
# legs then hold a `vignat -nf lb`
# and a `vignat -nf policer` wire daemon under open-loop traffic
# (`vigwire -mode blast`) while a live backend drain/add and a rate
# resize land over /control/v1. The fourth leg repeats the oracle
# exchange over the unix transport and then blasts the daemon unpaced;
# its end-of-run wire counters must show
# that it parked (blocking waits), woke for replies it knew were coming
# (reply waits) and batched (fewer RX syscalls than frames), its report
# must show both ports' mempools and its flow table used and none
# exhausted, and its peak resident set (VmHWM, read before SIGINT) must
# stay under unix_hwm_mb. The last leg serves the home gateway chain
# (`vignat -nf gateway`: firewall → policer → lb → nat) over the unix
# transport, and the RFC 3022 oracle exchange must come back clean
# through it; its /metrics, scraped during the exchange, must count the
# chain's processed packets (the chain publishes them once per burst).
set -euo pipefail

cd "$(dirname "$0")/.."

metrics_addr=127.0.0.1:19890
lb_metrics=127.0.0.1:19891
pol_metrics=127.0.0.1:19892
gw_metrics=127.0.0.1:19893
trace=reshard_trace.json
# Peak resident-set bounds (MB) for the two NAT daemons' VmHWM. Each is
# the highest of six runs of this script on a 2-vCPU host (Go 1.24), plus
# at least 25% headroom, rounded up to a whole MB: the resharded UDP
# daemon peaked at 12,144-12,648 kB (16 MB is +30%), the unix one at
# 9,172-9,408 kB (12 MB is +31%). EXPERIMENTS.md "Preallocated leaves
# the Go heap" lists the runs.
udp_hwm_mb=16
unix_hwm_mb=12
bin=$(mktemp -d)
sock=$(mktemp -d) # the unix leg's sockets; short, their paths hold 108 bytes
nat_pid=""
wire_pid=""
lb_pid=""
pol_pid=""
gw_pid=""
blast_pid=""
cleanup() {
    [ -n "$blast_pid" ] && kill "$blast_pid" 2>/dev/null || true
    [ -n "$wire_pid" ] && kill "$wire_pid" 2>/dev/null || true
    [ -n "$nat_pid" ] && kill "$nat_pid" 2>/dev/null || true
    [ -n "$lb_pid" ] && kill "$lb_pid" 2>/dev/null || true
    [ -n "$pol_pid" ] && kill "$pol_pid" 2>/dev/null || true
    [ -n "$gw_pid" ] && kill "$gw_pid" 2>/dev/null || true
    rm -rf "$bin" "$sock"
}
trap cleanup EXIT

go build -o "$bin/vignat" ./cmd/vignat
go build -o "$bin/vigwire" ./cmd/vigwire

# One numeric field from a JSON body (flat bodies only — good enough
# for the control API's replies without a jq dependency).
jget() {
    printf '%s' "$1" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2
}

# Record one control transaction in the trace artifact.
: > "$trace"
rec() {
    printf '{"ts":"%s","verb":"%s","response":%s}\n' \
        "$(date -u +%FT%TZ)" "$1" "$2" >> "$trace"
}

# --- Leg 1: NAT + oracle exchange, resharded live mid-traffic -------

# -duration is a watchdog: the NAT exits on its own even if this script
# dies before delivering SIGINT.
# -capacity 65532 divides evenly into 2, 3, and 4 shards — the NAT's
# external port ranges must stay aligned across every reshard target.
"$bin/vignat" -verify=false -transport udp \
    -shards 2 -workers 2 -max-workers 4 -capacity 65532 \
    -int-local 127.0.0.1:19001 -int-peer 127.0.0.1:29001 \
    -ext-local 127.0.0.1:19101 -ext-peer 127.0.0.1:29101 \
    -metrics "$metrics_addr" -telemetry -control \
    -duration 60s &
nat_pid=$!

sleep 1 # let the NAT bind its sockets

scrape() {
    curl -fsS -H 'Accept: text/plain; version=0.0.4' "http://$metrics_addr/metrics"
}

# One value from a scrape document: first sample line matching the
# pattern, second field.
metric() {
    printf '%s\n' "$1" | awk -v pat="$2" '$0 ~ pat {print $2; exit}'
}

# One scrape document checked on its own and against the one before it:
# it is one read of the counters (processed = Σ reasons = forwarded +
# dropped), and every _total series is at least what it last was.
: > "$bin/prev.prom"
check_scrape() {
    printf '%s\n' "$1" > "$bin/cur.prom"
    awk '
        /^#/ || NF != 2 || $1 !~ /_total[{]/ { next }
        FILENAME == ARGV[1] { prev[$1] = $2; next }
        ($1 in prev) && $2 + 0 < prev[$1] + 0 {
            printf "wire smoke: %s went backwards (%d -> %d)\n", $1, prev[$1], $2
            bad = 1
        }
        $1 ~ /^nf_processed_total/ { processed = $2; seen = 1 }
        $1 ~ /^nf_forwarded_total/ { forwarded = $2 }
        $1 ~ /^nf_dropped_total/ { dropped = $2 }
        $1 ~ /^nf_reason_total/ { reasons += $2 }
        END {
            if (!seen) {
                print "wire smoke: nf_processed_total missing from scrape"
                bad = 1
            } else if (processed != reasons || processed != forwarded + dropped) {
                printf "wire smoke: a scrape is not one read of the counters: processed=%d, reasons sum to %d, forwarded=%d + dropped=%d\n", processed, reasons, forwarded, dropped
                bad = 1
            }
            exit bad
        }' "$bin/prev.prom" "$bin/cur.prom" >&2 || return 1
    mv "$bin/cur.prom" "$bin/prev.prom"
}

status=$(curl -fsS "http://$metrics_addr/control/v1/status")
rec "GET status" "$status"
if [ "$(jget "$status" workers)" -ne 2 ]; then
    echo "wire smoke: control status reports $(jget "$status" workers) workers at launch, want 2" >&2
    exit 1
fi

# Enough lock-step packets to outlast a dozen scrapes: a frame the
# daemon re-steers to another worker wakes it at once, so each takes
# about 0.1 ms.
"$bin/vigwire" -transport udp \
    -int-local 127.0.0.1:29001 -int-peer 127.0.0.1:19001 \
    -ext-local 127.0.0.1:29101 -ext-peer 127.0.0.1:19101 \
    -capacity 65532 -flows 64 -packets 32768 &
wire_pid=$!

# Mid-traffic scrapes: each is checked on its own and against the one
# before (check_scrape). At scrape 3 the control plane grows the NAT to
# 4 workers, at scrape 12 it shrinks to 3 — two live shard-state
# migrations under the oracle's nose, and under the scraper's.
scrapes=0
while kill -0 "$wire_pid" 2>/dev/null && [ "$scrapes" -lt 50 ]; do
    check_scrape "$(scrape)" || exit 1
    scrapes=$((scrapes + 1))
    for step in "3 4" "12 3"; do
        set -- $step
        if [ "$scrapes" -eq "$1" ]; then
            reply=$(curl -fsS -X POST -d "{\"workers\":$2}" "http://$metrics_addr/control/v1/workers")
            rec "POST workers $2" "$reply"
            if [ "$(jget "$reply" workers)" -ne "$2" ]; then
                echo "wire smoke: workers verb replied $reply, want $2 workers" >&2
                exit 1
            fi
        fi
    done
    sleep 0.1
done
wait "$wire_pid"
wire_pid=""
if [ "$scrapes" -lt 13 ]; then
    echo "wire smoke: only $scrapes mid-traffic scrapes landed; the reshards did not run mid-exchange" >&2
    exit 1
fi

status=$(curl -fsS "http://$metrics_addr/control/v1/status")
rec "GET status" "$status"
if [ "$(jget "$status" workers)" -ne 3 ]; then
    echo "wire smoke: $(jget "$status" workers) workers after the 4→3 reshard, want 3" >&2
    exit 1
fi

# Quiesced scrape: the monotone chain extends to the final value, the
# drop-class reasons sum to the engine's dropped counter (both are zero
# in a clean run — the equality is the check, not the magnitude), and
# telemetry histograms saw the traffic.
doc=$(scrape)
check_scrape "$doc" || exit 1
final=$(metric "$doc" '^nf_processed_total\{')
if [ "$final" -lt 32768 ]; then
    echo "wire smoke: final processed count $final (sent 32768)" >&2
    exit 1
fi
dropped=$(metric "$doc" '^nf_dropped_total\{')
drop_sum=$(printf '%s\n' "$doc" | awk '/^nf_reason_total\{.*class="drop"/ {s+=$2} END {printf "%d", s}')
if [ "$drop_sum" -ne "$dropped" ]; then
    echo "wire smoke: drop-class reasons sum to $drop_sum, nf_dropped_total is $dropped" >&2
    exit 1
fi
polls=$(metric "$doc" '^nf_poll_ns_count')
if [ -z "$polls" ] || [ "$polls" -eq 0 ]; then
    echo "wire smoke: poll histogram empty with telemetry on" >&2
    exit 1
fi
# Every RX queue's mempool reports a high-water mark below its size (8
# series: two ports, four queues), and the traffic moved some of them.
printf '%s\n' "$doc" | awk '
    $1 ~ /^nf_mempool_size[{]/ { key = $1; sub(/^nf_mempool_size/, "", key); size[key] = $2 }
    $1 ~ /^nf_mempool_high_water[{]/ { key = $1; sub(/^nf_mempool_high_water/, "", key); hw[key] = $2; sum += $2 }
    END {
        for (k in hw) {
            n++
            if (!(k in size) || hw[k] + 0 >= size[k] + 0) {
                printf "wire smoke: nf_mempool_high_water%s is %s, not below its pool size %s\n", k, hw[k], size[k]
                bad = 1
            }
        }
        if (n != 8 || sum == 0) {
            printf "wire smoke: %d mempool high-water series summing to %d; want 8, populated\n", n, sum
            bad = 1
        }
        exit bad
    }' >&2 || exit 1
# Every shard's flow table (three after the reshards) reports a
# high-water mark at most its capacity, and the flows moved some of them.
printf '%s\n' "$doc" | awk '
    $1 ~ /^nf_flow_table_capacity[{]/ { key = $1; sub(/^nf_flow_table_capacity/, "", key); capacity[key] = $2 }
    $1 ~ /^nf_flow_table_high_water[{]/ { key = $1; sub(/^nf_flow_table_high_water/, "", key); hw[key] = $2; sum += $2 }
    END {
        for (k in hw) {
            n++
            if (!(k in capacity) || hw[k] + 0 > capacity[k] + 0) {
                printf "wire smoke: nf_flow_table_high_water%s is %s, above its capacity %s\n", k, hw[k], capacity[k]
                bad = 1
            }
        }
        if (n != 3 || sum == 0) {
            printf "wire smoke: %d flow-table high-water series summing to %d; want 3, populated\n", n, sum
            bad = 1
        }
        exit bad
    }' >&2 || exit 1
udp_hwm_kb=$(awk '$1 == "VmHWM:" {print $2}' "/proc/$nat_pid/status")
if [ "$udp_hwm_kb" -gt $((udp_hwm_mb * 1024)) ]; then
    echo "wire smoke: the resharded UDP daemon peaked at $udp_hwm_kb kB resident, want at most $udp_hwm_mb MB" >&2
    exit 1
fi
echo "wire smoke: $scrapes mid-traffic scrapes, processed=$final dropped=$dropped (reason sum $drop_sum), polls=$polls, oracle clean across 2→4→3 reshard, peak RSS $udp_hwm_kb kB"

kill -INT "$nat_pid"
wait "$nat_pid"
nat_pid=""

# --- Leg 2: LB backend drain/add under live traffic -----------------

"$bin/vignat" -nf lb -transport udp -shards 2 -workers 2 -backends 4 \
    -int-local 127.0.0.1:19201 -ext-local 127.0.0.1:19301 \
    -metrics "$lb_metrics" -control -duration 45s &
lb_pid=$!
sleep 1

"$bin/vigwire" -mode blast -nf lb -ext-local 127.0.0.1:29301 -ext-peer 127.0.0.1:19301 \
    -flows 64 -packets 3000 -interval 1ms &
blast_pid=$!
sleep 0.5

status=$(curl -fsS "http://$lb_metrics/control/v1/status")
rec "GET lb status" "$status"
live=$(printf '%s' "$status" | grep -o '"index":' | wc -l)
if [ "$live" -ne 4 ]; then
    echo "wire smoke: LB status lists $live backends, want 4" >&2
    exit 1
fi
reply=$(curl -fsS -X POST -d '{"op":"drain","index":0}' "http://$lb_metrics/control/v1/lb/backends")
rec "POST lb drain 0" "$reply"
if [ "$(jget "$reply" live)" -ne 3 ]; then
    echo "wire smoke: drain left $(jget "$reply" live) backends live, want 3" >&2
    exit 1
fi
reply=$(curl -fsS -X POST -d '{"op":"add","ip":"10.9.9.99"}' "http://$lb_metrics/control/v1/lb/backends")
rec "POST lb add" "$reply"
if [ "$(jget "$reply" live)" -ne 4 ]; then
    echo "wire smoke: add left $(jget "$reply" live) backends live, want 4" >&2
    exit 1
fi

wait "$blast_pid"
blast_pid=""
doc=$(curl -fsS -H 'Accept: text/plain; version=0.0.4' "http://$lb_metrics/metrics")
lb_processed=$(metric "$doc" '^nf_processed_total\{')
if [ -z "$lb_processed" ] || [ "$lb_processed" -eq 0 ]; then
    echo "wire smoke: LB processed nothing under the blast" >&2
    exit 1
fi
kill -INT "$lb_pid"
wait "$lb_pid"
lb_pid=""
echo "wire smoke: LB drained+re-added a backend mid-traffic (processed=$lb_processed), clean shutdown"

# --- Leg 3: policer rate resize under live traffic ------------------

"$bin/vignat" -nf policer -transport udp -shards 2 -workers 2 \
    -int-local 127.0.0.1:19401 -ext-local 127.0.0.1:19501 \
    -metrics "$pol_metrics" -control -duration 45s &
pol_pid=$!
sleep 1

"$bin/vigwire" -mode blast -nf policer -ext-local 127.0.0.1:29501 -ext-peer 127.0.0.1:19501 \
    -flows 32 -packets 3000 -interval 1ms &
blast_pid=$!
sleep 0.5

reply=$(curl -fsS -X POST -d '{"rate":500000,"burst":100000}' "http://$pol_metrics/control/v1/policer/resize")
rec "POST policer resize" "$reply"
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"rate":0,"burst":100}' "http://$pol_metrics/control/v1/policer/resize")
if [ "$code" -ne 400 ]; then
    echo "wire smoke: zero-rate resize returned HTTP $code, want 400" >&2
    exit 1
fi
reply=$(curl -fsS -X POST -d '{"rate":1000000,"burst":16384}' "http://$pol_metrics/control/v1/policer/resize")
rec "POST policer resize back" "$reply"

wait "$blast_pid"
blast_pid=""
doc=$(curl -fsS -H 'Accept: text/plain; version=0.0.4' "http://$pol_metrics/metrics")
pol_processed=$(metric "$doc" '^nf_processed_total\{')
if [ -z "$pol_processed" ] || [ "$pol_processed" -eq 0 ]; then
    echo "wire smoke: policer processed nothing under the blast" >&2
    exit 1
fi
kill -INT "$pol_pid"
wait "$pol_pid"
pol_pid=""
echo "wire smoke: policer resized live (processed=$pol_processed), bad resize rejected with 400, clean shutdown"

# --- Leg 4: the unix transport, lock-step then unpaced ---------------

"$bin/vignat" -verify=false -transport unix -workers 1 \
    -int-local "$sock/ni" -int-peer "$sock/gi" \
    -ext-local "$sock/ne" -ext-peer "$sock/ge" \
    -duration 60s > "$bin/nat_unix.out" &
nat_pid=$!
sleep 1

# Lock-step: one packet in flight, so the daemon parks between packets
# and waits on its external port for each translated request's reply.
"$bin/vigwire" -transport unix \
    -int-local "$sock/gi" -int-peer "$sock/ni" \
    -ext-local "$sock/ge" -ext-peer "$sock/ne" \
    -flows 64 -packets 1024
# Unpaced: frames queue faster than one wake can take them one by one.
# (The balancer's clients, sent to its VIP: the NAT drops them as
# unsolicited once it has received them, and receiving them is what is
# under test.)
"$bin/vigwire" -mode blast -nf lb -transport unix \
    -ext-local "$sock/ge" -ext-peer "$sock/ne" -flows 64 -packets 20000 -interval 0

# The daemon's peak resident set: its mempools' data rooms and its flow
# table's pages become resident only as far as the traffic ever filled
# them, so the whole daemon stays far below the ~32 MB it held when
# every room was faulted in at start-up, and the ~15 MB it held while
# its 6 MB table still was.
hwm_kb=$(awk '$1 == "VmHWM:" {print $2}' "/proc/$nat_pid/status")
if [ "$hwm_kb" -gt $((unix_hwm_mb * 1024)) ]; then
    echo "wire smoke: unix daemon peaked at $hwm_kb kB resident, want at most $unix_hwm_mb MB" >&2
    exit 1
fi

kill -INT "$nat_pid"
wait "$nat_pid"
nat_pid=""
wire_line=$(grep '^  wire q0:' "$bin/nat_unix.out") || {
    echo "wire smoke: the unix daemon printed no wire counters" >&2
    cat "$bin/nat_unix.out" >&2
    exit 1
}
# A field summed over both ports; the leading space keeps "waits" from
# also matching "reply_waits".
field() {
    printf '%s\n' "$wire_line" | grep -o " $1=[0-9]*" | awk -F= '{s += $2} END {print s + 0}'
}
waits=$(field waits)
reply_waits=$(field reply_waits)
rx_syscalls=$(field rx_syscalls)
rx_frames=$(field rx_frames)
if [ "$waits" -eq 0 ] || [ "$reply_waits" -eq 0 ] || [ "$rx_frames" -lt 21000 ] || [ "$rx_syscalls" -ge "$rx_frames" ]; then
    echo "wire smoke: unix leg: waits=$waits reply_waits=$reply_waits rx_syscalls=$rx_syscalls rx_frames=$rx_frames; want waits > 0 (parked), reply_waits > 0 (woke for replies) and rx_syscalls < rx_frames (batched) over at least 21000 frames" >&2
    exit 1
fi
# Both ports received, so both pools lent mbufs, and neither ran dry:
# "<port>.q0=<high water>/<size>", one per port.
pool_line=$(grep '^  mempool high water:' "$bin/nat_unix.out") || {
    echo "wire smoke: the unix daemon printed no mempool high-water marks" >&2
    exit 1
}
if ! printf '%s\n' "$pool_line" | grep -o 'q[0-9]*=[0-9]*/[0-9]*' | awk -F'[=/]' '
    { n++; if ($2 + 0 == 0 || $2 + 0 >= $3 + 0) bad = 1 }
    END { exit bad || n != 2 }'; then
    echo "wire smoke: unix leg: $pool_line; want each port's pool populated and below its size" >&2
    exit 1
fi
# The lock-step exchange opened flows in the one shard's table:
# "s0=<high water>/<capacity>".
table_line=$(grep '^  flow table high water:' "$bin/nat_unix.out") || {
    echo "wire smoke: the unix daemon printed no flow-table high-water mark" >&2
    exit 1
}
if ! printf '%s\n' "$table_line" | grep -o 's[0-9]*=[0-9]*/[0-9]*' | awk -F'[=/]' '
    { n++; if ($2 + 0 == 0 || $2 + 0 > $3 + 0) bad = 1 }
    END { exit bad || n != 1 }'; then
    echo "wire smoke: unix leg: $table_line; want the shard's table populated and within its capacity" >&2
    exit 1
fi
echo "wire smoke: unix oracle clean; $rx_frames frames in $rx_syscalls RX syscalls, $waits blocking waits, $reply_waits reply waits, peak RSS $hwm_kb kB,$(printf '%s' "$pool_line" | cut -d: -f2), flow table$(printf '%s' "$table_line" | cut -d: -f2), clean shutdown"

# --- Leg 5: the home gateway chain over unix, under the oracle --------

"$bin/vignat" -nf gateway -transport unix -workers 1 \
    -int-local "$sock/wi" -int-peer "$sock/hi" \
    -ext-local "$sock/we" -ext-peer "$sock/he" \
    -metrics "$gw_metrics" -duration 60s > "$bin/gw_unix.out" &
gw_pid=$!
sleep 1

# The chain's firewall, policer and balancer pass the NAT's traffic
# through, so the exchange must be RFC 3022-clean end to end.
"$bin/vigwire" -nf gateway -transport unix \
    -int-local "$sock/hi" -int-peer "$sock/wi" \
    -ext-local "$sock/he" -ext-peer "$sock/we" \
    -flows 64 -packets 1024 &
wire_pid=$!
# Scrape the chain while the exchange runs, until a scrape counts
# something; the last try comes after the exchange, should it be over
# before any published burst.
gw_processed=0
while [ "$gw_processed" -eq 0 ]; do
    running=0
    kill -0 "$wire_pid" 2>/dev/null && running=1
    doc=$(curl -fsS -H 'Accept: text/plain; version=0.0.4' "http://$gw_metrics/metrics")
    gw_processed=$(metric "$doc" '^nf_processed_total\{')
    gw_processed=${gw_processed:-0}
    [ "$running" -eq 1 ] || break
    sleep 0.02
done
wait "$wire_pid"
wire_pid=""
if [ "$gw_processed" -eq 0 ]; then
    echo "wire smoke: no scrape of the gateway counted a processed packet" >&2
    exit 1
fi
# The chain reports its elements' flow tables: one high-water series
# for each of the four that keeps one, labelled with the element, and
# the exchange's flows in them.
doc=$(curl -fsS -H 'Accept: text/plain; version=0.0.4' "http://$gw_metrics/metrics")
if ! printf '%s\n' "$doc" | awk '
    $1 ~ /^nf_flow_table_high_water[{].*elem="/ { n++; sum += $2 }
    END { exit !(n == 4 && sum > 0) }'; then
    echo "wire smoke: the gateway's /metrics lacks a populated nf_flow_table_high_water series per table-keeping element" >&2
    printf '%s\n' "$doc" | grep '^nf_flow_table' >&2
    exit 1
fi

kill -INT "$gw_pid"
wait "$gw_pid"
gw_pid=""
if ! grep -q '^mbuf accounting clean' "$bin/gw_unix.out" || [ "$(grep -c 'PROOF COMPLETE' "$bin/gw_unix.out")" -ne 4 ] ||
    ! grep -q '^  flow table high water: firewall\.s0=' "$bin/gw_unix.out"; then
    echo "wire smoke: the gateway daemon did not prove its four elements, report their tables and shut down clean" >&2
    cat "$bin/gw_unix.out" >&2
    exit 1
fi
echo "wire smoke: gateway chain ($(grep -o 'gateway\[[^]]*\]' "$bin/gw_unix.out" | head -1)) oracle clean over unix, $gw_processed processed at the first scrape that counted any, clean shutdown"

echo "wire smoke: OK ($(wc -l < "$trace") control transactions traced to $trace)"
