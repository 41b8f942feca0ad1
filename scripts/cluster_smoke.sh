#!/usr/bin/env bash
# Cluster smoke: boot N shard PROCESSES + a router process over real
# sockets, drive a scripted session through the line protocol, and
# assert routing, pruning, cross-process migration, compaction and the
# snapshot round trip. This is the OS-process variant of
# `scq-serve --cluster-self-test`: same wire protocol, same script
# shape, but every shard is its own `scq-serve --shard` process, so a
# leaked listener, an orphaned child or a readiness race fails loudly
# here rather than in production.
#
# Process hygiene: every PID lands in CLEANUP_PIDS and the EXIT trap
# kills them whatever happens — a failing assertion must never leak a
# detached server into the CI runner (or a developer laptop).
set -euo pipefail

BIN="${SCQ_SERVE_BIN:-./target/release/scq-serve}"
WORK="$(mktemp -d)"
CLEANUP_PIDS=()

cleanup() {
    local status=$?
    if [ "$status" -ne 0 ]; then
        echo "--- cluster smoke FAILED (exit $status); process logs follow ---"
        for log in "$WORK"/*.log; do
            [ -f "$log" ] || continue
            echo "::group::$(basename "$log")"
            cat "$log"
            echo "::endgroup::"
        done
        # In CI the workdir is a mktemp dir the trap is about to delete;
        # SMOKE_KEEP_DIR rescues logs, transcripts and snapshot dirs so
        # the failure is debuggable from the uploaded artifact.
        if [ -n "${SMOKE_KEEP_DIR:-}" ]; then
            mkdir -p "$SMOKE_KEEP_DIR"
            cp -r "$WORK"/. "$SMOKE_KEEP_DIR"/ 2>/dev/null || true
        fi
    fi
    if [ "${#CLEANUP_PIDS[@]}" -gt 0 ]; then
        kill "${CLEANUP_PIDS[@]}" 2>/dev/null || true
        wait "${CLEANUP_PIDS[@]}" 2>/dev/null || true
    fi
    rm -rf "$WORK"
    exit "$status"
}
trap cleanup EXIT

# Starts a detached server ($2...) logging to $WORK/$1.log, records its
# PID for cleanup, and polls the log until the server prints its bound
# address ("listening on HOST:PORT") — ephemeral ports + readiness
# polling, no fixed ports, no sleep-and-hope. The retry count is
# bounded (10s worst case) and a server that dies during startup fails
# the poll immediately instead of burning the full window. The address
# lands in $ADDR.
start_server() {
    local name="$1"
    shift
    "$@" >"$WORK/$name.log" 2>&1 &
    SERVER_PID=$!
    CLEANUP_PIDS+=("$SERVER_PID")
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$WORK/$name.log" | head -n 1)"
        [ -n "$ADDR" ] && return 0
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "$name exited before becoming ready" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "$name did not become ready within 10s" >&2
    return 1
}

echo "=== booting 2 shard processes ==="
start_server shard_a "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
SHARD_A="$ADDR"
start_server shard_b "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
SHARD_B="$ADDR"
SHARD_B_PID="$SERVER_PID"
echo "shard processes: $SHARD_A $SHARD_B"

# The spec splits the 6-bit z-key space (4096 cells) evenly — the same
# file format ClusterSpec::parse reads and to_text writes.
cat >"$WORK/cluster.spec" <<EOF
# generated by cluster_smoke.sh
universe 0 0 1000 1000
bits 6
shard $SHARD_A 0 2048
shard $SHARD_B 2048 4096
EOF

echo "=== booting the router tier ==="
start_server router "$BIN" --cluster "$WORK/cluster.spec" --addr 127.0.0.1:0 --threads 2
ROUTER="$ADDR"
echo "router: $ROUTER"

echo "=== scripted session over real sockets ==="
SNAP="$WORK/snapshot"
"$BIN" --client "$ROUTER" >"$WORK/transcript.txt" <<EOF
PING
SHARDS
CREATE objs
INSERT objs 50 50 60 60
INSERT objs 900 900 920 920
INSERT objs 100 80 140 120
SHARDS
QUERY objs rtree within 0 0 200 200
UPDATE objs 1 20 20 40 40
SHARDS
QUERY objs rtree within 0 0 200 200
QUERY objs rtree within 800 800 1000 1000
SOLVE rtree all A=coll:objs,C=box:0:0:200:200 A <= C
REMOVE objs 2
COMPACT
SNAPSHOT SAVE $SNAP
SNAPSHOT LOAD $SNAP
QUERY objs rtree within 0 0 200 200
QUERY objs rtree within 0 0 1000 1000
STAT
QUIT
EOF
cat "$WORK/transcript.txt"

echo "=== assertions ==="
expect() {
    if ! grep -qF -- "$1" "$WORK/transcript.txt"; then
        echo "MISSING from transcript: $1" >&2
        exit 1
    fi
}
# the router really fronts remote shard processes
expect 'OK shards=2 collections=1 live=2 backend=remote:'
# objects land on both shard processes by z-range…
expect 'OK n=2 live=2,1 backend=remote:'
# …and the update MIGRATED one across processes
expect 'OK n=2 live=3,0 backend=remote:'
# the router pruned the far shard over real sockets (1 of 2)
expect 'OK n=2 pruned=1'
expect 'OK n=3 pruned=1'
expect 'OK n=0 pruned=1'
# constraint solve, compaction and the snapshot round trip all answered
expect 'OK n=3 pruned='
expect 'OK reclaimed=1'
expect 'OK saved shards=2'
expect 'OK loaded collections=1'
# the snapshot files really exist (manifest + one stream per shard)
test -f "$SNAP/manifest.scqm"
test -f "$SNAP/shard-0000.scqs"
test -f "$SNAP/shard-0001.scqs"
# the healthy universe-wide answer, kept for the dead-shard read below
# (the trace= suffix is a per-session request counter, not state)
HEALTHY="$(grep -F 'pruned=0 ids=' "$WORK/transcript.txt" | tail -n 1 | sed 's/ trace=[0-9]*$//')"
if [ -z "$HEALTHY" ]; then
    echo "transcript has no universe-wide answer" >&2
    exit 1
fi

echo "=== metrics scrape: router exposition + one shard's own registry ==="
# Two scrapes through the line protocol: the merged three-tier view
# (serve + router + every shard) and one shard's registry fetched over
# the shard wire. The healthy session above already drove writes
# through both shard processes and probes through the router, so
# latency histograms must be non-empty on every tier.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/metrics_scrape.txt" <<EOF
METRICS
QUIT
EOF
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/metrics_shard0.txt" <<EOF
METRICS SHARD 0
QUIT
EOF

# Every line of both scrapes is a comment, a protocol header, or a
# well-formed exposition sample (name{labels} value) — a half-written
# sample line means the renderer or the client framing is broken.
for scrape in metrics_scrape metrics_shard0; do
    bad="$(grep -vE '^(#|OK|$)' "$WORK/$scrape.txt" \
        | grep -vE '^[A-Za-z_][A-Za-z0-9_]*(\{[^}]*\})? -?[0-9][0-9.eE+-]*$' || true)"
    if [ -n "$bad" ]; then
        echo "malformed exposition lines in $scrape.txt:" >&2
        echo "$bad" >&2
        exit 1
    fi
done

expect_metric() {
    if ! grep -qE -- "$1" "$WORK/metrics_scrape.txt"; then
        echo "MISSING from router metrics scrape: $1" >&2
        exit 1
    fi
}
# the serve tier timed its commands…
expect_metric 'serve_query_latency_us_count\{tier="serve"\} [1-9]'
# …the router timed its per-shard probes…
expect_metric 'shard_probe_latency_us_count\{tier="router"\} [1-9]'
# …and both shard processes shipped their own non-empty op histograms
# (their writes: reads never reach them) through the router merge
expect_metric '_latency_us_count\{tier="shard",shard="0"\} [1-9]'
expect_metric '_latency_us_count\{tier="shard",shard="1"\} [1-9]'
# the healthy run logged no slow query
expect_metric 'serve_slow_queries\{tier="serve"\} 0$'
# the direct shard scrape reports that shard's own registry
grep -qE '^shard_[a-z_]+_latency_us_count\{tier="shard",shard="0"\} [1-9]' "$WORK/metrics_shard0.txt" || {
    echo "shard 0 scrape has no non-empty op latency histogram" >&2
    exit 1
}

# CI uploads the scrapes as an artifact regardless of outcome.
if [ -n "${SMOKE_SCRAPE_DIR:-}" ]; then
    mkdir -p "$SMOKE_SCRAPE_DIR"
    cp "$WORK/metrics_scrape.txt" "$WORK/metrics_shard0.txt" "$SMOKE_SCRAPE_DIR"/
fi

echo "=== SIGKILL one shard process mid-session ==="
kill -9 "$SHARD_B_PID"
wait "$SHARD_B_PID" 2>/dev/null || true
# Reads answer from the router's mirror of every shard, so a dead shard
# process takes nothing away from them; mutations routed at it fail as
# ERR lines — all without hanging (the timeout turns a wedged router
# into a loud failure). The universe-wide query uses a fresh box (999:
# still covers every object) so the serve tier's candidate cache cannot
# answer it.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/degraded.txt" <<EOF
QUERY objs rtree within 0 0 999 999
INSERT objs 900 900 920 920
QUERY objs rtree within 0 0 200 200
STAT
QUIT
EOF
cat "$WORK/degraded.txt"

expect_degraded() {
    if ! grep -qF -- "$1" "$WORK/degraded.txt"; then
        echo "MISSING from degraded transcript: $1" >&2
        exit 1
    fi
}
# the universe-wide read is complete: exactly the healthy answer
DEAD_READ="$(grep -F 'ids=' "$WORK/degraded.txt" | head -n 1 | sed 's/ trace=[0-9]*$//')"
if [ "$DEAD_READ" != "$HEALTHY" ]; then
    echo "the read over the dead shard differs from the healthy answer" >&2
    echo "  healthy: $HEALTHY" >&2
    echo "  got:     $DEAD_READ" >&2
    exit 1
fi
# a mutation routed at the dead shard fails loudly, is never retried
expect_degraded 'ERR '
# the low-corner query: still a complete, pruned answer
expect_degraded 'OK n=2 pruned=1'

echo "=== replicated topology: a dead primary fails writes, never reads ==="
# 2 ranges x 2 replicas each (primary first). The breaker cooldown is
# longer than the script so a tripped address stays visibly tripped.
start_server rep_w0 "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
REP_W0="$ADDR"
REP_W0_PID="$SERVER_PID"
start_server rep_w1 "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
REP_W1="$ADDR"
start_server rep_e0 "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
REP_E0="$ADDR"
start_server rep_e1 "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
REP_E1="$ADDR"
echo "replica processes: west=$REP_W0,$REP_W1 east=$REP_E0,$REP_E1"

cat >"$WORK/replicated.spec" <<EOF
# generated by cluster_smoke.sh — replicated form: name, replica list, range
universe 0 0 1000 1000
bits 6
breaker 3 60000
shard west $REP_W0,$REP_W1 0 2048
shard east $REP_E0,$REP_E1 2048 4096
EOF

start_server router_rep "$BIN" --cluster "$WORK/replicated.spec" --addr 127.0.0.1:0 --threads 2
ROUTER_REP="$ADDR"
echo "replicated router: $ROUTER_REP"

# Seed one object per range while everything is healthy.
timeout 60 "$BIN" --client "$ROUTER_REP" >"$WORK/replicated_seed.txt" <<EOF
CREATE objs
INSERT objs 50 50 60 60
INSERT objs 900 900 920 920
QUERY objs rtree within 0 0 1000 1000
QUIT
EOF
cat "$WORK/replicated_seed.txt"
grep -qF 'OK n=2 pruned=0' "$WORK/replicated_seed.txt" || {
    echo "healthy replicated cluster failed to answer" >&2
    exit 1
}

echo "=== SIGKILL the write primary of one range ==="
kill -9 "$REP_W0_PID"
wait "$REP_W0_PID" 2>/dev/null || true
# The post-kill queries use fresh boxes (999/998, both still covering
# every object), so the serve tier's candidate cache cannot answer
# them. Three writes routed at the dead primary make three consecutive
# failures, which trip its breaker.
timeout 60 "$BIN" --client "$ROUTER_REP" >"$WORK/replicated.txt" <<EOF
QUERY objs rtree within 0 0 999 999
INSERT objs 40 40 45 45
INSERT objs 30 30 35 35
INSERT objs 20 20 25 25
QUERY objs rtree within 0 0 998 998
STAT
QUIT
EOF
cat "$WORK/replicated.txt"

expect_replicated() {
    if ! grep -qF -- "$1" "$WORK/replicated.txt"; then
        echo "MISSING from replicated transcript: $1" >&2
        exit 1
    fi
}
# the dead primary's range still reads in full from the router's
# mirror: both reads are complete OK lines
if [ "$(grep -cF 'OK n=2 pruned=0 ids=' "$WORK/replicated.txt")" -ne 2 ]; then
    echo "reads over the dead primary's range were not both complete" >&2
    exit 1
fi
# a write routed at the dead primary fails loudly — no silent redirect
expect_replicated 'ERR '
if grep -qF 'OK ref=' "$WORK/replicated.txt"; then
    echo "a write routed at the dead primary was acknowledged" >&2
    exit 1
fi
# after 3 consecutive write failures the dead address's breaker
# is visibly tripped in the per-replica health, with the surviving
# replica healthy
expect_replicated "health=shard0[$REP_W0,primary,tripped"
expect_replicated ',in-sync'

echo "cluster smoke passed"
