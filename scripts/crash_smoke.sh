#!/usr/bin/env bash
# Crash-recovery smoke: boot a WAL-enabled cluster of real OS
# processes, SIGKILL one shard mid-churn, restart it behind the SAME
# address with the SAME WAL directory, and assert that recovery is
# exact — the post-restart answers are byte-identical to the pre-crash
# oracle, `STAT` proves records were replayed (`wal_replayed>0`,
# `wal_torn_tails=0`), and the revived shard accepts writes again.
#
# This is the durability claim of the WAL subsystem exercised end to
# end: an acknowledged mutation survives `kill -9` because the shard
# only acknowledges after its record is fsynced, and replay on restart
# rebuilds the exact pre-crash state from snapshot + log.
#
# Process hygiene matches cluster_smoke.sh: every PID lands in
# CLEANUP_PIDS and the EXIT trap kills them whatever happens.
set -euo pipefail

BIN="${SCQ_SERVE_BIN:-./target/release/scq-serve}"
WORK="$(mktemp -d)"
WAL_ROOT="$WORK/wal"
CLEANUP_PIDS=()

cleanup() {
    local status=$?
    if [ "$status" -ne 0 ]; then
        echo "--- crash smoke FAILED (exit $status); process logs follow ---"
        for log in "$WORK"/*.log; do
            [ -f "$log" ] || continue
            echo "::group::$(basename "$log")"
            cat "$log"
            echo "::endgroup::"
        done
        echo "::group::wal directory listing"
        ls -lR "$WAL_ROOT" 2>/dev/null || true
        echo "::endgroup::"
        # In CI the workdir is a mktemp dir the trap is about to delete;
        # SMOKE_KEEP_DIR rescues logs, transcripts and WAL segments so
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

# Same bounded readiness poll as cluster_smoke.sh: log-tail for the
# bound address, fail fast if the process dies during startup.
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

echo "=== booting 2 WAL-enabled shard processes ==="
start_server shard_a "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000 \
    --wal "$WAL_ROOT/shard_a"
SHARD_A="$ADDR"
start_server shard_b "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000 \
    --wal "$WAL_ROOT/shard_b"
SHARD_B="$ADDR"
SHARD_B_PID="$SERVER_PID"
echo "shard processes: $SHARD_A $SHARD_B (wal under $WAL_ROOT)"

# Durability is the shard processes' own `--wal` flag above; the spec
# only names them. The short breaker cooldown means a tripped address
# recovers well within the post-restart session even if the failure
# count drifts.
cat >"$WORK/cluster.spec" <<EOF
# generated by crash_smoke.sh
universe 0 0 1000 1000
bits 6
breaker 3 500
shard $SHARD_A 0 2048
shard $SHARD_B 2048 4096
EOF

echo "=== booting the router tier ==="
start_server router "$BIN" --cluster "$WORK/cluster.spec" --addr 127.0.0.1:0 --threads 2
ROUTER="$ADDR"
echo "router: $ROUTER"

echo "=== churn phase 1: mutations across both shards ==="
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/churn1.txt" <<EOF
CREATE objs
INSERT objs 50 50 60 60
INSERT objs 900 900 920 920
INSERT objs 100 80 140 120
INSERT objs 850 850 870 870
INSERT objs 10 10 20 20
INSERT objs 930 930 940 940
UPDATE objs 0 30 30 45 45
REMOVE objs 2
QUERY objs rtree within 0 0 1000 1000
STAT
QUIT
EOF
cat "$WORK/churn1.txt"

expect1() {
    if ! grep -qF -- "$1" "$WORK/churn1.txt"; then
        echo "MISSING from churn transcript: $1" >&2
        exit 1
    fi
}
expect1 'OK shards=2 collections=1 live=5 backend=remote:'
# the oracle: every acknowledged mutation applied, full-universe answer
# (the trace= suffix is a per-session request counter, not state —
# strip it so the byte-identity check compares answers, not sessions)
ORACLE="$(grep -F 'ids=' "$WORK/churn1.txt" | head -n 1 | sed 's/ trace=[0-9]*$//')"
if [ -z "$ORACLE" ]; then
    echo "churn transcript has no query answer to use as the oracle" >&2
    exit 1
fi
echo "oracle answer: $ORACLE"
# both shard processes acknowledged durable appends before answering
expect1 ' wal_appended='
if grep -qF 'wal_appended=0 ' "$WORK/churn1.txt"; then
    echo "STAT shows no WAL appends despite the churn" >&2
    exit 1
fi
expect1 ' wal_torn_tails=0'

echo "=== SIGKILL shard B mid-churn ==="
kill -9 "$SHARD_B_PID"
wait "$SHARD_B_PID" 2>/dev/null || true
# The interrupted churn fails loudly at the dead shard (never silently
# dropped) and reads answer in full from the router's mirror — the
# cluster stays live. The query uses a fresh box (999: still covers
# every object, max coord is 940), so the serve tier's candidate cache
# cannot answer it.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/degraded.txt" <<EOF
INSERT objs 880 880 890 890
QUERY objs rtree within 0 0 999 999
QUIT
EOF
cat "$WORK/degraded.txt"
grep -qF 'ERR ' "$WORK/degraded.txt" || {
    echo "mutation at the dead shard did not fail loudly" >&2
    exit 1
}
DEAD_READ="$(grep -F 'ids=' "$WORK/degraded.txt" | head -n 1 | sed 's/ trace=[0-9]*$//')"
if [ "$DEAD_READ" != "$ORACLE" ]; then
    echo "the read over the dead shard is not the pre-kill answer" >&2
    echo "  oracle: $ORACLE" >&2
    echo "  got:    $DEAD_READ" >&2
    exit 1
fi

echo "=== restart shard B behind the same address, same WAL dir ==="
# The kernel may hold the port briefly after kill -9 (lingering
# connection state); the dead-process fast path in start_server makes
# a failed bind cheap, so retry the restart a few times.
RESTARTED=0
for _ in $(seq 1 20); do
    if start_server shard_b_revived "$BIN" --shard --addr "$SHARD_B" --threads 2 --universe 1000 \
        --wal "$WAL_ROOT/shard_b"; then
        RESTARTED=1
        break
    fi
    sleep 0.25
done
if [ "$RESTARTED" -ne 1 ]; then
    echo "shard B failed to rebind $SHARD_B after SIGKILL" >&2
    exit 1
fi
if [ "$ADDR" != "$SHARD_B" ]; then
    echo "revived shard bound $ADDR, wanted $SHARD_B" >&2
    exit 1
fi
# the shard's own boot log proves replay happened (printed at startup)
for _ in $(seq 1 50); do
    grep -qF 'scq-shard wal: replayed' "$WORK/shard_b_revived.log" && break
    sleep 0.1
done
grep -F 'scq-shard wal: replayed' "$WORK/shard_b_revived.log" || {
    echo "revived shard never reported a WAL replay" >&2
    exit 1
}

echo "=== recovery assertions: oracle-equal answers + wal_replayed>0 ==="
# Another fresh box (998, same answer as the oracle's 1000 box). Reads
# answer from the router's mirror, so this shows the router kept every
# acknowledged write across the crash; the revived shard's own replayed
# state shows in wal_replayed below and in the resumed writes, which
# the shard must answer with the mirror's own slots or be refused.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/recovered.txt" <<EOF
QUERY objs rtree within 0 0 998 998
QUERY objs rtree within 800 800 1000 1000
STAT
QUIT
EOF
cat "$WORK/recovered.txt"

ANSWER="$(grep -F 'ids=' "$WORK/recovered.txt" | head -n 1 | sed 's/ trace=[0-9]*$//')"
if [ "$ANSWER" != "$ORACLE" ]; then
    echo "post-recovery answer diverged from the pre-crash oracle" >&2
    echo "  oracle: $ORACLE" >&2
    echo "  got:    $ANSWER" >&2
    exit 1
fi
# the revived shard's range answers completely
grep -qF 'OK n=3 pruned=1' "$WORK/recovered.txt" || {
    echo "revived shard's range did not answer completely" >&2
    exit 1
}
# STAT merges the revived shard's counters: records were replayed and
# the log tail survived kill -9 untorn (at worst one torn tail is
# tolerated and would still recover, but this workload syncs fully)
REPLAYED="$(grep -o 'wal_replayed=[0-9]*' "$WORK/recovered.txt" | head -n 1)"
case "$REPLAYED" in
    wal_replayed=0|'')
        echo "STAT shows no replayed WAL records after the restart (got ${REPLAYED:-nothing})" >&2
        exit 1
        ;;
esac
echo "recovered with $REPLAYED"

echo "=== the revived shard accepts new durable writes in lockstep ==="
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/resumed.txt" <<EOF
INSERT objs 860 820 880 840
INSERT objs 60 20 70 30
QUERY objs rtree within 0 0 1000 1000
QUIT
EOF
cat "$WORK/resumed.txt"
grep -qF 'OK n=7 pruned=0' "$WORK/resumed.txt" || {
    echo "churn did not resume cleanly across both shards" >&2
    exit 1
}
if grep -qF 'ERR ' "$WORK/resumed.txt"; then
    echo "resumed churn still failing after recovery" >&2
    exit 1
fi

echo "crash smoke passed"
