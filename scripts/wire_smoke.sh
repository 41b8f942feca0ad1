#!/usr/bin/env bash
# Wire-protocol smoke through real processes — one shard, one router,
# three phases:
#
# 1. the router runs a scripted session against the shard process, and
#    its STAT replica health must report the wire version the
#    handshake settled on (`wire=v4`);
# 2. a client from the previous wire generation — a raw `Hello` at
#    version 3 — is refused by the shard process with the named error
#    (`wire version mismatch: shard speaks 4, client speaks 3`) and a
#    clean close, never a hang;
# 3. the shard is SIGKILLed mid-session (while a snapshot response may
#    be streaming) and the router answers under a hard timeout: reads
#    in full from its mirror, writes with named error lines — a
#    severed stream is a *named* transport error, never a hang.
#
# Process hygiene: every PID lands in CLEANUP_PIDS and the EXIT trap
# kills them whatever happens.
set -euo pipefail

BIN="${SCQ_SERVE_BIN:-./target/release/scq-serve}"
WORK="$(mktemp -d)"
CLEANUP_PIDS=()

cleanup() {
    local status=$?
    if [ "$status" -ne 0 ]; then
        echo "--- wire smoke FAILED (exit $status); process logs follow ---"
        for log in "$WORK"/*.log; do
            [ -f "$log" ] || continue
            echo "::group::$(basename "$log")"
            cat "$log"
            echo "::endgroup::"
        done
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
# address. The address lands in $ADDR, the PID in $SERVER_PID.
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

echo "=== one router, one shard: the scripted session over wire v4 ==="
start_server shard "$BIN" --shard --addr 127.0.0.1:0 --threads 2 --universe 1000
SHARD="$ADDR"
SHARD_PID="$SERVER_PID"
cat >"$WORK/cluster.spec" <<EOF
universe 0 0 1000 1000
bits 6
shard $SHARD 0 4096
EOF
start_server router "$BIN" --cluster "$WORK/cluster.spec" --addr 127.0.0.1:0 --threads 2
ROUTER="$ADDR"
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/transcript.txt" <<'EOF'
PING
CREATE objs
INSERT objs 50 50 60 60
INSERT objs 900 900 920 920
INSERT objs 100 80 140 120
SHARDS
QUERY objs rtree within 0 0 200 200
UPDATE objs 1 20 20 40 40
QUERY objs rtree within 0 0 200 200
SOLVE rtree all A=coll:objs,C=box:0:0:200:200 A <= C
REMOVE objs 2
COMPACT
QUERY objs rtree within 0 0 1000 1000
STAT
QUIT
EOF
cat "$WORK/transcript.txt"
if grep -q '^ERR' "$WORK/transcript.txt"; then
    echo "the scripted session hit an error" >&2
    exit 1
fi
grep -qE '^OK n=3 pruned=0 ids=0,1,2( |$)' "$WORK/transcript.txt" || {
    echo "the post-update QUERY did not answer all three objects" >&2
    exit 1
}
grep -qF ",wire=v4]" "$WORK/transcript.txt" || {
    echo "STAT health does not report wire=v4" >&2
    exit 1
}

echo "=== a version-3 client is refused by name, then closed ==="
# One plain frame: u32 LE length 7 | opcode 0x01 | "SCQW" | u16 LE 3.
# `cat` returns only when the shard closes the connection, so the
# timeout doubles as the no-hang assertion.
exec 3<>"/dev/tcp/${SHARD%:*}/${SHARD##*:}"
printf '\x07\x00\x00\x00\x01SCQW\x03\x00' >&3
if ! timeout 10 cat <&3 >"$WORK/refusal.bin"; then
    echo "the shard did not close the connection after refusing v3" >&2
    exit 1
fi
exec 3<&- 3>&-
grep -aqF 'wire version mismatch: shard speaks 4, client speaks 3' "$WORK/refusal.bin" || {
    echo "the v3 handshake was not refused with the named error:" >&2
    od -c "$WORK/refusal.bin" >&2
    exit 1
}
echo "refused: wire version mismatch: shard speaks 4, client speaks 3"

echo "=== mid-stream sever: SIGKILL the shard under an in-flight snapshot ==="
# Enough objects that the shard's snapshot answer streams for a while.
{
    for i in $(seq 0 399); do
        x=$(( (i % 20) * 48 + 4 ))
        y=$(( (i / 20) * 48 + 4 ))
        echo "INSERT objs $x $y $((x + 6)) $((y + 6))"
    done
    echo "QUIT"
} | timeout 120 "$BIN" --client "$ROUTER" >"$WORK/sever_seed.txt"
grep -cF 'OK ref=' "$WORK/sever_seed.txt" | grep -qx 400 || {
    echo "seeding the shard failed" >&2
    exit 1
}

# Race a snapshot pull against the kill: whichever wins, the client
# must exit promptly with either a complete OK or a named ERR — a
# severed response stream must never wedge the router.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/sever_snapshot.txt" <<EOF &
SNAPSHOT SAVE $WORK/sever_snap
QUIT
EOF
CLIENT_PID=$!
sleep 0.2
kill -9 "$SHARD_PID"
wait "$SHARD_PID" 2>/dev/null || true
if ! wait "$CLIENT_PID"; then
    echo "snapshot client hung or died abnormally after the sever" >&2
    exit 1
fi
grep -qE '^(OK saved|ERR )' "$WORK/sever_snapshot.txt" || {
    echo "severed snapshot neither completed nor failed with a named error:" >&2
    cat "$WORK/sever_snapshot.txt" >&2
    exit 1
}
cat "$WORK/sever_snapshot.txt"

# With the shard dead, reads still answer in full from the router's
# mirror, and mutations fail with named ERR lines — still no hang.
timeout 60 "$BIN" --client "$ROUTER" >"$WORK/sever_after.txt" <<'EOF'
QUERY objs rtree within 0 0 999 999
INSERT objs 10 10 20 20
STAT
QUIT
EOF
cat "$WORK/sever_after.txt"
# the 2 objects of the first session plus the 400 seeded ones
grep -qF 'OK n=402 pruned=0 ' "$WORK/sever_after.txt" || {
    echo "a read over the dead shard did not answer every object" >&2
    exit 1
}
grep -qF 'ERR ' "$WORK/sever_after.txt" || {
    echo "dead shard did not fail mutations with a named ERR" >&2
    exit 1
}
grep -qF 'shards_unavailable=0 partial_answers=0' "$WORK/sever_after.txt" || {
    echo "a read over the dead shard was counted as degraded" >&2
    exit 1
}

echo "wire smoke passed"
