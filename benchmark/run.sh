#!/usr/bin/env bash
# The one command of the repo benchmark: builds the servers (the root
# workspace's release `scq-serve`) and the driver (this directory's own
# workspace), then runs the driver with the arguments given.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed S] [--workload W] [--traced] [--repeat N] [--quick]
#
# It works from the root of the checkout it lives in. Both builds share one target
# directory — $CARGO_TARGET_DIR when set, ./target otherwise — and the
# driver looks for `scq-serve` there. Everything the run writes (server
# logs, WAL segments, trace files) goes under benchmark/out/.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# Builds report on stderr: the last line of stdout is the result.
cargo build --release --offline --quiet -p scq-serve --bin scq-serve 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/scq-benchmark" "$@"
