#!/usr/bin/env bash
# Builds the serving daemon, the CLI (ball-index builder) and the
# benchmark from source, then runs one benchmark measurement.
#
#   bash servebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build artefacts go to
# $CARGO_TARGET_DIR (default: target/); the benchmark's scratch files
# (ball index, daemon log) go to $CARGO_TARGET_DIR/servebench-work.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --manifest-path "$root/Cargo.toml" \
    --bin meloppr-serve --bin meloppr-cli >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/meloppr-servebench" \
    --bin-dir "$target/release" --work-dir "$target/servebench-work" "$@"
