#!/usr/bin/env bash
# Regenerates the committed smoke-bench baseline (results/json/baseline/)
# that scripts/check.sh and CI diff against with memlp_report. Run after an
# intentional performance/accuracy change, eyeball the memlp_report diff it
# prints, and commit the updated BENCH_*.json files with the change.
#
# The sweep is pinned (MEMLP_MAX_M=16, 2 trials, seed 42, 1 thread) and must
# stay in lockstep with the smoke-bench stage in scripts/check.sh.
#
# Usage: scripts/update_baseline.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BASELINE_DIR="results/json/baseline"

if [ ! -x "$BUILD_DIR/bench/fig6a_latency" ]; then
  echo "error: $BUILD_DIR/bench/fig6a_latency not built (cmake --build $BUILD_DIR)" >&2
  exit 2
fi

PINNED_ENV=(MEMLP_MAX_M=16 MEMLP_TRIALS=2 MEMLP_SEED=42 MEMLP_THREADS=1
            MEMLP_BENCH_DIR="$BASELINE_DIR")
mkdir -p "$BASELINE_DIR"
OLD_DIR="$(mktemp -d)"
trap 'rm -rf "$OLD_DIR"' EXIT
cp "$BASELINE_DIR"/BENCH_*.json "$OLD_DIR"/ 2>/dev/null || true

env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/fig6a_latency" > /dev/null
env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/fig7a_energy" > /dev/null
env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/complexity_scaling" > /dev/null
env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/ablation_sparsity" > /dev/null
env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/noc_scalability" > /dev/null
env "${PINNED_ENV[@]}" "$BUILD_DIR/bench/fig7b_energy_ls" > /dev/null

echo "baseline refreshed under $BASELINE_DIR:"
ls -1 "$BASELINE_DIR"
if ls "$OLD_DIR"/BENCH_*.json > /dev/null 2>&1 &&
   [ -x "$BUILD_DIR/tools/memlp_report" ]; then
  echo
  echo "diff vs previous baseline (informational):"
  "$BUILD_DIR/tools/memlp_report" --tolerance-measured 5.0 \
    "$OLD_DIR" "$BASELINE_DIR" || true
fi
