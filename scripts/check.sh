#!/usr/bin/env bash
# Full pre-merge check: tier-1 verify (ROADMAP.md; its ctest already runs
# the bench, attribution and artifact-schema smokes), the fig_overload
# memory guard at 1M logical clients (≤64 B/client), an ASan+UBSan build of
# the whole tree with the sanitize-labeled test suite, the chaos sweeps, the
# schedule-space exploration sweeps (label: explore), the one-sided
# synchronization suite (label: sync) and the permission-guarded consensus
# suite (label: consensus) under both the ASan and TSan presets,
# a ThreadSanitizer pass over the threaded sweep-harness paths, and the gcov
# line-coverage floor on src/check/ + src/explore/ + src/sync/ +
# src/consensus/ (scripts/coverage.sh).
#
#   scripts/check.sh                 # tier-1 + sanitizers
#   scripts/check.sh --fast          # tier-1 only
#   scripts/check.sh --jobs 4        # cap build/ctest/sweep parallelism
#
# --jobs also propagates to the in-process sweep harness (bench drivers and
# chaos_test read PRISM_JOBS when no --jobs=N flag is given).
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
JOBS="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --fast) FAST=1 ;;
    --jobs) JOBS="$2"; shift ;;
    --jobs=*) JOBS="${1#--jobs=}" ;;
    *) echo "usage: scripts/check.sh [--fast] [--jobs N]" >&2; exit 2 ;;
  esac
  shift
done
export PRISM_JOBS="$JOBS"

echo "==> tier-1: configure + build (build/)"
cmake --preset default >/dev/null
cmake --build build -j "$JOBS"

echo "==> tier-1: ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "==> overload: per-client memory guard (≤64 B/client at 1M clients)"
(cd build && ./bench/fig_overload --guard=1000000)

if [[ "$FAST" == 1 ]]; then
  echo "OK (fast: sanitizer pass skipped)"
  exit 0
fi

echo "==> sanitize: ASan+UBSan configure + build (build-asan/)"
cmake --preset asan >/dev/null
cmake --build build-asan -j "$JOBS"

echo "==> sanitize: ctest (label: sanitize)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L sanitize

echo "==> chaos: seeded fault-injection sweeps under ASan (label: chaos)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L chaos

echo "==> explore: schedule-space exploration sweeps under ASan (label: explore)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L explore

echo "==> sync: one-sided synchronization suite under ASan (label: sync)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L sync

echo "==> consensus: permission-guarded consensus suite under ASan (label: consensus)"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L consensus

echo "==> tsan: ThreadSanitizer configure + build (build-tsan/)"
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS"

echo "==> tsan: sweep harness + chaos sweeps under TSan"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'SweepHarness|ChaosSweep'

echo "==> tsan: one-sided synchronization suite under TSan (label: sync)"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L sync

echo "==> tsan: permission-guarded consensus suite under TSan (label: consensus)"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L consensus

echo "==> coverage: gcov line-coverage floor on src/check/ + src/explore/ + src/sync/ + src/consensus/"
scripts/coverage.sh --jobs "$JOBS"

echo "OK"
