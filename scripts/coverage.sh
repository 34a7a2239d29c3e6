#!/usr/bin/env bash
# Line-coverage gate for the correctness-critical layers.
#
# Builds the gcov-instrumented tree (build-cov/, preset "coverage"), runs
# the checker/oracle/exploration test binaries, then aggregates raw gcov
# line counts for every translation unit under src/check/, src/explore/,
# src/sync/, and src/consensus/
# and fails if the combined line coverage drops below the floor.
#
#   scripts/coverage.sh                # build + run + enforce floor
#   scripts/coverage.sh --jobs 4       # cap build/test parallelism
#   scripts/coverage.sh --min 75       # override the floor (percent)
#
# Only stock gcov is used (no gcovr/lcov dependency): each .gcda produced by
# the test run is fed to `gcov -n`, whose "File/Lines executed" summary
# pairs are parsed and summed per source file.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
MIN_PERCENT=80
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift ;;
    --jobs=*) JOBS="${1#--jobs=}" ;;
    --min) MIN_PERCENT="$2"; shift ;;
    --min=*) MIN_PERCENT="${1#--min=}" ;;
    *) echo "usage: scripts/coverage.sh [--jobs N] [--min PCT]" >&2; exit 2 ;;
  esac
  shift
done

BUILD=build-cov
# The test binaries whose runs exercise src/check/ + src/explore/
# (stack_cell_test runs every row of the stack table, the baselines too).
TARGETS=(explore_test chaos_test sim_test harness_test sync_test
         consensus_test stack_cell_test)

echo "==> coverage: configure + build ($BUILD/)"
cmake --preset coverage >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target "${TARGETS[@]}"

echo "==> coverage: run instrumented tests"
find "$BUILD" -name '*.gcda' -delete
for t in "${TARGETS[@]}"; do
  "./$BUILD/tests/$t" --jobs="$JOBS" >/dev/null
done

echo "==> coverage: aggregate gcov for src/check/ + src/explore/ + src/sync/ + src/consensus/"
# gcov emits, per object: "File '<path>'" followed by
# "Lines executed:<pct>% of <total>". Sum totals and executed lines for the
# gated directories; a source seen from several objects (headers, inline
# code) is counted at its best-covered instantiation.
GCDA_LIST=$(find "$BUILD/src/check" "$BUILD/src/explore" "$BUILD/src/sync" \
                 "$BUILD/src/consensus" -name '*.gcda')
if [[ -z "$GCDA_LIST" ]]; then
  echo "coverage: no .gcda files under $BUILD/src/{check,explore,sync,consensus}" >&2
  exit 1
fi
REPORT=$(
  for gcda in $GCDA_LIST; do
    gcov -n "$gcda" 2>/dev/null
  done | awk -v root="$PWD" '
    /^File / {
      file = $0
      sub(/^File '\''/, "", file)
      sub(/'\''$/, "", file)
      sub("^" root "/", "", file)
      sub(/^\.\//, "", file)
      next
    }
    /^Lines executed:/ {
      if (file !~ /^src\/(check|explore|sync|consensus)\//) { file = ""; next }
      pct = $0; sub(/^Lines executed:/, "", pct); sub(/%.*/, "", pct)
      total = $0; sub(/.* of /, "", total)
      hit = int(pct * total / 100 + 0.5)
      if (total + 0 > 0 && (!(file in best_hit) || hit > best_hit[file])) {
        best_hit[file] = hit; best_total[file] = total
      }
      file = ""
    }
    END {
      sum_hit = 0; sum_total = 0
      for (f in best_hit) {
        printf "  %-40s %6.2f%% (%d/%d lines)\n", f,
               100.0 * best_hit[f] / best_total[f], best_hit[f], best_total[f]
        sum_hit += best_hit[f]; sum_total += best_total[f]
      }
      if (sum_total == 0) { print "TOTAL 0"; exit }
      printf "TOTAL %.2f\n", 100.0 * sum_hit / sum_total
    }' | sort
)
echo "$REPORT" | grep -v '^TOTAL'
TOTAL=$(echo "$REPORT" | awk '/^TOTAL/ {print $2}')

echo "==> coverage: ${TOTAL}% of src/check/ + src/explore/ + src/sync/ + src/consensus/ lines (floor ${MIN_PERCENT}%)"
awk -v t="$TOTAL" -v m="$MIN_PERCENT" 'BEGIN { exit (t + 0 >= m + 0) ? 0 : 1 }' || {
  echo "coverage: ${TOTAL}% is below the ${MIN_PERCENT}% floor" >&2
  exit 1
}
echo "OK"
