# Bench smoke test: run each bench driver in fast mode and hand every
# artifact it writes to tools/artifact_check, which holds the schemas and the
# per-figure expectations. This script only runs the drivers, compares the
# traced and untraced stdout, and matches the run settings (fast mode, job
# count) that artifact_check reports. Invoked by CTest as
#   cmake -DBENCH_BIN=<abl_sim_micro> -DCHECK_BIN=<artifact_check>
#         -DFIGS_BIN=<fig2_topology> -DOVERLOAD_BIN=<fig_overload>
#         -DSYNC_BIN=<fig_sync> -DCONSENSUS_BIN=<fig_consensus>
#         -DWORK_DIR=<build dir> -P bench_smoke.cmake
if(NOT BENCH_BIN OR NOT CHECK_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "bench_smoke.cmake needs -DBENCH_BIN=... "
          "-DCHECK_BIN=... and -DWORK_DIR=...")
endif()

# run_driver(<out_var> <what> cmd...): run a driver in fast mode from
# WORK_DIR; it must exit 0. Its stdout lands in <out_var>.
function(run_driver OUT_VAR WHAT)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${WHAT} exited with ${rc}:\n${out}\n${err}")
  endif()
  set(${OUT_VAR} "${out}" PARENT_SCOPE)
endfunction()

# check_artifact(<file> <figure> [<regex>]): artifact_check must accept
# results/<file>, and its summary line must match <regex> when given.
function(check_artifact FILE FIGURE)
  execute_process(
    COMMAND ${CHECK_BIN} ${WORK_DIR}/results/${FILE} ${FIGURE}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${FILE} (${FIGURE}) failed its schema check:\n${err}")
  endif()
  if(ARGC GREATER 2 AND NOT out MATCHES "${ARGV2}")
    message(FATAL_ERROR "${FILE} (${FIGURE}): expected '${ARGV2}' in:\n${out}")
  endif()
  message(STATUS "${out}")
endfunction()

# ---- engine-throughput probes (results/BENCH_sim.json) ----
# The google-benchmark suite is filtered out; the probes always run.
run_driver(out abl_sim_micro ${BENCH_BIN} --benchmark_filter=^$)
check_artifact(BENCH_sim.json abl_sim_micro "fast_mode=true")

if(NOT FIGS_BIN)
  return()
endif()

# ---- unified figure results (results/BENCH_figs.json) ----
# Run the driver through the sweep harness with two worker threads; the
# entry it merges into BENCH_figs.json must record both settings.
get_filename_component(figs_key ${FIGS_BIN} NAME_WE)
run_driver(out ${figs_key} ${FIGS_BIN} --jobs=2)
check_artifact(BENCH_figs.json ${figs_key} "fast_mode=true jobs=2 ")

# ---- observability: --trace/--metrics run ----
# Re-run the same driver with tracing and metrics on. Its stdout must be
# byte-identical to the untraced run minus the obs status lines (tracing
# must not perturb the replay or the printed tables), and every artifact it
# writes must pass its schema check.
run_driver(traced_out "traced ${figs_key}" ${FIGS_BIN} --jobs=2
           --trace=results/trace_smoke.json --metrics)
string(REGEX REPLACE "trace: [^\n]*\n" "" stripped "${traced_out}")
string(REGEX REPLACE "metrics: [^\n]*\n" "" stripped "${stripped}")
string(REGEX REPLACE "attrib: [^\n]*\n" "" stripped "${stripped}")
string(REGEX REPLACE "timeseries: [^\n]*\n" "" stripped "${stripped}")
if(NOT out STREQUAL stripped)
  message(FATAL_ERROR "tracing changed the driver's stdout:\n"
          "--- untraced ---\n${out}\n--- traced (obs lines stripped) ---\n"
          "${stripped}")
endif()
if(NOT traced_out MATCHES "trace: [0-9]+ spans")
  message(FATAL_ERROR "traced run printed no trace status line:\n${traced_out}")
endif()
check_artifact(trace_smoke.json ${figs_key})
check_artifact(METRICS_${figs_key}.json ${figs_key})
check_artifact(ATTRIB_${figs_key}.json ${figs_key})
check_artifact(TS_${figs_key}.json ${figs_key})
check_artifact(BENCH_figs.json ${figs_key} "fast_mode=true jobs=2 ")

# An artifact that cannot be written fails the run: a --trace path under a
# regular file must give a non-zero exit that names the path.
set(bad_trace results/trace_smoke.json/trace.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${FIGS_BIN} --jobs=2
          --trace=${bad_trace}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
)
if(rc EQUAL 0 OR NOT err MATCHES "cannot write ${bad_trace}")
  message(FATAL_ERROR "${figs_key} --trace=${bad_trace} exited with ${rc}; "
          "expected a failure naming the path:\n${err}")
endif()

if(NOT OVERLOAD_BIN)
  return()
endif()

# ---- open-loop overload driver ----
# The driver itself PRISM_CHECKs that batching cuts client CPU actions per
# op with round trips unchanged; then the flat-memory guard at 100k clients
# (<= 64 B marginal RSS per client).
run_driver(out fig_overload ${OVERLOAD_BIN} --jobs=2)
if(NOT out MATCHES "overload-assert")
  message(FATAL_ERROR "fig_overload printed no batching assertions:\n${out}")
endif()
check_artifact(BENCH_figs.json fig_overload "fast_mode=true jobs=2 ")
run_driver(out "fig_overload --guard=100000" ${OVERLOAD_BIN} --guard=100000)
if(NOT out MATCHES "guard: ok")
  message(FATAL_ERROR "guard did not report ok:\n${out}")
endif()

if(NOT SYNC_BIN)
  return()
endif()

# ---- synchronization-scheme spectrum driver ----
# The driver itself PRISM_CHECKs that PRISM-native chains beat CAS-spinlock
# on round trips per op at the top offered rate, so a zero exit already
# certifies the figure's headline claim.
run_driver(out fig_sync ${SYNC_BIN} --jobs=2)
if(NOT out MATCHES "sync-assert")
  message(FATAL_ERROR "fig_sync printed no round-trip assertions:\n${out}")
endif()
check_artifact(BENCH_figs.json fig_sync "fast_mode=true jobs=2 ")

if(NOT CONSENSUS_BIN)
  return()
endif()

# ---- consensus vs ABD driver ----
# The driver itself PRISM_CHECKs the accountant-exact 2-RT commit at n=3 and
# that it beats ABD-LOCK's round-trip bill, so a zero exit already certifies
# the figure's headline claim.
run_driver(out fig_consensus ${CONSENSUS_BIN} --jobs=2)
if(NOT out MATCHES "consensus-assert")
  message(FATAL_ERROR "fig_consensus printed no round-trip assertions:\n${out}")
endif()
check_artifact(BENCH_figs.json fig_consensus "fast_mode=true jobs=2 ")
