# Tail-latency attribution smoke test: drive the traced overload and sync
# figure drivers, pin the determinism of their attribution artifacts across
# sweep parallelism, and assert the paper-level verdicts with the real
# tools/latency_report binary. Invoked by CTest as
#   cmake -DOVERLOAD_BIN=<fig_overload> -DSYNC_BIN=<fig_sync>
#         -DREPORT_BIN=<latency_report> -DWORK_DIR=<scratch dir>
#         -P latency_smoke.cmake
#
# 1. fig_overload traced at --jobs=2, then --jobs=1: ATTRIB/TS/trace files
#    must be byte-identical (recording never perturbs the replay).
# 2. latency_report on the overload artifacts: post-saturation p999 of the
#    open-loop get class must be >= 80% backlog_wait in every series -> exit 0.
# 3. Same determinism + verdict pass for fig_sync: the CAS-spinlock tail is
#    sync_spin-dominated (>= 70% pooled), PRISM-native's stays wire-dominated.
# 4. Same pass for fig_consensus: the failover tail (leader change by rkey
#    revocation) is responder-dominated — Deregister+Register handler work,
#    never sync_spin.
# 5. Exit-code contract: failed expectation -> 1; malformed input ->
#    2, whether truncated, of the wrong artifact kind or mistyped.
if(NOT OVERLOAD_BIN OR NOT SYNC_BIN OR NOT CONSENSUS_BIN OR NOT REPORT_BIN
   OR NOT WORK_DIR)
  message(FATAL_ERROR "latency_smoke.cmake needs -DOVERLOAD_BIN=... "
          "-DSYNC_BIN=... -DCONSENSUS_BIN=... -DREPORT_BIN=... -DWORK_DIR=...")
endif()

# Scratch tree separate from the bench_smoke WORK_DIR so concurrent ctest -j
# runs never race on results/BENCH_figs.json.
file(MAKE_DIRECTORY ${WORK_DIR}/results)

function(run_traced BIN JOBS TRACE_NAME)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${BIN}
            --jobs=${JOBS} --trace=results/${TRACE_NAME}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${BIN} --jobs=${JOBS} --trace exited with ${rc}:\n${out}\n${err}")
  endif()
  if(NOT out MATCHES "attrib: [0-9]+ points")
    message(FATAL_ERROR "traced run printed no attrib status line:\n${out}")
  endif()
  if(NOT out MATCHES "timeseries: ")
    message(FATAL_ERROR "traced run printed no timeseries status line:\n${out}")
  endif()
endfunction()

function(require_identical A B WHAT)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${A} ${B}
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${WHAT} differs between --jobs=2 and --jobs=1 (${A} vs ${B}): "
      "attribution recording is not replay-deterministic")
  endif()
endfunction()

# report(<rc_var> <out_var> args...): run latency_report, capture exit + stdout.
function(report RC_VAR OUT_VAR)
  execute_process(
    COMMAND ${REPORT_BIN} ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
  )
  set(${RC_VAR} ${rc} PARENT_SCOPE)
  set(${OUT_VAR} "${out}\n${err}" PARENT_SCOPE)
endfunction()

# ---- fig_overload: determinism across sweep parallelism ----
run_traced(${OVERLOAD_BIN} 2 trace_overload.json)
foreach(f ATTRIB_fig_overload.json TS_fig_overload.json trace_overload.json)
  file(RENAME ${WORK_DIR}/results/${f} ${WORK_DIR}/results/j2_${f})
endforeach()
run_traced(${OVERLOAD_BIN} 1 trace_overload.json)
foreach(f ATTRIB_fig_overload.json TS_fig_overload.json trace_overload.json)
  require_identical(${WORK_DIR}/results/j2_${f} ${WORK_DIR}/results/${f} ${f})
endforeach()
message(STATUS "fig_overload attribution byte-identical across --jobs=1/2")

# ---- fig_overload: post-saturation p999 is client-backlog time ----
# The acceptance bar: >= 80% of the slowest-K (p999 exemplar) latency of the
# open-loop get class attributed to backlog_wait in every series, and
# backlog_wait the argmax phase for the pooled point as well.
report(rc out
  --ts=results/TS_fig_overload.json
  --trace=results/trace_overload.json
  "--expect=Pilaf/kv.get/backlog_wait/0.80"
  "--expect=Pilaf (batched)/kv.get/backlog_wait/0.80"
  "--expect=PRISM-KV/kv.get/backlog_wait/0.80"
  "--expect=PRISM-KV (batched)/kv.get/backlog_wait/0.80"
  "--expect-dominant=Pilaf/*/backlog_wait"
  "--expect-dominant=Pilaf (batched)/*/backlog_wait"
  "--expect-dominant=PRISM-KV/*/backlog_wait"
  "--expect-dominant=PRISM-KV (batched)/*/backlog_wait"
  results/ATTRIB_fig_overload.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "overload tail not backlog_wait-dominated (rc=${rc}):\n${out}")
endif()
if(NOT out MATCHES "critical path: slowest traced op")
  message(FATAL_ERROR "report printed no critical-path section:\n${out}")
endif()
message(STATUS "fig_overload OK: post-saturation p999 >= 80% backlog_wait "
  "in all 4 series")

# ---- fig_sync: determinism + scheme-dependent tail phase ----
run_traced(${SYNC_BIN} 2 trace_sync.json)
foreach(f ATTRIB_fig_sync.json TS_fig_sync.json trace_sync.json)
  file(RENAME ${WORK_DIR}/results/${f} ${WORK_DIR}/results/j2_${f})
endforeach()
run_traced(${SYNC_BIN} 1 trace_sync.json)
foreach(f ATTRIB_fig_sync.json TS_fig_sync.json trace_sync.json)
  require_identical(${WORK_DIR}/results/j2_${f} ${WORK_DIR}/results/${f} ${f})
endforeach()
message(STATUS "fig_sync attribution byte-identical across --jobs=1/2")

report(rc out
  --ts=results/TS_fig_sync.json
  --trace=results/trace_sync.json
  "--expect=CAS-spinlock/*/sync_spin/0.70"
  "--expect-dominant=CAS-spinlock/*/sync_spin"
  "--expect-dominant=PRISM-native chain/*/wire"
  results/ATTRIB_fig_sync.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sync scheme tails misattributed (rc=${rc}):\n${out}")
endif()
message(STATUS "fig_sync OK: spinlock tail sync_spin-dominated, "
  "PRISM-native tail wire-dominated")

# ---- fig_consensus: determinism + revocation-failover tail phase ----
run_traced(${CONSENSUS_BIN} 2 trace_consensus.json)
foreach(f ATTRIB_fig_consensus.json TS_fig_consensus.json trace_consensus.json)
  file(RENAME ${WORK_DIR}/results/${f} ${WORK_DIR}/results/j2_${f})
endforeach()
run_traced(${CONSENSUS_BIN} 1 trace_consensus.json)
foreach(f ATTRIB_fig_consensus.json TS_fig_consensus.json trace_consensus.json)
  require_identical(${WORK_DIR}/results/j2_${f} ${WORK_DIR}/results/${f} ${f})
endforeach()
message(STATUS "fig_consensus attribution byte-identical across --jobs=1/2")

# The failover class IS the rkey-revocation handoff: its tail must be
# dominated by responder time (the replicas' Deregister+Register grant
# handlers), with the wire round trips second — never sync_spin, because
# permission revocation needs no spinning failure detector.
report(rc out
  --ts=results/TS_fig_consensus.json
  --trace=results/trace_consensus.json
  "--expect=failover/cons.failover/responder/0.40"
  "--expect-dominant=failover/cons.failover/responder"
  "--expect-dominant=failover/*/responder"
  results/ATTRIB_fig_consensus.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "failover tail not responder-dominated (rc=${rc}):\n${out}")
endif()
message(STATUS "fig_consensus OK: revocation-failover tail "
  "responder-dominated, not sync_spin")

# ---- exit-code contract ----
# A failed expectation must exit 1 (the spinlock tail is NOT wire-dominated).
report(rc out "--expect-dominant=CAS-spinlock/*/wire"
       results/ATTRIB_fig_sync.json)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "failed expectation should exit 1, got ${rc}:\n${out}")
endif()

# Truncated JSON must exit 2.
file(READ ${WORK_DIR}/results/ATTRIB_fig_sync.json doc)
string(LENGTH "${doc}" len)
math(EXPR half "${len} / 2")
string(SUBSTRING "${doc}" 0 ${half} truncated)
file(WRITE ${WORK_DIR}/results/ATTRIB_truncated.json "${truncated}")
report(rc out results/ATTRIB_truncated.json)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "truncated ATTRIB input should exit 2, got ${rc}:\n${out}")
endif()

# Well-formed JSON of the wrong shape must also exit 2, not crash or
# silently pass: an ATTRIB file where a Chrome trace is expected, and the
# reverse.
report(rc out --trace=results/ATTRIB_fig_sync.json
       results/ATTRIB_fig_sync.json)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "trace-shaped validation of an ATTRIB file should exit 2, got ${rc}:\n${out}")
endif()
report(rc out results/trace_sync.json)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "a Chrome trace as the ATTRIB input should exit 2, got ${rc}:\n${out}")
endif()

# Hand-edited ATTRIB files with one mistyped field each must exit 2: a
# string among the per-phase sums, an object where the exemplar array
# belongs, and a string sweep coordinate.
string(REGEX REPLACE "\"phase_total_ns\":\\[[0-9]+"
       "\"phase_total_ns\":[\"x\"" mistyped "${doc}")
file(WRITE ${WORK_DIR}/results/ATTRIB_string_phase.json "${mistyped}")
string(REPLACE "\"exemplars\":[" "\"exemplars\":{},\"was_exemplars\":["
       mistyped "${doc}")
file(WRITE ${WORK_DIR}/results/ATTRIB_object_exemplars.json "${mistyped}")
string(REGEX REPLACE "\"x\":[-+.e0-9]+" "\"x\":\"oops\"" mistyped "${doc}")
file(WRITE ${WORK_DIR}/results/ATTRIB_string_x.json "${mistyped}")
foreach(f ATTRIB_string_phase.json ATTRIB_object_exemplars.json
          ATTRIB_string_x.json)
  report(rc out results/${f})
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR
      "mistyped ATTRIB input ${f} should exit 2, got ${rc}:\n${out}")
  endif()
endforeach()

message(STATUS
  "latency smoke OK: deterministic artifacts, verdicts asserted, "
  "exit codes 1/2 pinned")
