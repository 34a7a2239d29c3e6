# Bench smoke test: run abl_sim_micro in fast mode with the google-benchmark
# suite filtered out (the engine-throughput probes always run and write
# results/BENCH_sim.json), then validate the JSON parses and carries the
# expected schema. With -DFIGS_BIN=<driver> it also smoke-runs a converted
# figure driver through the parallel sweep harness and validates the unified
# results/BENCH_figs.json it emits. Invoked by CTest as
#   cmake -DBENCH_BIN=<abl_sim_micro> -DFIGS_BIN=<fig2_topology>
#         -DWORK_DIR=<build dir> -P bench_smoke.cmake
if(NOT BENCH_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "bench_smoke.cmake needs -DBENCH_BIN=... and -DWORK_DIR=...")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1
          ${BENCH_BIN} --benchmark_filter=^$
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "abl_sim_micro exited with ${rc}:\n${out}\n${err}")
endif()

set(json_path ${WORK_DIR}/results/BENCH_sim.json)
if(NOT EXISTS ${json_path})
  message(FATAL_ERROR "bench did not write ${json_path}")
endif()
file(READ ${json_path} doc)

# string(JSON) raises a hard error on malformed JSON or missing members.
string(JSON bench_name GET "${doc}" bench)
if(NOT bench_name STREQUAL "abl_sim_micro")
  message(FATAL_ERROR "unexpected bench name '${bench_name}' in ${json_path}")
endif()
string(JSON fast GET "${doc}" fast_mode)
if(NOT fast STREQUAL "ON" AND NOT fast STREQUAL "true")
  message(FATAL_ERROR "PRISM_BENCH_FAST=1 not honored (fast_mode=${fast})")
endif()

foreach(probe zero_delay timer_wheel mixed cancel_churn)
  string(JSON events GET "${doc}" ${probe} events)
  if(events LESS_EQUAL 0)
    message(FATAL_ERROR "probe ${probe}: events=${events}, expected > 0")
  endif()
  string(JSON rate GET "${doc}" ${probe} events_per_sec)
  if(rate LESS_EQUAL 0)
    message(FATAL_ERROR "probe ${probe}: events_per_sec=${rate}, expected > 0")
  endif()
  # Schema presence only — values are machine-dependent.
  string(JSON ignored GET "${doc}" ${probe} wall_seconds)
  string(JSON ignored GET "${doc}" ${probe} simulated_ns)
  foreach(stat zero_delay_events timer_events overflow_events heap_callables
               pool_blocks cancelled_timers)
    string(JSON ignored GET "${doc}" ${probe} engine_stats ${stat})
  endforeach()
endforeach()

# The cancel-churn probe must actually cancel: one deadline per op.
string(JSON cancelled GET "${doc}" cancel_churn engine_stats cancelled_timers)
string(JSON churn_events GET "${doc}" cancel_churn events)
if(NOT cancelled EQUAL churn_events)
  message(FATAL_ERROR "cancel_churn: cancelled_timers=${cancelled}, expected "
                      "one per op (${churn_events})")
endif()

message(STATUS "BENCH_sim.json OK: all probes present with positive rates")

if(NOT FIGS_BIN)
  return()
endif()

# ---- unified figure results (results/BENCH_figs.json) ----
# Run the driver through the sweep harness with two worker threads; the
# entry it merges into BENCH_figs.json must carry the shared schema.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${FIGS_BIN} --jobs=2
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "figure driver exited with ${rc}:\n${out}\n${err}")
endif()

get_filename_component(figs_key ${FIGS_BIN} NAME_WE)
set(figs_path ${WORK_DIR}/results/BENCH_figs.json)
if(NOT EXISTS ${figs_path})
  message(FATAL_ERROR "driver did not write ${figs_path}")
endif()
file(READ ${figs_path} figs)

string(JSON entry GET "${figs}" ${figs_key})
string(JSON ignored GET "${figs}" ${figs_key} title)
string(JSON fast GET "${figs}" ${figs_key} fast_mode)
if(NOT fast STREQUAL "ON" AND NOT fast STREQUAL "true")
  message(FATAL_ERROR "PRISM_BENCH_FAST=1 not honored (fast_mode=${fast})")
endif()
string(JSON jobs GET "${figs}" ${figs_key} jobs)
if(NOT jobs EQUAL 2)
  message(FATAL_ERROR "--jobs=2 not recorded (jobs=${jobs})")
endif()
string(JSON ignored GET "${figs}" ${figs_key} wall_seconds)
string(JSON events GET "${figs}" ${figs_key} sim_events)
if(events LESS_EQUAL 0)
  message(FATAL_ERROR "sim_events=${events}, expected > 0")
endif()
string(JSON rate GET "${figs}" ${figs_key} events_per_sec)
if(rate LESS_EQUAL 0)
  message(FATAL_ERROR "events_per_sec=${rate}, expected > 0")
endif()

string(JSON n_series LENGTH "${figs}" ${figs_key} series)
if(n_series LESS_EQUAL 0)
  message(FATAL_ERROR "entry ${figs_key} has no series")
endif()
math(EXPR last_series "${n_series} - 1")
foreach(s RANGE ${last_series})
  string(JSON ignored GET "${figs}" ${figs_key} series ${s} name)
  string(JSON n_points LENGTH "${figs}" ${figs_key} series ${s} points)
  if(n_points LESS_EQUAL 0)
    message(FATAL_ERROR "series ${s} of ${figs_key} has no points")
  endif()
  math(EXPR last_point "${n_points} - 1")
  foreach(p RANGE ${last_point})
    foreach(field clients tput_mops mean_us p50_us p99_us p999_us abort_rate
                  sim_events)
      string(JSON ignored GET "${figs}" ${figs_key} series ${s} points ${p}
             ${field})
    endforeach()
  endforeach()
endforeach()

message(STATUS
  "BENCH_figs.json OK: ${figs_key} entry valid with ${n_series} series")

# ---- observability: --trace/--metrics run ----
# Re-run the same driver with tracing and metrics on. Requirements:
#  * stdout is byte-identical to the untraced run (minus the two obs status
#    lines) — tracing must not perturb the replay or the printed tables;
#  * the Chrome trace JSON parses and contains events;
#  * the per-point metrics JSON parses with one entry per sweep cell;
#  * the merged BENCH_figs.json entry carries the Table-1 complexity fields.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${FIGS_BIN} --jobs=2
          --trace=results/trace_smoke.json --metrics
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE traced_out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced figure driver exited with ${rc}:\n${traced_out}\n${err}")
endif()

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

set(trace_path ${WORK_DIR}/results/trace_smoke.json)
if(NOT EXISTS ${trace_path})
  message(FATAL_ERROR "driver did not write ${trace_path}")
endif()
file(READ ${trace_path} trace)
string(JSON n_events LENGTH "${trace}" traceEvents)
if(n_events LESS_EQUAL 0)
  message(FATAL_ERROR "trace has no events")
endif()
# At least one async begin event with a causal parent field.
if(NOT trace MATCHES "\"ph\":\"b\"")
  message(FATAL_ERROR "trace has no async begin events")
endif()
if(NOT trace MATCHES "\"parent\":")
  message(FATAL_ERROR "trace spans carry no parent attribution")
endif()

set(metrics_path ${WORK_DIR}/results/METRICS_${figs_key}.json)
if(NOT EXISTS ${metrics_path})
  message(FATAL_ERROR "driver did not write ${metrics_path}")
endif()
file(READ ${metrics_path} metrics)
string(JSON mbench GET "${metrics}" bench)
if(NOT mbench STREQUAL ${figs_key})
  message(FATAL_ERROR "unexpected bench '${mbench}' in ${metrics_path}")
endif()
string(JSON n_mpoints LENGTH "${metrics}" points)
if(n_mpoints LESS_EQUAL 0)
  message(FATAL_ERROR "metrics dump has no points")
endif()
string(JSON ignored GET "${metrics}" points 0 series)
string(JSON n_mvals LENGTH "${metrics}" points 0 metrics)
if(n_mvals LESS_EQUAL 0)
  message(FATAL_ERROR "metrics dump point 0 has no metric values")
endif()
string(JSON ignored GET "${metrics}" points 0 metrics 0 component)
string(JSON ignored GET "${metrics}" points 0 metrics 0 name)

# ---- tail-attribution artifacts (ATTRIB_/TS_) ----
# The traced run also dumps the per-point phase decomposition and the
# windowed time-series that tools/latency_report reads. Validate the schema:
# a phase-name table, per-class exact phase sums, p999 exemplars, and
# per-bucket arrival/completion/outstanding counts.
set(attrib_path ${WORK_DIR}/results/ATTRIB_${figs_key}.json)
if(NOT EXISTS ${attrib_path})
  message(FATAL_ERROR "traced driver did not write ${attrib_path}")
endif()
file(READ ${attrib_path} attrib)
string(JSON abench GET "${attrib}" bench)
if(NOT abench STREQUAL ${figs_key})
  message(FATAL_ERROR "unexpected bench '${abench}' in ${attrib_path}")
endif()
string(JSON n_phases LENGTH "${attrib}" phases)
if(NOT n_phases EQUAL 7)
  message(FATAL_ERROR "expected 7 phase names, got ${n_phases}")
endif()
string(JSON n_apoints LENGTH "${attrib}" points)
if(n_apoints LESS_EQUAL 0)
  message(FATAL_ERROR "attribution dump has no points")
endif()
string(JSON ignored GET "${attrib}" points 0 series)
string(JSON ignored GET "${attrib}" points 0 started_ops)
string(JSON ignored GET "${attrib}" points 0 measured_ops)
string(JSON n_classes LENGTH "${attrib}" points 0 classes)
if(n_classes LESS_EQUAL 0)
  message(FATAL_ERROR "attribution point 0 has no client classes")
endif()
foreach(field class count p999_us)
  string(JSON ignored GET "${attrib}" points 0 classes 0 ${field})
endforeach()
foreach(arr phase_total_ns phase_p999_us)
  string(JSON n LENGTH "${attrib}" points 0 classes 0 ${arr})
  if(NOT n EQUAL 7)
    message(FATAL_ERROR "classes[0].${arr} has ${n} entries, expected 7")
  endif()
endforeach()
string(JSON n_ex LENGTH "${attrib}" points 0 classes 0 exemplars)
if(n_ex LESS_EQUAL 0)
  message(FATAL_ERROR "attribution point 0 class 0 pinned no exemplars")
endif()
foreach(field seq start_ns end_ns total_ns retransmits)
  string(JSON ignored GET "${attrib}" points 0 classes 0 exemplars 0 ${field})
endforeach()
string(JSON n LENGTH "${attrib}" points 0 classes 0 exemplars 0 phase_ns)
if(NOT n EQUAL 7)
  message(FATAL_ERROR "exemplar phase_ns has ${n} entries, expected 7")
endif()

set(ts_path ${WORK_DIR}/results/TS_${figs_key}.json)
if(NOT EXISTS ${ts_path})
  message(FATAL_ERROR "traced driver did not write ${ts_path}")
endif()
file(READ ${ts_path} ts)
string(JSON tbench GET "${ts}" bench)
if(NOT tbench STREQUAL ${figs_key})
  message(FATAL_ERROR "unexpected bench '${tbench}' in ${ts_path}")
endif()
string(JSON n_tpoints LENGTH "${ts}" points)
if(n_tpoints LESS_EQUAL 0)
  message(FATAL_ERROR "time-series dump has no points")
endif()
string(JSON bucket_ns GET "${ts}" points 0 bucket_ns)
if(bucket_ns LESS_EQUAL 0)
  message(FATAL_ERROR "points[0].bucket_ns=${bucket_ns}, expected > 0")
endif()
string(JSON n_buckets LENGTH "${ts}" points 0 buckets)
if(n_buckets LESS_EQUAL 0)
  message(FATAL_ERROR "time-series point 0 has no buckets")
endif()
foreach(field t_ns arrivals completions retransmits outstanding total_ns)
  string(JSON ignored GET "${ts}" points 0 buckets 0 ${field})
endforeach()

# Protocol-complexity fields merged into BENCH_figs.json (the traced run
# rewrote the entry; the fields are emitted on every run regardless).
file(READ ${figs_path} figs)
string(JSON n_ops LENGTH "${figs}" ${figs_key} series 0 points 0 ops)
if(n_ops LESS_EQUAL 0)
  message(FATAL_ERROR "entry ${figs_key} carries no per-op complexity rows")
endif()
foreach(field op count round_trips messages bytes_out bytes_in cpu_actions
              doorbells cq_polls round_trips_per_op messages_per_op
              bytes_per_op cpu_actions_per_op doorbells_per_op
              cq_polls_per_op client_cpu_actions_per_op)
  string(JSON ignored GET "${figs}" ${figs_key} series 0 points 0 ops 0
         ${field})
endforeach()

message(STATUS "observability OK: stdout byte-identical under --trace, "
  "${n_events} trace events, ${n_mpoints} metric points, complexity fields "
  "present")

if(NOT OVERLOAD_BIN)
  return()
endif()

# ---- open-loop overload driver ----
# A fast-mode sweep point: validates the fig_overload entry (offered_mops +
# p999 tails + batching complexity rows; the driver itself PRISM_CHECKs that
# batching cuts client CPU actions per op with round trips unchanged), then
# the flat-memory guard at 100k clients (≤64 B marginal RSS per client).
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${OVERLOAD_BIN} --jobs=2
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig_overload exited with ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "overload-assert")
  message(FATAL_ERROR "fig_overload printed no batching assertions:\n${out}")
endif()

file(READ ${figs_path} figs)
string(JSON n_series LENGTH "${figs}" fig_overload series)
if(NOT n_series EQUAL 4)
  message(FATAL_ERROR "fig_overload expected 4 series, got ${n_series}")
endif()
string(JSON n_points LENGTH "${figs}" fig_overload series 0 points)
math(EXPR last_point "${n_points} - 1")
math(EXPR last_series "${n_series} - 1")
foreach(s RANGE ${last_series})
  foreach(p RANGE ${last_point})
    foreach(field clients offered_mops tput_mops mean_us p50_us p99_us
                  p999_us sim_events)
      string(JSON ignored GET "${figs}" fig_overload series ${s} points ${p}
             ${field})
    endforeach()
    string(JSON n_ops LENGTH "${figs}" fig_overload series ${s} points ${p}
           ops)
    if(NOT n_ops EQUAL 2)
      message(FATAL_ERROR
        "fig_overload series ${s} point ${p}: expected 2 op rows, got ${n_ops}")
    endif()
    foreach(o RANGE 1)
      foreach(field doorbells cq_polls doorbells_per_op cq_polls_per_op
                    client_cpu_actions_per_op)
        string(JSON ignored GET "${figs}" fig_overload series ${s} points ${p}
               ops ${o} ${field})
      endforeach()
    endforeach()
  endforeach()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1
          ${OVERLOAD_BIN} --guard=100000
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig_overload --guard=100000 failed (${rc}):\n${out}\n${err}")
endif()
if(NOT out MATCHES "guard: ok")
  message(FATAL_ERROR "guard did not report ok:\n${out}")
endif()

message(STATUS "fig_overload OK: 4 series validated, flat-memory guard passed")

if(NOT SYNC_BIN)
  return()
endif()

# ---- synchronization-scheme spectrum driver ----
# A fast-mode sweep: the fig_sync entry must carry one series per scheme,
# each point with positive throughput and round_trips_per_op complexity rows
# for both op classes. The driver itself PRISM_CHECKs that PRISM-native
# chains beat CAS-spinlock on round trips per op at the top offered rate, so
# a zero exit already certifies the figure's headline claim.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${SYNC_BIN} --jobs=2
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig_sync exited with ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "sync-assert")
  message(FATAL_ERROR "fig_sync printed no round-trip assertions:\n${out}")
endif()

file(READ ${figs_path} figs)
string(JSON n_series LENGTH "${figs}" fig_sync series)
if(NOT n_series EQUAL 4)
  message(FATAL_ERROR "fig_sync expected 4 scheme series, got ${n_series}")
endif()
string(JSON n_points LENGTH "${figs}" fig_sync series 0 points)
math(EXPR last_point "${n_points} - 1")
math(EXPR last_series "${n_series} - 1")
foreach(s RANGE ${last_series})
  string(JSON sname GET "${figs}" fig_sync series ${s} name)
  foreach(p RANGE ${last_point})
    string(JSON tput GET "${figs}" fig_sync series ${s} points ${p} tput_mops)
    if(tput LESS_EQUAL 0)
      message(FATAL_ERROR
        "fig_sync series '${sname}' point ${p}: tput_mops=${tput}, expected > 0")
    endif()
    foreach(field clients offered_mops mean_us p50_us p99_us p999_us
                  sim_events)
      string(JSON ignored GET "${figs}" fig_sync series ${s} points ${p}
             ${field})
    endforeach()
    string(JSON n_ops LENGTH "${figs}" fig_sync series ${s} points ${p} ops)
    if(NOT n_ops EQUAL 2)
      message(FATAL_ERROR
        "fig_sync series '${sname}' point ${p}: expected 2 op rows, got ${n_ops}")
    endif()
    foreach(o RANGE 1)
      string(JSON rt GET "${figs}" fig_sync series ${s} points ${p} ops ${o}
             round_trips_per_op)
      if(rt LESS_EQUAL 0)
        message(FATAL_ERROR
          "fig_sync series '${sname}' point ${p} op ${o}: "
          "round_trips_per_op=${rt}, expected > 0")
      endif()
      foreach(field op count round_trips messages_per_op)
        string(JSON ignored GET "${figs}" fig_sync series ${s} points ${p}
               ops ${o} ${field})
      endforeach()
    endforeach()
  endforeach()
endforeach()

message(STATUS "fig_sync OK: ${n_series} scheme series with positive "
  "throughput and round_trips_per_op rows")

if(NOT CONSENSUS_BIN)
  return()
endif()

# ---- consensus vs ABD driver ----
# A fast-mode sweep: the fig_consensus entry must carry the PMP-consensus
# and ABD-LOCK load series (two op-class complexity rows each) plus the
# failover series (one cons.failover row, elections as rkey revocations).
# The driver itself PRISM_CHECKs the accountant-exact 2-RT commit at n=3
# and that it beats ABD-LOCK's round-trip bill, so a zero exit already
# certifies the figure's headline claim.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PRISM_BENCH_FAST=1 ${CONSENSUS_BIN} --jobs=2
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fig_consensus exited with ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "consensus-assert")
  message(FATAL_ERROR "fig_consensus printed no round-trip assertions:\n${out}")
endif()

file(READ ${figs_path} figs)
string(JSON n_series LENGTH "${figs}" fig_consensus series)
if(NOT n_series EQUAL 3)
  message(FATAL_ERROR "fig_consensus expected 3 series, got ${n_series}")
endif()
math(EXPR last_series "${n_series} - 1")
foreach(s RANGE ${last_series})
  string(JSON sname GET "${figs}" fig_consensus series ${s} name)
  if(s EQUAL 0 AND NOT sname STREQUAL "PMP-consensus")
    message(FATAL_ERROR "series 0 should be PMP-consensus, got '${sname}'")
  endif()
  if(s EQUAL 1 AND NOT sname STREQUAL "ABD-LOCK")
    message(FATAL_ERROR "series 1 should be ABD-LOCK, got '${sname}'")
  endif()
  if(s EQUAL 2 AND NOT sname STREQUAL "failover")
    message(FATAL_ERROR "series 2 should be failover, got '${sname}'")
  endif()
  string(JSON n_points LENGTH "${figs}" fig_consensus series ${s} points)
  if(n_points LESS_EQUAL 0)
    message(FATAL_ERROR "fig_consensus series '${sname}' has no points")
  endif()
  math(EXPR last_point "${n_points} - 1")
  foreach(p RANGE ${last_point})
    string(JSON tput GET "${figs}" fig_consensus series ${s} points ${p}
           tput_mops)
    if(tput LESS_EQUAL 0)
      message(FATAL_ERROR "fig_consensus series '${sname}' point ${p}: "
        "tput_mops=${tput}, expected > 0")
    endif()
    foreach(field clients offered_mops mean_us p50_us p99_us p999_us
                  sim_events)
      string(JSON ignored GET "${figs}" fig_consensus series ${s} points ${p}
             ${field})
    endforeach()
    string(JSON n_ops LENGTH "${figs}" fig_consensus series ${s} points ${p}
           ops)
    if(sname STREQUAL "failover")
      set(want_ops 1)
    else()
      set(want_ops 2)
    endif()
    if(NOT n_ops EQUAL ${want_ops})
      message(FATAL_ERROR "fig_consensus series '${sname}' point ${p}: "
        "expected ${want_ops} op rows, got ${n_ops}")
    endif()
    math(EXPR last_op "${n_ops} - 1")
    foreach(o RANGE ${last_op})
      string(JSON rt GET "${figs}" fig_consensus series ${s} points ${p}
             ops ${o} round_trips_per_op)
      if(rt LESS_EQUAL 0)
        message(FATAL_ERROR "fig_consensus series '${sname}' point ${p} "
          "op ${o}: round_trips_per_op=${rt}, expected > 0")
      endif()
      foreach(field op count round_trips messages_per_op)
        string(JSON ignored GET "${figs}" fig_consensus series ${s} points ${p}
               ops ${o} ${field})
      endforeach()
    endforeach()
  endforeach()
endforeach()

message(STATUS "fig_consensus OK: PMP-consensus/ABD-LOCK/failover series "
  "with positive throughput and round_trips_per_op rows")
