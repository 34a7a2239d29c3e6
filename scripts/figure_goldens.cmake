# Figure golden check: run every deterministic figure and ablation driver in
# fast mode at its default --jobs and compare its stdout byte for byte with
# the committed results/fast/<driver>.txt. Invoked by CTest as
#   cmake -DBENCH_DIR=<build>/bench -DGOLDEN_DIR=<repo>/results/fast
#         -DWORK_DIR=<scratch dir> -DDRIVERS=<a;b;...> -P figure_goldens.cmake
#
# Drivers write results/*.json relative to their working directory, so each
# runs in its own subdirectory of WORK_DIR. A change that moves a figure on
# purpose regenerates the golden with
#   PRISM_BENCH_FAST=1 <build>/bench/<driver> --jobs=1 > results/fast/<driver>.txt
# and says why in CHANGES.md.
if(NOT BENCH_DIR OR NOT GOLDEN_DIR OR NOT WORK_DIR OR NOT DRIVERS)
  message(FATAL_ERROR
    "figure_goldens.cmake needs -DBENCH_DIR, -DGOLDEN_DIR, -DWORK_DIR, -DDRIVERS")
endif()

set(ENV{PRISM_BENCH_FAST} 1)
set(mismatches "")
foreach(driver IN LISTS DRIVERS)
  set(dir ${WORK_DIR}/${driver})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  execute_process(
    COMMAND ${BENCH_DIR}/${driver}
    WORKING_DIRECTORY ${dir}
    RESULT_VARIABLE rc
    OUTPUT_FILE ${dir}/stdout.txt
    ERROR_VARIABLE err
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${driver} exited ${rc}:\n${err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${dir}/stdout.txt
            ${GOLDEN_DIR}/${driver}.txt
    RESULT_VARIABLE same
  )
  if(NOT same EQUAL 0)
    list(APPEND mismatches
         "${driver}: ${dir}/stdout.txt differs from ${GOLDEN_DIR}/${driver}.txt")
  endif()
endforeach()

if(mismatches)
  list(JOIN mismatches "\n" text)
  message(FATAL_ERROR "figure stdout differs from the committed goldens:\n${text}")
endif()
list(LENGTH DRIVERS n)
message(STATUS "figure goldens: ${n} drivers match")
