# ctest driver for the fault-resilience sweep benchmark. Expects:
#   BENCH     path to the fault_sweep binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifacts
#
# Four legs:
#   1. Straight run with the resilience gate: UR NRMSE at the lowest
#      nonzero rate must stay within epsilon of fault-free while BP
#      must not; the artifact must satisfy its schema.
#   2. Crash leg: the same sweep with --checkpoint and --die-after 2
#      must die (SIGKILL after two computed shards).
#   3. Resume leg: --resume must restore the checkpointed shards,
#      compute the rest, and produce an artifact byte-identical to the
#      straight run's.
#   4. Engine leg: an all-site sweep on the packed engine and on the
#      scalar referee (--no-packed) must write byte-identical artifacts
#      and stats. No clock is read: every packed fault path is held to
#      the scalar engine at tool level.

set(straight ${WORK_DIR}/BENCH_fault.straight.json)
set(resumed ${WORK_DIR}/BENCH_fault.resumed.json)
set(ckpt ${WORK_DIR}/fault_sweep.ckpt)
set(eps 0.02)

execute_process(
    COMMAND ${BENCH} --trials 2 --out ${straight} --check-resilience ${eps}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_sweep straight run failed (${rc}) — "
                        "resilience gate or sweep failure")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
            --schema ${TOOLS_DIR}/bench_fault_schema.json ${straight}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_fault.json schema validation failed")
endif()

file(REMOVE ${ckpt})
execute_process(
    COMMAND ${BENCH} --trials 2 --out ${resumed}
            --checkpoint ${ckpt} --die-after 2
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "fault_sweep --die-after 2 exited cleanly — "
                        "the crash leg did not crash")
endif()
if(NOT EXISTS ${ckpt})
    message(FATAL_ERROR "fault_sweep died without leaving a checkpoint")
endif()

execute_process(
    COMMAND ${BENCH} --trials 2 --out ${resumed}
            --checkpoint ${ckpt} --resume
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fault_sweep --resume failed (${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${straight} ${resumed}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed artifact differs from the straight run "
                        "(${straight} vs ${resumed}) — checkpoint "
                        "restore is not byte-exact")
endif()

foreach(engine packed scalar)
    set(extra)
    if(engine STREQUAL "scalar")
        set(extra --no-packed)
    endif()
    execute_process(
        COMMAND ${BENCH} --trials 2 --fault-site all ${extra}
                --out ${WORK_DIR}/BENCH_fault.${engine}.json
                --stats-json ${WORK_DIR}/fault_stats.${engine}.json
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fault_sweep --fault-site all on the ${engine} "
                            "engine failed (${rc})")
    endif()
endforeach()
foreach(artifact BENCH_fault fault_stats)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/${artifact}.packed.json
                ${WORK_DIR}/${artifact}.scalar.json
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${artifact}: packed and --no-packed fault "
                            "sweeps differ (${WORK_DIR}/${artifact}."
                            "{packed,scalar}.json)")
    endif()
endforeach()
