# ctest driver for the end-to-end sweep benchmark. Expects:
#   BENCH     path to the e2e_sweep binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifacts
#
# Runs the sweep at 1 and 3 executor threads and requires the
# stats-registry dumps byte-identical (the thread-count determinism
# contract), then validates BENCH_e2e.json against its schema. On hosts
# with at least 4 physical cores a third run at the auto thread count
# additionally enforces the >= 2x executor-vs-forkjoin speedup floor
# (pointless on smaller hosts, where the binary would skip it anyway).

# Every leg runs with its stdout and stderr captured, and a failing leg
# prints both in its message, so a failure seen once names its leg and
# shows what the binary said.
function(run_leg)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    set(rc "${code}" PARENT_SCOPE)
    set(log "\n--- stdout ---\n${out}\n--- stderr ---\n${err}" PARENT_SCOPE)
endfunction()

set(stats1 ${WORK_DIR}/e2e.stats.t1.json)
set(stats3 ${WORK_DIR}/e2e.stats.t3.json)
set(artifact ${WORK_DIR}/BENCH_e2e.json)

run_leg(${CMAKE_COMMAND} -E env USYS_THREADS=1
        ${BENCH} --reps 1 --out ${artifact} --stats-json ${stats1})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep (1 thread) failed (${rc})${log}")
endif()

run_leg(${CMAKE_COMMAND} -E env USYS_THREADS=3
        ${BENCH} --reps 1 --out ${artifact} --stats-json ${stats3})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep (3 threads) failed (${rc})${log}")
endif()

run_leg(${CMAKE_COMMAND} -E compare_files ${stats1} ${stats3})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "stats JSON differs between thread counts "
                        "(${stats1} vs ${stats3}) — the parallel sweep "
                        "leaked nondeterminism into the registry${log}")
endif()

run_leg(${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
        --schema ${TOOLS_DIR}/bench_e2e_schema.json ${artifact})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_e2e.json schema validation failed${log}")
endif()

# Crash-safety leg: kill the sweep after two computed jobs, resume from
# the checkpoint, and require the resumed stats dump byte-identical to
# the straight single-thread run above.
set(ckpt ${WORK_DIR}/e2e_sweep.ckpt)
set(stats_resumed ${WORK_DIR}/e2e.stats.resumed.json)
file(REMOVE ${ckpt})
run_leg(${CMAKE_COMMAND} -E env USYS_THREADS=1
        ${BENCH} --reps 1 --out ${artifact}
        --checkpoint ${ckpt} --die-after 2)
if(rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep --die-after 2 exited cleanly — "
                        "the crash leg did not crash${log}")
endif()
if(NOT EXISTS ${ckpt})
    message(FATAL_ERROR "e2e_sweep died (${rc}) without leaving a "
                        "checkpoint${log}")
endif()
run_leg(${CMAKE_COMMAND} -E env USYS_THREADS=1
        ${BENCH} --reps 1 --out ${artifact}
        --checkpoint ${ckpt} --resume --stats-json ${stats_resumed})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "e2e_sweep --resume failed (${rc})${log}")
endif()
run_leg(${CMAKE_COMMAND} -E compare_files ${stats1} ${stats_resumed})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "resumed stats JSON differs from the straight "
                        "run (${stats1} vs ${stats_resumed}) — "
                        "checkpoint restore is not byte-exact${log}")
endif()

cmake_host_system_information(RESULT cores QUERY NUMBER_OF_PHYSICAL_CORES)
if(cores GREATER_EQUAL 4)
    run_leg(${BENCH} --reps 3 --min-speedup 2
            --out ${artifact} --stats-json ${WORK_DIR}/e2e.stats.perf.json)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "e2e_sweep perf gate failed (${rc}) — "
                            "executor below 2x over the fork-join "
                            "baseline${log}")
    endif()
endif()
