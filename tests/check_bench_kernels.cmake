# ctest driver for the packed-vs-scalar kernel benchmark. Expects:
#   BENCH     path to the perf_smoke binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (schema + checker)
#   WORK_DIR  scratch directory for the artifact (the only file written;
#             the committed root BENCH_kernels.json is refreshed by hand)
#   SANITIZED USYS_SANITIZE value of the tree ("" for a plain build)

set(stats ${WORK_DIR}/BENCH_kernels.json)

# Sanitized trees still run the full equivalence checks, but the
# sparse-speedup floor is release-only: instrumentation skews the
# plan-build-vs-MAC cost ratio (ASan redzones land on the census/plan
# allocations), and under TSan the no_sanitize AVX-512 kernels make
# every generic-vs-SIMD ratio incommensurable with a release run.
set(sparse_gate --min-sparse-speedup 2)
if(SANITIZED)
    set(sparse_gate)
endif()

# perf_smoke itself asserts packed/scalar and SIMD/generic equivalence
# per kernel and exits nonzero when a perf gate misses:
#   --min-speedup 10             full-period UR packed-vs-scalar
#   --min-sparse-speedup 2       the packed 256x64x64 UR fold over a
#                                90%-sparse input vs the same fold
#                                over a dense input (self-skips on
#                                hosts too slow to time the fold)
#   --max-profile-overhead-pct 2 compiled-in-but-disabled profiler
#                                cost on the packed UR fold (A/A gated)
execute_process(
    COMMAND ${BENCH} --stats-json ${stats} --min-speedup 10
            ${sparse_gate}
            --max-profile-overhead-pct 2
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}) — equivalence "
                        "mismatch or a perf gate missed (UR 10x, "
                        "sparse 2x, or profiling-disabled overhead "
                        "above 2%)")
endif()

execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/check_stats_schema.py
            --schema ${TOOLS_DIR}/bench_kernels_schema.json ${stats}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "BENCH_kernels.json schema validation failed")
endif()
