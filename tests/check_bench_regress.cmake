# ctest driver for the perf-regression comparator against the
# checked-in benchmark record. Expects:
#   BENCH     path to the perf_smoke binary
#   PYTHON    python3 interpreter
#   TOOLS_DIR repo tools/ directory (bench_compare.py)
#   WORK_DIR  scratch directory for the candidate artifact
#   REPO_ROOT repo source directory (committed BENCH_kernels.json)
#   SANITIZED USYS_SANITIZE value of the tree ("" for a plain build)

# The committed baseline is a release-tree artifact; sanitized timings
# are incommensurable with it (and under TSan the no_sanitize AVX-512
# kernels inflate the SIMD ratios by an order of magnitude), so the
# comparison only runs in plain builds.
if(SANITIZED)
    message(STATUS "sanitized tree (${SANITIZED}): skipping the "
                   "perf-regression comparison against the committed "
                   "baseline")
    return()
endif()

set(baseline ${REPO_ROOT}/BENCH_kernels.json)
set(candidate ${WORK_DIR}/BENCH_kernels_regress.json)

if(NOT EXISTS ${baseline})
    message(FATAL_ERROR "committed baseline ${baseline} is missing — "
                        "run the bench_kernels test once to publish it")
endif()

# Fresh candidate run with no perf gates: the gates live in
# bench_kernels; this test only asks whether the numbers moved.
execute_process(
    COMMAND ${BENCH} --stats-json ${candidate}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_smoke failed (${rc}) while producing the "
                        "regression candidate artifact")
endif()

# Loose 50% gate on the speedup ratios only. Absolute microsecond
# timings swing by integer factors under background load on small
# hosts, and the availability/level counters are ungated by suffix;
# the packed/SIMD speedups and the s50/s90 sparse-over-dense input
# ratios are the portable signal. A tier present in the baseline but
# unavailable on this host is exempted by the same skip rules
# (bench_compare treats skip-ruled keys missing from the candidate as
# notes, not regressions).
execute_process(
    COMMAND ${PYTHON} ${TOOLS_DIR}/bench_compare.py ${baseline}
            ${candidate} --threshold 0.5 --skip "*_us"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_compare reported a >50% speedup "
                        "regression against the committed "
                        "BENCH_kernels.json")
endif()
