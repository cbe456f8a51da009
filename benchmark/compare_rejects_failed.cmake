# ctest bench_compare_rejects_failed: `socflow_bench --compare` must exit
# 1 when the new result file failed its own correctness checks, even
# when every median is unchanged, and 0 for a clean file against itself.
#
#   cmake -DBENCH=<socflow_bench> -DBASE=<result file> -DWORK=<dir> \
#         -P compare_rejects_failed.cmake

file(READ "${BASE}" clean)

execute_process(COMMAND "${BENCH}" --compare "${BASE}" "${BASE}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "clean file against itself: exit ${rc}, want 0")
endif()

function(expect_rejected from to)
    string(REPLACE "${from}" "${to}" failed "${clean}")
    if(failed STREQUAL clean)
        message(FATAL_ERROR "${BASE} holds no ${from}")
    endif()
    file(WRITE "${WORK}/compare_failed.json" "${failed}")
    execute_process(
        COMMAND "${BENCH}" --compare "${BASE}" "${WORK}/compare_failed.json"
        RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "new file with ${to}: exit ${rc}, want 1")
    endif()
endfunction()

# A suite whose gates failed, and one whose workload lists a failure.
expect_rejected("\"correct\": true" "\"correct\": false")
expect_rejected("\"failures\": []" "\"failures\": [\"injected\"]")
