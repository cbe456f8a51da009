# Fails unless every entry point of TABLE (benchmark/layer_table.def) is
# defined in exactly one member of the simulator's static ARCHIVES and
# referenced as undefined from another member.
# Run as: cmake -DNM=<nm> -DTABLE=<layer_table.def>
#             -DARCHIVES=<a.a,b.a,...> -P check_layer_wraps.cmake
#
# socflow_bench_traced times each entry point by linking with
# -Wl,--wrap=<symbol>. A renamed entry point breaks that link, and
# --wrap only redirects references left undefined in an object file:
# an entry point whose callers all share its file is never timed. Both
# used to show up only in the benchmark build; this check runs in the
# tier-1 build.
file(STRINGS ${TABLE} rows REGEX "^LAYER_ENTRY\\(")
if(NOT rows)
    message(FATAL_ERROR "no LAYER_ENTRY rows in ${TABLE}")
endif()

string(REPLACE "," ";" ARCHIVES "${ARCHIVES}")
set(symbols "")
foreach(archive IN LISTS ARCHIVES)
    execute_process(COMMAND ${NM} -A -g ${archive}
        OUTPUT_VARIABLE out RESULT_VARIABLE rc ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${NM} -A -g ${archive} failed (${rc})")
    endif()
    string(APPEND symbols "${out}")
endforeach()

set(failures "")
foreach(row IN LISTS rows)
    if(NOT row MATCHES "\"(_Z[A-Za-z0-9_]+)\"")
        message(FATAL_ERROR "layer_table.def row without a symbol: ${row}")
    endif()
    set(sym ${CMAKE_MATCH_1})
    # nm -A -g: "<archive>:<member>:<address> <type> <symbol>".
    string(REGEX MATCHALL "[^\n]* [A-Za-z] ${sym}\n" hits "${symbols}")
    set(definers "")
    set(callers "")
    foreach(hit IN LISTS hits)
        if(NOT hit MATCHES "^(.*):[ 0-9a-f]* ([A-Za-z]) ${sym}\n$")
            continue()
        endif()
        set(member ${CMAKE_MATCH_1})
        set(type ${CMAKE_MATCH_2})
        if(type STREQUAL "U")
            list(APPEND callers ${member})
        elseif(type MATCHES "^[A-Z]$")
            list(APPEND definers ${member})
        endif()
    endforeach()
    list(REMOVE_DUPLICATES callers)
    list(LENGTH definers ndefs)
    if(NOT ndefs EQUAL 1)
        string(APPEND failures
            "\n  ${sym}: defined in ${ndefs} members (${definers})")
        continue()
    endif()
    list(REMOVE_ITEM callers ${definers})
    if(NOT callers)
        string(APPEND failures
            "\n  ${sym}: no member but its own (${definers}) calls it")
    endif()
endforeach()

if(failures)
    message(FATAL_ERROR "layer entry points --wrap cannot time:${failures}")
endif()
list(LENGTH rows count)
message(STATUS "all ${count} layer entry points wrappable")
