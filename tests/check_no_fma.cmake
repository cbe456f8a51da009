# Fails when the disassembly of ARCHIVE contains an FMA instruction.
# Run as: cmake -DOBJDUMP=<objdump> -DARCHIVE=<lib.a> -P check_no_fma.cmake
#
# The tensor kernels are bit-exact only while every a*b+c rounds twice.
# -ffp-contract=off keeps the compiler from fusing them; this check
# catches a build where that flag was lost or overridden. On x86 it
# also requires gemm()'s AVX2 kernel build (rowBlockAvx2) to be in the
# archive, so it cannot pass vacuously on a build that dropped it or
# moved it elsewhere.
execute_process(COMMAND ${OBJDUMP} -d ${ARCHIVE}
    OUTPUT_VARIABLE disasm RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR disasm STREQUAL "")
    message(FATAL_ERROR "objdump -d ${ARCHIVE} failed (${rc})")
endif()
string(REGEX MATCHALL "[^\n]*vf(n)?m(add|sub)[^\n]*" fma "${disasm}")
if(fma)
    list(LENGTH fma count)
    list(GET fma 0 first)
    message(FATAL_ERROR
        "${count} FMA instruction(s) in ${ARCHIVE}, e.g.:\n${first}")
endif()
if(X86 AND NOT disasm MATCHES "rowBlockAvx2")
    message(FATAL_ERROR "no rowBlockAvx2 in ${ARCHIVE}: AVX2 kernel missing")
endif()
message(STATUS "no FMA instructions in ${ARCHIVE}")
