# Symbolic-template equivalence gate for one NAS kernel, run as `cmake -P`
# from ctest (see tests/CMakeLists).
#
# Drives ovprof_check end to end, twice:
#   * `nas:KERNEL --symbolic` must prove matching and deadlock-freedom for
#     every admissible rank count (exit 0);
#   * `nas:KERNEL --write-skeleton=FILE` instantiates the symbolic template
#     at the default parameters, and FILE must equal GOLDEN byte for byte.
#     GOLDEN is the frozen skeleton_*.txt written by the former hand-unrolled
#     builder, so this is the template-vs-unrolled check through the CLI.
#     Every other class and rank count is covered by the digest tests in
#     symbolic_test.cpp.
#
# Required -D variables: OVPROF_CHECK (binary path), KERNEL, GOLDEN,
# WORK_DIR.  Optional: VARIANT (mg only).
foreach(var OVPROF_CHECK KERNEL GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sym_equiv.cmake: -D${var}=... is required")
  endif()
endforeach()
set(variant_args "")
if(DEFINED VARIANT)
  set(variant_args "--variant=${VARIANT}")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(written "${WORK_DIR}/skeleton.txt")

execute_process(COMMAND "${OVPROF_CHECK}" nas:${KERNEL} ${variant_args}
                        --symbolic
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "symbolic proof failed (exit ${rc}):\n${out}\n${err}")
endif()

execute_process(COMMAND "${OVPROF_CHECK}" nas:${KERNEL} ${variant_args}
                        --write-skeleton=${written}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--write-skeleton failed (exit ${rc}):\n${out}\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${written}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "instantiated template ${written} differs from ${GOLDEN}")
endif()
message(STATUS "nas:${KERNEL} ${variant_args}: proven, matches ${GOLDEN}")
