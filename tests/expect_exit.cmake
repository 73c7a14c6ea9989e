# Exact exit-code check, run as `cmake -P` from ctest (see tests/CMakeLists).
#
# Usage: cmake -DEXPECT=<code> -P expect_exit.cmake -- <command> [args...]
#
# Passes iff the command exits with exactly EXPECT.  ctest's WILL_FAIL only
# asks for "non-zero", which a crash (abort, exit 134) also satisfies; the
# documented rejection of bad input is exit 2 with a reason on stderr.
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_exit.cmake: -DEXPECT=<code> is required")
endif()

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT}")
  message(FATAL_ERROR
          "expected exit ${EXPECT}, got ${rc}: ${cmd}\n${out}\n${err}")
endif()
message(STATUS "exit ${rc} as expected\n${err}")
