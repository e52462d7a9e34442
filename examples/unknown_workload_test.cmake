# Runs ${EXE} on a workload name that does not exist and requires a clean
# usage failure: exit status 2 and a usage line listing the available
# workloads on stderr.
#
#   cmake -DEXE=path/to/quickstart -P unknown_workload_test.cmake
execute_process(COMMAND ${EXE} nope
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage: " OR NOT err MATCHES "available:.* backprop")
  message(FATAL_ERROR "expected a usage line with workload names:\n${err}")
endif()
