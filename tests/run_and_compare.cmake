# Runs the command given after `--` and checks how it ended:
#
#   cmake [-DEXPECT_FAIL=1] [-DMATCH=<regex>]
#         [-DOUTPUT=<file> -DEXPECTED=<file>]
#         -P run_and_compare.cmake -- <command> <args>...
#
# EXPECT_FAIL  the command must exit non-zero (by default it must exit 0).
# MATCH        a regex its combined stdout and stderr must match.
# OUTPUT       a file the command writes; it must equal EXPECTED byte for
#              byte. It is deleted first, so a stale copy cannot pass.
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
  message(FATAL_ERROR "run_and_compare: no command after --")
endif()

if(OUTPUT)
  file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)

if(EXPECT_FAIL AND rc EQUAL 0)
  message(FATAL_ERROR "expected a non-zero exit, got 0:\n${out}")
elseif(NOT EXPECT_FAIL AND NOT rc EQUAL 0)
  message(FATAL_ERROR "exit ${rc}:\n${out}")
endif()
if(DEFINED MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}")
endif()
if(OUTPUT)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${OUTPUT}" "${EXPECTED}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
  endif()
endif()
