# Runs one CLI invocation and checks how it ends, for ctest entries
# that need more than "exit code zero or not":
#
#   cmake -DEXIT=<code> [-DSTDERR=<regex>] [-DSTDOUT_FILE=<path>]
#         -P cli_check.cmake -- CMD ARGS...
#
# Passes when CMD exits with exactly EXIT (a crash or signal never
# matches), when STDERR is given, its stderr matches that regex, and
# when STDOUT_FILE is given, its stdout equals that file byte for byte.

set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXIT)
  message(FATAL_ERROR "usage: cmake -DEXIT=<code> [-DSTDERR=<regex>] "
                      "[-DSTDOUT_FILE=<path>] -P cli_check.cmake -- "
                      "CMD ARGS...")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT result STREQUAL EXIT)
  message(FATAL_ERROR "exit '${result}', expected ${EXIT}\n"
                      "stderr:\n${stderr}")
endif()
if(DEFINED STDERR AND NOT stderr MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${stderr}")
endif()
if(DEFINED STDOUT_FILE)
  file(READ "${STDOUT_FILE}" expected)
  if(NOT stdout STREQUAL expected)
    message(FATAL_ERROR "stdout differs from ${STDOUT_FILE}:\n${stdout}")
  endif()
endif()
