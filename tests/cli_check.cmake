# Runs one CLI invocation and checks how it ends, for ctest entries
# that need more than "exit code zero or not":
#
#   cmake -DEXIT=<code> [-DSTDERR=<regex>] -P cli_check.cmake -- CMD ARGS...
#
# Passes when CMD exits with exactly EXIT (a crash or signal never
# matches) and, when STDERR is given, its stderr matches that regex.

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
                      "-P cli_check.cmake -- CMD ARGS...")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT result STREQUAL EXIT)
  message(FATAL_ERROR "exit '${result}', expected ${EXIT}\n"
                      "stderr:\n${stderr}")
endif()
if(DEFINED STDERR AND NOT stderr MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${stderr}")
endif()
