# Runs a command that must fail in one particular way:
#
#   cmake -DEXIT_CODE=<n> -DEXPECT=<regex> -P expect_exit.cmake --
#         <command> [<arg>...]
#
# passes only if <command> exits with <n> and its output (stdout and stderr
# together) matches <regex>. A ctest property cannot check both:
# PASS_REGULAR_EXPRESSION ignores the exit code, and WILL_FAIL accepts any
# non-zero one.
set(command)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXIT_CODE OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXIT_CODE=<n> -DEXPECT=<regex> "
                      "-P expect_exit.cmake -- <command> [<arg>...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "expected exit code ${EXIT_CODE}, got ${code}")
endif()
if(NOT output MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match: ${EXPECT}")
endif()
