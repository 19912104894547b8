# Runs the command after `--` and fails unless it exits 0 and its standard
# output contains EXPECT. ctest's PASS_REGULAR_EXPRESSION alone ignores the
# exit status, so a crash or sanitizer report after the matched line would
# still pass.
#
#   cmake "-DEXPECT=<text>" -P expect_output.cmake -- <program> [args...]
set(command "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<text> -P expect_output.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "exited with ${rc}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "standard output lacks: ${EXPECT}")
endif()
