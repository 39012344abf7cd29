# Fails when a gtest binary lists different tests on two runs.
#
#   cmake -P stable_test_names.cmake <test binary>...
#
# gtest_discover_tests builds the ctest names from --gtest_list_tests,
# parameter values included; a value printed from padding bytes, a
# pointer or the clock changes those names from run to run.
math(EXPR last "${CMAKE_ARGC} - 1")
set(unstable "")
foreach(i RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${i}}")
  foreach(run first second)
    execute_process(COMMAND "${binary}" --gtest_list_tests
                    OUTPUT_VARIABLE ${run} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${binary} --gtest_list_tests exited with ${rc}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    list(APPEND unstable "${binary}")
  endif()
endforeach()
if(unstable)
  message(FATAL_ERROR "test names differ between two listings: ${unstable}")
endif()
