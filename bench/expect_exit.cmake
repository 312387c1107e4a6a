# ctest helper: runs EXE once per space-separated argument in ARGS and fails
# unless every run exits with status STATUS.
#
#   cmake -DEXE=<binary> "-DARGS=--a=1 --b=2" -DSTATUS=2 -P expect_exit.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
foreach(arg IN LISTS arg_list)
  execute_process(COMMAND "${EXE}" "${arg}" RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT status STREQUAL "${STATUS}")
    message(FATAL_ERROR "${EXE} ${arg}: exit status '${status}', "
                        "expected ${STATUS}")
  endif()
  message(STATUS "${EXE} ${arg}: exit status ${status}")
endforeach()
