# ctest helper: runs EXE once per space-separated argument in ARGS and fails
# unless every run exits with status STATUS.  A '|' joins several arguments
# into one run.  EXE may be a list of binaries; each makes every run.
#
#   cmake -DEXE=<binary> "-DARGS=--a=1 --b=2|--c=3" -DSTATUS=2 -P expect_exit.cmake
separate_arguments(run_list UNIX_COMMAND "${ARGS}")
foreach(exe IN LISTS EXE)
  foreach(run IN LISTS run_list)
    string(REPLACE "|" ";" run_args "${run}")
    execute_process(COMMAND "${exe}" ${run_args} RESULT_VARIABLE status
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT status STREQUAL "${STATUS}")
      message(FATAL_ERROR "${exe} ${run}: exit status '${status}', "
                          "expected ${STATUS}")
    endif()
    message(STATUS "${exe} ${run}: exit status ${status}")
  endforeach()
endforeach()
