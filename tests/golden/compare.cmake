# Runs one bench and compares its stdout with the committed golden file
# byte for byte.
#
#   cmake -DBENCH=<bench binary> [-DARGS="<bench flags>"]
#         -DGOLDEN=<golden file> -DACTUAL=<where to keep the output>
#         -P compare.cmake
#
# ARGS defaults to `--quick --csv`, the paper-figure output. A golden
# file changes only when the simulated model changes; the change that
# edits one says so and shows the diff.
if(NOT DEFINED ARGS)
  set(ARGS "--quick --csv")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "bench output differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
