# Runs one paper-figure bench with `--quick --csv` and compares its
# stdout with the committed golden file byte for byte.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden file>
#         -DACTUAL=<where to keep the output> -P compare.cmake
#
# A golden file changes only when the simulated model changes; the
# change that edits one says so and shows the diff.
execute_process(COMMAND "${BENCH}" --quick --csv
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} --quick --csv exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "figure output differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
