# The flight recorder's forensic round trip, as an operator would do it
# after an incident: FlightRouterFixture.DeadlineAbortTriggersForensicDump
# writes its deadline-abort dump into an empty directory, and
# flight_inspect must read every dump file there back and validate it.
#
#   cmake -DTEST=<flight_test> -DINSPECT=<flight_inspect>
#         -DDIR=<scratch directory> -P flight_dump.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(
  COMMAND "${TEST}"
          --gtest_filter=FlightRouterFixture.DeadlineAbortTriggersForensicDump
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TEST} exited with ${rc}")
endif()
file(GLOB dumps "${DIR}/*.flight")
if(NOT dumps)
  message(FATAL_ERROR "no forensic dump was written to ${DIR}")
endif()
foreach(dump IN LISTS dumps)
  execute_process(
    COMMAND "${INSPECT}" "${dump}" --validate --slowest=5 --failed
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flight_inspect rejected ${dump} (exit ${rc})")
  endif()
endforeach()
