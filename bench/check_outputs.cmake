# Runs one bench with --trace, --ledger and --profile into a fresh
# directory and fails unless every labelled trace and ledger and the
# profile capture exist and are non-empty.
#
#   cmake -DBENCH=<binary> -DDIR=<output dir> -DLABELS="<a>;<b>" \
#         -P check_outputs.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(
  COMMAND "${BENCH}" "--trace=${DIR}/run.trace" "--ledger=${DIR}/run.ledger"
          "--profile=${DIR}/run.prof"
  WORKING_DIRECTORY "${DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${status}")
endif()

set(expected "${DIR}/run.prof")
foreach(label IN LISTS LABELS)
  list(APPEND expected "${DIR}/run.${label}.trace" "${DIR}/run.${label}.ledger")
endforeach()
foreach(path IN LISTS expected)
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "missing output: ${path}")
  endif()
  file(SIZE "${path}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "empty output: ${path}")
  endif()
endforeach()
