# A --help request must print the usage and succeed (cmake -P script):
#
#   cmake -DTOOL=<binary> "-DARGS=<space-separated flags>"
#         "-DREGEX=<output regex>" -P expect_usage.cmake
#
# Passes only when TOOL exits 0 and its output (stdout and stderr
# together) matches REGEX.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS} exited with ${rc}, not 0:\n"
                        "${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${REGEX}")
    message(FATAL_ERROR "${TOOL} ${ARGS}: output does not match"
                        " '${REGEX}':\n${out}${err}")
endif()
