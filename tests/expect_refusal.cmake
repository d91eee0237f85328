# A malformed command line must be refused (cmake -P script):
#
#   cmake -DTOOL=<binary> "-DARGS=<space-separated flags>"
#         "-DREGEX=<stderr regex>" -P expect_refusal.cmake
#
# Passes only when TOOL exits 2 and its stderr matches REGEX: an abort
# (134) or a run that went ahead with some value (0) both fail.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${TOOL} ${ARGS} exited with ${rc}, not 2:\n"
                        "${err}")
endif()
if(NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR "${TOOL} ${ARGS}: stderr does not match"
                        " '${REGEX}':\n${err}")
endif()
