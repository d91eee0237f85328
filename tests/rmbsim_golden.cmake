# Golden check for one rmbsim run (cmake -P script).
#
#   cmake -DRMBSIM=<rmbsim> -DJSON_CHECK=<json_check> -DNAME=<name>
#         -DGOLDEN=<golden.json> "-DARGS=<space-separated flags>"
#         -P rmbsim_golden.cmake
#
# Runs rmbsim with ARGS and --json NAME.json, drops the "provenance"
# and "build_type" members (they carry the build type and the config
# digest) with json_check --strip, and byte-compares the rest with
# GOLDEN.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${RMBSIM} ${args} --json ${NAME}.json
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rmbsim ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND ${JSON_CHECK} --strip provenance
                --out ${NAME}.noprov.json ${NAME}.json
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
    execute_process(COMMAND ${JSON_CHECK} --strip build_type
                    --out ${NAME}.stripped.json ${NAME}.noprov.json
                    RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "json_check --strip failed on ${NAME}.json")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${NAME}.stripped.json ${GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}.stripped.json differs from ${GOLDEN}")
endif()
