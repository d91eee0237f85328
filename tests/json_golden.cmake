# Golden check for one tool run that writes a JSON report
# (cmake -P script).
#
#   cmake -DTOOL=<binary> -DJSON_CHECK=<json_check> -DNAME=<name>
#         -DGOLDEN=<golden.json> "-DARGS=<space-separated flags>"
#         "-DSTRIP=<space-separated member names>" [-DEXIT=<code>]
#         -P json_golden.cmake
#
# Runs TOOL with ARGS and --json NAME.json, requires exit code EXIT
# (default 0), drops each STRIP member (the build type, the config
# digest: whatever varies by build) with json_check --strip, and
# byte-compares the rest with GOLDEN.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} --json ${NAME}.json
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT DEFINED EXIT OR EXIT STREQUAL "")
    set(EXIT 0)
endif()
if(NOT rc EQUAL EXIT)
    message(FATAL_ERROR "${TOOL} ${ARGS} exited with ${rc}, not ${EXIT}")
endif()
separate_arguments(strip UNIX_COMMAND "${STRIP}")
set(current ${NAME}.json)
foreach(member IN LISTS strip)
    execute_process(COMMAND ${JSON_CHECK} --strip ${member}
                    --out ${NAME}.no_${member}.json ${current}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "json_check --strip ${member} failed on"
                            " ${current}")
    endif()
    set(current ${NAME}.no_${member}.json)
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${current} ${GOLDEN}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${current} differs from ${GOLDEN}")
endif()
