# Golden check for a slice of one bench's tables (cmake -P script).
#
#   cmake -DTOOL=<binary> -DNAME=<name> -DGOLDEN=<golden.json>
#         -DFIRST=<index> "-DARGS=<space-separated flags>"
#         -P json_tables_golden.cmake
#
# Runs TOOL with ARGS and --json NAME.json, requires exit code 0, and
# requires the report's "tables" from index FIRST on to equal, in
# order and member for member, every table of GOLDEN.  The report may
# hold more tables than the slice; GOLDEN's other members are not
# compared.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} --json ${NAME}.json
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS} exited with ${rc}, not 0")
endif()
file(READ ${NAME}.json report)
file(READ ${GOLDEN} golden)
string(JSON have LENGTH "${report}" tables)
string(JSON want LENGTH "${golden}" tables)
math(EXPR end "${FIRST} + ${want}")
if(want LESS 1 OR end GREATER have)
    message(FATAL_ERROR "${NAME}.json has ${have} tables; ${GOLDEN}"
                        " needs ${want} from index ${FIRST}")
endif()
math(EXPR last "${want} - 1")
foreach(i RANGE ${last})
    math(EXPR j "${FIRST} + ${i}")
    string(JSON got GET "${report}" tables ${j})
    string(JSON expected GET "${golden}" tables ${i})
    string(JSON same EQUAL "${got}" "${expected}")
    if(NOT same)
        message(FATAL_ERROR "table ${j} of ${NAME}.json differs from"
                            " table ${i} of ${GOLDEN}")
    endif()
endforeach()
