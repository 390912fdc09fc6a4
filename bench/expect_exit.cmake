# Runs a command and checks how it ended:
#
#   cmake -DEXIT_CODE=<n> [-DEXPECT=<regex>] [-DSTDOUT_FILE=<path>] \
#         -P expect_exit.cmake -- <command> [args...]
#
# Fails unless the command exits with status <n> and, when EXPECT is
# given, its merged stdout and stderr match <regex> ('.' matches
# newlines), and, when STDOUT_FILE is given, its stdout alone equals
# that file's bytes. A command killed by a signal reports a message
# rather than a number, so it never passes.

set(cmd)
set(in_cmd FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_cmd)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(in_cmd TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXIT_CODE)
    message(FATAL_ERROR "usage: cmake -DEXIT_CODE=<n> [-DEXPECT=<re>] "
                        "-P expect_exit.cmake -- <command> [args...]")
endif()

if(DEFINED STDOUT_FILE)
    execute_process(COMMAND ${cmd}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout
                    ERROR_VARIABLE stderr)
    set(out "${stdout}${stderr}")
else()
    execute_process(COMMAND ${cmd}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
endif()
message("${out}")
if(NOT "${rc}" STREQUAL "${EXIT_CODE}")
    message(FATAL_ERROR "expected exit status ${EXIT_CODE}, got '${rc}'")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
if(DEFINED STDOUT_FILE)
    file(READ "${STDOUT_FILE}" want)
    if(NOT stdout STREQUAL want)
        message(FATAL_ERROR "stdout differs from ${STDOUT_FILE}")
    endif()
endif()
