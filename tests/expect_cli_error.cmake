# Passes when the command after "--" exits with status 2 (a rejected
# argument) and its stderr matches the regex EXPECT:
#
#   cmake -DEXPECT=<regex> -P expect_cli_error.cmake -- <command> [args]
set(command)
set(collecting OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(collecting)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(collecting ON)
    endif()
endforeach()

execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE output
    ERROR_VARIABLE errors)
if(NOT status EQUAL 2)
    message(FATAL_ERROR
        "expected exit status 2, got '${status}' from: ${command}\n"
        "stdout:\n${output}\nstderr:\n${errors}")
endif()
if(NOT errors MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "stderr of ${command} does not match '${EXPECT}':\n${errors}")
endif()
