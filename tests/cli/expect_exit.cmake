# Runs PROGRAM with the arguments in ARG and fails unless it exits with
# EXPECT_CODE and its stderr matches the regex EXPECT_STDERR. ARG is a
# CMake list: separate several arguments with $<SEMICOLON> in add_test.
#   cmake -DPROGRAM=... -DARG=... -DEXPECT_CODE=2 -DEXPECT_STDERR=... -P expect_exit.cmake
execute_process(COMMAND ${PROGRAM} ${ARG}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR
    "exit status '${code}', expected ${EXPECT_CODE}\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}': ${err}")
endif()
