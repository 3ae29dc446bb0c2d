# Runs `flashflow plan` on one scenario file and checks the exit code and,
# when EXPECT_OUTPUT is non-empty, that stdout + stderr match it:
#
#   cmake -DCLI=path/to/flashflow -DSCENARIO=file.yaml -DEXPECT_EXIT=0 \
#         [-DEXPECT_OUTPUT=regex] -P cli_plan_smoke.cmake
execute_process(COMMAND ${CLI} plan ${SCENARIO}
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "flashflow plan ${SCENARIO}: exit ${exit_code}, "
                      "expected ${EXPECT_EXIT}")
endif()
if(NOT EXPECT_OUTPUT STREQUAL "" AND NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "flashflow plan ${SCENARIO}: output does not match "
                      "'${EXPECT_OUTPUT}'")
endif()
