# Runs `flashflow run` on a 40-relay scenario whose 60 s period holds 2
# slots while its greedy packing needs 6, and checks that the run still
# succeeds and warns about the overrun on stderr:
#
#   cmake -DCLI=path/to/flashflow -DWORK_DIR=dir -P cli_run_overrun.cmake
file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/overrun.yaml [=[
flashflow_scenario: 1
name: overrun
seed: 7
population: synthetic
synthetic.relays: 40
synthetic.lognormal_mu: 17.42
synthetic.lognormal_sigma: 1.45
synthetic.max_capacity_bits: 998e6
team.capacity_bits: [1e9, 1e9, 1e9]
params.period_seconds: 60
]=])
execute_process(
  COMMAND ${CLI} run ${WORK_DIR}/overrun.yaml --out ${WORK_DIR}/out
          --force --quiet
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "flashflow run: exit ${exit_code}, expected 0")
endif()
if(NOT err MATCHES
   "warning: period 0 overran: 6 slots used, 2 fit in the period")
  message(FATAL_ERROR "flashflow run: no period-overrun warning on stderr")
endif()
