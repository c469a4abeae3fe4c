# Reruns the serving sweeps into the working directory and
# byte-compares each artifact with the committed copy:
#
#   cmake -DFLEET_BENCH=<bench_ext_fleet_scale> \
#         -DMAP_BENCH=<bench_ext_map_serve> -DSOURCE_DIR=<repo> \
#         -P tools/bench_artifacts_reproduce.cmake

function(reproduce bench flag artifact)
    execute_process(COMMAND ${bench} --${flag}=${artifact}
                    RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${rc}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${artifact} ${SOURCE_DIR}/${artifact}
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${artifact} differs from the committed copy")
    endif()
endfunction()

reproduce(${FLEET_BENCH} fleet-json BENCH_fleet.json)
reproduce(${MAP_BENCH} map-json BENCH_map.json)
