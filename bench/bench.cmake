# Included from the top-level CMakeLists (not add_subdirectory) so that
# build/bench/ contains ONLY benchmark executables — `for b in build/bench/*`
# then runs the whole harness with no CMake artifacts in the way.
set(SP_BENCH_DIR ${CMAKE_SOURCE_DIR}/bench)

function(sp_add_bench name)
  add_executable(${name} ${SP_BENCH_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE sp_core)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src ${SP_BENCH_DIR})
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(sp_add_gbench name)
  sp_add_bench(${name})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

# Figure-reproduction harnesses (plain executables printing paper series).
sp_add_bench(bench_fig10a)
sp_add_bench(bench_fig10b)
sp_add_bench(bench_fig10c)
sp_add_bench(bench_fig10d)
sp_add_bench(bench_ablation_threshold)
sp_add_bench(bench_payload)
sp_add_bench(bench_baseline_success)
sp_add_bench(bench_acl_maintenance)
sp_add_bench(bench_params)
sp_add_bench(bench_storage)

# Micro-benchmarks (google-benchmark).
sp_add_gbench(bench_micro_crypto)
sp_add_gbench(bench_sss)
sp_add_gbench(bench_abe)
