#pragma once

// Where a bench's numbers come from, with lls_bench's field names: the
// machine's online CPUs, the build type, the compiler and the tree the
// binary was configured from. bench/CMakeLists.txt fixes the LLS_BUILD_TYPE
// and LLS_GIT_* definitions at configure time.

#include <unistd.h>

#include <string>

inline std::string provenance_json() {
    return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ",\"cmake_build_type\":\"" LLS_BUILD_TYPE "\",\"compiler\":\"" __VERSION__
           "\",\"git_sha\":\"" LLS_GIT_SHA "\",\"git_dirty\":\"" LLS_GIT_DIRTY "\"}";
}
