// Provenance block for the BENCH_*.json artifacts: which commit, on how
// many cores, with which compiler and build type a measurement was taken.

#ifndef FLEXSTREAM_BENCH_PROVENANCE_H_
#define FLEXSTREAM_BENCH_PROVENANCE_H_

#include <cstdio>
#include <string>
#include <thread>

namespace flexstream {
namespace bench {

/// `git describe` of the working directory; "-dirty" marks a measurement
/// of uncommitted changes on top of HEAD. Run benches from the repo root.
inline std::string GitSha() {
  std::string sha;
  if (FILE* pipe = popen(
          "git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    char buf[128] = {};
    if (fgets(buf, sizeof(buf), pipe) != nullptr) sha = buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unavailable" : sha;
}

#if defined(__clang__)
inline constexpr char kCompiler[] = "clang " __clang_version__;
#else
inline constexpr char kCompiler[] = "GNU " __VERSION__;
#endif

/// The JSON object `{"git_sha": ..., "nproc": ..., "compiler": ...,
/// "build_type": ...}`. FLEXSTREAM_BUILD_TYPE is set per bench target by
/// bench/CMakeLists.txt.
inline std::string ProvenanceJson() {
  return "{\"git_sha\": \"" + GitSha() + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + kCompiler + "\", \"build_type\": \"" +
         FLEXSTREAM_BUILD_TYPE + "\"}";
}

}  // namespace bench
}  // namespace flexstream

#endif  // FLEXSTREAM_BENCH_PROVENANCE_H_
