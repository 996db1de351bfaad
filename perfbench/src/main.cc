// sss_perfbench — the repository benchmark's benchmark binary.
//
//   sss_perfbench --workload dna_batch|city_serve|city_router --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a host/build fingerprint line, a detail line, and as its last line
// the result object ({"correct", "attempted", "failed", "metrics"}): the
// end-to-end metrics with --trace 0, the layer ladder's with --trace 1.
// perfbench/run.py builds this binary from source and runs it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "util/kernel_dispatch.h"
#include "workloads.h"

#ifndef SSS_PERFBENCH_BUILD_TYPE
#define SSS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "sss_perfbench: %s\nusage: sss_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               message);
  return 2;
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

void PrintFingerprint(const WorkloadSpec& spec, const RunOptions& options,
                      const Inputs& inputs) {
  __builtin_cpu_init();
  std::printf(
      "{\"fingerprint\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"load_threads\": %zu, "
      "\"avx2\": %s, \"avx512f\": %s, \"dispatch_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"compiler\": \"%s\", "
      "\"corpus_strings\": %zu, \"queries\": %zu, \"offered_rate\": %g}}\n",
      spec.name.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      std::thread::hardware_concurrency(), LoadThreads(),
      __builtin_cpu_supports("avx2") ? "true" : "false",
      __builtin_cpu_supports("avx512f") ? "true" : "false",
      std::string(sss::ToString(sss::ActiveKernelTier())).c_str(),
      SSS_PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false", __VERSION__,
      inputs.dataset.size(), inputs.queries.size(), spec.offered_rate);
  if (!kOptimized) {
    std::fprintf(stderr,
                 "sss_perfbench: WARNING: built without optimisation; "
                 "timings are not comparable\n");
  }
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) return Usage("unknown workload");

  std::vector<std::string> shard_paths;
  std::vector<uint32_t> id_bases;
  const Inputs inputs =
      MakeWorkloadInputs(*spec, options, &shard_paths, &id_bases);
  PrintFingerprint(*spec, options, inputs);

  Report report;
  bool valid = true;
  if (options.trace) {
    RunLadder(*spec, options, inputs, shard_paths, id_bases, &report);
  } else {
    valid = RunEndToEnd(*spec, options, inputs, shard_paths, id_bases,
                        &report);
  }
  std::remove(inputs.path.c_str());
  for (const std::string& path : shard_paths) std::remove(path.c_str());
  if (!valid) return 3;
  report.Detail("error_rate",
                Ratio(static_cast<double>(report.failed()),
                      static_cast<double>(report.attempted())));
  report.Detail("error_rate.base", static_cast<double>(report.attempted()));
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
