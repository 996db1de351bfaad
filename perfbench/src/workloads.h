// The benchmark's three workloads. Each is defined by a WorkloadSpec (the
// fixed parameters every commit is measured with) and run either
// end to end (--trace 0: the user-visible metrics) or through the layer
// ladder (--trace 1: each layer's public entry point in turn). See
// perfbench/README.md for why each workload exists and what it bypasses.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/engine_host.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool dna = false;
  /// Corpus size as a share of the paper's Table I dataset.
  double scale = 0;
  /// Candidate queries drawn before repeated (k, text) pairs are dropped.
  size_t num_queries = 0;
  /// Engines every EngineHost generation builds (the first is the default).
  std::vector<sss::EngineSpec> engines;
  /// Served through the router over three shard servers.
  bool routed = false;
  /// Phase B offered load, requests/s (0 = no served phases).
  double offered_rate = 0;
  /// Queries the layer ladder sends through every rung.
  size_t ladder_sample = 0;
};

/// \brief The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief Generates the workload's inputs (and shard files) from the seed.
Inputs MakeWorkloadInputs(const WorkloadSpec& spec, const RunOptions& options,
                          std::vector<std::string>* shard_paths,
                          std::vector<uint32_t>* id_bases);

/// \brief End-to-end run: fills every end-to-end metric. Returns false when
/// the run is invalid (the open-loop generator fell behind its schedule).
bool RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options,
                 const Inputs& inputs,
                 const std::vector<std::string>& shard_paths,
                 const std::vector<uint32_t>& id_bases, Report* report);

/// \brief Traced run: the layer ladder plus a short traced replay of the
/// end-to-end loop. Fills every per-layer metric.
void RunLadder(const WorkloadSpec& spec, const RunOptions& options,
               const Inputs& inputs,
               const std::vector<std::string>& shard_paths,
               const std::vector<uint32_t>& id_bases, Report* report);

}  // namespace perfbench
