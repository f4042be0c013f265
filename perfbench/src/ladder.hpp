// Layer ladder: the cost per call of each layer's public entry point, fed
// with the workload's own generated requests on a single thread. Each rung
// runs chunks of calls until its time budget is spent and reports the
// median per-call cost over the chunks.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "workload.hpp"

namespace perfbench {

struct LadderParams {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  mcsmr::Config config;        ///< the workload's replica configuration
  std::string storage_dir;     ///< scratch directory on the log filesystem
};

/// (metric name, value) pairs: ladder.*_ns, and ladder.storage_sync_us.
std::vector<std::pair<std::string, double>> run_ladder(const LadderParams& params);

}  // namespace perfbench
