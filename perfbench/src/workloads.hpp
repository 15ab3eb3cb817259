// The three benchmark workloads. Each builds its inputs from the seed, sets
// itself up several times (setup_s is the median), measures for about
// `seconds`, checks every output it produced, and fills a RunOutcome.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunOutcome {
  MetricSet metrics;  ///< end-to-end (untraced) or per-layer (traced)
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per correctness failure
  std::string config_json;            ///< workload settings echo
  std::string detail_json;            ///< counts, steps, sample sizes

  void fail(std::uint64_t count, const std::string& problem) {
    correct = false;
    failed += count;
    problems.push_back(problem);
  }
};

RunOutcome run_characterize(const RunOptions& options, Tracer& tracer);
RunOutcome run_serve_narrow(const RunOptions& options, Tracer& tracer);
RunOutcome run_serve_fleet(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
