// Host fingerprint and process resource counters. Results are comparable
// only between runs whose fingerprints match.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct HostFingerprint {
  std::size_t nproc = 0;  ///< CPUs this process may run on
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};

HostFingerprint host_fingerprint();

/// JSON object text of the fingerprint.
std::string fingerprint_json(const HostFingerprint& host);

/// Threads a workload may use in total: the CPUs available, at most 4, so
/// the workload keeps its shape on larger hosts.
std::size_t thread_budget();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// CPU seconds (user + system) consumed by every thread of this process.
double process_cpu_seconds();

}  // namespace perfbench
