#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <thread>

#include "metrics.hpp"

namespace perfbench {

HostFingerprint host_fingerprint() {
  HostFingerprint host;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    host.nproc = static_cast<std::size_t>(CPU_COUNT(&set));
  } else {
    host.nproc = std::thread::hardware_concurrency();
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  return host;
}

std::string fingerprint_json(const HostFingerprint& host) {
  std::string out = "{\"nproc\": " + std::to_string(host.nproc);
  out.append(", \"cpu_model\": ").append(json_string(host.cpu_model));
  out.append(", \"compiler\": ").append(json_string(host.compiler));
  out.append(", \"build_type\": ").append(json_string(host.build_type));
  out.append("}");
  return out;
}

std::size_t thread_budget() {
  return std::clamp<std::size_t>(host_fingerprint().nproc, 1, 4);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
