// The benchmark's metric catalogue and its result line.
//
// Every workload emits every end-to-end metric (untraced run) or every
// per-layer metric (traced run); BENCHMARK.json declares the same names and
// units, and the self-test holds the two in step. A per-layer metric whose
// layer a workload never calls reads 0 with a 0 call count: `characterize`
// makes no daemon call, the serve workloads fit no Table III cell.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& end_to_end_metrics();
/// End-to-end metrics printed with every untraced run but left out of the
/// result line and BENCHMARK.json: p99_us, whose spread across runs on a
/// shared host exceeds the largest bound the benchmark may set.
const std::vector<MetricSpec>& reported_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Unit of a catalogued metric; throws std::out_of_range for an unknown name.
const std::string& metric_unit(const std::string& name);

/// Metric values of one run, by name. set() rejects names not in the
/// catalogue, so a typo cannot emit a metric nobody declared.
class MetricSet {
 public:
  void set(const std::string& name, double value);
  /// Adds to the current value (0 if unset).
  void add(const std::string& name, double value);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, double>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

/// Shortest decimal text that reads back as exactly `value` (JSON number;
/// non-finite values become null).
std::string json_number(double value);

/// Sets every per-layer metric that `metrics` does not have yet to 0: the
/// workload never called that layer.
void zero_unset_layers(MetricSet& metrics);

/// JSON string literal with quotes and backslashes escaped.
std::string json_string(const std::string& text);

/// The one-line result object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over exactly `wanted`. Throws
/// std::logic_error if `metrics` lacks any wanted name.
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics,
                        const std::vector<MetricSpec>& wanted);

}  // namespace perfbench
