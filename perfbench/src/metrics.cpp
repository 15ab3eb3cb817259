#include "metrics.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"fit_s", "s"},
      {"p50_us", "us"},         {"qps_at_slo", "1/s"},
      {"ok_ratio", "ratio"},
      {"coverage", "ratio"},    {"width_mv", "mV"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& reported_metrics() {
  static const std::vector<MetricSpec> specs = {{"p99_us", "us"}};
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"silicon.generate_s", "s"},
      {"silicon.generate_calls", "count"},
      {"core.assemble_s", "s"},
      {"core.assemble_calls", "count"},
      {"data.select_s", "s"},
      {"data.select_calls", "count"},
      {"models.qpair_fit_s.linear", "s"},
      {"models.qpair_fit_s.mlp", "s"},
      {"models.qpair_fit_s.xgboost", "s"},
      {"models.qpair_fit_s.catboost", "s"},
      {"models.qpair_fit_calls", "count"},
      {"models.gp_fit_s", "s"},
      {"models.gp_fit_calls", "count"},
      {"conformal.cqr_fit_s.linear", "s"},
      {"conformal.cqr_fit_s.mlp", "s"},
      {"conformal.cqr_fit_s.xgboost", "s"},
      {"conformal.cqr_fit_s.catboost", "s"},
      {"conformal.cqr_fit_calls", "count"},
      {"models.predict_interval_s", "s"},
      {"models.predict_interval_calls", "count"},
      {"bench.cell_self_s", "s"},
      {"parallel.utilization", "ratio"},
      {"parallel.threads", "count"},
      {"daemon.submit_us.p50", "us"},
      {"daemon.submit_us.p99", "us"},
      {"daemon.submit_calls", "count"},
      {"daemon.resolve_us.p50", "us"},
      {"daemon.resolve_us.p99", "us"},
      {"daemon.batch_rows_mean", "rows"},
      {"daemon.served_ok", "count"},
      {"daemon.batches", "count"},
      {"daemon.max_queue_depth", "count"},
      {"serve.predict_us_per_row", "us"},
      {"serve.predict_us_per_row.b256", "us"},
      {"serve.predict_batch_rows", "rows"},
      {"artifact.decode_us", "us"},
      {"artifact.decode_calls", "count"},
      {"daemon.install_us", "us"},
      {"daemon.install_calls", "count"},
      {"daemon.activate_us", "us"},
      {"daemon.activate_calls", "count"},
      {"daemon.cache_hit_ratio", "ratio"},
      {"daemon.cache_hits", "count"},
      {"daemon.cache_misses", "count"},
      {"core.fit_screen_s", "s"},
      {"core.fit_screen_calls", "count"},
      {"artifact.encode_us", "us"},
      {"artifact.encode_calls", "count"},
      {"artifact.bytes", "bytes"},
      {"bench.gen_late_p99_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return specs;
}

const std::string& metric_unit(const std::string& name) {
  for (const auto* table :
       {&end_to_end_metrics(), &reported_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *table) {
      if (spec.name == name) return spec.unit;
    }
  }
  throw std::out_of_range("unknown metric: " + name);
}

void MetricSet::set(const std::string& name, double value) {
  (void)metric_unit(name);
  values_[name] = value;
}

void MetricSet::add(const std::string& name, double value) {
  (void)metric_unit(name);
  values_[name] += value;
}

bool MetricSet::has(const std::string& name) const {
  return values_.count(name) != 0;
}

double MetricSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::out_of_range("metric not set: " + name);
  return it->second;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

void zero_unset_layers(MetricSet& metrics) {
  for (const MetricSpec& spec : per_layer_metrics()) {
    if (!metrics.has(spec.name)) metrics.set(spec.name, 0.0);
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics,
                        const std::vector<MetricSpec>& wanted) {
  std::string out = "{\"correct\": ";
  out.append(correct ? "true" : "false");
  out.append(", \"attempted\": ").append(std::to_string(attempted));
  out.append(", \"failed\": ").append(std::to_string(failed));
  out.append(", \"metrics\": {");
  for (std::size_t i = 0; i < wanted.size(); ++i) {
    if (!metrics.has(wanted[i].name)) {
      throw std::logic_error("result_line: metric not emitted: " + wanted[i].name);
    }
    if (i > 0) out.append(", ");
    out.append(json_string(wanted[i].name));
    out.append(": {\"value\": ").append(json_number(metrics.get(wanted[i].name)));
    out.append(", \"unit\": ").append(json_string(wanted[i].unit)).append("}");
  }
  out.append("}}");
  return out;
}

}  // namespace perfbench
