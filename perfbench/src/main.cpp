// vbench: runs one benchmark workload and prints its result.
//
//   vbench --workload characterize|serve_narrow|serve_fleet --seed N
//          --seconds S --trace 0|1 [--out-dir DIR]
//
// Standard output: the host fingerprint, the workload's config echo and
// detail, one `metric` line per reported metric, and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
// and the spans are written to DIR/<workload>.trace.csv (default DIR:
// .bench_out). Exit status: 0 when every output checked out, 1 when a
// correctness check failed (the result line still prints), 2 on bad usage,
// 3 when the run could not measure (no result line).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "host.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "vbench: %s\nusage: vbench --workload characterize|serve_narrow|"
               "serve_fleet --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "name,uid,parent,id,start_ns,end_ns\n";
  const std::vector<std::string> names = tracer.names();
  for (const Span& span : tracer.spans()) {
    out << names[span.name] << ',' << span.uid << ',' << span.parent << ','
        << span.id << ',' << span.start_ns << ',' << span.end_ns << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir = ".bench_out";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (key == "--out-dir") {
        out_dir = value;
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0 || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  Tracer tracer(options.trace);
  RunOutcome outcome;
  try {
    if (options.workload == "characterize") {
      outcome = run_characterize(options, tracer);
    } else if (options.workload == "serve_narrow") {
      outcome = run_serve_narrow(options, tracer);
    } else if (options.workload == "serve_fleet") {
      outcome = run_serve_fleet(options, tracer);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbench: %s: %s\n", options.workload.c_str(), e.what());
    return 3;
  }

  const auto& wanted = options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::string result;
  try {
    result = result_line(outcome.correct, outcome.attempted, outcome.failed,
                         outcome.metrics, wanted);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vbench: %s\n", e.what());
    return 3;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              json_number(options.seconds).c_str(), options.trace ? 1 : 0);
  std::printf("host %s\n", fingerprint_json(host_fingerprint()).c_str());
  std::printf("config %s\n", outcome.config_json.c_str());
  std::printf("detail %s\n", outcome.detail_json.c_str());
  std::vector<MetricSpec> printed = wanted;
  if (!options.trace) {
    printed.insert(printed.end(), reported_metrics().begin(), reported_metrics().end());
  }
  for (const MetricSpec& spec : printed) {
    std::printf("metric %-32s %16s %s\n", spec.name.c_str(),
                json_number(outcome.metrics.get(spec.name)).c_str(), spec.unit.c_str());
  }
  for (const std::string& problem : outcome.problems) {
    std::printf("problem %s\n", problem.c_str());
  }
  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/" + options.workload + ".trace.csv";
    write_spans(tracer, path);
    std::printf("spans written to %s\n", path.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
