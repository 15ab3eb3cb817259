// Self-test of the benchmark's own arithmetic and schema: percentiles with
// sample counts, span self time, the ladder step rule behind qps_at_slo, and
// the metric catalogue against BENCHMARK.json.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ladder.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

// --- percentiles -------------------------------------------------------------

TEST(Percentiles, NearestRankWithSamplesBeyond) {
  std::vector<double> v = ramp(1000);  // values 1..1000
  const Percentiles p = summarize(v);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_EQ(p.p50, 500.0);
  EXPECT_EQ(p.p99, 990.0);
  EXPECT_EQ(p.beyond_p99, 10u);  // the smallest n with ten samples past p99
}

TEST(Percentiles, SmallSamplesHaveFewSamplesBeyond) {
  std::vector<double> v = ramp(100);
  const Percentiles p = summarize(v);
  EXPECT_EQ(p.p99, 99.0);
  EXPECT_EQ(p.beyond_p99, 1u);
  std::vector<double> one = {7.0};
  const Percentiles q = summarize(one);
  EXPECT_EQ(q.p50, 7.0);
  EXPECT_EQ(q.p99, 7.0);
  EXPECT_EQ(q.beyond_p99, 0u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
}

TEST(Percentiles, EmptyAndBadLevels) {
  std::vector<double> empty;
  EXPECT_EQ(summarize(empty).n, 0u);
  EXPECT_THROW(percentile_sorted(empty, 0.5), std::invalid_argument);
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(percentile_sorted(v, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile_sorted(v, 1.5), std::invalid_argument);
  EXPECT_EQ(percentile_sorted(v, 1.0), 2.0);
}

TEST(Percentiles, MedianOfWindowP99) {
  // Three 1000-sample windows at 1 ns spacing; the middle one holds a stall.
  std::vector<std::int64_t> t;
  std::vector<double> v;
  for (std::int64_t i = 0; i < 3000; ++i) {
    t.push_back(i);
    const bool stalled = i >= 1000 && i < 2000 && i % 10 == 0;
    v.push_back(stalled ? 1e6 : static_cast<double>(i % 1000));
  }
  // Windows 1 and 3 have p99 = 989; window 2's p99 is the stall.
  EXPECT_EQ(median_window_p99(t, v, 1000, 1000), 989.0);
  // Windows below the sample floor are skipped; none left: the pooled p99.
  EXPECT_EQ(median_window_p99(t, v, 1000, 1001), 1e6);
  EXPECT_THROW(median_window_p99({}, {}, 1000, 1), std::invalid_argument);
  EXPECT_THROW(median_window_p99({1}, {1.0, 2.0}, 1000, 1), std::invalid_argument);
}

TEST(Percentiles, Median) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

// --- span self time ------------------------------------------------------------

Span make_span(std::uint64_t uid, std::uint64_t parent, std::uint32_t name,
               std::int64_t start, std::int64_t end) {
  Span s;
  s.uid = uid;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // Parent [0, 100]; children [10, 30] and [20, 50] overlap (two threads),
  // [90, 120] runs past the parent's end. Covered: [10, 50] + [90, 100] = 50.
  const std::vector<Span> spans = {
      make_span(1, 0, 0, 0, 100), make_span(2, 1, 1, 10, 30),
      make_span(3, 1, 1, 20, 50), make_span(4, 1, 2, 90, 120),
      make_span(5, 2, 3, 12, 18),  // grandchild: counts against span 2 only
  };
  const auto layers = layer_times(spans);
  EXPECT_EQ(layers.at(0).self_ns, 50);
  EXPECT_EQ(layers.at(0).total_ns, 100);
  EXPECT_EQ(layers.at(1).calls, 2u);
  EXPECT_EQ(layers.at(1).total_ns, 20 + 30);
  EXPECT_EQ(layers.at(1).self_ns, (20 - 6) + 30);
  EXPECT_EQ(layers.at(2).self_ns, 30);
  EXPECT_EQ(layers.at(3).self_ns, 6);
}

TEST(SelfTime, TracerLinksParentsPerThreadAndMergesBuffers) {
  Tracer tracer(true);
  const std::uint32_t outer = tracer.name_id("outer");
  const std::uint32_t inner = tracer.name_id("inner");
  EXPECT_EQ(tracer.name_id("outer"), outer);
  std::uint64_t outer_uid = 0;
  {
    const ScopedSpan a(tracer, outer, 7);
    outer_uid = a.uid();
    EXPECT_EQ(tracer.current(), outer_uid);
    { const ScopedSpan b(tracer, inner, 7); }
    std::thread worker([&] {
      // A pool lane has no open span: the parent is passed explicitly.
      const ScopedSpan c(tracer, inner, 8, outer_uid);
    });
    worker.join();
  }
  tracer.record(inner, 9, 0, 100, 250);
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  std::size_t children_of_outer = 0;
  for (const Span& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    if (s.parent == outer_uid) ++children_of_outer;
  }
  EXPECT_EQ(children_of_outer, 2u);
  EXPECT_EQ(layer_times(spans).at(inner).calls, 3u);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  const std::uint32_t name = tracer.name_id("x");
  { const ScopedSpan s(tracer, name); }
  tracer.record(name, 0, 0, 1, 2);
  EXPECT_TRUE(tracer.spans().empty());
}

// --- ladder step rule ------------------------------------------------------------

StepOutcome good_step() {
  StepOutcome s;
  s.rate_qps = 100'000.0;
  s.attempted = 1000;
  s.ok = 1000;
  s.latency_us.n = 1000;
  s.latency_us.p99 = 200.0;
  s.window_p99_us = 200.0;
  s.gen_late_p99_us = 5.0;
  return s;
}

TEST(Ladder, StepVerdictPrecedence) {
  const SloRule rule{1000.0, 100.0};
  StepOutcome s = good_step();
  EXPECT_EQ(judge(s, rule), Verdict::kPass);

  s.window_p99_us = 1000.5;
  EXPECT_EQ(judge(s, rule), Verdict::kLatency);
  s = good_step();
  s.latency_us.p99 = 5000.0;  // one stalled window: the median window decides
  EXPECT_EQ(judge(s, rule), Verdict::kPass);

  // Backlog: 100k qps x 1 ms allows the mean outstanding count to grow by
  // 100 from the first quarter of the step to the last.
  s = good_step();
  s.depth_start = 3.0;
  s.depth_end = 103.0;
  EXPECT_EQ(judge(s, rule), Verdict::kPass);
  s.depth_end = 103.5;
  EXPECT_EQ(judge(s, rule), Verdict::kBacklog);
  s = good_step();
  s.aborted = true;
  EXPECT_EQ(judge(s, rule), Verdict::kBacklog);

  // A shed or a wrong answer fails the step whatever the latency.
  s = good_step();
  s.shed = 1;
  EXPECT_EQ(judge(s, rule), Verdict::kShed);
  s = good_step();
  s.errors = 1;
  EXPECT_EQ(judge(s, rule), Verdict::kError);

  // A late generator makes the step invalid before anything else counts.
  s.gen_late_p99_us = 150.0;
  EXPECT_EQ(judge(s, rule), Verdict::kInvalid);
}

TEST(Ladder, QpsAtSloIsTheTopOfTheUnbrokenPassingPrefix) {
  using V = Verdict;
  const std::vector<Rung> rungs = {
      {100.0, {V::kPass}},
      {115.0, {V::kLatency, V::kPass}},  // second attempt rescues the rung
      {132.0, {V::kBacklog, V::kShed}},
      {152.0, {V::kPass}},  // above a failed rung: never counted
  };
  EXPECT_EQ(qps_at_slo(rungs), 115.0);
  // Order does not matter: a galloping search tries high rungs first.
  const std::vector<Rung> galloped = {
      {100.0, {V::kPass}}, {152.0, {V::kPass}}, {228.0, {V::kLatency, V::kLatency}},
      {163.0, {V::kPass}}, {174.0, {V::kShed, V::kBacklog}}};
  EXPECT_EQ(qps_at_slo(galloped), 163.0);
  EXPECT_EQ(qps_at_slo({{100.0, {V::kInvalid, V::kInvalid}}}), 0.0);
  EXPECT_EQ(qps_at_slo({}), 0.0);
  EXPECT_FALSE((Rung{1.0, {}}).passed());
}

TEST(Ladder, GallopingSearchFindsTheKnee) {
  const std::vector<double> ladder = geometric_ladder(100.0, 1000.0, 1.1);  // 25 rungs
  std::vector<double> tried;
  const auto rungs = search_ladder(ladder, 0, 6, 2, [&](double rate) {
    tried.push_back(rate);
    return std::optional<Verdict>(rate <= 300.0 ? Verdict::kPass : Verdict::kLatency);
  });
  // Gallop: rung 5 (161) and rung 11 (285) pass, rung 17 (505) fails; then
  // the fine search fails at rung 12 (314).
  EXPECT_DOUBLE_EQ(qps_at_slo(rungs), ladder[11]);
  ASSERT_EQ(rungs.size(), 4u);
  EXPECT_DOUBLE_EQ(rungs[2].rate_qps, ladder[17]);
  EXPECT_EQ(rungs[2].attempts.size(), 2u);  // a failing rung gets its retry
  EXPECT_DOUBLE_EQ(rungs[3].rate_qps, ladder[12]);

  // Time running out ends the search with what passed so far.
  int budget = 3;
  const auto cut = search_ladder(ladder, 0, 6, 2, [&](double) -> std::optional<Verdict> {
    if (budget-- <= 0) return std::nullopt;
    return Verdict::kPass;
  });
  EXPECT_DOUBLE_EQ(qps_at_slo(cut), ladder[17]);

  // A search started above the knee steps down until a rung passes.
  const auto down = search_ladder(ladder, 14, 1, 1, [&](double rate) {
    return std::optional<Verdict>(rate <= 300.0 ? Verdict::kPass : Verdict::kBacklog);
  });
  ASSERT_EQ(down.size(), 4u);  // rungs 14, 13, 12 fail; 11 passes
  EXPECT_DOUBLE_EQ(down.back().rate_qps, ladder[11]);
  EXPECT_DOUBLE_EQ(qps_at_slo(down), ladder[11]);
}

TEST(Ladder, GeometricLadder) {
  const auto rates = geometric_ladder(100.0, 200.0, 1.25);
  ASSERT_EQ(rates.size(), 4u);  // 100, 125, 156.25, 195.3125
  EXPECT_DOUBLE_EQ(rates[3], 195.3125);
  EXPECT_THROW(geometric_ladder(100.0, 50.0, 1.1), std::invalid_argument);
}

// --- schema ------------------------------------------------------------------------

std::vector<MetricSpec> manifest_section(const std::string& key) {
  std::ifstream in(PERFBENCH_MANIFEST);
  if (!in) throw std::runtime_error("cannot read BENCHMARK.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto at = text.find("\"" + key + "\"");
  if (at == std::string::npos) throw std::runtime_error("no section " + key);
  const auto open = text.find('[', at);
  const auto close = text.find(']', open);
  const std::string section = text.substr(open, close - open);
  const std::regex object(R"(\{[^{}]*\})");
  const std::regex name(R"rx("name"\s*:\s*"([^"]*)")rx");
  const std::regex unit(R"rx("unit"\s*:\s*"([^"]*)")rx");
  std::vector<MetricSpec> specs;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), object);
       it != std::sregex_iterator(); ++it) {
    const std::string obj = it->str();
    std::smatch n;
    std::smatch u;
    if (!std::regex_search(obj, n, name) || !std::regex_search(obj, u, unit)) {
      throw std::runtime_error("metric without name or unit in " + key);
    }
    specs.push_back({n[1], u[1]});
  }
  return specs;
}

void expect_same_catalogue(const std::vector<MetricSpec>& manifest,
                           const std::vector<MetricSpec>& code) {
  ASSERT_EQ(manifest.size(), code.size());
  for (std::size_t i = 0; i < code.size(); ++i) {
    EXPECT_EQ(manifest[i].name, code[i].name);
    EXPECT_EQ(manifest[i].unit, code[i].unit) << code[i].name;
    EXPECT_FALSE(code[i].unit.empty()) << code[i].name;
  }
}

TEST(Schema, CatalogueMatchesBenchmarkJson) {
  expect_same_catalogue(manifest_section("end_to_end"), end_to_end_metrics());
  expect_same_catalogue(manifest_section("per_layer"), per_layer_metrics());
}

TEST(Schema, EveryNamedMetricIsCatalogued) {
  // The end-to-end and per-layer metrics the benchmark is specified to
  // report. fail_ratio is reported as ok_ratio = 1 - fail_ratio, because a
  // metric that is 0 on every healthy run gives no share to compare against.
  const std::vector<std::string> named = {
      "setup_s", "fit_s", "p50_us", "p99_us", "qps_at_slo", "ok_ratio",
      "coverage", "width_mv", "peak_rss_mb",
      "silicon.generate_s", "core.assemble_s", "data.select_s",
      "data.select_calls", "models.qpair_fit_s.linear", "models.qpair_fit_s.mlp",
      "models.qpair_fit_s.xgboost", "models.qpair_fit_s.catboost",
      "models.gp_fit_s", "conformal.cqr_fit_s.linear", "conformal.cqr_fit_s.mlp",
      "conformal.cqr_fit_s.xgboost", "conformal.cqr_fit_s.catboost",
      "models.predict_interval_s", "parallel.utilization",
      "daemon.submit_us.p50", "daemon.submit_us.p99", "daemon.resolve_us.p50",
      "daemon.resolve_us.p99", "daemon.batch_rows_mean", "daemon.served_ok",
      "daemon.batches", "daemon.max_queue_depth", "serve.predict_us_per_row",
      "serve.predict_us_per_row.b256", "artifact.decode_us", "daemon.install_us",
      "daemon.activate_us", "daemon.cache_hit_ratio", "daemon.cache_hits",
      "daemon.cache_misses", "core.fit_screen_s", "artifact.encode_us",
      "artifact.bytes", "bench.gen_late_p99_us", "trace.overhead_pct"};
  for (const std::string& name : named) {
    EXPECT_NO_THROW((void)metric_unit(name)) << name;
  }
}

TEST(Schema, ResultLineCarriesEveryMetricWithItsUnit) {
  MetricSet layers;
  layers.set("daemon.submit_us.p50", 0.25);
  zero_unset_layers(layers);
  const std::string line = result_line(true, 10, 0, layers, per_layer_metrics());
  for (const MetricSpec& spec : per_layer_metrics()) {
    const std::string entry = "\"" + spec.name + "\": {\"value\": ";
    const auto at = line.find(entry);
    ASSERT_NE(at, std::string::npos) << spec.name;
    const auto unit_at = line.find("\"unit\": \"" + spec.unit + "\"", at);
    EXPECT_LT(unit_at, line.find('}', at)) << spec.name;
  }
  EXPECT_NE(line.find("\"daemon.submit_us.p50\": {\"value\": 0.25,"), std::string::npos);
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, ", 0), 0u);

  MetricSet partial;
  partial.set("setup_s", 1.0);
  EXPECT_THROW((void)result_line(true, 1, 0, partial, end_to_end_metrics()),
               std::logic_error);
  EXPECT_THROW(partial.set("no_such_metric", 1.0), std::out_of_range);
}

TEST(Schema, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  EXPECT_EQ(json_number(1e300 * 1e10), "null");
}

}  // namespace
}  // namespace perfbench
