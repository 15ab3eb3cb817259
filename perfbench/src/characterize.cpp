// Workload `characterize`: the reproduction pipeline.
//
// Generates 16 populations of 156 chips from the seed and evaluates the nine
// Table III methods with core::evaluate_region_method on a measured grid of
// 16 (population, scenario) pairs, the scenarios a fixed subset of the
// paper's (read point, temperature) grid: 144 cells fanned out with
// core::parallel_map. Averaging over 16 populations keeps the amount of work
// and the mean coverage and width from swinging with one population's draw.
// The grid is repeated while time remains; fit_s is the median grid wall
// time.
//
// The traced run evaluates the grid once untraced and once traced. A traced
// grid evaluates each cell through the same public calls evaluate_region_method
// makes (assemble, k-fold, CFS / top-|r| selection, quantile-pair or GP fit,
// CQR fit_with_split, predict_interval), with a span around each call, and
// must reproduce the library's scores bit for bit.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "conformal/cqr.hpp"
#include "core/experiment.hpp"
#include "data/feature_select.hpp"
#include "data/split.hpp"
#include "host.hpp"
#include "models/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "silicon/dataset_gen.hpp"
#include "stats.hpp"
#include "stats/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmincqr;

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kPopulations = 16;
/// Mean CQR coverage over the subset may fall this far below 1 - alpha
/// (finite test folds of ~39 chips) before the run counts as incorrect.
constexpr double kCoverageTolerance = 0.03;

/// The scenarios of the measured grid, a subset of paper_scenario_grid(kBoth):
/// early and late read points at all three test temperatures, so narrow
/// (time-0) and wide (1008 h) designs are both timed. Population p is
/// evaluated on scenario p mod 4.
std::vector<core::Scenario> measured_scenarios() {
  return {{0.0, 25.0, core::FeatureSet::kBoth},
          {48.0, -45.0, core::FeatureSet::kBoth},
          {168.0, 125.0, core::FeatureSet::kBoth},
          {1008.0, 25.0, core::FeatureSet::kBoth}};
}

std::string model_key(models::ModelKind kind) {
  switch (kind) {
    case models::ModelKind::kLinear:
      return "linear";
    case models::ModelKind::kMlp:
      return "mlp";
    case models::ModelKind::kXgboost:
      return "xgboost";
    case models::ModelKind::kCatboost:
      return "catboost";
    case models::ModelKind::kGp:
      return "gp";
  }
  return "unknown";
}

bool is_tree(models::ModelKind kind) {
  return kind == models::ModelKind::kXgboost ||
         kind == models::ModelKind::kCatboost;
}

linalg::Vector take(const linalg::Vector& v, const std::vector<std::size_t>& idx) {
  linalg::Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = v[idx[i]];
  return out;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_score(const core::RegionMethodScore& a, const core::RegionMethodScore& b) {
  return a.method == b.method && same_bits(a.mean_length_mv, b.mean_length_mv) &&
         same_bits(a.coverage_pct, b.coverage_pct);
}

/// Span name ids of the traced grid.
struct Names {
  std::uint32_t grid, cell, assemble, select, gp_fit, predict;
  std::uint32_t qpair_fit[5];
  std::uint32_t cqr_fit[5];
  std::uint32_t generate;
};

Names intern_names(Tracer& tracer) {
  Names n{};
  n.grid = tracer.name_id("bench.grid");
  n.cell = tracer.name_id("bench.cell");
  n.assemble = tracer.name_id("core.assemble");
  n.select = tracer.name_id("data.select");
  n.gp_fit = tracer.name_id("models.gp_fit");
  n.predict = tracer.name_id("models.predict_interval");
  n.generate = tracer.name_id("silicon.generate");
  for (const auto kind : models::quantile_model_zoo()) {
    const auto k = static_cast<std::size_t>(kind);
    n.qpair_fit[k] = tracer.name_id("models.qpair_fit." + model_key(kind));
    n.cqr_fit[k] = tracer.name_id("conformal.cqr_fit." + model_key(kind));
  }
  return n;
}

/// evaluate_region_method, call for call, with a span around each library
/// call. Row and column gathers stay outside the spans (they are cell self
/// time).
core::RegionMethodScore traced_region_method(const data::Dataset& ds,
                                             const core::Scenario& scenario,
                                             const core::RegionMethodSpec& spec,
                                             const core::ExperimentConfig& config,
                                             Tracer& tracer, const Names& names) {
  using Family = core::RegionMethodSpec::Family;
  core::ScenarioData data;
  {
    const ScopedSpan span(tracer, names.assemble);
    data = core::assemble_scenario(ds, scenario);
  }
  rng::Rng cv_rng(config.cv_seed);
  const auto folds = data::k_fold(data.x.rows(), config.n_folds, cv_rng);
  const core::MiscoverageAlpha alpha = config.pipeline.alpha;
  const auto kind_index = static_cast<std::size_t>(spec.base);

  const auto select = [&](const linalg::Matrix& x, const linalg::Vector& y,
                          bool tree) {
    const ScopedSpan span(tracer, names.select);
    return tree ? data::top_correlated(x, y, config.pipeline.tree_prefilter)
                : data::cfs_select(x, y, config.region_cfs_features);
  };

  double total_length = 0.0;
  double total_coverage = 0.0;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const auto& fold = folds[f];
    const linalg::Matrix x_train = data.x.take_rows(fold.train);
    const linalg::Vector y_train = take(data.y, fold.train);
    const linalg::Matrix x_test = data.x.take_rows(fold.test);
    const linalg::Vector y_test = take(data.y, fold.test);

    models::IntervalPrediction band;
    switch (spec.family) {
      case Family::kGp: {
        const auto cols = select(x_train, y_train, false);
        const linalg::Matrix xs = x_train.take_cols(cols);
        const linalg::Matrix xt = x_test.take_cols(cols);
        models::GpIntervalRegressor gp(alpha);
        {
          const ScopedSpan span(tracer, names.gp_fit);
          gp.fit(xs, y_train);
        }
        const ScopedSpan span(tracer, names.predict);
        band = gp.predict_interval(xt);
        break;
      }
      case Family::kQr: {
        const auto cols = select(x_train, y_train, is_tree(spec.base));
        const linalg::Matrix xs = x_train.take_cols(cols);
        const linalg::Matrix xt = x_test.take_cols(cols);
        auto pair = models::make_quantile_pair(spec.base, alpha);
        {
          const ScopedSpan span(tracer, names.qpair_fit[kind_index]);
          pair->fit(xs, y_train);
        }
        const ScopedSpan span(tracer, names.predict);
        band = pair->predict_interval(xt);
        break;
      }
      case Family::kCqr: {
        std::vector<std::size_t> local(fold.train.size());
        for (std::size_t i = 0; i < local.size(); ++i) local[i] = i;
        rng::Rng split_rng(config.pipeline.split.seed + f);
        const auto split = data::train_calibration_split(
            local, config.pipeline.split.train_fraction, split_rng);
        const linalg::Matrix x_proper = x_train.take_rows(split.train);
        const linalg::Vector y_proper = take(y_train, split.train);
        const linalg::Matrix x_calib = x_train.take_rows(split.calibration);
        const linalg::Vector y_calib = take(y_train, split.calibration);
        const auto cols = select(x_proper, y_proper, is_tree(spec.base));
        const linalg::Matrix xp = x_proper.take_cols(cols);
        const linalg::Matrix xc = x_calib.take_cols(cols);
        const linalg::Matrix xt = x_test.take_cols(cols);
        conformal::ConformalizedQuantileRegressor cqr(
            alpha, models::make_quantile_pair(spec.base, alpha));
        {
          const ScopedSpan span(tracer, names.cqr_fit[kind_index]);
          cqr.fit_with_split(xp, y_proper, xc, y_calib);
        }
        const ScopedSpan span(tracer, names.predict);
        band = cqr.predict_interval(xt);
        break;
      }
    }
    total_coverage += stats::interval_coverage(y_test, band.lower, band.upper);
    total_length += stats::mean_interval_length(band.lower, band.upper);
  }

  core::RegionMethodScore score;
  score.method = spec.label();
  const auto nf = static_cast<double>(folds.size());
  score.mean_length_mv = total_length / nf * 1000.0;
  score.coverage_pct = total_coverage / nf * 100.0;
  return score;
}

struct Cell {
  std::size_t population = 0;
  std::size_t scenario = 0;
  std::size_t method = 0;
};

struct TimedScore {
  core::RegionMethodScore score;
  double latency_us = 0.0;
};

struct Grid {
  std::vector<TimedScore> cells;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

}  // namespace

RunOutcome run_characterize(const RunOptions& options, Tracer& tracer) {
  RunOutcome out;
  const Names names = intern_names(tracer);
  const std::size_t width = thread_budget();
  const auto scenarios = measured_scenarios();
  const auto methods = core::table3_methods();
  const core::ExperimentConfig config;

  // --- set-up: population generation + pool start, several times ---------
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<silicon::GeneratedDataset> populations(kPopulations);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t p = 0; p < kPopulations; ++p) {
      silicon::GeneratorConfig gen_config;
      gen_config.seed = options.seed * 64 + p;
      const ScopedSpan span(tracer, names.generate, p);
      populations[p] = silicon::generate_dataset(gen_config);
    }
    const std::int64_t t1 = now_ns();
    parallel::set_max_threads(width);  // shuts the pool down: each rep starts it cold
    parallel::parallel_for(width, 1, [](std::size_t, std::size_t) {});
    const std::int64_t t2 = now_ns();
    generate_s.push_back(1e-9 * static_cast<double>(t1 - t0));
    setup_s.push_back(1e-9 * static_cast<double>(t2 - t0));
  }

  std::vector<Cell> cells;
  for (std::size_t p = 0; p < kPopulations; ++p) {
    for (std::size_t m = 0; m < methods.size(); ++m) {
      cells.push_back({p, p % scenarios.size(), m});
    }
  }

  Tracer off(false);
  const auto run_grid = [&](bool traced, std::uint64_t grid_index) {
    Grid grid;
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    const ScopedSpan grid_span(traced ? tracer : off, names.grid, grid_index);
    const std::uint64_t parent = grid_span.uid();
    grid.cells = core::parallel_map<TimedScore>(cells.size(), [&](std::size_t i) {
      const data::Dataset& ds = populations[cells[i].population].dataset;
      const core::Scenario& scenario = scenarios[cells[i].scenario];
      const core::RegionMethodSpec& spec = methods[cells[i].method];
      TimedScore timed;
      const std::int64_t start = now_ns();
      if (traced) {
        const ScopedSpan cell_span(tracer, names.cell, i, parent);
        timed.score = traced_region_method(ds, scenario, spec, config, tracer, names);
      } else {
        timed.score = core::evaluate_region_method(ds, scenario, spec, config);
      }
      timed.latency_us = 1e-3 * static_cast<double>(now_ns() - start);
      return timed;
    });
    grid.wall_s = 1e-9 * static_cast<double>(now_ns() - t0);
    grid.cpu_s = process_cpu_seconds() - cpu0;
    return grid;
  };

  // --- timed phase --------------------------------------------------------
  // Untraced run: untraced grids while time remains (at least one). Traced
  // run: one untraced grid, then one traced grid.
  std::vector<Grid> untraced;
  std::vector<Grid> traced;
  const std::int64_t phase_start = now_ns();
  if (options.trace) {
    untraced.push_back(run_grid(false, 0));
    traced.push_back(run_grid(true, 1));
  } else {
    for (std::uint64_t k = 0;; ++k) {
      const double elapsed = 1e-9 * static_cast<double>(now_ns() - phase_start);
      if (!untraced.empty() && elapsed + untraced.back().wall_s > options.seconds) break;
      untraced.push_back(run_grid(false, k));
    }
  }

  // --- checks: every grid reproduces the first one bit for bit -------------
  const std::vector<TimedScore>& reference = untraced.front().cells;
  std::size_t mismatches = 0;
  for (const auto* grids : {&untraced, &traced}) {
    for (const Grid& grid : *grids) {
      out.attempted += grid.cells.size();
      for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        if (!same_score(grid.cells[i].score, reference[i].score)) ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    out.fail(mismatches, std::to_string(mismatches) +
                             " cell scores differ from the first grid "
                             "(non-deterministic fit or traced replica drift)");
  }
  double cqr_coverage = 0.0;
  double cqr_width_mv = 0.0;
  std::size_t n_cqr = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (methods[cells[i].method].family != core::RegionMethodSpec::Family::kCqr) continue;
    cqr_coverage += reference[i].score.coverage_pct / 100.0;
    cqr_width_mv += reference[i].score.mean_length_mv;
    ++n_cqr;
  }
  cqr_coverage /= static_cast<double>(n_cqr);
  cqr_width_mv /= static_cast<double>(n_cqr);
  const double target = 1.0 - config.pipeline.alpha.value();
  if (cqr_coverage < target - kCoverageTolerance) {
    out.fail(n_cqr, "mean CQR coverage " + json_number(cqr_coverage) +
                        " below 1 - alpha - tolerance");
  }

  // --- metrics ------------------------------------------------------------
  std::vector<double> grid_wall;
  std::vector<double> latencies;
  double total_wall = 0.0;
  double total_cpu = 0.0;
  std::size_t evaluations = 0;
  for (const Grid& grid : untraced) {
    grid_wall.push_back(grid.wall_s);
    total_wall += grid.wall_s;
    total_cpu += grid.cpu_s;
    evaluations += grid.cells.size();
    for (const TimedScore& cell : grid.cells) latencies.push_back(cell.latency_us);
  }
  const Percentiles latency = summarize(latencies);
  const double fit_s = median(grid_wall);

  if (!options.trace) {
    out.metrics.set("setup_s", median(setup_s));
    out.metrics.set("fit_s", fit_s);
    out.metrics.set("p50_us", latency.p50);
    out.metrics.set("p99_us", latency.p99);
    out.metrics.set("qps_at_slo", static_cast<double>(evaluations) / total_wall);
    out.metrics.set("ok_ratio", static_cast<double>(out.attempted - out.failed) /
                                    static_cast<double>(out.attempted));
    out.metrics.set("coverage", cqr_coverage);
    out.metrics.set("width_mv", cqr_width_mv);
    out.metrics.set("peak_rss_mb", peak_rss_mb());
  } else {
    // Per-layer busy seconds per traced grid, summed over pool lanes.
    const std::vector<Span> spans = tracer.spans();
    const std::vector<std::string> span_names = tracer.names();
    const auto layers = layer_times(spans);
    const double n_traced = static_cast<double>(traced.size());
    std::vector<double> traced_wall;
    for (const Grid& grid : traced) traced_wall.push_back(grid.wall_s);
    for (const auto& [name_index, layer] : layers) {
      const std::string& name = span_names[name_index];
      const double per_grid_s = 1e-9 * static_cast<double>(layer.self_ns) / n_traced;
      const double per_grid_calls = static_cast<double>(layer.calls) / n_traced;
      if (name == "silicon.generate") {
        // Set-up layer: seconds and calls per set-up.
        out.metrics.set("silicon.generate_s", median(generate_s));
        out.metrics.set("silicon.generate_calls",
                        static_cast<double>(layer.calls) / kSetupReps);
      } else if (name == "core.assemble") {
        out.metrics.set("core.assemble_s", per_grid_s);
        out.metrics.set("core.assemble_calls", per_grid_calls);
      } else if (name == "data.select") {
        out.metrics.set("data.select_s", per_grid_s);
        out.metrics.set("data.select_calls", per_grid_calls);
      } else if (name == "models.gp_fit") {
        out.metrics.set("models.gp_fit_s", per_grid_s);
        out.metrics.set("models.gp_fit_calls", per_grid_calls);
      } else if (name == "models.predict_interval") {
        out.metrics.set("models.predict_interval_s", per_grid_s);
        out.metrics.set("models.predict_interval_calls", per_grid_calls);
      } else if (name == "bench.cell") {
        out.metrics.set("bench.cell_self_s", per_grid_s);
      } else if (name.rfind("models.qpair_fit.", 0) == 0) {
        out.metrics.set("models.qpair_fit_s." + name.substr(17), per_grid_s);
        out.metrics.add("models.qpair_fit_calls", per_grid_calls);
      } else if (name.rfind("conformal.cqr_fit.", 0) == 0) {
        out.metrics.set("conformal.cqr_fit_s." + name.substr(18), per_grid_s);
        out.metrics.add("conformal.cqr_fit_calls", per_grid_calls);
      }
    }
    out.metrics.set("parallel.utilization",
                    total_cpu / (total_wall * static_cast<double>(width)));
    out.metrics.set("parallel.threads", static_cast<double>(width));
    out.metrics.set("trace.overhead_pct", 100.0 * (median(traced_wall) / fit_s - 1.0));
    out.metrics.set("trace.spans", static_cast<double>(spans.size()));
    zero_unset_layers(out.metrics);
  }

  out.config_json = "{\"pool_width\": " + std::to_string(width) +
                    ", \"populations\": " + std::to_string(kPopulations) +
                    ", \"scenarios\": " + std::to_string(scenarios.size()) +
                    ", \"methods\": " + std::to_string(methods.size()) +
                    ", \"setup_reps\": " + std::to_string(kSetupReps) +
                    ", \"alpha\": " + json_number(config.pipeline.alpha.value()) +
                    ", \"coverage_tolerance\": " + json_number(kCoverageTolerance) + "}";
  out.detail_json = "{\"untraced_grids\": " + std::to_string(untraced.size()) +
                    ", \"traced_grids\": " + std::to_string(traced.size()) +
                    ", \"cells_per_grid\": " + std::to_string(cells.size()) +
                    ", \"latency_samples\": " + std::to_string(latency.n) +
                    ", \"latency_beyond_p99\": " + std::to_string(latency.beyond_p99) +
                    ", \"coverage_cells\": " + std::to_string(n_cqr) +
                    ", \"cpu_s\": " + json_number(total_cpu) +
                    ", \"wall_s\": " + json_number(total_wall) +
                    ", \"fail_ratio\": " +
                    json_number(static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)) + "}";
  return out;
}

}  // namespace perfbench
