// Workloads `serve_narrow` and `serve_fleet`: the serving daemon under
// open-loop Poisson arrivals.
//
// One generator (this thread) offers single-chip queries at their due times
// through VminDaemon::submit; one collector thread waits on the tickets in
// order, stamps resolution, and checks each response against a direct
// VminPredictor::predict_batch of the same artifact: status ok, the epoch the
// switch schedule installed, and the interval bit for bit. The daemon's pool
// width is pinned so generator + collector + batcher + pool workers fit the
// thread budget.
//
// Timed phase (untraced): a long step at the nominal rate (p50 / p99 /
// coverage / width come from it), then a climb of the fixed rate ladder with
// short probe steps (qps_at_slo). Traced run: the nominal step untraced, then
// again with per-query spans; no ladder.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "core/experiment.hpp"
#include "daemon/vmin_daemon.hpp"
#include "host.hpp"
#include "ladder.hpp"
#include "models/factory.hpp"
#include "parallel/service_thread.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"
#include "silicon/dataset_gen.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmincqr;

namespace {

constexpr int kSetupReps = 3;
constexpr double kProbeSeconds = 0.4;
/// The first ladder search visits every 6th rung before going rung by rung.
constexpr std::size_t kGallopStride = 6;
/// A step's p99 is the median of per-window p99s over windows of this
/// length, or a quarter of the step if shorter (probes).
constexpr double kWindowSeconds = 1.0;
constexpr double kLateLimitUs = 100.0;

struct ServeConfig {
  double nominal_qps = 0.0;
  std::vector<double> ladder;  ///< probe rates above nominal, ascending
  SloRule rule;
  daemon::DaemonConfig daemon;
  std::size_t abort_backlog = 0;  ///< stop offering past this many outstanding
};

/// Query rows and ground truth per artifact ("scenario"; one for narrow).
struct QuerySource {
  std::vector<std::string> keys;
  std::vector<linalg::Matrix> designs;
  std::vector<linalg::Vector> labels;
  std::vector<std::vector<std::uint8_t>> bytes;
  /// Direct predict_batch of each artifact over its whole design.
  std::vector<std::vector<serve::IntervalPrediction>> reference;
  std::vector<std::shared_ptr<const serve::VminPredictor>> predictors;
};

/// One step's offered load.
struct Schedule {
  double rate_qps = 0.0;
  double seconds = 0.0;
  std::vector<std::int64_t> due_ns;  ///< offsets from the step start
  std::vector<std::uint32_t> row;
  std::vector<std::uint32_t> run;           ///< run index per query
  std::vector<std::uint32_t> run_scenario;  ///< scenario per run
};

/// Poisson arrivals at `rate` for `seconds`. With `n_scenarios` > 1 the
/// queries come in runs of 32..224 for one scenario at a time, each run's
/// scenario differing from the previous one.
Schedule make_schedule(std::uint64_t stream_seed, double rate, double seconds,
                       std::size_t n_rows, std::size_t n_scenarios) {
  rng::Rng rng(stream_seed);
  Schedule s;
  s.rate_qps = rate;
  s.seconds = seconds;
  double t = 0.0;
  std::size_t left_in_run = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    if (left_in_run == 0) {
      std::uint32_t scenario = 0;
      if (n_scenarios > 1) {
        const auto previous = s.run_scenario.empty()
                                  ? static_cast<std::int64_t>(-1)
                                  : static_cast<std::int64_t>(s.run_scenario.back());
        std::int64_t pick = rng.uniform_int(0, static_cast<std::int64_t>(n_scenarios) - 2);
        if (previous >= 0 && pick >= previous) ++pick;
        scenario = static_cast<std::uint32_t>(pick);
        left_in_run = static_cast<std::size_t>(rng.uniform_int(32, 224));
      } else {
        left_in_run = static_cast<std::size_t>(-1);
      }
      s.run_scenario.push_back(scenario);
    }
    --left_in_run;
    s.due_ns.push_back(static_cast<std::int64_t>(t * 1e9));
    s.row.push_back(static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_rows) - 1)));
    s.run.push_back(static_cast<std::uint32_t>(s.run_scenario.size() - 1));
  }
  return s;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Spin-wait hint: lets a hyperthread sibling (often the batcher) run while
/// the generator or collector polls.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Per-query timestamps and results of one step, kept for metrics and spans.
struct StepSamples {
  std::vector<std::int64_t> due;
  std::vector<std::int64_t> submit_start;
  std::vector<std::int64_t> submit_end;
  std::vector<std::int64_t> done;
  std::vector<std::uint8_t> ok;
  std::size_t covered = 0;
  double width_sum_v = 0.0;
  std::size_t served_ok = 0;
};

struct SwitchTimes {
  std::vector<double> activate_us;
  std::vector<double> install_us;
  std::vector<double> switch_us;  ///< drain wait + activate/install
};

/// Span name ids of the serving layers.
struct Names {
  std::uint32_t submit, resolve, activate, install, drain, fit_screen, encode,
      cqr_fit, generate, decode;
};

Names intern_names(Tracer& tracer) {
  Names n{};
  n.submit = tracer.name_id("daemon.submit");
  n.resolve = tracer.name_id("daemon.resolve");
  n.activate = tracer.name_id("daemon.activate");
  n.install = tracer.name_id("daemon.install");
  n.drain = tracer.name_id("bench.drain");
  n.fit_screen = tracer.name_id("core.fit_screen");
  n.encode = tracer.name_id("artifact.encode");
  n.cqr_fit = tracer.name_id("conformal.cqr_fit.xgboost");
  n.generate = tracer.name_id("silicon.generate");
  n.decode = tracer.name_id("artifact.decode");
  return n;
}

/// Switches the daemon to `scenario`: activate from the LRU cache, or
/// install (decode) on a miss. Returns the new epoch id.
std::uint64_t switch_to(daemon::VminDaemon& d, const QuerySource& src,
                        std::uint32_t scenario, SwitchTimes& times,
                        Tracer& tracer, const Names& names) {
  const std::int64_t t0 = now_ns();
  try {
    std::uint64_t epoch = 0;
    {
      const ScopedSpan span(tracer, names.activate, scenario);
      epoch = d.activate(src.keys[scenario]);
    }
    times.activate_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
    return epoch;
  } catch (const std::invalid_argument&) {
    const std::int64_t t1 = now_ns();
    std::uint64_t epoch = 0;
    {
      const ScopedSpan span(tracer, names.install, scenario);
      epoch = d.install_bytes(src.keys[scenario], src.bytes[scenario]);
    }
    times.install_us.push_back(1e-3 * static_cast<double>(now_ns() - t1));
    return epoch;
  }
}

/// Runs one step: offers the schedule, collects and checks every response,
/// and waits until all are resolved. The step is traced iff `tracer` is
/// enabled.
StepOutcome run_step(daemon::VminDaemon& d, const QuerySource& src,
                     const Schedule& schedule, const ServeConfig& config,
                     bool fleet, Tracer& tracer, const Names& names,
                     StepSamples& samples, SwitchTimes& switches) {
  const std::size_t n = schedule.due_ns.size();
  std::vector<daemon::Ticket> tickets(n);
  std::vector<std::uint64_t> expected_epoch(schedule.run_scenario.size(),
                                            d.active_epoch());
  samples = StepSamples{};
  samples.due.resize(n);
  samples.submit_start.resize(n);
  samples.done.resize(n);
  samples.ok.assign(n, 0);
  samples.submit_end.resize(n);
  std::vector<double> late_us;
  late_us.reserve(n);

  std::atomic<std::size_t> published{0};
  std::atomic<std::size_t> collected{0};
  std::atomic<bool> offering_done{false};
  std::size_t shed = 0;
  std::size_t errors = 0;

  parallel::ServiceThread collector;
  collector.start([&] {
    for (std::size_t i = 0;; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        if (offering_done.load(std::memory_order_acquire) &&
            published.load(std::memory_order_acquire) <= i) {
          return;
        }
        cpu_relax();
      }
      const daemon::ServeResponse& r = tickets[i].wait();
      samples.done[i] = now_ns();
      const std::uint32_t scenario = schedule.run_scenario[schedule.run[i]];
      const serve::IntervalPrediction& want = src.reference[scenario][schedule.row[i]];
      if (r.status == daemon::ServeStatus::kShedQueueFull ||
          r.status == daemon::ServeStatus::kShedShutdown) {
        ++shed;
      } else if (r.status != daemon::ServeStatus::kOk ||
                 r.epoch != expected_epoch[schedule.run[i]] ||
                 !same_bits(r.interval.lower, want.lower) ||
                 !same_bits(r.interval.upper, want.upper)) {
        ++errors;
      } else {
        samples.ok[i] = 1;
        ++samples.served_ok;
        const double truth = src.labels[scenario][schedule.row[i]];
        if (r.interval.lower <= truth && truth <= r.interval.upper) ++samples.covered;
        samples.width_sum_v += r.interval.upper - r.interval.lower;
      }
      tickets[i] = daemon::Ticket{};
      collected.store(i + 1, std::memory_order_release);
    }
  });
  // If anything below throws, the collector still learns that offering is
  // over before its destructor joins it.
  struct OfferingDone {
    std::atomic<bool>& flag;
    ~OfferingDone() { flag.store(true, std::memory_order_release); }
  } const offering_guard{offering_done};

  StepOutcome step;
  step.rate_qps = schedule.rate_qps;
  step.seconds = schedule.seconds;
  const std::int64_t t0 = now_ns() + 1'000'000;  // first due time: 1 ms ahead
  // Generator lateness counts only the generator's own lag: time past the
  // due time, the end of a switch, and the return of the previous submit
  // (time inside daemon calls is the system's, not the generator's).
  std::int64_t ready = t0;
  std::size_t offered = 0;
  std::size_t arrived = 0;  // queries whose due time has passed
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  double depth_first_sum = 0.0;
  double depth_last_sum = 0.0;
  std::size_t depth_last_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (fleet && (i == 0 || schedule.run[i] != schedule.run[i - 1])) {
      // A scenario switch: drain the previous run so every response is
      // served by the epoch its run was offered under, then swap.
      const std::int64_t s0 = now_ns();
      {
        const ScopedSpan span(tracer, names.drain, schedule.run[i]);
        while (collected.load(std::memory_order_acquire) < i) cpu_relax();
      }
      expected_epoch[schedule.run[i]] = switch_to(
          d, src, schedule.run_scenario[schedule.run[i]], switches, tracer, names);
      ready = now_ns();
      switches.switch_us.push_back(1e-3 * static_cast<double>(ready - s0));
    }
    const std::int64_t due = t0 + schedule.due_ns[i];
    std::int64_t start = now_ns();
    while (start < due) {
      cpu_relax();
      start = now_ns();
    }
    samples.due[i] = due;
    samples.submit_start[i] = start;
    late_us.push_back(1e-3 * static_cast<double>(start - std::max(due, ready)));

    const std::uint32_t scenario = schedule.run_scenario[schedule.run[i]];
    const linalg::Matrix& design = src.designs[scenario];
    const double* row = design.row_ptr(schedule.row[i]);
    daemon::ChipQuery query;
    query.features.assign(row, row + design.cols());
    tickets[i] = d.submit(std::move(query));
    ready = samples.submit_end[i] = now_ns();
    published.store(i + 1, std::memory_order_release);
    offered = i + 1;

    // Open-loop backlog: arrived (due) but not yet resolved, including
    // queries the generator has not offered yet because it is behind.
    while (arrived < n && t0 + schedule.due_ns[arrived] <= ready) ++arrived;
    const std::size_t outstanding = arrived - collected.load(std::memory_order_acquire);
    if (i < quarter) depth_first_sum += static_cast<double>(outstanding);
    if (i + quarter >= n) {
      depth_last_sum += static_cast<double>(outstanding);
      ++depth_last_count;
    }
    if (outstanding > config.abort_backlog) {
      step.aborted = true;
      break;
    }
  }
  offering_done.store(true, std::memory_order_release);
  collector.join();

  step.attempted = offered;
  step.ok = samples.served_ok;
  step.shed = shed;
  step.errors = errors;
  samples.due.resize(offered);
  samples.submit_start.resize(offered);
  samples.done.resize(offered);
  samples.ok.resize(offered);
  samples.submit_end.resize(offered);
  step.depth_start = depth_first_sum / static_cast<double>(std::min(quarter, offered));
  step.depth_end = depth_last_count > 0
                       ? depth_last_sum / static_cast<double>(depth_last_count)
                       : step.depth_start;
  std::vector<double> latency_us(offered);
  for (std::size_t i = 0; i < offered; ++i) {
    // A failed query misses any latency limit.
    latency_us[i] = samples.ok[i] != 0
                        ? 1e-3 * static_cast<double>(samples.done[i] - samples.due[i])
                        : HUGE_VAL;
  }
  if (offered > 0) {
    const auto window_ns = static_cast<std::int64_t>(
        1e9 * std::min(kWindowSeconds, schedule.seconds / 4.0));
    step.window_p99_us = median_window_p99(samples.due, latency_us, window_ns, 1000);
  }
  step.latency_us = summarize(latency_us);
  if (!late_us.empty()) {
    std::sort(late_us.begin(), late_us.end());
    step.gen_late_p99_us = percentile_sorted(late_us, 0.99);
  }
  return step;
}

std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out.append(", ");
    out.append(json_number(values[k]));
  }
  out.append("]");
  return out;
}

std::string step_json(const StepOutcome& step, const SloRule& rule) {
  return "{\"rate_qps\": " + json_number(step.rate_qps) +
         ", \"seconds\": " + json_number(step.seconds) +
         ", \"attempted\": " + std::to_string(step.attempted) +
         ", \"ok\": " + std::to_string(step.ok) +
         ", \"shed\": " + std::to_string(step.shed) +
         ", \"errors\": " + std::to_string(step.errors) +
         ", \"p50_us\": " + json_number(step.latency_us.p50) +
         ", \"p99_us\": " + json_number(step.latency_us.p99) +
         ", \"window_p99_us\": " + json_number(step.window_p99_us) +
         ", \"samples\": " + std::to_string(step.latency_us.n) +
         ", \"beyond_p99\": " + std::to_string(step.latency_us.beyond_p99) +
         ", \"gen_late_p99_us\": " + json_number(step.gen_late_p99_us) +
         ", \"depth_start\": " + json_number(step.depth_start) +
         ", \"depth_end\": " + json_number(step.depth_end) +
         ", \"aborted\": " + (step.aborted ? "true" : "false") +
         ", \"verdict\": " + json_string(verdict_name(judge(step, rule))) + "}";
}

/// µs per row of predict_batch on `rows`-row batches cut from each
/// predictor's design, cycling predictors, for about `seconds`.
double predict_us_per_row(const QuerySource& src, std::size_t rows, double seconds) {
  std::vector<linalg::Matrix> batches;
  for (const linalg::Matrix& design : src.designs) {
    linalg::Matrix batch(rows, design.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      const double* from = design.row_ptr(r % design.rows());
      std::copy(from, from + design.cols(), batch.row_ptr(r));
    }
    batches.push_back(std::move(batch));
  }
  std::size_t done_rows = 0;
  const std::int64_t t0 = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; now_ns() - t0 < budget || k < src.predictors.size(); ++k) {
    const std::size_t p = k % src.predictors.size();
    const auto out = src.predictors[p]->predict_batch(batches[p]);
    done_rows += out.size();
  }
  return 1e-3 * static_cast<double>(now_ns() - t0) / static_cast<double>(done_rows);
}

/// Fills the reference intervals and predictors (outside the timed set-up:
/// they are the benchmark's checking oracle, not the system's work).
void build_reference(QuerySource& src) {
  src.reference.clear();
  src.predictors.clear();
  for (std::size_t s = 0; s < src.bytes.size(); ++s) {
    auto predictor = std::make_shared<const serve::VminPredictor>(
        serve::VminPredictor::from_bytes(src.bytes[s]));
    src.reference.push_back(predictor->predict_batch(src.designs[s]));
    src.predictors.push_back(std::move(predictor));
  }
}

/// A set-up: the query source plus a started daemon.
struct ServeState {
  QuerySource src;
  std::unique_ptr<daemon::VminDaemon> daemon;
  double fit_s = 0.0;
};

using SetupFn = std::function<ServeState(std::vector<double>& encode_us)>;

RunOutcome run_serve(const RunOptions& options, const ServeConfig& config,
                     const SetupFn& setup, bool fleet, Tracer& tracer,
                     const Names& names) {
  RunOutcome out;
  const std::size_t budget = thread_budget();
  const std::size_t serve_width = budget > 2 ? budget - 2 : 1;

  // --- set-up, several times; the last one is kept -------------------------
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::vector<double> encode_us;
  ServeState state;
  std::vector<std::vector<std::uint8_t>> first_bytes;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    parallel::set_max_threads(budget);
    const std::int64_t t0 = now_ns();
    state = setup(encode_us);
    setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    fit_s.push_back(state.fit_s);
    if (rep == 0) {
      first_bytes = state.src.bytes;
    } else if (state.src.bytes != first_bytes) {
      out.fail(1, "set-up rep " + std::to_string(rep) +
                      " produced different artifact bytes (non-deterministic fit)");
    }
    if (rep + 1 < kSetupReps) state.daemon.reset();
  }
  // The pool width is pinned before the daemon's first batch.
  parallel::set_max_threads(serve_width);
  build_reference(state.src);
  daemon::VminDaemon& d = *state.daemon;
  const QuerySource& src = state.src;
  const std::size_t n_rows = src.designs.front().rows();

  // --- timed phase ----------------------------------------------------------
  std::vector<StepOutcome> steps;
  std::vector<double> searches;  ///< qps_at_slo of each ladder search
  SwitchTimes switches;
  StepSamples nominal_samples;
  StepSamples traced_samples;
  StepOutcome nominal;
  StepOutcome traced_nominal;
  std::uint64_t stream = options.seed * 1'000'003ULL;
  // Untraced run: half the time at the nominal rate, the other half on the
  // ladder. Traced run: a quarter untraced at the nominal rate, then the
  // same schedule traced (the trace file stays tens of MB).
  const double nominal_seconds = (options.trace ? 0.25 : 0.5) * options.seconds;
  Tracer off(false);
  const double cpu_start = process_cpu_seconds();
  const std::int64_t phase_start = now_ns();
  const auto elapsed_s = [&] { return 1e-9 * static_cast<double>(now_ns() - phase_start); };

  const auto nominal_schedule = make_schedule(options.seed * 1'000'003ULL, config.nominal_qps,
                                              nominal_seconds, n_rows, src.designs.size());
  // The nominal step is retried once if the generator itself ran late.
  for (int attempt = 0; attempt < 2; ++attempt) {
    nominal = run_step(d, src, nominal_schedule, config, fleet, off, names,
                       nominal_samples, switches);
    steps.push_back(nominal);
    if (judge(nominal, config.rule) != Verdict::kInvalid) break;
  }
  if (judge(nominal, config.rule) == Verdict::kInvalid) {
    throw std::runtime_error("nominal step invalid twice: generator ran late (p99 " +
                             json_number(nominal.gen_late_p99_us) + " us)");
  }
  const Rung nominal_rung{config.nominal_qps, {judge(nominal, config.rule)}};

  daemon::DaemonStats before_traced{};
  if (options.trace) {
    before_traced = d.stats();
    SwitchTimes traced_switches;
    traced_nominal = run_step(d, src, nominal_schedule, config, fleet, tracer, names,
                              traced_samples, traced_switches);
    steps.push_back(traced_nominal);
    switches = std::move(traced_switches);
  } else if (nominal_rung.passed()) {
    // Ladder searches while time remains: the first gallops up from the
    // nominal rate, each later one goes rung by rung from two rungs below
    // the median result so far. qps_at_slo is the median over complete
    // searches, so one unlucky probe at the knee moves one search only.
    bool cut = false;
    const auto attempt = [&](double rate) -> std::optional<Verdict> {
      if (elapsed_s() + kProbeSeconds > options.seconds) {
        cut = true;
        return std::nullopt;
      }
      ++stream;
      const Schedule probe =
          make_schedule(stream, rate, kProbeSeconds, n_rows, src.designs.size());
      StepSamples probe_samples;
      steps.push_back(
          run_step(d, src, probe, config, fleet, off, names, probe_samples, switches));
      return judge(steps.back(), config.rule);
    };
    std::size_t start = 0;
    std::size_t stride = kGallopStride;
    while (!cut) {
      std::vector<Rung> searched = search_ladder(config.ladder, start, stride, 2, attempt);
      if (searched.empty() || (cut && !searches.empty())) break;  // incomplete: not counted
      searched.push_back(nominal_rung);  // rungs below the start passed before
      searches.push_back(qps_at_slo(searched));
      const auto at = static_cast<std::size_t>(
          std::lower_bound(config.ladder.begin(), config.ladder.end(), median(searches)) -
          config.ladder.begin());
      start = at >= 2 ? at - 2 : 0;
      stride = 1;
    }
  }
  const double phase_s = elapsed_s();
  const double phase_cpu_s = process_cpu_seconds() - cpu_start;
  const daemon::DaemonStats stats = d.stats();
  d.stop();

  // --- checks -----------------------------------------------------------------
  for (const StepOutcome& step : steps) {
    out.attempted += step.attempted;
    if (step.shed + step.errors > 0) {
      out.fail(step.shed + step.errors,
               std::to_string(step.shed) + " shed and " + std::to_string(step.errors) +
                   " wrong or failed responses at " + json_number(step.rate_qps) + " qps");
    }
  }

  // --- metrics ------------------------------------------------------------------
  if (!options.trace) {
    out.metrics.set("setup_s", median(setup_s));
    out.metrics.set("fit_s", median(fit_s));
    out.metrics.set("p50_us", nominal.latency_us.p50);
    out.metrics.set("p99_us", nominal.window_p99_us);
    out.metrics.set("qps_at_slo", searches.empty() ? 0.0 : median(searches));
    out.metrics.set("ok_ratio", static_cast<double>(out.attempted - out.failed) /
                                    static_cast<double>(out.attempted));
    out.metrics.set("coverage", static_cast<double>(nominal_samples.covered) /
                                    static_cast<double>(nominal_samples.served_ok));
    out.metrics.set("width_mv", 1000.0 * nominal_samples.width_sum_v /
                                    static_cast<double>(nominal_samples.served_ok));
    out.metrics.set("peak_rss_mb", peak_rss_mb());
  } else {
    std::vector<double> submit_us;
    std::vector<double> resolve_us;
    const std::size_t n = traced_samples.due.size();
    for (std::size_t i = 0; i < n; ++i) {
      submit_us.push_back(1e-3 * static_cast<double>(traced_samples.submit_end[i] -
                                                     traced_samples.submit_start[i]));
      resolve_us.push_back(1e-3 * static_cast<double>(traced_samples.done[i] -
                                                      traced_samples.submit_end[i]));
      tracer.record(names.submit, i, 0, traced_samples.submit_start[i],
                    traced_samples.submit_end[i]);
      tracer.record(names.resolve, i, 0, traced_samples.submit_end[i],
                    traced_samples.done[i]);
    }
    const Percentiles submit = summarize(submit_us);
    const Percentiles resolve = summarize(resolve_us);
    out.metrics.set("daemon.submit_us.p50", submit.p50);
    out.metrics.set("daemon.submit_us.p99", submit.p99);
    out.metrics.set("daemon.submit_calls", static_cast<double>(submit.n));
    out.metrics.set("daemon.resolve_us.p50", resolve.p50);
    out.metrics.set("daemon.resolve_us.p99", resolve.p99);
    // Daemon counters over the traced step alone; the queue-depth high-water
    // mark covers both nominal steps.
    const auto served_ok = static_cast<double>(stats.served_ok - before_traced.served_ok);
    const auto batches = static_cast<double>(stats.batches - before_traced.batches);
    const double batch_rows = served_ok / batches;
    out.metrics.set("daemon.batch_rows_mean", batch_rows);
    out.metrics.set("daemon.served_ok", served_ok);
    out.metrics.set("daemon.batches", batches);
    out.metrics.set("daemon.max_queue_depth", static_cast<double>(stats.max_queue_depth));
    const auto replay_rows = static_cast<std::size_t>(std::max(1.0, std::round(batch_rows)));
    out.metrics.set("serve.predict_us_per_row", predict_us_per_row(src, replay_rows, 0.3));
    out.metrics.set("serve.predict_us_per_row.b256", predict_us_per_row(src, 256, 0.3));
    out.metrics.set("serve.predict_batch_rows", static_cast<double>(replay_rows));

    std::vector<double> decode_us;
    for (int round = 0; round < 3; ++round) {
      for (std::size_t s = 0; s < src.bytes.size(); ++s) {
        const ScopedSpan span(tracer, names.decode, s);
        const std::int64_t t0 = now_ns();
        const artifact::VminBundle bundle = artifact::decode_bundle(src.bytes[s]);
        decode_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
      }
    }
    out.metrics.set("artifact.decode_us", median(decode_us));
    out.metrics.set("artifact.decode_calls", static_cast<double>(decode_us.size()));
    if (!switches.install_us.empty()) {
      out.metrics.set("daemon.install_us", median(switches.install_us));
      out.metrics.set("daemon.install_calls", static_cast<double>(switches.install_us.size()));
    }
    if (!switches.activate_us.empty()) {
      out.metrics.set("daemon.activate_us", median(switches.activate_us));
      out.metrics.set("daemon.activate_calls",
                      static_cast<double>(switches.activate_us.size()));
    }
    const auto hits = static_cast<double>(stats.cache.hits - before_traced.cache.hits);
    const auto misses = static_cast<double>(stats.cache.misses - before_traced.cache.misses);
    out.metrics.set("daemon.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
    out.metrics.set("daemon.cache_hits", hits);
    out.metrics.set("daemon.cache_misses", misses);
    if (!encode_us.empty()) {
      out.metrics.set("artifact.encode_us", median(encode_us));
      out.metrics.set("artifact.encode_calls", static_cast<double>(encode_us.size()));
    }
    double bytes = 0.0;
    for (const auto& b : src.bytes) bytes += static_cast<double>(b.size());
    out.metrics.set("artifact.bytes", bytes / static_cast<double>(src.bytes.size()));
    out.metrics.set("bench.gen_late_p99_us", traced_nominal.gen_late_p99_us);
    out.metrics.set("parallel.threads", static_cast<double>(budget));
    out.metrics.set("parallel.utilization",
                    phase_cpu_s / (phase_s * static_cast<double>(budget)));
    out.metrics.set("trace.overhead_pct",
                    100.0 * (traced_nominal.latency_us.p50 / nominal.latency_us.p50 - 1.0));

    // Set-up layers: busy time per set-up from the spans.
    const std::vector<Span> spans = tracer.spans();
    const std::vector<std::string> span_names = tracer.names();
    const double reps = static_cast<double>(kSetupReps);
    for (const auto& [name_index, layer] : layer_times(spans)) {
      const std::string& name = span_names[name_index];
      const double per_setup_s = 1e-9 * static_cast<double>(layer.self_ns) / reps;
      if (name == "core.fit_screen") {
        out.metrics.set("core.fit_screen_s", per_setup_s);
        out.metrics.set("core.fit_screen_calls", static_cast<double>(layer.calls) / reps);
      } else if (name == "silicon.generate") {
        out.metrics.set("silicon.generate_s", per_setup_s);
        out.metrics.set("silicon.generate_calls", static_cast<double>(layer.calls) / reps);
      } else if (name == "conformal.cqr_fit.xgboost") {
        out.metrics.set("conformal.cqr_fit_s.xgboost", per_setup_s);
        out.metrics.set("conformal.cqr_fit_calls", static_cast<double>(layer.calls) / reps);
      }
    }
    out.metrics.set("trace.spans", static_cast<double>(spans.size()));
    zero_unset_layers(out.metrics);
  }
  // --- report -------------------------------------------------------------------
  out.config_json = "{\"pool_width\": " + std::to_string(serve_width) +
                    ", \"thread_budget\": " + std::to_string(budget) +
                    ", \"nominal_qps\": " + json_number(config.nominal_qps) +
                    ", \"ladder_qps\": " + json_list(config.ladder) +
                    ", \"probe_seconds\": " + json_number(kProbeSeconds) +
                    ", \"latency_limit_us\": " + json_number(config.rule.latency_limit_us) +
                    ", \"late_limit_us\": " + json_number(config.rule.late_limit_us) +
                    ", \"p99_window_s\": " + json_number(kWindowSeconds) +
                    ", \"queue_capacity\": " + std::to_string(config.daemon.queue_capacity) +
                    ", \"max_batch_rows\": " + std::to_string(config.daemon.max_batch_rows) +
                    ", \"cache_capacity\": " + std::to_string(config.daemon.cache_capacity) +
                    ", \"artifacts\": " + std::to_string(src.bytes.size()) +
                    ", \"query_rows\": " + std::to_string(n_rows) +
                    ", \"setup_reps\": " + std::to_string(kSetupReps) + "}";
  std::string steps_json = "[";
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (k > 0) steps_json.append(", ");
    steps_json.append(step_json(steps[k], config.rule));
  }
  steps_json.append("]");
  out.detail_json = "{\"phase_s\": " + json_number(phase_s) +
                    ", \"fail_ratio\": " +
                    json_number(static_cast<double>(out.failed) /
                                static_cast<double>(std::max<std::uint64_t>(1, out.attempted))) +
                    ", \"served_ok\": " + std::to_string(stats.served_ok) +
                    ", \"batches\": " + std::to_string(stats.batches) +
                    ", \"max_queue_depth\": " + std::to_string(stats.max_queue_depth) +
                    ", \"installs\": " + std::to_string(stats.installs) +
                    ", \"activations\": " + std::to_string(stats.activations) +
                    ", \"cache_hits\": " + std::to_string(stats.cache.hits) +
                    ", \"cache_misses\": " + std::to_string(stats.cache.misses) +
                    ", \"switches\": " + std::to_string(switches.switch_us.size()) +
                    ", \"qps_searches\": " + json_list(searches) +
                    ", \"steps\": " + steps_json + "}";
  return out;
}

// --- serve_narrow ----------------------------------------------------------------

constexpr std::size_t kNarrowTrainRows = 2000;
constexpr std::size_t kNarrowQueryRows = 4096;
constexpr std::size_t kNarrowFeatures = 13;
/// The training set is perf_serve's (seed 7) for every run seed: the
/// XGBoost fit's cost swung by 40 % with the training draw, so the seed
/// drives the query pool and the arrivals, and the bundle is the same.
constexpr std::uint64_t kNarrowTrainSeed = 7;

/// The perf_serve problem shape: 13 standard-normal monitor readings, Vmin
/// linear in a few of them plus noise (volts).
void make_narrow_problem(std::uint64_t seed, std::size_t n, linalg::Matrix& x,
                         linalg::Vector& y) {
  rng::Rng rng(seed);
  x = linalg::Matrix(n, kNarrowFeatures);
  y = linalg::Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < kNarrowFeatures; ++c) {
      x(i, c) = rng.normal();
      signal += (c % 3 == 0 ? 0.3 : 0.05) * x(i, c);
    }
    y[i] = 0.55 + 0.01 * signal + rng.normal(0.0, 0.003);
  }
}

ServeConfig narrow_config() {
  ServeConfig c;
  c.nominal_qps = 100'000.0;
  c.ladder = geometric_ladder(107'000.0, 2'000'000.0, 1.07);
  c.rule.latency_limit_us = 1000.0;
  c.rule.late_limit_us = kLateLimitUs;
  c.daemon.queue_capacity = 1 << 16;
  c.daemon.max_batch_rows = 256;
  c.daemon.cache_capacity = 4;
  c.abort_backlog = 1 << 15;
  return c;
}

// --- serve_fleet -------------------------------------------------------------------

constexpr std::size_t kFitChips = 156;
constexpr std::size_t kLotChips = 200;

ServeConfig fleet_config() {
  ServeConfig c;
  c.nominal_qps = 20'000.0;
  c.ladder = geometric_ladder(21'400.0, 800'000.0, 1.07);
  c.rule.latency_limit_us = 10000.0;
  c.rule.late_limit_us = kLateLimitUs;
  c.daemon.queue_capacity = 4096;
  c.daemon.max_batch_rows = 256;
  c.daemon.cache_capacity = 8;
  c.abort_backlog = 2048;
  return c;
}

}  // namespace

RunOutcome run_serve_narrow(const RunOptions& options, Tracer& tracer) {
  const Names names = intern_names(tracer);
  const ServeConfig config = narrow_config();
  const SetupFn setup = [&](std::vector<double>& encode_us) {
    ServeState state;
    linalg::Matrix train_x;
    linalg::Vector train_y;
    linalg::Matrix query_x;
    linalg::Vector query_y;
    make_narrow_problem(kNarrowTrainSeed, kNarrowTrainRows, train_x, train_y);
    make_narrow_problem(options.seed, kNarrowQueryRows, query_x, query_y);

    const core::MiscoverageAlpha alpha{0.1};
    auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
        alpha, models::make_quantile_pair(models::ModelKind::kXgboost, alpha));
    const std::int64_t f0 = now_ns();
    {
      const ScopedSpan span(tracer, names.cqr_fit);
      cqr->fit(train_x, train_y);
    }
    state.fit_s = 1e-9 * static_cast<double>(now_ns() - f0);
    artifact::VminBundle bundle;
    bundle.label = cqr->name();
    for (std::size_t c = 0; c < kNarrowFeatures; ++c) {
      bundle.dataset_columns.push_back(c);
      bundle.selected_features.push_back(c);
    }
    bundle.predictor = std::move(cqr);
    const std::int64_t e0 = now_ns();
    {
      const ScopedSpan span(tracer, names.encode);
      state.src.bytes.push_back(artifact::encode_bundle(bundle));
    }
    encode_us.push_back(1e-3 * static_cast<double>(now_ns() - e0));
    state.src.keys.push_back("narrow");
    state.src.designs.push_back(std::move(query_x));
    state.src.labels.push_back(std::move(query_y));

    state.daemon = std::make_unique<daemon::VminDaemon>(config.daemon);
    (void)state.daemon->install_bytes(state.src.keys[0], state.src.bytes[0]);
    state.daemon->start();
    return state;
  };
  return run_serve(options, config, setup, false, tracer, names);
}

RunOutcome run_serve_fleet(const RunOptions& options, Tracer& tracer) {
  const Names names = intern_names(tracer);
  const ServeConfig config = fleet_config();
  std::vector<core::Scenario> scenarios;
  for (const double t : silicon::standard_read_points()) {
    for (const double temp : silicon::standard_temperatures()) {
      scenarios.push_back({t, temp, core::FeatureSet::kBoth});
    }
  }
  std::vector<std::size_t> fit_chips(kFitChips);
  std::vector<std::size_t> lot_chips(kLotChips);
  for (std::size_t i = 0; i < kFitChips; ++i) fit_chips[i] = i;
  for (std::size_t i = 0; i < kLotChips; ++i) lot_chips[i] = kFitChips + i;

  const SetupFn setup = [&](std::vector<double>& encode_us) {
    ServeState state;
    // One population per scenario, generated from the seed: its first 156
    // chips characterize the scenario (the bundle is fitted on them), the
    // other 200 are the held-out lot the queries come from. Eighteen
    // populations keep the served width from swinging with one draw.
    const auto populations = core::parallel_map<silicon::GeneratedDataset>(
        scenarios.size(), [&](std::size_t s) {
          silicon::GeneratorConfig generator;
          generator.seed = options.seed * 64 + s;
          generator.n_chips = kFitChips + kLotChips;
          const ScopedSpan span(tracer, names.generate, s, 0);
          return silicon::generate_dataset(generator);
        });

    struct Fitted {
      std::vector<std::uint8_t> bytes;
      double encode_us = 0.0;
    };
    // fit_screen scopes the process-wide kernel policy to its fit, so calls
    // must not overlap: the bundles are fitted one after another (each fit
    // still uses the pool inside).
    const core::PipelineConfig pipeline;
    const std::int64_t f0 = now_ns();
    std::vector<Fitted> fitted(scenarios.size());
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const core::ScenarioData data = core::assemble_scenario(
          populations[s].dataset.take_chips(fit_chips), scenarios[s]);
      core::FittedScreen screen;
      {
        const ScopedSpan span(tracer, names.fit_screen, s);
        screen = core::fit_screen(data, models::ModelKind::kCatboost, pipeline, 8);
      }
      const artifact::VminBundle bundle =
          core::make_screen_bundle(scenarios[s], data, std::move(screen));
      const std::int64_t e0 = now_ns();
      {
        const ScopedSpan span(tracer, names.encode, s);
        fitted[s].bytes = artifact::encode_bundle(bundle);
      }
      fitted[s].encode_us = 1e-3 * static_cast<double>(now_ns() - e0);
    }
    state.fit_s = 1e-9 * static_cast<double>(now_ns() - f0);

    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      core::ScenarioData lot = core::assemble_scenario(
          populations[s].dataset.take_chips(lot_chips), scenarios[s]);
      state.src.keys.push_back(core::describe(scenarios[s]));
      state.src.bytes.push_back(fitted[s].bytes);
      encode_us.push_back(fitted[s].encode_us);
      state.src.designs.push_back(std::move(lot.x));
      state.src.labels.push_back(std::move(lot.y));
    }
    state.daemon = std::make_unique<daemon::VminDaemon>(config.daemon);
    state.daemon->start();
    return state;
  };
  return run_serve(options, config, setup, true, tracer, names);
}

}  // namespace perfbench
