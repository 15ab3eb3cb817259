// Open-loop rate ladder: the step verdict and the qps_at_slo rule.
//
// A step offers queries on a Poisson schedule at one ladder rate. Its
// verdict, in order of precedence:
//   * invalid  -- the generator itself ran late beyond the bound, so the
//                 step says nothing about the daemon (not a latency);
//   * shed / error -- any query shed at admission or answered with a non-ok
//                 status or a wrong interval;
//   * backlog  -- the mean outstanding count over the last quarter of the
//                 step exceeds that over the first quarter by more than
//                 rate x latency limit (a queue growing that fast makes later
//                 arrivals miss the limit), or offering stopped early because
//                 the backlog ran away;
//   * latency  -- the step's p99 from due time, taken per window and then
//                 the median across windows, above the limit;
//   * pass.
// qps_at_slo is the highest rate that passed below the lowest rate that
// failed. A rung passes if either of its two attempts passes, so one host
// hiccup does not end the search; an invalid attempt never passes. A search
// over the fixed ladder starts at a rung and gallops up (every stride-th
// rung), then tries the rungs between the last pass and the first failure;
// if nothing at or above the start passed, it steps down until a rung
// passes. A fine ladder thus costs few steps.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct StepOutcome {
  double rate_qps = 0.0;
  double seconds = 0.0;            ///< scheduled length of the step
  std::size_t attempted = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;          ///< non-ok, non-shed statuses + mismatches
  Percentiles latency_us;          ///< from due time to resolution
  double window_p99_us = 0.0;      ///< median of per-window p99 (see stats.hpp)
  double gen_late_p99_us = 0.0;    ///< generator lateness at submit
  double depth_start = 0.0;  ///< mean outstanding over the first quarter of offers
  double depth_end = 0.0;    ///< mean outstanding over the last quarter of offers
  bool aborted = false;            ///< stopped early: backlog ran away
};

struct SloRule {
  double latency_limit_us = 1000.0;
  double late_limit_us = 100.0;
};

enum class Verdict { kPass, kInvalid, kShed, kError, kBacklog, kLatency };

std::string verdict_name(Verdict verdict);

Verdict judge(const StepOutcome& step, const SloRule& rule);

/// All attempts at one ladder rate, in the order they ran.
struct Rung {
  double rate_qps = 0.0;
  std::vector<Verdict> attempts;
  [[nodiscard]] bool passed() const;
};

/// Highest passing rate strictly below the lowest failing rate (rungs in
/// any order); 0 when no rung below the first failure passed.
double qps_at_slo(const std::vector<Rung>& rungs);

/// Runs one step at a rate and returns its verdict, or nullopt when the
/// time for the search is up.
using StepAttempt = std::function<std::optional<Verdict>(double rate_qps)>;

/// Search of the ascending `ladder` from rung `start` (see above), at most
/// `max_attempts` attempts per rung. Returns every rung tried, in order.
std::vector<Rung> search_ladder(const std::vector<double>& ladder, std::size_t start,
                                std::size_t stride, int max_attempts,
                                const StepAttempt& attempt);

/// Geometric ladder lo, lo*ratio, ... up to hi (inclusive within 1e-9).
std::vector<double> geometric_ladder(double lo, double hi, double ratio);

}  // namespace perfbench
