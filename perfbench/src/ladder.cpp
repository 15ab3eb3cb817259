#include "ladder.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::string verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kPass:
      return "pass";
    case Verdict::kInvalid:
      return "invalid";
    case Verdict::kShed:
      return "shed";
    case Verdict::kError:
      return "error";
    case Verdict::kBacklog:
      return "backlog";
    case Verdict::kLatency:
      return "latency";
  }
  return "unknown";
}

Verdict judge(const StepOutcome& step, const SloRule& rule) {
  if (step.gen_late_p99_us > rule.late_limit_us) return Verdict::kInvalid;
  if (step.shed > 0) return Verdict::kShed;
  if (step.errors > 0) return Verdict::kError;
  const double allowed_growth = step.rate_qps * rule.latency_limit_us * 1e-6;
  if (step.aborted || step.depth_end > step.depth_start + allowed_growth) {
    return Verdict::kBacklog;
  }
  if (step.latency_us.n == 0 || step.window_p99_us > rule.latency_limit_us) {
    return Verdict::kLatency;
  }
  return Verdict::kPass;
}

bool Rung::passed() const {
  return std::find(attempts.begin(), attempts.end(), Verdict::kPass) !=
         attempts.end();
}

double qps_at_slo(const std::vector<Rung>& rungs) {
  double lowest_fail = HUGE_VAL;
  for (const Rung& rung : rungs) {
    if (!rung.passed()) lowest_fail = std::min(lowest_fail, rung.rate_qps);
  }
  double best = 0.0;
  for (const Rung& rung : rungs) {
    if (rung.passed() && rung.rate_qps < lowest_fail) {
      best = std::max(best, rung.rate_qps);
    }
  }
  return best;
}

std::vector<Rung> search_ladder(const std::vector<double>& ladder, std::size_t start,
                                std::size_t stride, int max_attempts,
                                const StepAttempt& attempt) {
  std::vector<Rung> rungs;
  bool out_of_time = false;
  // Tries rung k; false when it failed or time ran out.
  const auto probe = [&](std::size_t k) {
    Rung rung{ladder[k], {}};
    for (int a = 0; a < max_attempts && !rung.passed(); ++a) {
      const std::optional<Verdict> verdict = attempt(ladder[k]);
      if (!verdict) {
        out_of_time = true;
        break;
      }
      rung.attempts.push_back(*verdict);
    }
    if (!rung.attempts.empty()) rungs.push_back(rung);
    return !out_of_time && rung.passed();
  };
  if (stride == 0) stride = 1;
  std::size_t next = start;  // lowest rung not yet known to pass
  std::size_t first_fail = ladder.size();
  bool any_pass = false;
  for (std::size_t k = start + stride - 1; k < ladder.size(); k += stride) {
    if (!probe(k)) {
      first_fail = k;
      break;
    }
    any_pass = true;
    next = k + 1;
  }
  for (std::size_t k = next; k < first_fail && !out_of_time; ++k) {
    if (!probe(k)) break;
    any_pass = true;
  }
  for (std::size_t k = start; !any_pass && !out_of_time && k-- > 0;) {
    any_pass = probe(k);
  }
  return rungs;
}

std::vector<double> geometric_ladder(double lo, double hi, double ratio) {
  if (!(lo > 0.0 && hi >= lo && ratio > 1.0)) {
    throw std::invalid_argument("geometric_ladder: need 0 < lo <= hi, ratio > 1");
  }
  std::vector<double> rates;
  for (double rate = lo; rate <= hi * (1.0 + 1e-9); rate *= ratio) {
    rates.push_back(rate);
  }
  return rates;
}

}  // namespace perfbench
