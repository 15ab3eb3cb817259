// Phase-2 statistical-validity dataflow rules.
//
// CQR's finite-sample coverage guarantee (Romano et al.) rests on
// exchangeability between calibration and test points. Two one-line coding
// mistakes silently void it without failing any runtime test:
//
//   * calib-leakage — calibration rows reaching `fit()`: the base model has
//     then seen its own calibration data, the nonconformity scores are
//     optimistically biased, and empirical coverage drops below 1 - alpha.
//   * seed-reuse — the same seed feeding two RNG constructions in one scope:
//     "independent" splits/noise become perfectly correlated, which breaks
//     both exchangeability arguments and variance estimates.
//
// A third rule, unseeded-rng, keeps library code deterministic: every engine
// must be constructed from an explicit seed (reproducibility is a repo-level
// contract; see rng/rng.hpp).
//
// All three operate per function scope (parse.hpp) over the token stream
// with local symbol taint tracking — no type information, so they are
// deliberately conservative; false positives are silenced per line with
// `// vmincqr-lint: allow(<rule>)` plus a justification.
#pragma once

#include <string>
#include <vector>

#include "diagnostic.hpp"
#include "token.hpp"

namespace vmincqr::lint {

/// Runs the three dataflow rules over one TU. `path` is used only for
/// diagnostics. Suppressions are NOT applied here (the caller folds these
/// findings into the per-file allow() pass).
std::vector<Diagnostic> dataflow_rules(const std::string& path,
                                       const Unit& unit);

}  // namespace vmincqr::lint
