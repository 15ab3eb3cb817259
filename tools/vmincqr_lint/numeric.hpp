// Pass-3 numeric-safety rules.
//
// Every function reachable from a predict/fit entry point (reachability
// comes from the pass-3 call graph, callgraph.hpp) runs three rules:
//
//   * fp-narrowing      — a double value narrowed to float
//     (`static_cast<float>`, a `(float)` cast, or `float x = <expr>` with a
//     non-float initializer): silent precision loss on a path whose outputs
//     are pinned bit-for-bit.
//   * float-accumulator — accumulation into a float local inside a loop:
//     the textbook reassociation/precision hazard.
//   * unguarded-division — division whose divisor is a plain identifier
//     that the function never compares, contract-checks, or pins to a
//     nonzero literal: a zero row count or degenerate scale reaches the
//     FPU as a division by zero.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "diagnostic.hpp"
#include "token.hpp"

namespace vmincqr::lint {

/// Runs the three numeric rules over one function. The function is the
/// token range [params_open, body_last]: `params_open` is its parameter
/// list's '(' (so parameter types are scanned too), `body_first`/`body_last`
/// its body braces. `display` names the function in messages. Suppressions
/// are NOT applied here (the caller folds findings into the per-file allow()
/// pass).
void numeric_rules_for_function(const std::string& path, const Unit& unit,
                                std::size_t params_open,
                                std::size_t body_first, std::size_t body_last,
                                const std::string& display,
                                std::vector<Diagnostic>& out);

}  // namespace vmincqr::lint
