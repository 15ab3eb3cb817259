// Pass-3 numeric-safety rules and the numeric-tier manifest.
//
// The ROADMAP's SIMD/data-layout overhaul will deliberately break
// bit-exactness on some kernels (vectorized reassociation). That is only
// acceptable if the blast radius is declared: every function on a
// predict/fit path is `bit_exact` by default, and a kernel that trades
// bit-exactness for speed must carry an explicit
// `// vmincqr: numeric-tier(tolerance)` annotation AND be listed in a
// committed manifest (numeric_tiers.toml), so the diff that relaxes a
// kernel is always reviewable in one place.
//
// Three rules run on functions reachable from predict/fit entry points
// (reachability comes from the pass-3 call graph, callgraph.hpp):
//
//   * fp-narrowing      — a double value narrowed to float
//     (`static_cast<float>`, a `(float)` cast, or `float x = <expr>` with a
//     non-float initializer) in a bit_exact-tier function: silent precision
//     loss on a path whose outputs are pinned bit-for-bit.
//   * float-accumulator — accumulation into a float local inside a loop in
//     a bit_exact-tier function: the textbook reassociation/precision
//     hazard that SIMD rewrites introduce.
//   * unguarded-division — division whose divisor is a plain identifier
//     that the function never compares, contract-checks, or pins to a
//     nonzero literal: a zero row count or degenerate scale reaches the
//     FPU as a division by zero. Applies at every tier — tolerance buys
//     reassociation freedom, not undefined values.
//
// `tolerance`-tier functions are exempt from the two reassociation/
// precision rules; the manifest enforcement itself (numeric-tier-manifest)
// lives in callgraph.cpp, which sees every annotated definition.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "diagnostic.hpp"
#include "token.hpp"

namespace vmincqr::lint {

/// One explicit tier annotation, recorded in SARIF (run-level properties)
/// so the deployed analyzer output is an audit trail of every function that
/// opted out of bit-exactness.
struct TierRecord {
  std::string function;  // display name, e.g. "Matrix::fast_sum"
  std::string file;
  std::size_t line = 0;
  std::string tier;  // "bit_exact" | "tolerance"
};

/// Parses the numeric-tier manifest:
///
///   [tolerance]
///   functions = ["fast_norm", "Matrix::fast_sum"]
///
/// Entries may be bare or Class::-qualified names. Throws
/// std::runtime_error on malformed input.
std::set<std::string> parse_tier_manifest(const std::string& toml_text);

/// Reads and parses a manifest file. Throws on IO or parse errors.
std::set<std::string> load_tier_manifest(const std::string& path);

/// Runs the three numeric rules over one function. The function is the
/// token range [params_open, body_last]: `params_open` is its parameter
/// list's '(' (so parameter types are scanned too), `body_first`/`body_last`
/// its body braces. `tier` is "tolerance" or anything else (= bit_exact);
/// `display` names the function in messages. Suppressions are NOT applied
/// here (the caller folds findings into the per-file allow() pass).
void numeric_rules_for_function(const std::string& path, const Unit& unit,
                                std::size_t params_open,
                                std::size_t body_first, std::size_t body_last,
                                const std::string& display,
                                const std::string& tier,
                                std::vector<Diagnostic>& out);

}  // namespace vmincqr::lint
