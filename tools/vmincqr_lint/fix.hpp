// `vmincqr_lint --fix`: automatic rewrites for the mechanically safe rules.
// Everything else stays diagnose-only — a wrong automatic edit to a
// contract or a comparison would be worse than the finding.
//
//   * no-endl      — `std::endl` (or a bare `endl`) becomes `"\n"`.
//   * pragma-once  — a header missing `#pragma once` gains it after the
//                    leading comment block.
//
// Each rewriter acts only where its rule reports and honours allow(), so a
// tree the linter passes is already a fixed point of --fix.
//
// Fixes are idempotent: applying them to already-fixed text is a no-op.
#pragma once

#include <string>

namespace vmincqr::lint {

/// Returns `content` with all safe fixes applied. `path` decides
/// header-only fixes (pragma-once applies to .hpp only). Comments and
/// string literals are never rewritten (the token stream skips them).
std::string apply_fixes(const std::string& path, const std::string& content);

}  // namespace vmincqr::lint
