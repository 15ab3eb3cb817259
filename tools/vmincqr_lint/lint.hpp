// vmincqr_lint — a self-contained semantic linter for repo invariants the
// generic tools (clang-tidy, cppcheck) cannot express.
//
// Why a bespoke linter: CQR's coverage guarantee survives only if the code
// respects project conventions — strong unit types at public boundaries,
// runtime contracts on every fit/predict entry point, no exact floating
// comparisons in statistical code, calibration data that never reaches
// fit(), and seed discipline across splits. These are *domain* rules, not
// C++ rules, so they live here (no libclang dependency; the whole tool
// builds in well under a second).
//
// Three passes, selected with `--phase=`:
//   1. include-graph (include_graph.hpp) — layering DAG, cycle detection,
//      IWYU-lite unused includes. Cross-file; runs when a directory is
//      linted.
//   2. per-TU — the token rules below plus the statistical-validity
//      dataflow rules (dataflow.hpp) over a statement/call view with local
//      symbol taint tracking.
//   3. call graph (callgraph.hpp) — call-level layering (serve never reaches
//      fit) and the numeric-safety rules. Cross-file, like pass 1.
//
// Suppression: append `// vmincqr-lint: allow(<rule-id>)` to the offending
// line, or place it alone on the line above. Several ids may be listed,
// comma-separated. Suppressions are per-line and per-rule by design: a
// blanket opt-out would silently rot.
#pragma once

#include <string>
#include <vector>

#include "diagnostic.hpp"

namespace vmincqr::lint {

/// A row of the rule table: stable id (used in allow() suppressions and test
/// fixtures) plus a one-line rationale printed by `vmincqr_lint --rules`.
struct RuleInfo {
  const char* id;
  const char* rationale;
};

/// Per-TU rules (token rules + dataflow rules), in the order they run.
/// Ids are unique and stable; tests assert every fixture maps onto exactly
/// one of these.
const std::vector<RuleInfo>& rule_table();

/// Cross-file include-graph rules (pass 1). Separate table because these
/// need the whole file set, not one TU; `--rules` prints every table.
const std::vector<RuleInfo>& graph_rule_table();

/// Cross-TU call-graph rules (pass 3, callgraph.hpp). Third table for the
/// same reason as the graph table: these need the whole file set.
const std::vector<RuleInfo>& callgraph_rule_table();

/// Lints one translation unit given its contents (the unit-testable core).
/// `path` is used for diagnostics and to decide header-only rules (.hpp).
/// Runs the token rules and the dataflow rules; include-graph analysis is
/// separate (include_graph.hpp).
std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content);

/// Reads `path` and lints it. Throws std::runtime_error if unreadable.
std::vector<Diagnostic> lint_file(const std::string& path);

/// Lints many files, one pool task per TU (core::parallel_map — the linter
/// dogfoods the deterministic pool it polices). The result is globally
/// sorted by (file, line, rule, message), so output is byte-identical at
/// every thread width.
std::vector<Diagnostic> lint_files(const std::vector<std::string>& paths);

/// True for files the linter understands (.hpp / .cpp).
bool is_lintable(const std::string& path);

}  // namespace vmincqr::lint
