// Pass-3 cross-TU symbol table and function-level call graph.
//
// The include-graph pass checks the serve/artifact fit-free contract at
// include granularity only. This pass builds a whole-program (token-level,
// type-free) call graph on top of the existing scope parser and checks:
//
//   * call-level layering — [call_forbidden] in layers.toml names symbols
//     (fit, calibrate, ...) that serve/artifact functions must not reach
//     through ANY call chain, even when every include edge is legal
//     (call-layer-violation).
//   * numeric safety — functions reachable from predict/fit entry points
//     run the numeric rules (numeric.hpp): fp-narrowing, float-accumulator,
//     unguarded-division.
//
// Resolution semantics (deliberately conservative, documented in
// DESIGN.md §6): overload sets are keyed by unqualified name; a call
// resolves to every overload whose declared arity window [min, max]
// admits the call's argument count. `Class::`-qualified calls prefer
// same-qualifier definitions; member calls (x.f(...)) prefer member
// definitions. A candidate in a module the caller's module may not
// include (per the [allow] DAG) is dropped — a TU cannot call what it
// cannot see. When the arity filter empties the set, the call falls back
// to the whole visible overload set (over-approximation beats a silent
// miss); calls that match no definition at all (std::, external) are
// treated as leaves.
//
// Determinism: per-TU extraction fans out on core::parallel_map (each TU
// is a pure function of its bytes); linking, resolution, BFS, and rule
// evaluation are sequential over sorted containers, so diagnostics and
// SARIF are byte-identical at every thread width.
#pragma once

#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "diagnostic.hpp"
#include "include_graph.hpp"
#include "numeric.hpp"
#include "token.hpp"

namespace vmincqr::lint {

/// Sentinel for "no function" (a call site outside any definition).
inline constexpr std::size_t kNoFunction =
    std::numeric_limits<std::size_t>::max();

/// One function definition (free function, out-of-line member, or
/// constructor) found in the analyzed file set.
struct FunctionDef {
  std::string name;       // unqualified
  std::string qualifier;  // `Class` for `Class::name`, "" for free functions
  std::string display;    // qualifier::name, or name
  std::size_t tu = 0;     // index into the analyzed file set
  std::size_t line = 0;   // line of the name token
  std::size_t params_open = 0;  // token index of the parameter-list '('
  std::size_t body_first = 0;   // token index of the body '{'
  std::size_t body_last = 0;    // token index of the matching '}'
  std::size_t arity_min = 0;    // parameters without defaults
  std::size_t arity_max = 0;    // all parameters (kNoFunction if variadic)
};

/// One call site inside a definition's body.
struct CallSite {
  std::size_t tu = 0;
  std::size_t caller = kNoFunction;  // global def index
  std::string qualifier;  // `Q` for `Q::f(...)` calls, "" otherwise
  std::string name;
  std::size_t line = 0;
  std::size_t arity = 0;
  bool member = false;  // x.f(...) or x->f(...)
  std::vector<std::size_t> callees;  // resolved global def indices
};

/// The linked cross-TU graph. Exposed (rather than hidden behind
/// analyze_call_graph) so tests can probe resolution, cycles, and
/// reachability directly.
class CallGraph {
 public:
  /// Extracts and links the graph. `layers` scopes resolution (a caller
  /// never binds to a module it may not include); pass a
  /// default-constructed LayerConfig to resolve across the whole set.
  static CallGraph build(const std::vector<SourceFile>& files,
                         const LayerConfig& layers);

  [[nodiscard]] const std::vector<FunctionDef>& defs() const { return defs_; }
  [[nodiscard]] const std::vector<CallSite>& calls() const { return calls_; }
  [[nodiscard]] const Unit& unit(std::size_t tu) const { return units_[tu]; }
  [[nodiscard]] const std::string& display_of(std::size_t tu) const {
    return displays_[tu];
  }
  [[nodiscard]] const std::string& module_of_tu(std::size_t tu) const {
    return modules_[tu];
  }

  /// Definitions transitively reachable from `roots` (roots included)
  /// through resolved call edges.
  [[nodiscard]] std::set<std::size_t> reachable_from(
      const std::set<std::size_t>& roots) const;

 private:
  std::vector<Unit> units_;
  std::vector<std::string> displays_;  // per TU
  std::vector<std::string> modules_;   // per TU, "" when unmapped
  std::vector<FunctionDef> defs_;
  std::vector<CallSite> calls_;
};

struct CallGraphOptions {
  LayerConfig layers;
};

struct CallGraphAnalysis {
  /// Sorted by (file, line, rule, message); allow() suppressions applied.
  std::vector<Diagnostic> diagnostics;
};

/// Runs every call-graph rule over the file set.
CallGraphAnalysis analyze_call_graph(const std::vector<SourceFile>& files,
                                     const CallGraphOptions& options);

/// Convenience: collects .hpp/.cpp files under `root` (rel paths computed
/// against `root`, sorted) and analyzes them. Throws on IO errors.
CallGraphAnalysis analyze_call_graph_directory(const std::string& root,
                                               const CallGraphOptions& options);

}  // namespace vmincqr::lint
