// Pass-1 preprocessor-aware include-graph analysis over a file set.
//
// Three rules:
//   * layer-violation — the declared layering DAG (layers.toml) is the
//     architecture; an include edge not on it is a cross-layer shortcut.
//     The load-bearing constraint for this repo: `conformal` must never
//     include the silicon/netlist substrates, or the statistical
//     layer grows a hidden dependency on the simulator it is meant to audit.
//   * include-cycle — a cycle among project headers (pragma once hides it
//     at compile time until a reordering breaks the build).
//   * unused-include — IWYU-lite: a direct quoted include providing no name
//     the including TU mentions. "Provided names" are the header's declared
//     identifiers (types, functions, aliases, macros, constants), so the
//     check is conservative: it only fires when nothing matches.
//
// Suppression works like every other rule: `// vmincqr-lint: allow(<rule>)`
// on the `#include` line (e.g. for deliberate re-export umbrella headers).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "diagnostic.hpp"

namespace vmincqr::lint {

/// One file of the analyzed set. `rel` is the path the include resolver and
/// module mapper use (relative to the include root, `/`-separated);
/// `display` is what diagnostics print.
struct SourceFile {
  std::string display;
  std::string rel;
  std::string content;
};

/// The declared layering DAG, parsed from a layers.toml file:
///
///   [modules]
///   core_base = ["core/units.hpp", "core/contracts.hpp"]
///   linalg    = ["linalg/"]
///   [allow]
///   linalg    = ["core_base"]
///   [call_forbidden]
///   serve     = ["fit", "calibrate"]
///
/// A file maps to the module with the longest matching path prefix (exact
/// file entries beat directory prefixes). Every module may include itself;
/// all other edges must be listed under [allow]. Unmapped files are exempt
/// from the layering rule but still participate in cycle/IWYU analysis.
///
/// [call_forbidden] feeds the pass-3 call-level layering rule
/// (call-layer-violation, callgraph.hpp): functions in the listed module
/// must not transitively *call* any symbol with one of the listed names,
/// even when every include edge is legal.
struct LayerConfig {
  struct Module {
    std::string name;
    std::vector<std::string> prefixes;
  };
  std::vector<Module> modules;
  std::vector<std::pair<std::string, std::vector<std::string>>> allowed;
  /// module -> symbol names its functions must never transitively call.
  std::vector<std::pair<std::string, std::vector<std::string>>>
      call_forbidden;

  /// Module name for a rel path, or "" when unmapped.
  [[nodiscard]] std::string module_of(const std::string& rel) const;
  /// True when module `from` may include module `to`.
  [[nodiscard]] bool edge_allowed(const std::string& from,
                                  const std::string& to) const;
};

/// Parses the layers.toml subset above. Throws std::runtime_error with a
/// line-numbered message on malformed input (unknown section, bad list).
LayerConfig parse_layers(const std::string& toml_text);

/// Reads and parses a layers.toml file. Throws on IO or parse errors.
LayerConfig load_layers(const std::string& path);

/// Runs all three include-graph rules over the file set. Pass a
/// default-constructed LayerConfig (no modules) to skip the layering rule.
/// allow() suppressions on the offending include line are honored.
std::vector<Diagnostic> analyze_include_graph(
    const std::vector<SourceFile>& files, const LayerConfig& config);

/// Convenience: collects .hpp/.cpp files under `root` (rel paths computed
/// against `root`) and analyzes them. Throws on IO errors.
std::vector<Diagnostic> analyze_directory(const std::string& root,
                                          const LayerConfig& config);

}  // namespace vmincqr::lint
