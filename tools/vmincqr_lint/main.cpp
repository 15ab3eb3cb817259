// CLI driver for vmincqr_lint.
//
// Usage:
//   vmincqr_lint [options] <file-or-dir>...
//
// Options:
//   --rules               print all three rule tables and exit
//   --format=text|sarif   output format (default text)
//   --layers=FILE         layering DAG config; enables the layer-violation
//                         rule (pass 1) and seeds the call-level layering
//                         rule (pass 3) for directory arguments
//   --include-root=DIR    root against which quoted includes resolve for the
//                         cross-file passes (default: first directory arg)
//   --phase=LIST          comma list of passes to run (default 1,2,3):
//                         1 include-graph, 2 per-TU token+dataflow,
//                         3 cross-TU call graph
//   --skip=LIST           drop findings for these rule ids (validated)
//   --only=LIST           keep only findings for these rule ids (validated)
//   --exclude=SUBSTR      drop collected files whose path contains SUBSTR
//                         (repeatable; e.g. --exclude=lint_fixtures)
//   --fix                 apply the mechanically safe fixes (no-endl,
//                         pragma-once) in place, then re-lint
//   --budget-ms=N         fail (exit 1) if the whole run exceeds N ms — the
//                         semantic pass must never slow the tier-1 suite
//
// The cross-file passes (1 and 3) run only when at least one argument is a
// directory (or --include-root is given); the per-TU pass needs neither.
//
// Exit status: 0 when clean, 1 on any diagnostic (or blown budget), 2 on
// usage/IO errors.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph.hpp"
#include "fix.hpp"
#include "include_graph.hpp"
#include "lint.hpp"
#include "sarif.hpp"

namespace fs = std::filesystem;

namespace {

void collect(const fs::path& root, std::vector<std::string>& files) {
  if (fs::is_directory(root)) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (entry.is_regular_file() &&
          vmincqr::lint::is_lintable(entry.path().string())) {
        files.push_back(entry.path().string());
      }
    }
  } else {
    files.push_back(root.string());
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("vmincqr_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: vmincqr_lint [--rules] [--format=text|sarif] "
               "[--layers=FILE] [--include-root=DIR] [--phase=1,2,3] "
               "[--skip=LIST] [--only=LIST] "
               "[--exclude=SUBSTR]... [--fix] "
               "[--budget-ms=N] <file-or-dir>...\n");
  return 2;
}

std::vector<std::string> split_commas(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Every rule id across the three tables, for --skip/--only validation —
/// a typo'd id in CI would otherwise silently filter nothing.
std::set<std::string> all_rule_ids() {
  std::set<std::string> ids;
  for (const auto& r : vmincqr::lint::rule_table()) ids.insert(r.id);
  for (const auto& r : vmincqr::lint::graph_rule_table()) ids.insert(r.id);
  for (const auto& r : vmincqr::lint::callgraph_rule_table()) ids.insert(r.id);
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  std::string format_name = "text";
  std::string layers_path;
  std::string include_root;
  std::set<int> phases = {1, 2, 3};
  std::set<std::string> skip_rules;
  std::set<std::string> only_rules;
  std::vector<std::string> excludes;
  bool fix = false;
  long budget_ms = -1;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") {
      for (const auto& rule : vmincqr::lint::rule_table()) {
        std::printf("%-28s %s\n", rule.id, rule.rationale);
      }
      for (const auto& rule : vmincqr::lint::graph_rule_table()) {
        std::printf("%-28s %s\n", rule.id, rule.rationale);
      }
      for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
        std::printf("%-28s %s\n", rule.id, rule.rationale);
      }
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format_name = arg.substr(9);
      if (format_name != "text" && format_name != "sarif") return usage();
      continue;
    }
    if (arg.rfind("--layers=", 0) == 0) {
      layers_path = arg.substr(9);
      continue;
    }
    if (arg.rfind("--include-root=", 0) == 0) {
      include_root = arg.substr(15);
      continue;
    }
    if (arg.rfind("--phase=", 0) == 0) {
      phases.clear();
      for (const auto& p : split_commas(arg.substr(8))) {
        if (p != "1" && p != "2" && p != "3") return usage();
        phases.insert(p[0] - '0');
      }
      if (phases.empty()) return usage();
      continue;
    }
    if (arg.rfind("--skip=", 0) == 0) {
      for (const auto& id : split_commas(arg.substr(7))) skip_rules.insert(id);
      continue;
    }
    if (arg.rfind("--only=", 0) == 0) {
      for (const auto& id : split_commas(arg.substr(7))) only_rules.insert(id);
      continue;
    }
    if (arg.rfind("--exclude=", 0) == 0) {
      excludes.push_back(arg.substr(10));
      continue;
    }
    if (arg == "--fix") {
      fix = true;
      continue;
    }
    if (arg.rfind("--budget-ms=", 0) == 0) {
      try {
        budget_ms = std::stol(arg.substr(12));
      } catch (const std::exception&) {
        return usage();
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) return usage();
    paths.push_back(arg);
  }
  if (paths.empty()) return usage();

  {
    const std::set<std::string> known = all_rule_ids();
    for (const auto* filter : {&skip_rules, &only_rules}) {
      for (const auto& id : *filter) {
        if (known.count(id) == 0) {
          std::fprintf(stderr, "vmincqr_lint: unknown rule id '%s'\n",
                       id.c_str());
          return 2;
        }
      }
    }
  }

  std::vector<std::string> files;
  std::vector<std::string> dir_args;
  try {
    for (const auto& p : paths) {
      if (fs::is_directory(p)) dir_args.push_back(p);
      collect(p, files);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmincqr_lint: %s\n", e.what());
    return 2;
  }
  files.erase(std::remove_if(files.begin(), files.end(),
                             [&](const std::string& f) {
                               for (const auto& sub : excludes) {
                                 if (f.find(sub) != std::string::npos) {
                                   return true;
                                 }
                               }
                               return false;
                             }),
              files.end());
  std::sort(files.begin(), files.end());
  if (include_root.empty() && !dir_args.empty()) include_root = dir_args[0];

  std::vector<vmincqr::lint::Diagnostic> diagnostics;
  try {
    // --fix first so diagnostics reflect the rewritten tree.
    if (fix) {
      for (const auto& file : files) {
        const std::string before = read_file(file);
        const std::string after = vmincqr::lint::apply_fixes(file, before);
        if (after != before) {
          std::ofstream out(file, std::ios::binary | std::ios::trunc);
          if (!out) {
            std::fprintf(stderr, "vmincqr_lint: cannot write %s\n",
                         file.c_str());
            return 2;
          }
          out << after;
          std::fprintf(stderr, "vmincqr_lint: fixed %s\n", file.c_str());
        }
      }
    }

    // Pass 2: per-TU rules, one pool task per file (the linter dogfoods the
    // deterministic pool). lint_files sorts by (file, line, rule, message),
    // so output is byte-identical at every thread width.
    if (phases.count(2) > 0) diagnostics = vmincqr::lint::lint_files(files);

    // Passes 1 and 3 need the whole file set with root-relative paths.
    if (!include_root.empty() &&
        (phases.count(1) > 0 || phases.count(3) > 0)) {
      vmincqr::lint::LayerConfig config;
      if (!layers_path.empty()) {
        config = vmincqr::lint::load_layers(layers_path);
      }
      const fs::path root = fs::absolute(include_root);
      std::vector<vmincqr::lint::SourceFile> sources;
      for (const auto& file : files) {
        const fs::path abs = fs::absolute(file);
        sources.push_back({file,
                           abs.lexically_relative(root).generic_string(),
                           read_file(file)});
      }
      std::sort(sources.begin(), sources.end(),
                [](const vmincqr::lint::SourceFile& a,
                   const vmincqr::lint::SourceFile& b) {
                  return a.rel < b.rel;
                });
      // Pass 1: include-graph (layering DAG, cycles, IWYU-lite).
      if (phases.count(1) > 0) {
        for (auto& d :
             vmincqr::lint::analyze_include_graph(sources, config)) {
          diagnostics.push_back(std::move(d));
        }
      }
      // Pass 3: cross-TU call graph (call-level layering, numeric safety).
      if (phases.count(3) > 0) {
        vmincqr::lint::CallGraphOptions options;
        options.layers = config;
        auto analysis = vmincqr::lint::analyze_call_graph(sources, options);
        for (auto& d : analysis.diagnostics) {
          diagnostics.push_back(std::move(d));
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vmincqr_lint: %s\n", e.what());
    return 2;
  }

  if (!skip_rules.empty() || !only_rules.empty()) {
    diagnostics.erase(
        std::remove_if(diagnostics.begin(), diagnostics.end(),
                       [&](const vmincqr::lint::Diagnostic& d) {
                         if (skip_rules.count(d.rule) > 0) return true;
                         return !only_rules.empty() &&
                                only_rules.count(d.rule) == 0;
                       }),
        diagnostics.end());
  }

  if (format_name == "sarif") {
    std::printf("%s", vmincqr::lint::to_sarif(diagnostics).c_str());
  } else {
    for (const auto& d : diagnostics) {
      std::printf("%s\n", vmincqr::lint::format(d).c_str());
    }
  }

  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (budget_ms >= 0 && elapsed_ms > budget_ms) {
    std::fprintf(stderr,
                 "vmincqr_lint: run took %lld ms, over the %ld ms budget\n",
                 static_cast<long long>(elapsed_ms), budget_ms);
    return 1;
  }

  if (!diagnostics.empty()) {
    std::fprintf(stderr, "vmincqr_lint: %zu finding(s) in %zu file(s)\n",
                 diagnostics.size(), files.size());
    return 1;
  }
  if (format_name == "text") {
    std::printf("vmincqr_lint: %zu file(s) clean\n", files.size());
  }
  return 0;
}
