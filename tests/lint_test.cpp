// Golden-file tests for vmincqr_lint: each fixture in tests/lint_fixtures/
// makes exactly one rule fire, suppressions silence diagnostics, and the
// real src/ tree is clean under all three passes (the include-graph pass,
// the per-TU token + dataflow rules, and the cross-TU call-graph pass).
// Suite names are lowercase so `ctest -R lint` selects every linter-related
// test.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "fix.hpp"
#include "include_graph.hpp"
#include "lint.hpp"
#include "parallel/thread_pool.hpp"
#include "sarif.hpp"

namespace {

namespace fs = std::filesystem;
using vmincqr::lint::analyze_call_graph;
using vmincqr::lint::analyze_call_graph_directory;
using vmincqr::lint::analyze_directory;
using vmincqr::lint::CallGraph;
using vmincqr::lint::CallGraphOptions;
using vmincqr::lint::Diagnostic;
using vmincqr::lint::LayerConfig;
using vmincqr::lint::lint_file;
using vmincqr::lint::lint_source;
using vmincqr::lint::load_layers;
using vmincqr::lint::parse_layers;
using vmincqr::lint::SourceFile;

std::string fixture(const std::string& name) {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/" + name;
}

std::string layering_dir() {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/layering";
}

std::string callgraph_dir() {
  return std::string(VMINCQR_LINT_FIXTURE_DIR) + "/callgraph";
}

CallGraphOptions callgraph_fixture_options() {
  CallGraphOptions opts;
  opts.layers = load_layers(callgraph_dir() + "/layers.toml");
  return opts;
}

struct GoldenCase {
  const char* file;
  const char* rule;
};

// One fixture per rule; the linter must fire exactly once, with the right id.
const GoldenCase kGolden[] = {
    {"pragma_once.hpp", "pragma-once"},
    {"using_namespace_header.hpp", "using-namespace-header"},
    {"no_rand.cpp", "no-rand"},
    {"no_endl.cpp", "no-endl"},
    {"float_equality.cpp", "float-equality"},
    {"raw_double_param.hpp", "raw-double-param"},
    {"matrix_by_value.hpp", "matrix-by-value"},
    {"contract_coverage.cpp", "contract-coverage"},
    {"calib_leakage.cpp", "calib-leakage"},
    {"seed_reuse.cpp", "seed-reuse"},
    {"unseeded_rng.cpp", "unseeded-rng"},
    {"raw_thread.cpp", "raw-thread"},
    {"clock_in_hot_path.cpp", "clock-in-hot-path"},
    {"atomic_outside_parallel.cpp", "atomic-outside-parallel"},
};

TEST(lint, EveryRuleFiresExactlyOnceOnItsFixture) {
  for (const auto& test_case : kGolden) {
    const auto diags = lint_file(fixture(test_case.file));
    ASSERT_EQ(diags.size(), 1u)
        << test_case.file << ": expected exactly one diagnostic, got "
        << diags.size();
    EXPECT_EQ(diags[0].rule, test_case.rule) << test_case.file;
    EXPECT_GT(diags[0].line, 0u);
  }
}

TEST(lint, FixturesCoverEveryRuleInTheTable) {
  std::set<std::string> fired;
  for (const auto& test_case : kGolden) fired.insert(test_case.rule);
  for (const auto& rule : vmincqr::lint::rule_table()) {
    EXPECT_TRUE(fired.count(rule.id) == 1)
        << "rule '" << rule.id << "' has no golden fixture";
  }
  EXPECT_EQ(fired.size(), vmincqr::lint::rule_table().size());
}

TEST(lint, RuleIdsAreUniqueAcrossAllTables) {
  std::set<std::string> ids;
  for (const auto& rule : vmincqr::lint::rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
  for (const auto& rule : vmincqr::lint::graph_rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
  for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate rule id " << rule.id;
  }
}

TEST(lint, SuppressionsSilenceSameLineAndPreviousLine) {
  EXPECT_TRUE(lint_file(fixture("suppressed.cpp")).empty());
}

TEST(lint, CleanFileProducesNoDiagnostics) {
  EXPECT_TRUE(lint_file(fixture("clean.cpp")).empty());
}

TEST(lint, SuppressionIsPerRule) {
  // An allow() for a different rule must not silence the finding.
  const std::string src =
      "bool f(double x) {\n"
      "  return x == 0.0;  // vmincqr-lint: allow(no-endl)\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "float-equality");
}

TEST(lint, CommentsAndStringsAreNotCode) {
  const std::string src =
      "// rand() and std::endl in comments are fine\n"
      "const char* s = \"x == 0.0 and rand()\";\n"
      "/* block: y != 1.5 */\n";
  EXPECT_TRUE(lint_source("probe.cpp", src).empty());
}

TEST(lint, FormatIsFileLineRuleMessage) {
  const Diagnostic d{"a/b.cpp", 12, "no-rand", "msg"};
  EXPECT_EQ(vmincqr::lint::format(d), "a/b.cpp:12: [no-rand] msg");
}

// --- dataflow rules -------------------------------------------------------

TEST(lint, CalibLeakageNegativeFixtureIsClean) {
  EXPECT_TRUE(lint_file(fixture("calib_leakage_ok.cpp")).empty());
}

TEST(lint, SeedReuseNegativeFixtureIsClean) {
  EXPECT_TRUE(lint_file(fixture("seed_reuse_ok.cpp")).empty());
}

TEST(lint, CalibLeakagePropagatesThroughAssignments) {
  // Two hops: calib rows -> holdout -> x; the fit() three statements later
  // must still fire.
  const std::string src =
      "void train(Model& m, const Split& s) {\n"
      "  Matrix holdout = s.x_calib;\n"
      "  Matrix x = holdout;\n"
      "  m.fit(x, s.train_y);\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "calib-leakage");
  EXPECT_EQ(diags[0].line, 4u);
}

TEST(lint, SeedReuseComparesVariableSeedsToo) {
  const std::string src =
      "void run(unsigned seed) {\n"
      "  Rng a(seed);\n"
      "  Rng b(seed);\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "seed-reuse");
}

TEST(lint, RawThreadFlagsEveryBannedPrimitive) {
  const std::string src =
      "void f() {\n"
      "  auto fut = std::async([] { return 1; });\n"
      "  std::atomic<int> counter{0};\n"
      "  std::mutex m;\n"
      "}\n";
  const auto diags = lint_source("src/models/probe.cpp", src);
  ASSERT_EQ(diags.size(), 3u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "raw-thread");
}

TEST(lint, RawThreadIsLegalInsideTheParallelDirectory) {
  const std::string src =
      "#include <thread>\n"
      "void pool() {\n"
      "  std::thread worker([] {});\n"
      "  std::mutex m;\n"
      "  worker.join();\n"
      "}\n";
  EXPECT_TRUE(lint_source("src/parallel/thread_pool.cpp", src).empty());
}

TEST(lint, ClockIsLegalInBenchAndToolsPaths) {
  const std::string src =
      "long long f() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  EXPECT_TRUE(lint_source("bench/probe.cpp", src).empty());
  EXPECT_TRUE(lint_source("tools/probe/probe.cpp", src).empty());
  const auto diags = lint_source("src/core/probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "clock-in-hot-path");
}

TEST(lint, UnqualifiedAtomicIsLegalOnlyInsideParallel) {
  // Unqualified names slip past raw-thread (which keys on `std::`); this
  // rule closes that gap everywhere but src/parallel/.
  const std::string src =
      "void f() {\n"
      "  atomic<int> counter{0};\n"
      "  bump(counter);\n"
      "}\n";
  const auto diags = lint_source("src/models/probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "atomic-outside-parallel");
  EXPECT_TRUE(lint_source("src/parallel/queue.cpp", src).empty());
}

TEST(lint, UnseededRngFlagsRandomDevice) {
  const std::string src =
      "unsigned entropy() {\n"
      "  std::random_device rd;\n"
      "  return rd();\n"
      "}\n";
  const auto diags = lint_source("probe.cpp", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unseeded-rng");
}

// The statistical-validity rules must stay clean over the real tests/ and
// bench/ trees (regression guard for the seed audit: every CV split and
// conformal arm derives a distinct stream or replays one deliberately in a
// separate scope).
TEST(lint, TestsAndBenchHaveNoStatisticalValidityFindings) {
  const std::set<std::string> stat_rules = {"calib-leakage", "seed-reuse",
                                            "unseeded-rng"};
  std::size_t scanned = 0;
  for (const char* root : {VMINCQR_LINT_TESTS_DIR, VMINCQR_LINT_BENCH_DIR}) {
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      const std::string path = entry.path().generic_string();
      if (!entry.is_regular_file() || !vmincqr::lint::is_lintable(path)) {
        continue;
      }
      // Fixture files violate rules on purpose.
      if (path.find("lint_fixtures") != std::string::npos) continue;
      ++scanned;
      for (const auto& d : lint_file(path)) {
        if (stat_rules.count(d.rule) > 0) {
          ADD_FAILURE() << vmincqr::lint::format(d);
        }
      }
    }
  }
  EXPECT_GT(scanned, 20u) << "tests/bench trees not found where expected";
}

// --- parallel linting (dogfooding the deterministic pool) -----------------

std::vector<std::string> lintable_fixture_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(VMINCQR_LINT_FIXTURE_DIR)) {
    const std::string path = entry.path().generic_string();
    if (entry.is_regular_file() && vmincqr::lint::is_lintable(path)) {
      files.push_back(path);
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(lint, LintFilesSortsDiagnosticsByFileThenLine) {
  // Inputs deliberately out of order; the merged stream must come back
  // sorted by (file, line, rule, message) regardless.
  const std::vector<std::string> files = {fixture("seed_reuse.cpp"),
                                          fixture("calib_leakage.cpp")};
  const auto diags = vmincqr::lint::lint_files(files);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_NE(diags[0].file.find("calib_leakage"), std::string::npos);
  EXPECT_NE(diags[1].file.find("seed_reuse"), std::string::npos);
}

TEST(lint, ParallelLintSarifIsByteIdenticalAcrossThreadWidths) {
  const std::vector<std::string> files = lintable_fixture_files();
  ASSERT_GT(files.size(), 10u);
  vmincqr::parallel::set_max_threads(1);
  const std::string narrow =
      vmincqr::lint::to_sarif(vmincqr::lint::lint_files(files));
  vmincqr::parallel::set_max_threads(8);
  const std::string wide =
      vmincqr::lint::to_sarif(vmincqr::lint::lint_files(files));
  vmincqr::parallel::set_max_threads(0);  // restore env/hardware resolution
  EXPECT_EQ(narrow, wide);
  // The comparison is meaningful only if the run actually found things.
  EXPECT_NE(narrow.find("\"ruleId\""), std::string::npos);
}

// --- include-graph rules --------------------------------------------------

TEST(lint, LayeringFixtureFiresEachGraphRuleExactlyOnce) {
  const LayerConfig config = load_layers(layering_dir() + "/layers.toml");
  const auto diags = analyze_directory(layering_dir(), config);
  ASSERT_EQ(diags.size(), 3u);
  std::set<std::string> fired;
  for (const auto& d : diags) fired.insert(d.rule);
  EXPECT_EQ(fired, (std::set<std::string>{"layer-violation", "include-cycle",
                                          "unused-include"}));
  for (const auto& rule : vmincqr::lint::graph_rule_table()) {
    EXPECT_TRUE(fired.count(rule.id) == 1)
        << "graph rule '" << rule.id << "' has no layering fixture";
  }
}

TEST(lint, LayerViolationNamesBothModules) {
  const LayerConfig config = load_layers(layering_dir() + "/layers.toml");
  for (const auto& d : analyze_directory(layering_dir(), config)) {
    if (d.rule != "layer-violation") continue;
    EXPECT_NE(d.message.find("'low'"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("'high'"), std::string::npos) << d.message;
    EXPECT_NE(d.file.find("bad.hpp"), std::string::npos) << d.file;
  }
}

TEST(lint, ModuleOfPrefersTheLongestPrefixAndExactFiles) {
  const LayerConfig config = parse_layers(
      "[modules]\n"
      "core_base = [\"core/units.hpp\"]\n"
      "core_app  = [\"core/\"]\n"
      "[allow]\n"
      "core_base = []\n"
      "core_app  = [\"core_base\"]\n");
  EXPECT_EQ(config.module_of("core/units.hpp"), "core_base");
  EXPECT_EQ(config.module_of("core/pipeline.hpp"), "core_app");
  EXPECT_EQ(config.module_of("elsewhere/x.hpp"), "");
  EXPECT_TRUE(config.edge_allowed("core_app", "core_app"));  // self-edge
  EXPECT_TRUE(config.edge_allowed("core_app", "core_base"));
  EXPECT_FALSE(config.edge_allowed("core_base", "core_app"));
}

TEST(lint, ParseLayersRejectsMalformedInput) {
  EXPECT_THROW(parse_layers("[typo]\n"), std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = not-a-list\n"),
               std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = [\"a/\"]\n[allow]\nb = []\n"),
               std::runtime_error);
  EXPECT_THROW(parse_layers("[modules]\na = [\"a/\"]\n[allow]\na = [\"b\"]\n"),
               std::runtime_error);
}

TEST(lint, RealTreeSatisfiesTheLayeringDag) {
  const LayerConfig config = load_layers(VMINCQR_LINT_LAYERS_TOML);
  EXPECT_FALSE(config.modules.empty());
  for (const auto& d : analyze_directory(VMINCQR_LINT_SRC_DIR, config)) {
    ADD_FAILURE() << vmincqr::lint::format(d);
  }
}

TEST(lint, RealTreeIsClean) {
  std::vector<std::string> files;
  for (const auto& entry :
       fs::recursive_directory_iterator(VMINCQR_LINT_SRC_DIR)) {
    if (entry.is_regular_file() &&
        vmincqr::lint::is_lintable(entry.path().string())) {
      files.push_back(entry.path().string());
    }
  }
  ASSERT_GT(files.size(), 50u) << "src tree not found where expected";
  for (const auto& file : files) {
    const auto diags = lint_file(file);
    for (const auto& d : diags) ADD_FAILURE() << vmincqr::lint::format(d);
  }
}

// --- pass 3: cross-TU call graph ------------------------------------------

TEST(lint, CallGraphFixtureFiresEveryCallGraphRuleExactlyOnce) {
  const auto analysis =
      analyze_call_graph_directory(callgraph_dir(), callgraph_fixture_options());
  std::string dump;
  for (const auto& d : analysis.diagnostics) {
    dump += vmincqr::lint::format(d) + "\n";
  }
  ASSERT_EQ(analysis.diagnostics.size(), 4u) << dump;
  std::set<std::string> fired;
  for (const auto& d : analysis.diagnostics) {
    EXPECT_TRUE(fired.insert(d.rule).second)
        << "rule fired twice: " << d.rule << "\n" << dump;
  }
  std::set<std::string> expected;
  for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
    expected.insert(rule.id);
  }
  EXPECT_EQ(fired, expected) << dump;
}

TEST(lint, CallLayerViolationAnchorsAtTheServeRoot) {
  const auto analysis =
      analyze_call_graph_directory(callgraph_dir(), callgraph_fixture_options());
  bool seen = false;
  for (const auto& d : analysis.diagnostics) {
    if (d.rule != "call-layer-violation") continue;
    seen = true;
    // Reported against the serve-module root's first call edge, not the TU
    // that textually contains the fit() call.
    EXPECT_NE(d.file.find("serve/handler.cpp"), std::string::npos) << d.file;
    EXPECT_NE(d.message.find("'handle_request'"), std::string::npos);
    EXPECT_NE(d.message.find("module 'serve'"), std::string::npos);
    EXPECT_NE(d.message.find("handle_request -> refresh_model -> fit"),
              std::string::npos)
        << d.message;
  }
  EXPECT_TRUE(seen);
}

TEST(lint, CallGraphResolvesOverloadsByArityWithConservativeFallback) {
  const std::vector<SourceFile> files = {
      {"a.cpp", "a.cpp",
       "double scale(double x) { return x; }\n"
       "double scale(double x, double y) { return x + y; }\n"
       "double use1(double v) { return scale(v); }\n"
       "double use3(double v) { return scale(v, v, v); }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 4u);
  bool saw_exact = false;
  bool saw_fallback = false;
  for (const auto& c : g.calls()) {
    if (c.name != "scale") continue;
    if (c.arity == 1) {
      saw_exact = true;
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    }
    if (c.arity == 3) {
      // No overload admits 3 arguments: the call falls back to the whole
      // visible set rather than silently dropping the edge.
      saw_fallback = true;
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    }
  }
  EXPECT_TRUE(saw_exact);
  EXPECT_TRUE(saw_fallback);
}

TEST(lint, CallGraphPrefersMemberAndQualifiedDefinitions) {
  const std::vector<SourceFile> files = {
      {"m.cpp", "m.cpp",
       "struct Model {\n"
       "  double update(double x) { return x; }\n"
       "};\n"
       "double update(double x) { return x + 1.0; }\n"
       "double use_member(Model& m, double v) { return m.update(v); }\n"
       "double use_qualified(double v) { return Model::update(v); }\n"
       "double use_free(double v) { return update(v); }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 5u);
  EXPECT_EQ(g.defs()[0].display, "Model::update");
  for (const auto& c : g.calls()) {
    if (c.name != "update") continue;
    if (c.member || c.qualifier == "Model") {
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    } else {
      // An unqualified call cannot rule the member out: both survive.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    }
  }
}

TEST(lint, CallGraphTreatsExternalCallsAsLeaves) {
  const std::vector<SourceFile> files = {
      {"x.cpp", "x.cpp",
       "double probe(std::vector<double>& xs, double v) {\n"
       "  std::sort(xs.begin(), xs.end());\n"
       "  return mystery_helper(v);\n"
       "}\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  bool saw_unresolved = false;
  for (const auto& c : g.calls()) {
    EXPECT_NE(c.name, "sort");  // std:: never enters the graph
    if (c.name == "mystery_helper") {
      saw_unresolved = true;
      EXPECT_TRUE(c.callees.empty());
    }
  }
  EXPECT_TRUE(saw_unresolved);
}

TEST(lint, ReachabilityTerminatesOnCycles) {
  const std::vector<SourceFile> files = {
      {"c.cpp", "c.cpp",
       "double ping(double x) { return pong(x) + 1.0; }\n"
       "double pong(double x) { return ping(x) - 1.0; }\n"}};
  const CallGraph g = CallGraph::build(files, LayerConfig{});
  ASSERT_EQ(g.defs().size(), 2u);
  EXPECT_EQ(g.reachable_from({0}), (std::set<std::size_t>{0, 1}));
  EXPECT_EQ(g.reachable_from({1}), (std::set<std::size_t>{0, 1}));
}

TEST(lint, LayerVisibilityScopesCallResolution) {
  const LayerConfig cfg = parse_layers(
      "[modules]\n"
      "low  = [\"low/\"]\n"
      "high = [\"high/\"]\n"
      "[allow]\n"
      "low  = []\n"
      "high = [\"low\"]\n");
  const std::vector<SourceFile> files = {
      {"low/a.cpp", "low/a.cpp", "double helper(double x) { return x; }\n"},
      {"high/b.cpp", "high/b.cpp",
       "double helper(double x) { return x * 2.0; }\n"
       "double drive(double v) { return helper(v); }\n"},
      {"low/c.cpp", "low/c.cpp",
       "double blind(double v) { return helper(v); }\n"}};
  const CallGraph g = CallGraph::build(files, cfg);
  for (const auto& c : g.calls()) {
    if (c.name != "helper") continue;
    if (g.module_of_tu(c.tu) == "high") {
      // high may include low: both definitions stay candidates.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0, 1}));
    } else {
      // low cannot include high, so the high-module overload is invisible.
      EXPECT_EQ(c.callees, (std::vector<std::size_t>{0}));
    }
  }
}

TEST(lint, CallGraphFindingsHonorAllowSuppressions) {
  // predict() is a numeric entry point and never examines its divisor.
  const std::string bad =
      "double predict(double num, double den) {\n"
      "  return num / den;\n"
      "}\n";
  const auto fired =
      analyze_call_graph({{"p.cpp", "p.cpp", bad}}, CallGraphOptions{});
  ASSERT_EQ(fired.diagnostics.size(), 1u);
  EXPECT_EQ(fired.diagnostics[0].rule, "unguarded-division");
  const std::string suppressed =
      "double predict(double num, double den) {\n"
      "  // vmincqr-lint: allow(unguarded-division)\n"
      "  return num / den;\n"
      "}\n";
  const auto silent =
      analyze_call_graph({{"p.cpp", "p.cpp", suppressed}}, CallGraphOptions{});
  EXPECT_TRUE(silent.diagnostics.empty());
}

TEST(lint, CallGraphSarifIsByteIdenticalAcrossThreadWidths) {
  const CallGraphOptions opts = callgraph_fixture_options();
  vmincqr::parallel::set_max_threads(1);
  const auto narrow = analyze_call_graph_directory(callgraph_dir(), opts);
  const std::string narrow_sarif = vmincqr::lint::to_sarif(narrow.diagnostics);
  vmincqr::parallel::set_max_threads(8);
  const auto wide = analyze_call_graph_directory(callgraph_dir(), opts);
  const std::string wide_sarif = vmincqr::lint::to_sarif(wide.diagnostics);
  vmincqr::parallel::set_max_threads(0);  // restore env/hardware resolution
  EXPECT_EQ(narrow_sarif, wide_sarif);
  // The comparison is meaningful only when the run found things.
  EXPECT_NE(narrow_sarif.find("\"ruleId\""), std::string::npos);
}

// --- SARIF output ---------------------------------------------------------

// Minimal structural JSON check: braces/brackets balance outside string
// literals and every string terminates. Enough to catch broken escaping or
// a missing comma brace without a JSON library.
bool looks_like_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      } else if (c == '\n') {
        return false;  // raw newline inside a string
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(lint, SarifHasTheRequiredShape) {
  const std::vector<Diagnostic> diags = {
      {"src/a.cpp", 3, "no-endl", "use \"\\n\""},
      {"src/b.hpp", 0, "pragma-once", "missing"},
  };
  const std::string sarif = vmincqr::lint::to_sarif(diags);
  EXPECT_TRUE(looks_like_json(sarif));
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"vmincqr_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"no-endl\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"pragma-once\""), std::string::npos);
  // Line 0 (whole-file diagnostics) must clamp to SARIF's 1-based minimum.
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos);
  // The quote in the message must arrive escaped.
  EXPECT_NE(sarif.find("use \\\"\\\\n\\\""), std::string::npos);
}

TEST(lint, SarifListsEveryRuleEvenWhenClean) {
  const std::string sarif = vmincqr::lint::to_sarif({});
  EXPECT_TRUE(looks_like_json(sarif));
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
  for (const auto& rule : vmincqr::lint::rule_table()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  for (const auto& rule : vmincqr::lint::graph_rule_table()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  for (const auto& rule : vmincqr::lint::callgraph_rule_table()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
}

TEST(lint, EveryGoldenFixtureYieldsASarifResult) {
  for (const auto& test_case : kGolden) {
    const std::string sarif =
        vmincqr::lint::to_sarif(lint_file(fixture(test_case.file)));
    EXPECT_TRUE(looks_like_json(sarif)) << test_case.file;
    EXPECT_NE(sarif.find("\"ruleId\": \"" + std::string(test_case.rule) +
                         "\""),
              std::string::npos)
        << test_case.file;
  }
}

TEST(lint, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(vmincqr::lint::json_escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(vmincqr::lint::json_escape(std::string(1, '\x01')), "\\u0001");
}

// --- --fix ----------------------------------------------------------------

TEST(lint, FixRewritesEndlToNewlineLiteral) {
  const std::string before =
      "#include <iostream>\n"
      "void log_it() {\n"
      "  std::cout << 1 << std::endl;\n"
      "  std::cout << 2 << endl;\n"
      "}\n";
  const std::string after = vmincqr::lint::apply_fixes("probe.cpp", before);
  EXPECT_EQ(after.find("endl"), std::string::npos);
  EXPECT_NE(after.find("<< \"\\n\";"), std::string::npos);
  // The fixed text lints clean for no-endl.
  for (const auto& d : lint_source("probe.cpp", after)) {
    EXPECT_NE(d.rule, "no-endl") << vmincqr::lint::format(d);
  }
}

TEST(lint, FixInsertsPragmaOnceAfterLeadingComment) {
  const std::string before =
      "// A header that forgot its guard.\n"
      "\n"
      "struct Probe {};\n";
  const std::string after = vmincqr::lint::apply_fixes("probe.hpp", before);
  EXPECT_NE(after.find("#pragma once"), std::string::npos);
  // The comment stays on top; the pragma lands before the first declaration.
  EXPECT_LT(after.find("// A header"), after.find("#pragma once"));
  EXPECT_LT(after.find("#pragma once"), after.find("struct Probe"));
  for (const auto& d : lint_source("probe.hpp", after)) {
    EXPECT_NE(d.rule, "pragma-once") << vmincqr::lint::format(d);
  }
  // .cpp files never receive a pragma.
  EXPECT_EQ(vmincqr::lint::apply_fixes("probe.cpp", before), before);
}

TEST(lint, FixesAreIdempotent) {
  // --fix must converge in one pass: a fix that keeps rewriting would fight
  // every editor save. Every fixture file is an input, dirty ones included.
  std::vector<std::pair<std::string, std::string>> inputs = {
      {"probe.hpp", "// doc\nstruct Probe {};\n"},
      {"probe.hpp",
       "#include <iostream>\nvoid f() { std::cout << std::endl; }\n"},
      {"probe.hpp", "#pragma once\nstruct Ok {};\n"},
  };
  for (const auto& path : lintable_fixture_files()) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    inputs.emplace_back(path, content.str());
  }
  ASSERT_GT(inputs.size(), 20u);
  for (const auto& [path, before] : inputs) {
    const std::string once = vmincqr::lint::apply_fixes(path, before);
    const std::string twice = vmincqr::lint::apply_fixes(path, once);
    EXPECT_EQ(once, twice) << path;
  }
}

TEST(lint, FixRespectsAllowSuppressions) {
  const std::string before =
      "void f() {\n"
      "  std::cout << std::endl;  // vmincqr-lint: allow(no-endl)\n"
      "}\n";
  EXPECT_EQ(vmincqr::lint::apply_fixes("probe.cpp", before), before);
  // A header with no directive at all: pragma-once reports at line 1, so an
  // allow() there must stop the rewrite too.
  const std::string bare =
      "// vmincqr-lint: allow(pragma-once)\n"
      "struct Probe {};\n";
  EXPECT_TRUE(lint_source("probe.hpp", bare).empty());
  EXPECT_EQ(vmincqr::lint::apply_fixes("probe.hpp", bare), bare);
}

}  // namespace
