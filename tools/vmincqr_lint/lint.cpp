#include "lint.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/experiment.hpp"
#include "dataflow.hpp"
#include "token.hpp"

namespace vmincqr::lint {
namespace {

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

bool is_header(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

struct Ctx {
  const std::string& path;
  const Unit& unit;
  bool header;
  std::vector<Diagnostic>& out;

  void report(const char* rule, std::size_t line, std::string message) const {
    out.push_back({path, line, rule, std::move(message)});
  }
};

/// pragma-once: every header's first preprocessor directive must be
/// `#pragma once`; a header with no include guard at all also fires.
void rule_pragma_once(const Ctx& ctx) {
  if (!ctx.header) return;
  if (!ctx.unit.directives.empty() &&
      ctx.unit.directives.front().second == "#pragma once") {
    return;
  }
  const std::size_t line =
      ctx.unit.directives.empty() ? 1 : ctx.unit.directives.front().first;
  ctx.report("pragma-once", line,
             "header must open with '#pragma once' (before any other "
             "directive)");
}

/// using-namespace-header: `using namespace` in a header leaks into every
/// includer and defeats the strong-type qualification this repo relies on.
void rule_using_namespace(const Ctx& ctx) {
  if (!ctx.header) return;
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text == "using" && t[i + 1].text == "namespace") {
      ctx.report("using-namespace-header", t[i].line,
                 "'using namespace' is forbidden in headers");
    }
  }
}

/// no-rand: libc rand()/srand() is not reproducible across platforms; all
/// randomness must flow through rng::Rng so experiments are seed-stable.
void rule_no_rand(const Ctx& ctx) {
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text != "rand" && t[i].text != "srand") continue;
    if (t[i + 1].text != "(") continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
    // An identifier right before means this is a declaration ("int rand();"),
    // not a call; std::rand() still fires because the previous token is "::",
    // and "return rand()" fires because statement keywords are not types.
    static const std::set<std::string> stmt_keywords = {
        "return", "co_return", "co_yield", "else",  "do",    "case",
        "throw",  "new",       "delete",   "sizeof", "while", "and",
        "or",     "not"};
    if (i > 0 && t[i - 1].kind == TokKind::kIdent &&
        stmt_keywords.count(t[i - 1].text) == 0) {
      continue;
    }
    ctx.report("no-rand", t[i].line,
               "use rng::Rng instead of libc " + t[i].text + "()");
  }
}

/// no-endl: std::endl flushes on every call; "\n" is what hot logging paths
/// want (performance-avoid-endl, promoted to a hard repo rule).
void rule_no_endl(const Ctx& ctx) {
  for (const auto& tok : ctx.unit.tokens) {
    if (tok.kind == TokKind::kIdent && tok.text == "endl") {
      ctx.report("no-endl", tok.line, "use \"\\n\" instead of std::endl");
    }
  }
}

/// float-equality: ==/!= against a floating literal is almost always a
/// stability bug in statistical code (conformal ranks, aging power laws).
/// Exact sentinel comparisons must carry an allow() with a justification.
void rule_float_equality(const Ctx& ctx) {
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "==" && t[i].text != "!=") continue;
    const bool lhs = i > 0 && t[i - 1].kind == TokKind::kFloat;
    const bool rhs = i + 1 < t.size() && t[i + 1].kind == TokKind::kFloat;
    if (!lhs && !rhs) continue;
    ctx.report("float-equality", t[i].line,
               "'" + t[i].text +
                   "' against a floating literal; compare with a tolerance "
                   "or justify with an allow()");
  }
}

/// Marks tokens that sit inside a brace block opened *within* the innermost
/// parentheses — a lambda body passed as a call argument. Such tokens have
/// paren_depth >= 1 but are statements, not parameter declarations, so the
/// by-value parameter rules must skip them.
std::vector<bool> lambda_body_mask(const std::vector<Token>& t) {
  std::vector<bool> mask(t.size(), false);
  std::vector<int> brace_at_paren;  // brace depth when each '(' opened
  int brace = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "(") brace_at_paren.push_back(brace);
    if (t[i].text == ")" && !brace_at_paren.empty()) brace_at_paren.pop_back();
    if (t[i].text == "{") ++brace;
    if (t[i].text == "}" && brace > 0) --brace;
    mask[i] = !brace_at_paren.empty() && brace > brace_at_paren.back();
  }
  return mask;
}

const std::set<std::string>& banned_double_names() {
  static const std::set<std::string> names = {"tau", "alpha", "vmin", "temp",
                                              "temperature"};
  return names;
}

/// raw-double-param: public signatures must carry the strong types from
/// core/units.hpp, not raw doubles named after a unit or level.
void rule_raw_double_param(const Ctx& ctx) {
  if (!ctx.header) return;
  const auto& t = ctx.unit.tokens;
  const std::vector<bool> in_lambda = lambda_body_mask(t);
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text != "double" || t[i].paren_depth < 1 || in_lambda[i]) continue;
    if (t[i + 1].kind != TokKind::kIdent) continue;
    if (banned_double_names().count(t[i + 1].text) == 0) continue;
    const std::string& after = t[i + 2].text;
    if (after != "," && after != ")" && after != "=") continue;
    ctx.report("raw-double-param", t[i].line,
               "parameter 'double " + t[i + 1].text +
                   "' must use a strong type from core/units.hpp "
                   "(QuantileLevel, MiscoverageAlpha, Volt, Celsius, ...)");
  }
}

/// matrix-by-value: a Matrix parameter taken by value copies O(n*d) data on
/// every call; pass `const Matrix&` (or a span) instead.
void rule_matrix_by_value(const Ctx& ctx) {
  const auto& t = ctx.unit.tokens;
  const std::vector<bool> in_lambda = lambda_body_mask(t);
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "Matrix") continue;
    if (t[i].paren_depth < 1 || in_lambda[i]) continue;
    if (t[i + 1].kind != TokKind::kIdent) continue;
    const std::string& after = t[i + 2].text;
    if (after != "," && after != ")" && after != "=") continue;
    ctx.report("matrix-by-value", t[i].line,
               "parameter '" + t[i + 1].text +
                   "' takes Matrix by value; pass 'const Matrix&'");
  }
}

const std::set<std::string>& entry_point_names() {
  static const std::set<std::string> names = {
      "fit",          "fit_with_split", "fit_transform", "predict",
      "predict_interval", "predict_point", "predict_sigma", "calibrate"};
  return names;
}

/// contract-coverage: every out-of-line definition of a public fit/predict/
/// calibrate entry point must validate its inputs — a VMINCQR_* contract
/// macro, an explicit throw, or a call to a shared `check_*` validation
/// helper (e.g. Regressor::check_fit_args, which wraps the macros) — so the
/// coverage guarantee cannot be fed malformed data silently.
void rule_contract_coverage(const Ctx& ctx) {
  if (ctx.header) return;
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 2; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].paren_depth != 0) continue;
    if (entry_point_names().count(t[i].text) == 0) continue;
    if (t[i - 1].text != "::") continue;
    if (t[i + 1].text != "(") continue;
    // Skip the parameter list.
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j].text == "(") ++depth;
      if (t[j].text == ")" && --depth == 0) break;
    }
    if (j >= t.size()) return;
    // Accept trailing qualifiers, then require a body.
    ++j;
    while (j < t.size() &&
           (t[j].text == "const" || t[j].text == "noexcept" ||
            t[j].text == "override" || t[j].text == "final")) {
      ++j;
    }
    if (j >= t.size() || t[j].text != "{") continue;  // declaration only
    // Scan the body for a contract.
    int braces = 0;
    bool has_contract = false;
    for (; j < t.size(); ++j) {
      if (t[j].text == "{") ++braces;
      if (t[j].text == "}" && --braces == 0) break;
      if (t[j].kind == TokKind::kIdent &&
          (t[j].text.rfind("VMINCQR_", 0) == 0 ||
           t[j].text.rfind("check_", 0) == 0 || t[j].text == "throw")) {
        has_contract = true;
      }
    }
    if (!has_contract) {
      ctx.report("contract-coverage", t[i].line,
                 "entry point '" + t[i - 2].text + "::" + t[i].text +
                     "' has no VMINCQR_REQUIRE/CHECK_SHAPE contract, "
                     "check_* helper call, or throw; validate inputs at "
                     "the public boundary");
    }
  }
}

const std::set<std::string>& raw_thread_names() {
  static const std::set<std::string> names = {
      "thread",       "jthread", "async",   "atomic",
      "atomic_flag",  "mutex",   "shared_mutex", "recursive_mutex",
      "condition_variable", "condition_variable_any",
      "future",       "promise", "packaged_task",
      "barrier",      "latch",   "counting_semaphore", "binary_semaphore"};
  return names;
}

/// raw-thread: raw std threading primitives are only legal inside
/// src/parallel/ — everywhere else concurrency must go through the
/// deterministic pool (parallel_for / parallel_deterministic_reduce), so
/// the bit-exactness contract stays auditable in one directory.
void rule_raw_thread(const Ctx& ctx) {
  if (ctx.path.find("parallel/") != std::string::npos) return;
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "std") continue;
    if (t[i + 1].text != "::") continue;
    if (raw_thread_names().count(t[i + 2].text) == 0) continue;
    ctx.report("raw-thread", t[i].line,
               "raw 'std::" + t[i + 2].text +
                   "' outside src/parallel/; use the deterministic pool "
                   "(parallel/parallel_for.hpp) so thread-count invariance "
                   "stays provable");
  }
}

/// True when one of `path`'s directory components equals `dir`. Component
/// match (not substring) so a checkout under e.g. /home/toolsmith/ does not
/// exempt everything.
bool in_dir(const std::string& path, const std::string& dir) {
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (path.compare(start, end - start, dir) == 0 && end != path.size()) {
      return true;  // a directory component, not the file name itself
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return false;
}

/// clock-in-hot-path: wall-clock reads outside bench/ and tools/. Timing must
/// never steer library results, so measurement lives in the harnesses.
void rule_clock_in_hot_path(const Ctx& ctx) {
  if (in_dir(ctx.path, "bench") || in_dir(ctx.path, "tools")) return;
  static const std::set<std::string> clocks = {
      "steady_clock",  "system_clock",  "high_resolution_clock",
      "file_clock",    "utc_clock",     "clock_gettime",
      "gettimeofday",  "timespec_get"};
  for (const Token& tok : ctx.unit.tokens) {
    if (tok.kind == TokKind::kIdent && clocks.count(tok.text) > 0) {
      ctx.report("clock-in-hot-path", tok.line,
                 "wall-clock read ('" + tok.text +
                     "') outside bench/ and tools/; timing must never steer "
                     "library results (move measurement into bench/)");
    }
  }
}

/// atomic-outside-parallel: <atomic>/<mutex>-family includes, and atomic or
/// lock names used unqualified, outside src/parallel/. Closes the gap
/// raw-thread leaves: it only sees `std::`-qualified names.
void rule_atomic_outside_parallel(const Ctx& ctx) {
  if (ctx.path.find("parallel/") != std::string::npos) return;  // as raw-thread

  static const std::set<std::string> banned_headers = {
      "atomic",    "mutex",  "shared_mutex", "thread",
      "future",    "condition_variable",     "semaphore",
      "latch",     "barrier", "stop_token"};
  for (const auto& [line, text] : ctx.unit.directives) {
    if (text.rfind("#include", 0) != 0) continue;
    const std::size_t lt = text.find('<');
    const std::size_t gt = text.find('>');
    if (lt == std::string::npos || gt == std::string::npos || gt <= lt) {
      continue;
    }
    const std::string header = text.substr(lt + 1, gt - lt - 1);
    if (banned_headers.count(header) > 0) {
      ctx.report("atomic-outside-parallel", line,
                 "#include <" + header + "> outside src/parallel/; threading "
                 "primitives live behind the deterministic pool "
                 "(parallel/parallel_for.hpp) so the bit-exactness contract "
                 "stays auditable in one directory");
    }
  }

  // Unqualified uses slip past raw-thread, which only sees `std::`-qualified
  // names (e.g. after a `using std::atomic;`).
  static const std::set<std::string> unqualified = {
      "atomic_flag",  "atomic_ref",  "atomic_thread_fence",
      "atomic_signal_fence", "atomic_load", "atomic_store",
      "atomic_exchange",     "atomic_fetch_add", "atomic_fetch_sub",
      "atomic_compare_exchange_weak", "atomic_compare_exchange_strong",
      "lock_guard",   "scoped_lock", "unique_lock", "shared_lock"};
  const auto& t = ctx.unit.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (i > 0 && t[i - 1].text == "::") continue;  // raw-thread's territory
    const bool hit =
        unqualified.count(t[i].text) > 0 ||
        (t[i].text == "atomic" && i + 1 < t.size() && t[i + 1].text == "<");
    if (!hit) continue;
    ctx.report("atomic-outside-parallel", t[i].line,
               "unqualified '" + t[i].text +
                   "' outside src/parallel/; threading primitives live behind "
                   "the deterministic pool (parallel/parallel_for.hpp)");
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_table() {
  static const std::vector<RuleInfo> table = {
      {"pragma-once", "headers must open with #pragma once"},
      {"using-namespace-header", "no 'using namespace' in headers"},
      {"no-rand", "libc rand()/srand() breaks seed-stable experiments"},
      {"no-endl", "std::endl flushes; use \"\\n\""},
      {"float-equality",
       "no ==/!= against floating literals without a justification"},
      {"raw-double-param",
       "public signatures use core/units.hpp strong types, not raw doubles "
       "named tau/alpha/vmin/temp"},
      {"matrix-by-value", "Matrix parameters pass by const reference"},
      {"contract-coverage",
       "fit/predict/calibrate definitions carry a VMINCQR_* contract or "
       "throw"},
      {"calib-leakage",
       "calibration rows must never reach fit(); leakage voids the "
       "conformal coverage guarantee"},
      {"seed-reuse",
       "one seed must not construct two RNGs in one scope; correlated "
       "streams break exchangeability"},
      {"unseeded-rng",
       "every RNG takes an explicit seed; std::random_device and "
       "default-constructed engines are nondeterministic"},
      {"raw-thread",
       "raw std::thread/std::async/std::atomic only inside src/parallel/; "
       "all other code uses the deterministic pool"},
      {"clock-in-hot-path",
       "wall-clock reads only in bench/ and tools/; timing must never steer "
       "library results"},
      {"atomic-outside-parallel",
       "<atomic>/<mutex>-family includes and unqualified atomic uses only "
       "inside src/parallel/ (closes the raw-thread gap)"},
  };
  return table;
}

const std::vector<RuleInfo>& graph_rule_table() {
  static const std::vector<RuleInfo> table = {
      {"layer-violation",
       "include edges must follow the layering DAG declared in layers.toml"},
      {"include-cycle", "project headers must form an acyclic include graph"},
      {"unused-include",
       "a direct include must provide at least one name the TU uses "
       "(IWYU-lite)"},
  };
  return table;
}

const std::vector<RuleInfo>& callgraph_rule_table() {
  static const std::vector<RuleInfo> table = {
      {"call-layer-violation",
       "modules listed in layers.toml [call_forbidden] must not transitively "
       "call the named training symbols, even through legal includes"},
      {"fp-narrowing",
       "no double-to-float narrowing in functions on predict/fit paths"},
      {"float-accumulator",
       "no float loop accumulators in functions on predict/fit paths; "
       "accumulate in double"},
      {"unguarded-division",
       "divisors on predict/fit paths must be compared, contract-checked, or "
       "pinned nonzero before the division"},
  };
  return table;
}

std::vector<Diagnostic> lint_source(const std::string& path,
                                    const std::string& content) {
  const Unit unit = tokenize(content);
  std::vector<Diagnostic> raw;
  Ctx ctx{path, unit, is_header(path), raw};
  rule_pragma_once(ctx);
  rule_using_namespace(ctx);
  rule_no_rand(ctx);
  rule_no_endl(ctx);
  rule_float_equality(ctx);
  rule_raw_double_param(ctx);
  rule_matrix_by_value(ctx);
  rule_contract_coverage(ctx);
  rule_raw_thread(ctx);
  rule_clock_in_hot_path(ctx);
  rule_atomic_outside_parallel(ctx);
  for (auto& d : dataflow_rules(path, unit)) raw.push_back(std::move(d));

  // Apply per-line suppressions: same line or the line directly above.
  std::vector<Diagnostic> kept;
  for (auto& d : raw) {
    if (!is_allowed(unit, d.rule, d.line)) kept.push_back(std::move(d));
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line < b.line;
                   });
  return kept;
}

std::vector<Diagnostic> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("vmincqr_lint: cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str());
}

std::vector<Diagnostic> lint_files(const std::vector<std::string>& paths) {
  // Dogfood the deterministic pool: one task per TU. Each task is a pure
  // function of its file, and the final order is a total sort, so the
  // merged diagnostics are byte-identical at every thread width (asserted
  // by the SARIF invariance test).
  const auto per_file = core::parallel_map<std::vector<Diagnostic>>(
      paths.size(),
      [&](std::size_t i) { return lint_file(paths[i]); });
  std::vector<Diagnostic> out;
  for (const auto& ds : per_file) out.insert(out.end(), ds.begin(), ds.end());
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

bool is_lintable(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return false;
  const std::string ext = path.substr(dot);
  return ext == ".hpp" || ext == ".cpp";
}

std::string format(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

}  // namespace vmincqr::lint
