#include "dataflow.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "parse.hpp"

namespace vmincqr::lint {
namespace {

std::string lower(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

/// Identifiers that contain "calib" but name state flags or verbs, not
/// calibration data; they must not seed the taint set.
bool calib_denied(const std::string& name) {
  static const std::set<std::string> deny = {
      "calibrated", "calibrated_", "uncalibrated", "recalibrated",
      "is_calibrated"};
  return deny.count(name) > 0;
}

/// True for identifiers that name calibration data: they contain "calib",
/// are not a call (next token is not '('), and are not a known flag/verb.
bool is_calib_source(const std::vector<Token>& t, std::size_t i) {
  if (t[i].kind != TokKind::kIdent) return false;
  if (lower(t[i].text).find("calib") == std::string::npos) return false;
  if (calib_denied(t[i].text)) return false;
  if (i + 1 < t.size() && t[i + 1].text == "(") return false;  // a call
  return true;
}

/// fit-family entry points that must never see calibration rows. Note
/// `fit_with_split` and `calibrate` are deliberately absent: they are the
/// sanctioned APIs whose contract is to receive the calibration part.
bool is_fit_callee(const std::string& name) {
  return name == "fit" || name == "fit_transform";
}

/// Type names whose construction consumes an RNG seed (`Rng`, the std
/// engines).
bool is_engine_type(const std::string& name) {
  static const std::set<std::string> engines = {
      "Rng",          "mt19937", "mt19937_64", "minstd_rand",
      "minstd_rand0", "ranlux24", "ranlux48", "default_random_engine"};
  return engines.count(name) > 0;
}

/// One statement inside a function scope as a token-index range
/// [begin, end); statements are split at top-level ';' and at braces.
struct Stmt {
  std::size_t begin;
  std::size_t end;
};

std::vector<Stmt> split_statements(const std::vector<Token>& t,
                                   const FunctionScope& scope) {
  std::vector<Stmt> stmts;
  std::size_t start = scope.first + 1;
  for (std::size_t i = start; i < scope.last; ++i) {
    const std::string& x = t[i].text;
    const bool boundary =
        (x == ";" && t[i].paren_depth == 0) || x == "{" || x == "}";
    if (boundary) {
      if (i > start) stmts.push_back({start, i});
      start = i + 1;
    }
  }
  if (scope.last > start) stmts.push_back({start, scope.last});
  return stmts;
}

// -------------------------------------------------------------------------
// calib-leakage
// -------------------------------------------------------------------------

/// Forward taint pass over one scope: identifiers bound from calibration
/// data become tainted; a tainted identifier inside a fit() argument list is
/// a leak. Binding forms recognized: `T name = rhs;`, `name = rhs;`,
/// `T name(rhs);`, and element writes `name[i] = rhs;`.
void rule_calib_leakage(const std::string& path, const Unit& unit,
                        const FunctionScope& scope,
                        std::vector<Diagnostic>& out) {
  const auto& t = unit.tokens;
  std::set<std::string> tainted;

  auto rhs_tainted = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      if (is_calib_source(t, i) || tainted.count(t[i].text) > 0) return true;
    }
    return false;
  };

  for (const Stmt& s : split_statements(t, scope)) {
    // Binding through '=' at top level of the statement.
    std::size_t eq = s.end;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (t[i].text == "=" && t[i].paren_depth == 0) {
        eq = i;
        break;
      }
    }
    if (eq != s.end) {
      // LHS with subscripts or member access mutates the *first* named
      // object; a plain declaration/assignment binds the *last* identifier.
      bool compound = false;
      std::string first_ident, last_ident;
      for (std::size_t i = s.begin; i < eq; ++i) {
        if (t[i].kind == TokKind::kIdent) {
          if (first_ident.empty()) first_ident = t[i].text;
          last_ident = t[i].text;
        }
        if (t[i].text == "[" || t[i].text == "." || t[i].text == "->") {
          compound = true;
        }
      }
      const std::string& bound = compound ? first_ident : last_ident;
      if (!bound.empty() && rhs_tainted(eq + 1, s.end)) tainted.insert(bound);
    } else if (s.end - s.begin >= 4 && t[s.begin].kind == TokKind::kIdent &&
               t[s.begin + 1].kind == TokKind::kIdent &&
               t[s.begin + 2].text == "(") {
      // Constructor-style declaration: `Type name(args);` — scan only this
      // declarator's argument list, not any later `, other(args)` siblings.
      std::size_t close = s.begin + 2;
      int depth = 0;
      for (; close < s.end; ++close) {
        if (t[close].text == "(") ++depth;
        if (t[close].text == ")" && --depth == 0) break;
      }
      if (rhs_tainted(s.begin + 3, close)) tainted.insert(t[s.begin + 1].text);
    }

    // Leak detection: any fit-family call whose argument list mentions a
    // tainted identifier or a direct calibration source.
    for (std::size_t i = s.begin; i + 1 < s.end; ++i) {
      if (t[i].kind != TokKind::kIdent || !is_fit_callee(t[i].text)) continue;
      if (t[i + 1].text != "(") continue;
      int depth = 0;
      for (std::size_t j = i + 1; j < s.end; ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")" && --depth == 0) break;
        if (t[j].kind != TokKind::kIdent) continue;
        if (is_calib_source(t, j) || tainted.count(t[j].text) > 0) {
          out.push_back(
              {path, t[i].line, "calib-leakage",
               "calibration data '" + t[j].text + "' flows into '" +
                   t[i].text +
                   "(...)'; fitting on calibration rows voids the conformal "
                   "coverage guarantee (use fit_with_split/calibrate)"});
          break;
        }
      }
    }
  }
}

// -------------------------------------------------------------------------
// seed-reuse
// -------------------------------------------------------------------------

/// Two RNG constructions fed the same literal or variable seed inside one
/// scope produce perfectly correlated "independent" streams.
void rule_seed_reuse(const std::string& path, const Unit& unit,
                     const FunctionScope& scope,
                     std::vector<Diagnostic>& out) {
  const auto& t = unit.tokens;
  std::map<std::string, std::size_t> seen;  // seed expr -> first line
  for (std::size_t i = scope.first + 1; i < scope.last; ++i) {
    if (t[i].kind != TokKind::kIdent || !is_engine_type(t[i].text)) continue;
    // `Rng name(seed)` declaration or `Rng(seed)` temporary.
    std::size_t open;
    if (i + 2 < scope.last && t[i + 1].kind == TokKind::kIdent &&
        t[i + 2].text == "(") {
      open = i + 2;
    } else if (i + 1 < scope.last && t[i + 1].text == "(") {
      open = i + 1;
    } else {
      continue;
    }
    std::string key;
    int depth = 0;
    for (std::size_t j = open; j < scope.last; ++j) {
      if (t[j].text == "(" && depth++ == 0) continue;
      if (t[j].text == ")" && --depth == 0) break;
      if (!key.empty()) key += ' ';
      key += t[j].text;
    }
    if (key.empty()) continue;  // copy/fork or default construction
    const auto [it, fresh] = seen.emplace(key, t[i].line);
    if (!fresh) {
      out.push_back(
          {path, t[i].line, "seed-reuse",
           "seed '" + key + "' already constructed an RNG at line " +
               std::to_string(it->second) +
               " in this scope; reusing it correlates streams that must be "
               "independent (fork() a child or derive a distinct seed)"});
    }
  }
}

// -------------------------------------------------------------------------
// unseeded-rng
// -------------------------------------------------------------------------

/// Default-constructed std engines and std::random_device give
/// platform-dependent streams; all randomness must come from an explicitly
/// seeded rng::Rng so experiments replay bit-identically.
void rule_unseeded_rng(const std::string& path, const Unit& unit,
                       const std::vector<FunctionScope>& scopes,
                       std::vector<Diagnostic>& out) {
  const auto& t = unit.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "random_device") {
      out.push_back({path, t[i].line, "unseeded-rng",
                     "std::random_device is nondeterministic; derive seeds "
                     "explicitly (rng::Rng::fork or a config seed)"});
      continue;
    }
  }
  // Default-constructed engine locals: `mt19937_64 gen;` inside a function.
  for (const FunctionScope& scope : scopes) {
    for (const Stmt& s : split_statements(t, scope)) {
      if (s.end - s.begin != 2) continue;
      if (t[s.begin].kind != TokKind::kIdent ||
          t[s.begin + 1].kind != TokKind::kIdent) {
        continue;
      }
      // Allow qualification: `std :: mt19937_64 gen ;` has 4 tokens; handle
      // both by checking the token right before the variable name.
      if (!is_engine_type(t[s.begin].text)) continue;
      out.push_back({path, t[s.begin].line, "unseeded-rng",
                     "'" + t[s.begin].text + " " + t[s.begin + 1].text +
                         "' is default-constructed; every RNG must take an "
                         "explicit seed"});
    }
    // Qualified form: `std :: engine name ;` — four tokens.
    for (const Stmt& s : split_statements(t, scope)) {
      if (s.end - s.begin != 4) continue;
      if (t[s.begin].text != "std" || t[s.begin + 1].text != "::") continue;
      if (t[s.begin + 2].kind != TokKind::kIdent ||
          !is_engine_type(t[s.begin + 2].text)) {
        continue;
      }
      if (t[s.begin + 3].kind != TokKind::kIdent) continue;
      out.push_back({path, t[s.begin + 2].line, "unseeded-rng",
                     "'std::" + t[s.begin + 2].text + " " +
                         t[s.begin + 3].text +
                         "' is default-constructed; every RNG must take an "
                         "explicit seed"});
    }
  }
}

}  // namespace

std::vector<Diagnostic> dataflow_rules(const std::string& path,
                                       const Unit& unit) {
  std::vector<Diagnostic> out;
  const auto scopes = function_scopes(unit);
  for (const FunctionScope& scope : scopes) {
    rule_calib_leakage(path, unit, scope, out);
    rule_seed_reuse(path, unit, scope, out);
  }
  rule_unseeded_rng(path, unit, scopes, out);
  return out;
}

}  // namespace vmincqr::lint
