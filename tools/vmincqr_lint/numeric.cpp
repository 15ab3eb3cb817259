#include "numeric.hpp"

#include <cstdlib>
#include <set>
#include <utility>

#include "parse.hpp"

namespace vmincqr::lint {
namespace {

/// True when the numeric literal text denotes a nonzero value.
bool nonzero_literal(const std::string& text) {
  return std::strtod(text.c_str(), nullptr) != 0.0;
}

const std::set<std::string>& comparison_ops() {
  static const std::set<std::string> ops = {"==", "!=", "<", ">", "<=", ">="};
  return ops;
}

/// Names the function guards against zero before dividing: identifiers that
/// appear next to a comparison operator, inside a VMINCQR_*/check_*/assert
/// argument list, or that are pinned to a nonzero literal. Deliberately
/// over-approximates "guarded" (a comparison anywhere in the function
/// counts), so unguarded-division only fires when a divisor is never
/// examined at all.
std::set<std::string> guarded_names(const std::vector<Token>& t,
                                    std::size_t first, std::size_t last) {
  std::set<std::string> guarded;
  for (std::size_t i = first; i <= last && i < t.size(); ++i) {
    if (comparison_ops().count(t[i].text) > 0) {
      if (i > first && t[i - 1].kind == TokKind::kIdent) {
        guarded.insert(t[i - 1].text);
      }
      if (i + 1 <= last && t[i + 1].kind == TokKind::kIdent) {
        guarded.insert(t[i + 1].text);
      }
      continue;
    }
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& x = t[i].text;
    // Contract/assert argument lists: everything inside is "examined".
    if ((x.rfind("VMINCQR_", 0) == 0 || x.rfind("check_", 0) == 0 ||
         x == "assert") &&
        i + 1 <= last && t[i + 1].text == "(") {
      const std::size_t close = match_forward(t, i + 1);
      for (std::size_t k = i + 2; k < close && k <= last; ++k) {
        if (t[k].kind == TokKind::kIdent) guarded.insert(t[k].text);
      }
      continue;
    }
    // `name = <nonzero literal>` / `Type name(<nonzero literal>)` /
    // `Type name{<nonzero literal>}`: the divisor is pinned by construction.
    if (i + 2 <= last &&
        (t[i + 1].text == "=" || t[i + 1].text == "(" ||
         t[i + 1].text == "{") &&
        (t[i + 2].kind == TokKind::kInt || t[i + 2].kind == TokKind::kFloat) &&
        nonzero_literal(t[i + 2].text)) {
      guarded.insert(x);
    }
  }
  return guarded;
}

/// Token ranges of loop bodies (for/while/do) inside [first, last].
std::vector<std::pair<std::size_t, std::size_t>> loop_ranges(
    const std::vector<Token>& t, std::size_t first, std::size_t last) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = first; i <= last && i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    if (t[i].text == "do") {
      if (i + 1 <= last && t[i + 1].text == "{") {
        out.emplace_back(i + 1, match_forward(t, i + 1));
      }
      continue;
    }
    if (t[i].text != "for" && t[i].text != "while") continue;
    if (i + 1 > last || t[i + 1].text != "(") continue;
    const std::size_t head_close = match_forward(t, i + 1);
    if (head_close >= t.size() || head_close + 1 > last) continue;
    if (t[head_close + 1].text == "{") {
      out.emplace_back(head_close + 1, match_forward(t, head_close + 1));
    } else {
      std::size_t j = head_close + 1;
      int depth = 0;
      while (j <= last && j < t.size()) {
        const std::string& x = t[j].text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        if (x == ")" || x == "]" || x == "}") --depth;
        if (x == ";" && depth == 0) break;
        ++j;
      }
      out.emplace_back(head_close + 1, j);
    }
  }
  return out;
}

bool adjacent(const Token& a, const Token& b) {
  return a.offset + a.text.size() == b.offset;
}

}  // namespace

void numeric_rules_for_function(const std::string& path, const Unit& unit,
                                std::size_t params_open,
                                std::size_t body_first, std::size_t body_last,
                                const std::string& display,
                                std::vector<Diagnostic>& out) {
  const auto& t = unit.tokens;
  if (body_last >= t.size() || params_open >= t.size()) return;

  // --- fp-narrowing + float locals (shared scan) -------------------------
  std::set<std::string> float_locals;
  for (std::size_t i = params_open; i <= body_last; ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "float") continue;
    // static_cast<float>(...)
    if (i >= 2 && t[i - 1].text == "<" && t[i - 2].text == "static_cast") {
      out.push_back({path, t[i].line, "fp-narrowing",
                     "static_cast<float> narrows double-precision state in "
                     "predict/fit-reachable function '" +
                         display + "'; keep double"});
      continue;
    }
    // C cast: ( float )
    if (i >= 1 && i + 1 <= body_last && t[i - 1].text == "(" &&
        t[i + 1].text == ")") {
      out.push_back({path, t[i].line, "fp-narrowing",
                     "(float) cast narrows double-precision state in "
                     "predict/fit-reachable function '" +
                         display + "'; keep double"});
      continue;
    }
    // Declaration: `float name ...` inside the body.
    if (i < body_first || i + 1 > body_last ||
        t[i + 1].kind != TokKind::kIdent) {
      continue;
    }
    const std::string& name = t[i + 1].text;
    std::size_t init_first = 0, init_last = 0;  // [first, last) initializer
    if (i + 2 <= body_last) {
      const std::string& after = t[i + 2].text;
      if (after == "=") {
        init_first = i + 3;
        init_last = init_first;
        int depth = 0;
        while (init_last <= body_last) {
          const std::string& x = t[init_last].text;
          if (x == "(" || x == "[" || x == "{") ++depth;
          if (x == ")" || x == "]" || x == "}") --depth;
          if ((x == ";" || x == ",") && depth == 0) break;
          ++init_last;
        }
      } else if (after == "(" || after == "{") {
        init_first = i + 3;
        init_last = match_forward(t, i + 2);
      } else if (after != ";") {
        continue;  // not a declaration (e.g. `float` in a template argument)
      }
    }
    float_locals.insert(name);
    // An initializer that is anything but a single float/int literal pulls
    // a wider expression down to float.
    const bool literal_init =
        init_last == init_first + 1 && (t[init_first].kind == TokKind::kFloat ||
                                        t[init_first].kind == TokKind::kInt);
    if (init_last > init_first && !literal_init) {
      out.push_back({path, t[i].line, "fp-narrowing",
                     "'float " + name +
                         "' is initialized from a wider expression in "
                         "predict/fit-reachable function '" +
                         display + "'; keep double"});
    }
  }

  // --- float-accumulator -------------------------------------------------
  if (!float_locals.empty()) {
    const auto loops = loop_ranges(t, body_first + 1, body_last);
    auto in_loop = [&](std::size_t i) {
      for (const auto& [lo, hi] : loops) {
        if (i >= lo && i <= hi) return true;
      }
      return false;
    };
    std::set<std::pair<std::size_t, std::string>> fired;
    for (std::size_t i = body_first + 1; i < body_last; ++i) {
      if (t[i].kind != TokKind::kIdent ||
          float_locals.count(t[i].text) == 0 || !in_loop(i)) {
        continue;
      }
      const std::string& name = t[i].text;
      bool accum = false;
      if (i + 2 <= body_last && t[i + 2].text == "=" &&
          adjacent(t[i + 1], t[i + 2]) &&
          (t[i + 1].text == "+" || t[i + 1].text == "-" ||
           t[i + 1].text == "*" || t[i + 1].text == "/")) {
        accum = true;  // name += ... (compound assignment)
      } else if (i + 2 <= body_last && t[i + 1].text == "=" &&
                 t[i + 2].text == name) {
        accum = true;  // name = name + ...
      }
      if (accum && fired.insert({t[i].line, name}).second) {
        out.push_back({path, t[i].line, "float-accumulator",
                       "'" + name +
                           "' accumulates in float inside a loop in "
                           "predict/fit-reachable function '" +
                           display + "'; accumulate in double"});
      }
    }
  }

  // --- unguarded-division -------------------------------------------------
  const std::set<std::string> guarded =
      guarded_names(t, params_open, body_last);
  std::set<std::pair<std::size_t, std::string>> fired_div;
  for (std::size_t i = body_first + 1; i < body_last; ++i) {
    if (t[i].text != "/") continue;
    std::size_t d = i + 1;
    if (d < body_last && t[d].text == "=" && adjacent(t[i], t[d])) {
      ++d;  // `a /= n` divides by n too
    }
    if (d >= body_last || t[d].kind != TokKind::kIdent) continue;
    // Only plain-identifier divisors: a member access, call, subscript, or
    // qualified name is an expression we cannot reason about — skip to keep
    // the rule precise.
    if (d + 1 <= body_last) {
      const std::string& after = t[d + 1].text;
      if (after == "(" || after == "[" || after == "." || after == "->" ||
          after == "::") {
        continue;
      }
    }
    const std::string& name = t[d].text;
    if (guarded.count(name) > 0) continue;
    if (fired_div.insert({t[d].line, name}).second) {
      out.push_back(
          {path, t[d].line, "unguarded-division",
           "division by '" + name + "' in '" + display +
               "' is never compared or contract-checked in this function; "
               "guard it (e.g. VMINCQR_REQUIRE(" + name +
               " > 0)) before dividing"});
    }
  }
}

}  // namespace vmincqr::lint
