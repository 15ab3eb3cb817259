#include "callgraph.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/experiment.hpp"
#include "parse.hpp"

namespace vmincqr::lint {
namespace {

namespace fs = std::filesystem;

/// Identifiers that can precede a '(' without being a function name. Keeps
/// both the definition walker and the call-site scanner from mistaking
/// control flow, casts, and declarations for calls.
bool is_non_call_keyword(const std::string& s) {
  static const std::set<std::string> kws = {
      "alignas",      "alignof",        "auto",       "bool",
      "case",         "catch",          "char",       "class",
      "co_await",     "co_return",      "co_yield",   "const",
      "const_cast",   "consteval",      "constexpr",  "constinit",
      "decltype",     "default",        "delete",     "do",
      "double",       "dynamic_cast",   "else",       "enum",
      "explicit",     "extern",         "false",      "final",
      "float",        "for",            "friend",     "goto",
      "if",           "inline",         "int",        "long",
      "mutable",      "namespace",      "new",        "noexcept",
      "nullptr",      "operator",       "override",   "private",
      "protected",    "public",         "register",   "reinterpret_cast",
      "requires",     "return",         "short",      "signed",
      "sizeof",       "static",         "static_assert",
      "static_cast",  "struct",         "switch",     "template",
      "this",         "thread_local",   "throw",      "true",
      "try",          "typedef",        "typeid",     "typename",
      "union",        "unsigned",       "using",      "virtual",
      "void",         "volatile",       "while"};
  return kws.count(s) > 0;
}

bool is_trailing_qualifier(const std::string& s) {
  static const std::set<std::string> quals = {"const", "noexcept", "override",
                                              "final", "mutable"};
  return quals.count(s) > 0;
}

/// Identifiers after which a '(' still starts a call expression (as opposed
/// to declaring a variable of the preceding type).
bool call_may_follow(const std::string& s) {
  static const std::set<std::string> kws = {
      "return", "co_return", "co_await", "co_yield",
      "throw",  "else",      "do",       "new",
      "case"};
  return kws.count(s) > 0;
}

/// Index of the token matching the closer at `close` (')', ']', '}'), or 0
/// when unbalanced — callers treat 0 as "give up".
std::size_t match_backward(const std::vector<Token>& t, std::size_t close) {
  const std::string& c = t[close].text;
  const std::string open = c == ")" ? "(" : c == "]" ? "[" : "{";
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (t[i].text == c) {
      ++depth;
    } else if (t[i].text == open && --depth == 0) {
      return i;
    }
    if (i == 0) break;
  }
  return 0;
}

/// Given the ')' that directly precedes a function body (qualifiers already
/// skipped), returns the '(' of the function's parameter list — hopping
/// backward over a constructor member-initializer list when one sits in
/// between: `Model(int n) : a_(n), b_(n) {`.
std::size_t find_params_open(const std::vector<Token>& t, std::size_t rparen) {
  std::size_t p = match_backward(t, rparen);
  while (p > 0) {
    const std::size_t name = p - 1;
    if (t[name].kind != TokKind::kIdent || name == 0) return p;
    const std::string& before = t[name - 1].text;
    if (before == ":") {
      // `) : first_(x) {` — the real parameter list closes right before ':'.
      if (name >= 2 && t[name - 2].text == ")") {
        return match_backward(t, name - 2);
      }
      return p;
    }
    if (before == ",") {
      // Previous initializer entry; keep hopping toward the ':'.
      if (name >= 2 && t[name - 2].text == ")") {
        p = match_backward(t, name - 2);
        continue;
      }
      return p;
    }
    return p;
  }
  return p;
}

/// Counts top-level commas in (open, close); tracks the first top-level '='
/// (start of defaulted parameters) and C-style variadics. The '<' depth
/// heuristic (an ident before '<' opens a template argument list) keeps
/// commas inside `std::pair<A, B>` from splitting parameters.
struct ArgScan {
  std::size_t commas = 0;
  bool any = false;
  bool variadic = false;
  std::size_t commas_before_default = kNoFunction;
};

ArgScan scan_args(const std::vector<Token>& t, std::size_t open,
                  std::size_t close) {
  ArgScan s;
  int paren = 0;
  int angle = 0;
  int brack = 0;
  int brace = 0;
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& x = t[i].text;
    if (x == "(") {
      ++paren;
    } else if (x == ")") {
      --paren;
    } else if (x == "[") {
      ++brack;
    } else if (x == "]") {
      --brack;
    } else if (x == "{") {
      ++brace;
    } else if (x == "}") {
      --brace;
    } else if (x == "<" && i > 0 && t[i - 1].kind == TokKind::kIdent) {
      ++angle;
    } else if (x == ">" && angle > 0) {
      --angle;
    }
    if (paren > 0 || angle > 0 || brack > 0 || brace > 0) {
      s.any = true;
      continue;
    }
    if (x == ",") {
      ++s.commas;
    } else if (x == "=" && s.commas_before_default == kNoFunction) {
      s.commas_before_default = s.commas;
    } else if (x == "." && i + 1 < close && t[i + 1].text == ".") {
      s.variadic = true;
    }
    s.any = true;
  }
  return s;
}

/// `(open, close)` ranges of every class/struct definition body, with the
/// class name — so inline member functions get their qualifier.
struct ClassSpan {
  std::size_t open = 0;
  std::size_t close = 0;
  std::string name;
};

std::vector<ClassSpan> class_spans(const std::vector<Token>& t) {
  std::vector<ClassSpan> spans;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        (t[i].text != "class" && t[i].text != "struct")) {
      continue;
    }
    if (i > 0 && t[i - 1].text == "enum") continue;  // enum class: no methods
    std::size_t j = i + 1;
    if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
    const std::string name = t[j].text;
    ++j;
    // Walk to the defining '{'. Anything that ends the declarator first —
    // `;` (forward decl), `,`/`>` (template parameter), `(`/`=`/`)` — means
    // this keyword did not open a class body.
    while (j < t.size()) {
      const std::string& x = t[j].text;
      if (x == "<") {
        j = match_forward(t, j);
        if (j >= t.size()) break;
        ++j;
        continue;
      }
      if (x == "{") {
        spans.push_back({j, match_forward(t, j), name});
        break;
      }
      if (x == ";" || x == "," || x == ")" || x == "(" || x == "=" ||
          x == ">") {
        break;
      }
      ++j;
    }
  }
  return spans;
}

std::string innermost_class(const std::vector<ClassSpan>& spans,
                            std::size_t pos) {
  std::string best;
  std::size_t best_open = 0;
  for (const ClassSpan& s : spans) {
    if (s.open < pos && pos < s.close && s.open >= best_open) {
      best = s.name;
      best_open = s.open;
    }
  }
  return best;
}

/// Every named function definition in one TU's token stream (`tu` left
/// unset — the linker stamps it).
std::vector<FunctionDef> extract_definitions(const Unit& unit) {
  std::vector<FunctionDef> defs;
  const auto& t = unit.tokens;
  const auto scopes = function_scopes(unit);
  const auto classes = class_spans(t);

  // Walk back from each body '{' to the signature; scopes that are not a
  // named definition we model (lambdas, operators, destructors) are skipped.
  for (const FunctionScope& s : scopes) {
    if (s.first == 0) continue;
    std::size_t j = s.first - 1;
    while (j > 0 && t[j].kind == TokKind::kIdent &&
           is_trailing_qualifier(t[j].text)) {
      --j;
    }
    // Trailing return type: hop back over `-> Type` to the params ')'.
    {
      std::size_t k = j;
      std::size_t steps = 0;
      while (k > 0 && steps++ < 24) {
        const std::string& x = t[k].text;
        if (x == "->") {
          j = k - 1;
          while (j > 0 && t[j].kind == TokKind::kIdent &&
                 is_trailing_qualifier(t[j].text)) {
            --j;
          }
          break;
        }
        if (t[k].kind != TokKind::kIdent && x != "::" && x != "<" &&
            x != ">" && x != "," && x != "*" && x != "&") {
          break;
        }
        --k;
      }
    }
    if (t[j].text != ")") continue;  // lambda ([]) or something unmodelled
    const std::size_t params_open = find_params_open(t, j);
    if (params_open == 0) continue;
    const std::size_t name_idx = params_open - 1;
    if (t[name_idx].kind != TokKind::kIdent) continue;
    if (is_non_call_keyword(t[name_idx].text)) continue;
    if (name_idx > 0 &&
        (t[name_idx - 1].text == "~" || t[name_idx - 1].text == "operator")) {
      continue;  // destructors and operator overloads: never called by name
    }
    FunctionDef d;
    d.name = t[name_idx].text;
    if (name_idx >= 2 && t[name_idx - 1].text == "::" &&
        t[name_idx - 2].kind == TokKind::kIdent) {
      d.qualifier = t[name_idx - 2].text;  // out-of-line member
    } else {
      d.qualifier = innermost_class(classes, name_idx);  // inline member
    }
    d.display = d.qualifier.empty() || d.qualifier == d.name
                    ? d.name
                    : d.qualifier + "::" + d.name;
    d.line = t[name_idx].line;
    d.params_open = params_open;
    d.body_first = s.first;
    d.body_last = s.last;
    const std::size_t params_close = match_forward(t, params_open);
    const ArgScan ps = scan_args(t, params_open, params_close);
    const bool lone_void =
        params_close == params_open + 2 && t[params_open + 1].text == "void";
    const std::size_t n_params = ps.any && !lone_void ? ps.commas + 1 : 0;
    d.arity_max = ps.variadic ? kNoFunction : n_params;
    d.arity_min = ps.commas_before_default != kNoFunction
                      ? ps.commas_before_default
                      : n_params;
    defs.push_back(std::move(d));
  }
  return defs;
}

/// Per-TU extraction result; pure function of the file bytes, so it can fan
/// out on the deterministic pool.
struct TuExtract {
  Unit unit;
  std::vector<FunctionDef> defs;    // def.tu unset; stamped at link time
  std::vector<CallSite> calls;      // caller = TU-local def index
};

TuExtract extract_tu(const std::string& content) {
  TuExtract out;
  out.unit = tokenize(content);
  const auto& t = out.unit.tokens;
  const auto scopes = function_scopes(out.unit);

  // --- Definitions: the shared walker, then scope index -> local def index
  // (kNoFunction when the scope is not a named definition we model:
  // lambdas, operators, destructors). A def's body brace IS its scope's
  // opening brace, so the two align by body_first.
  out.defs = extract_definitions(out.unit);
  std::map<std::size_t, std::size_t> def_by_body;
  for (std::size_t di = 0; di < out.defs.size(); ++di) {
    def_by_body[out.defs[di].body_first] = di;
  }
  std::vector<std::size_t> def_of_scope(scopes.size(), kNoFunction);
  for (std::size_t si = 0; si < scopes.size(); ++si) {
    const auto it = def_by_body.find(scopes[si].first);
    if (it != def_by_body.end()) def_of_scope[si] = it->second;
  }

  // --- Call sites, attributed to the enclosing scope's definition. ---
  for (std::size_t si = 0; si < scopes.size(); ++si) {
    const FunctionScope& s = scopes[si];
    for (std::size_t i = s.first + 1; i + 1 < s.last; ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      if (is_non_call_keyword(t[i].text)) continue;
      // `name(` or `name<T>(` both start a call expression.
      std::size_t args_open = kNoFunction;
      if (t[i + 1].text == "(") {
        args_open = i + 1;
      } else if (t[i + 1].text == "<") {
        const std::size_t c = match_forward(t, i + 1);
        if (c + 1 < t.size() && t[c + 1].text == "(") args_open = c + 1;
      }
      if (args_open == kNoFunction) continue;
      const Token& prev = t[i - 1];
      if (prev.text == "~") continue;  // destructor call
      CallSite call;
      if (prev.text == "::") {
        if (i >= 2 && t[i - 2].kind == TokKind::kIdent) {
          call.qualifier = t[i - 2].text;
        }
        // std:: (and any unresolvable namespace) is a leaf; std:: names
        // would otherwise collide with repo functions (min, sort, ...).
        if (call.qualifier == "std") continue;
      } else if (prev.text == "." || prev.text == "->") {
        call.member = true;
      } else if (prev.kind == TokKind::kIdent &&
                 !call_may_follow(prev.text)) {
        continue;  // `Type name(args)` — a declaration, not a call
      } else if (prev.text == "&" || prev.text == "*" || prev.text == ">") {
        continue;  // `Type* name(...)`, `Type& name(...)`, `T<U> name(...)`
      }
      call.name = t[i].text;
      call.line = t[i].line;
      call.caller = def_of_scope[si];
      const std::size_t args_close = match_forward(t, args_open);
      const ArgScan as = scan_args(t, args_open, args_close);
      call.arity = as.any ? as.commas + 1 : 0;
      out.calls.push_back(std::move(call));
    }
  }
  return out;
}

/// Resolved call edges grouped by caller definition, for BFS.
std::map<std::size_t, std::vector<std::size_t>> calls_by_caller(
    const std::vector<CallSite>& calls) {
  std::map<std::size_t, std::vector<std::size_t>> by_caller;
  for (std::size_t ci = 0; ci < calls.size(); ++ci) {
    if (calls[ci].caller != kNoFunction) {
      by_caller[calls[ci].caller].push_back(ci);
    }
  }
  return by_caller;
}

/// BFS bookkeeping: how each reached definition was first entered, so
/// diagnostics can print the full call chain.
struct ReachInfo {
  std::set<std::size_t> reached;
  std::map<std::size_t, std::size_t> parent;    // def -> parent def
  std::map<std::size_t, std::size_t> via_call;  // def -> call index used
};

ReachInfo bfs(const CallGraph& g,
              const std::vector<std::pair<std::size_t, std::size_t>>& roots) {
  ReachInfo info;
  const auto by_caller = calls_by_caller(g.calls());
  std::vector<std::size_t> frontier;
  for (const auto& [d, via] : roots) {
    if (info.reached.insert(d).second) {
      info.parent[d] = kNoFunction;
      info.via_call[d] = via;
      frontier.push_back(d);
    }
  }
  while (!frontier.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t d : frontier) {
      const auto it = by_caller.find(d);
      if (it == by_caller.end()) continue;
      for (std::size_t ci : it->second) {
        for (std::size_t callee : g.calls()[ci].callees) {
          if (info.reached.insert(callee).second) {
            info.parent[callee] = d;
            info.via_call[callee] = ci;
            next.push_back(callee);
          }
        }
      }
    }
    frontier = std::move(next);
  }
  return info;
}

/// Root-to-`d` chain of display names, e.g. "run_chunk -> norm -> scale".
std::string chain_of(const CallGraph& g, const ReachInfo& info,
                     std::size_t d) {
  std::vector<std::string> names;
  for (std::size_t cur = d; cur != kNoFunction;
       cur = info.parent.at(cur)) {
    names.push_back(g.defs()[cur].display);
  }
  std::string out;
  for (std::size_t i = names.size(); i-- > 0;) {
    if (!out.empty()) out += " -> ";
    out += names[i];
  }
  return out;
}

const std::set<std::string>& numeric_entry_names() {
  static const std::set<std::string> names = {
      "fit",           "fit_with_split", "fit_transform",
      "calibrate",     "predict",        "predict_interval",
      "predict_point", "predict_sigma",  "predict_batch"};
  return names;
}

}  // namespace

CallGraph CallGraph::build(const std::vector<SourceFile>& files,
                           const LayerConfig& layers) {
  CallGraph g;
  const auto extracts = core::parallel_map<TuExtract>(
      files.size(), [&](std::size_t i) { return extract_tu(files[i].content); });

  // Link: stamp TU indices and rebase TU-local caller indices to global.
  for (std::size_t tu = 0; tu < files.size(); ++tu) {
    const std::size_t def_base = g.defs_.size();
    g.units_.push_back(extracts[tu].unit);
    g.displays_.push_back(files[tu].display);
    g.modules_.push_back(layers.module_of(files[tu].rel));
    for (FunctionDef d : extracts[tu].defs) {
      d.tu = tu;
      g.defs_.push_back(std::move(d));
    }
    for (CallSite c : extracts[tu].calls) {
      c.tu = tu;
      if (c.caller != kNoFunction) c.caller += def_base;
      g.calls_.push_back(std::move(c));
    }
  }

  // Overload sets keyed by unqualified name.
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t di = 0; di < g.defs_.size(); ++di) {
    by_name[g.defs_[di].name].push_back(di);
  }

  // Resolve every call against its visible overload set.
  for (CallSite& c : g.calls_) {
    const auto it = by_name.find(c.name);
    if (it == by_name.end()) continue;  // external / std — a leaf
    std::vector<std::size_t> cands = it->second;
    // `Q::f(...)`: same-qualifier definitions win when any exist (a
    // namespace qualifier matches nothing and keeps the whole set).
    if (!c.qualifier.empty()) {
      std::vector<std::size_t> scoped;
      for (std::size_t di : cands) {
        if (g.defs_[di].qualifier == c.qualifier) scoped.push_back(di);
      }
      if (!scoped.empty()) cands = std::move(scoped);
    } else if (c.member) {
      // `x.f(...)`: member definitions win when any exist.
      std::vector<std::size_t> members;
      for (std::size_t di : cands) {
        if (!g.defs_[di].qualifier.empty()) members.push_back(di);
      }
      if (!members.empty()) cands = std::move(members);
    }
    // Layer visibility: a TU cannot call a definition its module may not
    // include, so such candidates are noise, not edges.
    const std::string& caller_mod = g.modules_[c.tu];
    if (!caller_mod.empty()) {
      std::vector<std::size_t> visible;
      for (std::size_t di : cands) {
        const std::string& callee_mod = g.modules_[g.defs_[di].tu];
        if (callee_mod.empty() || callee_mod == caller_mod ||
            layers.edge_allowed(caller_mod, callee_mod)) {
          visible.push_back(di);
        }
      }
      cands = std::move(visible);
    }
    // Arity window; on mismatch fall back to the whole visible set — an
    // over-approximation beats silently dropping the edge.
    std::vector<std::size_t> by_arity;
    for (std::size_t di : cands) {
      const FunctionDef& d = g.defs_[di];
      if (c.arity >= d.arity_min &&
          (d.arity_max == kNoFunction || c.arity <= d.arity_max)) {
        by_arity.push_back(di);
      }
    }
    c.callees = by_arity.empty() ? std::move(cands) : std::move(by_arity);
  }
  return g;
}

std::set<std::size_t> CallGraph::reachable_from(
    const std::set<std::size_t>& roots) const {
  std::vector<std::pair<std::size_t, std::size_t>> seeds;
  for (std::size_t d : roots) seeds.emplace_back(d, kNoFunction);
  return bfs(*this, seeds).reached;
}

CallGraphAnalysis analyze_call_graph(const std::vector<SourceFile>& files,
                                     const CallGraphOptions& options) {
  const CallGraph g = CallGraph::build(files, options.layers);
  CallGraphAnalysis out;
  std::vector<Diagnostic> raw;
  const auto& defs = g.defs();
  const auto& calls = g.calls();

  // --- Call-level layering: [call_forbidden] modules must not reach the
  // listed symbols through any call chain. ---
  for (const auto& [mod, names] : options.layers.call_forbidden) {
    const std::set<std::string> forbidden(names.begin(), names.end());
    std::vector<std::pair<std::size_t, std::size_t>> seeds;
    for (std::size_t di = 0; di < defs.size(); ++di) {
      if (g.module_of_tu(defs[di].tu) == mod) {
        seeds.emplace_back(di, kNoFunction);
      }
    }
    const ReachInfo reach = bfs(g, seeds);
    std::set<std::pair<std::size_t, std::string>> reported;  // (root, name)
    for (std::size_t di : reach.reached) {
      for (std::size_t ci = 0; ci < calls.size(); ++ci) {
        const CallSite& c = calls[ci];
        if (c.caller != di || forbidden.count(c.name) == 0) continue;
        // Walk to the root definition inside the guarded module, and to
        // the first hop below it (whose via_call anchors the diagnostic).
        std::size_t root = di;
        std::size_t first_hop = kNoFunction;
        while (reach.parent.at(root) != kNoFunction) {
          first_hop = root;
          root = reach.parent.at(root);
        }
        if (reported.emplace(root, c.name).second == false) continue;
        const std::size_t at_line =
            first_hop == kNoFunction
                ? c.line
                : calls[reach.via_call.at(first_hop)].line;
        raw.push_back(
            {g.display_of(defs[root].tu), at_line, "call-layer-violation",
             "'" + defs[root].display + "' (module '" + mod +
                 "') transitively calls training symbol '" + c.name +
                 "' (chain: " + chain_of(g, reach, di) + " -> " + c.name +
                 " at " + g.display_of(defs[di].tu) + ":" +
                 std::to_string(c.line) +
                 "); this module is declared fit-free in layers.toml "
                 "[call_forbidden]"});
      }
    }
  }

  // --- Numeric-safety rules on predict/fit-reachable functions. ---
  {
    std::set<std::size_t> roots;
    for (std::size_t di = 0; di < defs.size(); ++di) {
      if (numeric_entry_names().count(defs[di].name) > 0) roots.insert(di);
    }
    for (std::size_t di : g.reachable_from(roots)) {
      const FunctionDef& d = defs[di];
      numeric_rules_for_function(g.display_of(d.tu), g.unit(d.tu),
                                 d.params_open, d.body_first, d.body_last,
                                 d.display, raw);
    }
  }

  // --- allow() suppressions, then the canonical total order. ---
  std::map<std::string, std::size_t> tu_of_display;
  for (std::size_t tu = 0; tu < files.size(); ++tu) {
    tu_of_display[g.display_of(tu)] = tu;
  }
  for (Diagnostic& d : raw) {
    const auto it = tu_of_display.find(d.file);
    if (it != tu_of_display.end() &&
        is_allowed(g.unit(it->second), d.rule, d.line)) {
      continue;
    }
    out.diagnostics.push_back(std::move(d));
  }
  std::sort(out.diagnostics.begin(), out.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  out.diagnostics.erase(
      std::unique(out.diagnostics.begin(), out.diagnostics.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                    return std::tie(a.file, a.line, a.rule, a.message) ==
                           std::tie(b.file, b.line, b.rule, b.message);
                  }),
      out.diagnostics.end());
  return out;
}

CallGraphAnalysis analyze_call_graph_directory(
    const std::string& root, const CallGraphOptions& options) {
  std::vector<SourceFile> files;
  const fs::path base(root);
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) {
      throw std::runtime_error("vmincqr_lint: cannot read " +
                               entry.path().string());
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({entry.path().string(),
                     entry.path().lexically_relative(base).generic_string(),
                     ss.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel < b.rel;
            });
  return analyze_call_graph(files, options);
}

}  // namespace vmincqr::lint
