// Shared lexer for vmincqr_lint: turns one translation unit into a token
// stream plus preprocessor directives and per-line allow() suppressions.
//
// Every pass consumes this: the token rules, the dataflow pass and the call
// graph walk `tokens`, the include-graph pass reads `directives`. Comments and
// string/char literals are consumed by the lexer (never tokenized), so no
// rule can misfire on prose; allow() markers inside comments are harvested
// into `allows` on the way past.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace vmincqr::lint {

enum class TokKind : std::uint8_t { kIdent, kInt, kFloat, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line;
  int paren_depth;     // 0 outside any parentheses; params sit at depth >= 1
  std::size_t offset;  // byte offset of the first character (for --fix)
};

struct Unit {
  std::vector<Token> tokens;
  /// Preprocessor directives in order of appearance: (line, normalized text).
  std::vector<std::pair<std::size_t, std::string>> directives;
  /// line -> rule ids suppressed on that line via `vmincqr-lint: allow(...)`.
  std::map<std::size_t, std::set<std::string>> allows;
};

/// Lexes one TU. Never fails: unterminated constructs consume to EOF.
Unit tokenize(const std::string& src);

/// True when `allows` suppresses `rule` on `line` (same line or line above).
bool is_allowed(const Unit& unit, const std::string& rule, std::size_t line);

}  // namespace vmincqr::lint
