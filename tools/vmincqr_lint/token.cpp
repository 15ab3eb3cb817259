#include "token.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace vmincqr::lint {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

void record_allows(Unit& unit, const std::string& comment, std::size_t line) {
  const std::string tag = "vmincqr-lint:";
  const auto at = comment.find(tag);
  if (at == std::string::npos) return;
  auto open = comment.find("allow(", at);
  if (open == std::string::npos) return;
  const auto close = comment.find(')', open);
  if (close == std::string::npos) return;
  std::string list = comment.substr(open + 6, close - open - 6);
  std::string id;
  std::stringstream ss(list);
  while (std::getline(ss, id, ',')) {
    const auto b = id.find_first_not_of(" \t");
    const auto e = id.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    unit.allows[line].insert(id.substr(b, e - b + 1));
  }
}

/// Normalizes a directive body: collapses runs of whitespace to one space.
std::string squeeze(const std::string& s) {
  std::string out;
  bool in_ws = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_ws = true;
      continue;
    }
    if (in_ws && !out.empty()) out.push_back(' ');
    in_ws = false;
    out.push_back(c);
  }
  return out;
}

}  // namespace

Unit tokenize(const std::string& src) {
  Unit unit;
  std::size_t line = 1;
  int depth = 0;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;

  auto advance_newline = [&](char c) {
    if (c == '\n') {
      ++line;
      at_line_start = true;
    }
  };

  while (i < n) {
    const char c = src[i];
    // Whitespace.
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance_newline(c);
      ++i;
      continue;
    }
    // Preprocessor directive: consume the logical line (with continuations).
    if (c == '#' && at_line_start) {
      const std::size_t start_line = line;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        // Strip trailing // comment from the directive (may hold an allow).
        if (src[i] == '/' && i + 1 < n && src[i + 1] == '/') {
          std::string comment;
          while (i < n && src[i] != '\n') comment.push_back(src[i++]);
          record_allows(unit, comment, line);
          break;
        }
        text.push_back(src[i++]);
      }
      unit.directives.emplace_back(start_line, squeeze(text));
      continue;
    }
    at_line_start = false;
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::string comment;
      while (i < n && src[i] != '\n') comment.push_back(src[i++]);
      record_allows(unit, comment, line);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start_line = line;
      std::string comment;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        comment.push_back(src[i]);
        advance_newline(src[i]);
        ++i;
      }
      i = std::min(n, i + 2);
      record_allows(unit, comment, start_line);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string closer = ")" + delim + "\"";
      const auto end = src.find(closer, j);
      for (std::size_t k = i; k < std::min(n, end); ++k) {
        advance_newline(src[k]);
      }
      i = end == std::string::npos ? n : end + closer.size();
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        advance_newline(src[i]);
        ++i;
      }
      ++i;
      continue;
    }
    // Identifier.
    if (ident_start(c)) {
      const std::size_t start = i;
      std::string text;
      while (i < n && ident_char(src[i])) text.push_back(src[i++]);
      unit.tokens.push_back({TokKind::kIdent, std::move(text), line, depth,
                             start});
      continue;
    }
    // Number (integer or floating literal, incl. exponents and suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      const std::size_t start = i;
      std::string text;
      bool is_hex = false;
      while (i < n) {
        const char d = src[i];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '.' ||
            d == '\'') {
          if (text.size() == 1 && text[0] == '0' && (d == 'x' || d == 'X')) {
            is_hex = true;
          }
          text.push_back(d);
          ++i;
          continue;
        }
        if ((d == '+' || d == '-') && !text.empty()) {
          const char prev = text.back();
          const bool exp = is_hex ? (prev == 'p' || prev == 'P')
                                  : (prev == 'e' || prev == 'E');
          if (exp) {
            text.push_back(d);
            ++i;
            continue;
          }
        }
        break;
      }
      const bool is_float =
          !is_hex && (text.find('.') != std::string::npos ||
                      text.find('e') != std::string::npos ||
                      text.find('E') != std::string::npos);
      unit.tokens.push_back(
          {is_float ? TokKind::kFloat : TokKind::kInt, std::move(text), line,
           depth, start});
      continue;
    }
    // Punctuation: greedily take two-char operators we care about.
    if (c == '(') {
      unit.tokens.push_back({TokKind::kPunct, "(", line, depth, i});
      ++depth;
      ++i;
      continue;
    }
    if (c == ')') {
      depth = std::max(0, depth - 1);
      unit.tokens.push_back({TokKind::kPunct, ")", line, depth, i});
      ++i;
      continue;
    }
    std::string text(1, c);
    if (i + 1 < n) {
      const char d = src[i + 1];
      if ((c == ':' && d == ':') || (c == '-' && d == '>') ||
          ((c == '=' || c == '!' || c == '<' || c == '>') && d == '=')) {
        text.push_back(d);
      }
    }
    const std::size_t start = i;
    i += text.size();
    unit.tokens.push_back({TokKind::kPunct, std::move(text), line, depth,
                           start});
  }
  return unit;
}

bool is_allowed(const Unit& unit, const std::string& rule, std::size_t line) {
  for (std::size_t probe : {line, line > 0 ? line - 1 : 0}) {
    const auto it = unit.allows.find(probe);
    if (it != unit.allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

}  // namespace vmincqr::lint
