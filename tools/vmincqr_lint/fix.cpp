#include "fix.hpp"

#include <cstddef>
#include <vector>

#include "token.hpp"

namespace vmincqr::lint {
namespace {

bool is_header_path(const std::string& path) {
  return path.size() >= 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

/// Replaces every `std::endl` / `endl` token with `"\n"`. Works on byte
/// offsets from the token stream, so occurrences in comments and string
/// literals are untouched.
std::string fix_no_endl(const std::string& content) {
  const Unit unit = tokenize(content);
  struct Span {
    std::size_t begin;
    std::size_t end;  // half-open byte range to replace
  };
  std::vector<Span> spans;
  const auto& t = unit.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent || t[i].text != "endl") continue;
    if (is_allowed(unit, "no-endl", t[i].line)) continue;
    std::size_t begin = t[i].offset;
    // Swallow a directly preceding `std::` qualifier.
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std") {
      begin = t[i - 2].offset;
    }
    spans.push_back({begin, t[i].offset + 4});
  }
  std::string out;
  out.reserve(content.size());
  std::size_t pos = 0;
  for (const Span& span : spans) {
    out += content.substr(pos, span.begin - pos);
    out += "\"\\n\"";
    pos = span.end;
  }
  out += content.substr(pos);
  return out;
}

/// Inserts `#pragma once` after the leading comment block of a header that
/// has none anywhere. A header whose pragma merely sits in the wrong place
/// is left for a human — moving directives around blind is not "safe".
std::string fix_pragma_once(const std::string& content) {
  const Unit unit = tokenize(content);
  for (const auto& [line, text] : unit.directives) {
    (void)line;
    if (text == "#pragma once") return content;
  }
  // Honour allow() on the line the rule reports, so a tree that lints clean
  // is a fixed point of --fix.
  const std::size_t report_line =
      unit.directives.empty() ? 1 : unit.directives.front().first;
  if (is_allowed(unit, "pragma-once", report_line)) return content;
  // Skip the leading run of full-line comments and blank lines.
  std::size_t pos = 0;
  while (pos < content.size()) {
    // Blank line.
    std::size_t probe = pos;
    while (probe < content.size() &&
           (content[probe] == ' ' || content[probe] == '\t')) {
      ++probe;
    }
    if (probe < content.size() && content[probe] == '\n') {
      pos = probe + 1;
      continue;
    }
    // Line comment.
    if (probe + 1 < content.size() && content[probe] == '/' &&
        content[probe + 1] == '/') {
      const auto nl = content.find('\n', probe);
      if (nl == std::string::npos) break;
      pos = nl + 1;
      continue;
    }
    // Block comment.
    if (probe + 1 < content.size() && content[probe] == '/' &&
        content[probe + 1] == '*') {
      const auto close = content.find("*/", probe + 2);
      if (close == std::string::npos) break;
      const auto nl = content.find('\n', close + 2);
      pos = nl == std::string::npos ? content.size() : nl + 1;
      continue;
    }
    break;
  }
  return content.substr(0, pos) + "#pragma once\n" + content.substr(pos);
}

}  // namespace

std::string apply_fixes(const std::string& path, const std::string& content) {
  std::string out = fix_no_endl(content);
  if (is_header_path(path)) out = fix_pragma_once(out);
  return out;
}

}  // namespace vmincqr::lint
