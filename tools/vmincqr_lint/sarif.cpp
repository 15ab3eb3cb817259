#include "sarif.hpp"

#include <cstdio>

#include "lint.hpp"

namespace vmincqr::lint {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string to_sarif(const std::vector<Diagnostic>& diagnostics) {
  std::string s;
  s += "{\n";
  s += "  \"$schema\": "
       "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  s += "  \"version\": \"2.1.0\",\n";
  s += "  \"runs\": [\n    {\n";
  s += "      \"tool\": {\n        \"driver\": {\n";
  s += "          \"name\": \"vmincqr_lint\",\n";
  s += "          \"informationUri\": "
       "\"https://github.com/vmincqr/vmincqr\",\n";
  s += "          \"rules\": [\n";
  bool first = true;
  auto emit_rule = [&](const RuleInfo& rule) {
    if (!first) s += ",\n";
    first = false;
    s += "            {\"id\": \"" + json_escape(rule.id) +
         "\", \"shortDescription\": {\"text\": \"" +
         json_escape(rule.rationale) + "\"}}";
  };
  for (const auto& rule : rule_table()) emit_rule(rule);
  for (const auto& rule : graph_rule_table()) emit_rule(rule);
  for (const auto& rule : callgraph_rule_table()) emit_rule(rule);
  s += "\n          ]\n        }\n      },\n";
  s += "      \"results\": [\n";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    s += "        {\n";
    s += "          \"ruleId\": \"" + json_escape(d.rule) + "\",\n";
    s += "          \"level\": \"error\",\n";
    s += "          \"message\": {\"text\": \"" + json_escape(d.message) +
         "\"},\n";
    s += "          \"locations\": [\n            {\"physicalLocation\": "
         "{\"artifactLocation\": {\"uri\": \"" +
         json_escape(d.file) + "\"}, \"region\": {\"startLine\": " +
         std::to_string(d.line == 0 ? 1 : d.line) + "}}}\n          ]\n";
    s += i + 1 < diagnostics.size() ? "        },\n" : "        }\n";
  }
  s += "      ]\n    }\n  ]\n}\n";
  return s;
}

}  // namespace vmincqr::lint
