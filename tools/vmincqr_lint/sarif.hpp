// SARIF 2.1.0 emitter: renders diagnostics as a single-run SARIF log so CI
// (github/codeql-action/upload-sarif) can annotate PR diffs inline instead
// of burying findings in a job log.
#pragma once

#include <string>
#include <vector>

#include "diagnostic.hpp"

namespace vmincqr::lint {

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(const std::string& s);

/// Renders the findings as a complete SARIF 2.1.0 document. Rule metadata
/// (id + short description) is taken from the linter's rule tables, so every
/// result's ruleId resolves within the log. Paths are emitted as-is in
/// artifactLocation.uri; pass repo-relative paths for useful CI annotation.
std::string to_sarif(const std::vector<Diagnostic>& diagnostics);

}  // namespace vmincqr::lint
