// Lightweight structural parse on top of the token stream: finds function
// bodies (including lambdas and constructor bodies) so the dataflow rules can
// reason about "one scope". Nested control-flow blocks (`if`, `for`, ...)
// belong to their enclosing function; class and namespace braces do not open
// scopes, so member declarations are never mistaken for statements.
#pragma once

#include <cstddef>
#include <vector>

#include "token.hpp"

namespace vmincqr::lint {

/// One function body as a half-open token-index range: tokens[first] is the
/// opening '{', tokens[last] its matching '}'. Ranges never overlap — a
/// lambda inside a function is folded into the enclosing scope, because for
/// statistical-validity rules (seed reuse, calibration leakage) the lambda
/// shares its parent's data.
struct FunctionScope {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// All function scopes of a TU, in order of appearance.
std::vector<FunctionScope> function_scopes(const Unit& unit);

/// Index of the token matching the opener at `open` ('(', '[', '{', '<'),
/// or t.size() when unbalanced. Shared by the call-graph builder and the
/// numeric rules so bracket matching cannot drift apart.
std::size_t match_forward(const std::vector<Token>& t, std::size_t open);

}  // namespace vmincqr::lint
