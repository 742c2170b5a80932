#ifndef TIOGA2_EXPR_PARSER_H_
#define TIOGA2_EXPR_PARSER_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "expr/ast.h"

namespace tioga2::expr {

/// The deepest nesting ParseExpr accepts, counted two ways, each held to
/// this bound. While parsing, each parenthesis, unary minus, `not` and call
/// argument list opens one level of the recursive-descent parser. In the
/// resulting tree, each operator node (every link of a `1 + 1 + ...`
/// chain, every unary operator and call) adds one level of height, which
/// later passes recurse through. Past either bound ParseExpr returns a
/// ParseError instead of recursing until the stack overflows. Far above any
/// hand-written expression (the figure programs nest a few levels).
inline constexpr size_t kMaxExprNesting = 256;

/// Parses an expression string into an (unanalyzed) AST.
///
/// Grammar (precedence low to high):
///   expr     := or_expr
///   or_expr  := and_expr ( "or" and_expr )*
///   and_expr := not_expr ( "and" not_expr )*
///   not_expr := "not" not_expr | cmp_expr
///   cmp_expr := add_expr ( ("="|"!="|"<"|"<="|">"|">=") add_expr )?
///   add_expr := mul_expr ( ("+"|"-") mul_expr )*
///   mul_expr := unary ( ("*"|"/"|"%") unary )*
///   unary    := "-" unary | primary
///   primary  := literal | identifier | identifier "(" args ")" | "(" expr ")"
Result<ExprNodePtr> ParseExpr(const std::string& source);

}  // namespace tioga2::expr

#endif  // TIOGA2_EXPR_PARSER_H_
