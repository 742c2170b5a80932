#include "expr/parser.h"

#include <algorithm>
#include <utility>

#include "expr/lexer.h"

namespace tioga2::expr {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExprNodePtr> Parse() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr expr, ParseOr());
    if (Current().kind != TokenKind::kEnd) {
      return Unexpected("end of expression");
    }
    return expr;
  }

 private:
  const Token& Current() const { return tokens_[pos_]; }

  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool Accept(TokenKind kind) {
    if (Current().kind == kind) {
      Advance();
      return true;
    }
    return false;
  }

  Status Unexpected(const std::string& wanted) const {
    return Status::ParseError("expected " + wanted + " but found " +
                              TokenKindToString(Current().kind) + " at offset " +
                              std::to_string(Current().position));
  }

  Status TooDeep() const {
    return Status::ParseError("expression nested deeper than " +
                              std::to_string(kMaxExprNesting) +
                              " levels at offset " +
                              std::to_string(Current().position));
  }

  // Parses one nested construct with `parse`, counting it against
  // kMaxExprNesting.
  template <typename ParseFn>
  Result<ExprNodePtr> Nested(ParseFn parse) {
    if (depth_ == kMaxExprNesting) return TooDeep();
    ++depth_;
    Result<ExprNodePtr> result = parse();
    --depth_;
    return result;
  }

  // Records the height of a new operator node over children whose tallest
  // is `child_height`. Nested bounds the parser's own recursion, but an
  // operator chain (`1 + 1 + ...`) builds one tree level per link without
  // recursing; every later pass over the tree (analysis, compilation,
  // evaluation) recurses per level, so the tree's height is held to the
  // same kMaxExprNesting budget.
  Status Grow(size_t child_height) {
    if (child_height >= kMaxExprNesting) return TooDeep();
    height_ = child_height + 1;
    return Status::OK();
  }

  static ExprNodePtr MakeBinary(BinaryOp op, ExprNodePtr lhs, ExprNodePtr rhs,
                                size_t position) {
    auto node = std::make_unique<ExprNode>();
    node->kind = ExprNode::Kind::kBinary;
    node->binary_op = op;
    node->position = position;
    node->children.push_back(std::move(lhs));
    node->children.push_back(std::move(rhs));
    return node;
  }

  Result<ExprNodePtr> ParseOr() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseAnd());
    while (Current().kind == TokenKind::kOr) {
      size_t position = Current().position;
      Advance();
      size_t lhs_height = height_;
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseAnd());
      TIOGA2_RETURN_IF_ERROR(Grow(std::max(lhs_height, height_)));
      lhs = MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs), position);
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseAnd() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseNot());
    while (Current().kind == TokenKind::kAnd) {
      size_t position = Current().position;
      Advance();
      size_t lhs_height = height_;
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseNot());
      TIOGA2_RETURN_IF_ERROR(Grow(std::max(lhs_height, height_)));
      lhs = MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs), position);
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseNot() {
    if (Current().kind == TokenKind::kNot) {
      size_t position = Current().position;
      Advance();
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr operand,
                              Nested([&] { return ParseNot(); }));
      TIOGA2_RETURN_IF_ERROR(Grow(height_));
      auto node = std::make_unique<ExprNode>();
      node->kind = ExprNode::Kind::kUnary;
      node->unary_op = UnaryOp::kNot;
      node->position = position;
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParseComparison();
  }

  Result<ExprNodePtr> ParseComparison() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseAdditive());
    BinaryOp op;
    switch (Current().kind) {
      case TokenKind::kEq: op = BinaryOp::kEq; break;
      case TokenKind::kNe: op = BinaryOp::kNe; break;
      case TokenKind::kLt: op = BinaryOp::kLt; break;
      case TokenKind::kLe: op = BinaryOp::kLe; break;
      case TokenKind::kGt: op = BinaryOp::kGt; break;
      case TokenKind::kGe: op = BinaryOp::kGe; break;
      default:
        return lhs;
    }
    size_t position = Current().position;
    Advance();
    size_t lhs_height = height_;
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseAdditive());
    TIOGA2_RETURN_IF_ERROR(Grow(std::max(lhs_height, height_)));
    return MakeBinary(op, std::move(lhs), std::move(rhs), position);
  }

  Result<ExprNodePtr> ParseAdditive() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseMultiplicative());
    while (Current().kind == TokenKind::kPlus || Current().kind == TokenKind::kMinus) {
      BinaryOp op = Current().kind == TokenKind::kPlus ? BinaryOp::kAdd : BinaryOp::kSub;
      size_t position = Current().position;
      Advance();
      size_t lhs_height = height_;
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseMultiplicative());
      TIOGA2_RETURN_IF_ERROR(Grow(std::max(lhs_height, height_)));
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs), position);
    }
    return lhs;
  }

  Result<ExprNodePtr> ParseMultiplicative() {
    TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr lhs, ParseUnary());
    while (true) {
      BinaryOp op;
      if (Current().kind == TokenKind::kStar) {
        op = BinaryOp::kMul;
      } else if (Current().kind == TokenKind::kSlash) {
        op = BinaryOp::kDiv;
      } else if (Current().kind == TokenKind::kPercent) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      size_t position = Current().position;
      Advance();
      size_t lhs_height = height_;
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr rhs, ParseUnary());
      TIOGA2_RETURN_IF_ERROR(Grow(std::max(lhs_height, height_)));
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs), position);
    }
  }

  Result<ExprNodePtr> ParseUnary() {
    if (Current().kind == TokenKind::kMinus) {
      size_t position = Current().position;
      Advance();
      TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr operand,
                              Nested([&] { return ParseUnary(); }));
      TIOGA2_RETURN_IF_ERROR(Grow(height_));
      auto node = std::make_unique<ExprNode>();
      node->kind = ExprNode::Kind::kUnary;
      node->unary_op = UnaryOp::kNeg;
      node->position = position;
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParsePrimary();
  }

  Result<ExprNodePtr> ParsePrimary() {
    const Token& token = Current();
    auto node = std::make_unique<ExprNode>();
    node->position = token.position;
    height_ = 0;  // literals and attribute references are leaves
    switch (token.kind) {
      case TokenKind::kIntLiteral:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::Int(token.int_value);
        Advance();
        return node;
      case TokenKind::kFloatLiteral:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::Float(token.float_value);
        Advance();
        return node;
      case TokenKind::kStringLiteral:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::String(token.text);
        Advance();
        return node;
      case TokenKind::kTrue:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::Bool(true);
        Advance();
        return node;
      case TokenKind::kFalse:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::Bool(false);
        Advance();
        return node;
      case TokenKind::kNull:
        node->kind = ExprNode::Kind::kLiteral;
        node->literal = types::Value::Null();
        Advance();
        return node;
      case TokenKind::kIdentifier: {
        std::string name = token.text;
        Advance();
        if (Accept(TokenKind::kLParen)) {
          node->kind = ExprNode::Kind::kCall;
          node->name = std::move(name);
          size_t args_height = 0;
          if (!Accept(TokenKind::kRParen)) {
            while (true) {
              TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr arg,
                                      Nested([&] { return ParseOr(); }));
              node->children.push_back(std::move(arg));
              args_height = std::max(args_height, height_);
              if (Accept(TokenKind::kComma)) continue;
              if (Accept(TokenKind::kRParen)) break;
              return Unexpected("',' or ')'");
            }
          }
          TIOGA2_RETURN_IF_ERROR(Grow(args_height));
          return node;
        }
        node->kind = ExprNode::Kind::kAttributeRef;
        node->name = std::move(name);
        return node;
      }
      case TokenKind::kLParen: {
        Advance();
        TIOGA2_ASSIGN_OR_RETURN(ExprNodePtr inner,
                                Nested([&] { return ParseOr(); }));
        if (!Accept(TokenKind::kRParen)) return Unexpected("')'");
        return inner;
      }
      default:
        return Unexpected("a literal, attribute, function call, or '('");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;   // nesting levels open (see Nested)
  size_t height_ = 0;  // height of the subtree parsed last (leaves are 0)
};

}  // namespace

Result<ExprNodePtr> ParseExpr(const std::string& source) {
  TIOGA2_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace tioga2::expr
