#include "gridmon/classad/parser.hpp"

#include <algorithm>

namespace gridmon::classad {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  return istrcmp(a, b) == 0;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ExprPtr parse() {
    ExprPtr e = expression();
    expect(TokenKind::End, "trailing input after expression");
    return e;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  bool check(TokenKind k) const { return peek().kind == k; }
  bool match(TokenKind k) {
    if (check(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(TokenKind k, const char* what) {
    if (!match(k)) {
      throw ParseError(std::string("expected ") + what + " near offset " +
                       std::to_string(peek().offset));
    }
  }

  // Nesting bound: deeper input would overflow the stack, here or in the
  // tree's recursive evaluate, to_string and destructor. `depth_` counts
  // open recursion levels; `height_` is the height of the subtree parsed
  // last, which the left-associative loop grows without recursing.
  static constexpr int kMaxNesting = 1000;

  void bound(int n) const {
    if (n <= kMaxNesting) return;
    throw ParseError("expression nested deeper than " +
                     std::to_string(kMaxNesting) + " near offset " +
                     std::to_string(peek().offset));
  }

  struct Nest {
    explicit Nest(Parser& owner) : parser(owner) {
      parser.bound(++parser.depth_);
    }
    ~Nest() { --parser.depth_; }
    Parser& parser;
  };

  /// Record a new node above children whose tallest is `child` high.
  void grow(int child) { bound(height_ = child + 1); }

  ExprPtr expression() {
    Nest nest(*this);
    ExprPtr cond = binary(0);
    if (match(TokenKind::Question)) {
      const int ch = height_;
      ExprPtr then_e = expression();
      const int th = height_;
      expect(TokenKind::Colon, "':' in conditional");
      ExprPtr else_e = expression();
      grow(std::max({ch, th, height_}));
      return std::make_unique<TernaryExpr>(std::move(cond), std::move(then_e),
                                           std::move(else_e));
    }
    return cond;
  }

  struct BinarySpelling {
    TokenKind token;
    BinaryOp op;
    int level;  // precedence, loosest first
  };
  static constexpr int kLevels = 5;
  static constexpr BinarySpelling kBinary[] = {
      {TokenKind::Or, BinaryOp::Or, 0},
      {TokenKind::And, BinaryOp::And, 1},
      {TokenKind::Less, BinaryOp::Less, 2},
      {TokenKind::LessEq, BinaryOp::LessEq, 2},
      {TokenKind::Greater, BinaryOp::Greater, 2},
      {TokenKind::GreaterEq, BinaryOp::GreaterEq, 2},
      {TokenKind::Equal, BinaryOp::Equal, 2},
      {TokenKind::NotEqual, BinaryOp::NotEqual, 2},
      {TokenKind::MetaEqual, BinaryOp::MetaEqual, 2},
      {TokenKind::MetaNotEqual, BinaryOp::MetaNotEqual, 2},
      {TokenKind::Plus, BinaryOp::Add, 3},
      {TokenKind::Minus, BinaryOp::Subtract, 3},
      {TokenKind::Star, BinaryOp::Multiply, 4},
      {TokenKind::Slash, BinaryOp::Divide, 4},
      {TokenKind::Percent, BinaryOp::Modulus, 4},
  };

  /// One precedence level: operands of the next tighter level, joined
  /// left-associatively by this level's operators.
  ExprPtr binary(int level) {
    if (level == kLevels) return unary();
    ExprPtr lhs = binary(level + 1);
    for (;;) {
      const BinarySpelling* spelled = nullptr;
      for (const auto& b : kBinary) {
        if (b.level == level && b.token == peek().kind) spelled = &b;
      }
      if (spelled == nullptr) return lhs;
      advance();
      const int lh = height_;
      ExprPtr rhs = binary(level + 1);
      grow(std::max(lh, height_));
      lhs = std::make_unique<BinaryExpr>(spelled->op, std::move(lhs),
                                         std::move(rhs));
    }
  }

  ExprPtr unary() {
    while (match(TokenKind::Plus)) continue;  // unary plus is a no-op
    UnaryOp op = UnaryOp::Not;
    if (match(TokenKind::Minus)) {
      op = UnaryOp::Negate;
    } else if (!match(TokenKind::Not)) {
      return primary();
    }
    Nest nest(*this);
    ExprPtr operand = unary();
    grow(height_);
    return std::make_unique<UnaryExpr>(op, std::move(operand));
  }

  ExprPtr primary() {
    const Token& t = peek();
    height_ = 1;
    switch (t.kind) {
      case TokenKind::IntegerLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::integer(t.int_value));
      case TokenKind::RealLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::real(t.real_value));
      case TokenKind::StringLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::string(t.text));
      case TokenKind::LParen: {
        advance();
        ExprPtr e = expression();
        expect(TokenKind::RParen, "')'");
        return e;
      }
      case TokenKind::Identifier:
        return identifier();
      default:
        throw ParseError("unexpected token near offset " +
                         std::to_string(t.offset));
    }
  }

  ExprPtr identifier() {
    Token t = advance();
    if (iequals(t.text, "true")) {
      return std::make_unique<LiteralExpr>(Value::boolean(true));
    }
    if (iequals(t.text, "false")) {
      return std::make_unique<LiteralExpr>(Value::boolean(false));
    }
    if (iequals(t.text, "undefined")) {
      return std::make_unique<LiteralExpr>(Value::undefined());
    }
    if (iequals(t.text, "error")) {
      return std::make_unique<LiteralExpr>(Value::error());
    }
    if ((iequals(t.text, "my") || iequals(t.text, "target")) &&
        check(TokenKind::Dot)) {
      advance();  // '.'
      if (!check(TokenKind::Identifier)) {
        throw ParseError("expected attribute name after scope qualifier");
      }
      Token attr = advance();
      AttrScope scope =
          iequals(t.text, "my") ? AttrScope::My : AttrScope::Target;
      return std::make_unique<AttrRefExpr>(scope, attr.text);
    }
    if (check(TokenKind::LParen)) {
      advance();
      std::vector<ExprPtr> args;
      int tallest = 0;
      if (!check(TokenKind::RParen)) {
        do {
          args.push_back(expression());
          tallest = std::max(tallest, height_);
        } while (match(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "')' after arguments");
      grow(tallest);
      return std::make_unique<CallExpr>(t.text, std::move(args));
    }
    return std::make_unique<AttrRefExpr>(AttrScope::Default, t.text);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

ExprPtr parse_expression(std::string_view input) {
  Parser parser(lex(input));
  return parser.parse();
}

}  // namespace gridmon::classad
