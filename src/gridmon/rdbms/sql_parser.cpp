#include "gridmon/rdbms/sql_parser.hpp"

#include <algorithm>

#include "gridmon/rdbms/sql_lexer.hpp"

namespace gridmon::rdbms {
namespace {

class SqlParser {
 public:
  explicit SqlParser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Statement statement() {
    Statement stmt = dispatch();
    match(SqlTokenKind::Semicolon);
    expect_end();
    return stmt;
  }

  SqlExprPtr lone_expression() {
    SqlExprPtr e = expression();
    expect_end();
    return e;
  }

 private:
  Statement dispatch() {
    if (keyword("SELECT")) return select();
    if (keyword("INSERT")) return insert();
    if (keyword("UPDATE")) return update();
    if (keyword("DELETE")) return del();
    if (keyword("CREATE")) {
      if (keyword("TABLE")) return create_table();
      if (keyword("INDEX")) return create_index();
      throw SqlError("expected TABLE or INDEX after CREATE");
    }
    if (keyword("DROP")) return drop_table();
    throw SqlError("unrecognized statement near '" + peek().text + "'");
  }

  // ---- token helpers ----
  const SqlToken& peek() const { return tokens_[pos_]; }
  const SqlToken& advance() { return tokens_[pos_++]; }
  bool check(SqlTokenKind k) const { return peek().kind == k; }
  bool match(SqlTokenKind k) {
    if (check(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(SqlTokenKind k, const char* what) {
    if (!match(k)) {
      throw SqlError(std::string("expected ") + what + " near '" +
                     peek().text + "'");
    }
  }
  void expect_end() {
    if (!check(SqlTokenKind::End)) {
      throw SqlError("trailing input near '" + peek().text + "'");
    }
  }
  bool keyword(const char* kw) {
    if (peek().is_keyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect_keyword(const char* kw) {
    if (!keyword(kw)) {
      throw SqlError(std::string("expected ") + kw + " near '" + peek().text +
                     "'");
    }
  }
  std::string identifier(const char* what) {
    if (!check(SqlTokenKind::Identifier)) {
      throw SqlError(std::string("expected ") + what + " near '" +
                     peek().text + "'");
    }
    return advance().text;
  }

  // ---- statements ----
  Statement select() {
    SelectStmt s;
    if (!match(SqlTokenKind::Star)) {
      s.items.push_back(select_item());
      while (match(SqlTokenKind::Comma)) s.items.push_back(select_item());
    }
    expect_keyword("FROM");
    s.table = identifier("table name");
    if (keyword("WHERE")) s.where = expression();
    if (keyword("GROUP")) {
      expect_keyword("BY");
      s.group_by = identifier("group-by column");
    }
    if (keyword("ORDER")) {
      expect_keyword("BY");
      OrderBy ob;
      ob.column = identifier("order-by column");
      if (keyword("DESC")) {
        ob.descending = true;
      } else {
        keyword("ASC");
      }
      s.order_by = std::move(ob);
    }
    if (keyword("LIMIT")) {
      if (!check(SqlTokenKind::Integer)) {
        throw SqlError("expected integer after LIMIT");
      }
      s.limit = static_cast<std::size_t>(advance().int_value);
    }
    return s;
  }

  SelectItem select_item() {
    SelectItem item;
    struct AggName {
      const char* kw;
      SelectItem::Kind kind;
    };
    static constexpr AggName kAggs[] = {
        {"COUNT", SelectItem::Kind::Count},
        {"SUM", SelectItem::Kind::Sum},
        {"AVG", SelectItem::Kind::Avg},
        {"MIN", SelectItem::Kind::Min},
        {"MAX", SelectItem::Kind::Max},
    };
    for (const auto& agg : kAggs) {
      if (peek().is_keyword(agg.kw) &&
          tokens_[pos_ + 1].kind == SqlTokenKind::LParen) {
        advance();  // aggregate name
        advance();  // '('
        if (agg.kind == SelectItem::Kind::Count &&
            match(SqlTokenKind::Star)) {
          item.kind = SelectItem::Kind::CountStar;
        } else {
          item.kind = agg.kind;
          item.column = identifier("aggregated column");
        }
        expect(SqlTokenKind::RParen, "')' after aggregate");
        return item;
      }
    }
    item.kind = SelectItem::Kind::Column;
    item.column = identifier("column name");
    return item;
  }

  Statement insert() {
    expect_keyword("INTO");
    InsertStmt s;
    s.table = identifier("table name");
    if (match(SqlTokenKind::LParen)) {
      s.columns.push_back(identifier("column name"));
      while (match(SqlTokenKind::Comma)) {
        s.columns.push_back(identifier("column name"));
      }
      expect(SqlTokenKind::RParen, "')'");
    }
    expect_keyword("VALUES");
    do {
      expect(SqlTokenKind::LParen, "'('");
      std::vector<SqlExprPtr> row;
      row.push_back(expression());
      while (match(SqlTokenKind::Comma)) row.push_back(expression());
      expect(SqlTokenKind::RParen, "')'");
      s.rows.push_back(std::move(row));
    } while (match(SqlTokenKind::Comma));
    return s;
  }

  Statement update() {
    UpdateStmt s;
    s.table = identifier("table name");
    expect_keyword("SET");
    do {
      std::string col = identifier("column name");
      expect(SqlTokenKind::Eq, "'='");
      s.assignments.emplace_back(std::move(col), expression());
    } while (match(SqlTokenKind::Comma));
    if (keyword("WHERE")) s.where = expression();
    return s;
  }

  Statement del() {
    expect_keyword("FROM");
    DeleteStmt s;
    s.table = identifier("table name");
    if (keyword("WHERE")) s.where = expression();
    return s;
  }

  Statement create_table() {
    CreateTableStmt s;
    s.table = identifier("table name");
    expect(SqlTokenKind::LParen, "'('");
    do {
      ColumnDef col;
      col.name = identifier("column name");
      col.type = column_type();
      s.columns.push_back(std::move(col));
    } while (match(SqlTokenKind::Comma));
    expect(SqlTokenKind::RParen, "')'");
    if (s.columns.empty()) throw SqlError("table needs at least one column");
    return s;
  }

  ColumnType column_type() {
    if (keyword("INT") || keyword("INTEGER") || keyword("BIGINT")) {
      return ColumnType::Integer;
    }
    if (keyword("REAL") || keyword("FLOAT") || keyword("DOUBLE")) {
      return ColumnType::Real;
    }
    if (keyword("TEXT") || keyword("STRING")) return ColumnType::Text;
    if (keyword("VARCHAR") || keyword("CHAR")) {
      if (match(SqlTokenKind::LParen)) {
        if (!check(SqlTokenKind::Integer)) {
          throw SqlError("expected length in VARCHAR(n)");
        }
        advance();
        expect(SqlTokenKind::RParen, "')'");
      }
      return ColumnType::Text;
    }
    throw SqlError("unknown column type near '" + peek().text + "'");
  }

  Statement create_index() {
    CreateIndexStmt s;
    // Accept both "CREATE INDEX ON t (col)" and
    // "CREATE INDEX name ON t (col)".
    if (!peek().is_keyword("ON")) identifier("index name");
    expect_keyword("ON");
    s.table = identifier("table name");
    expect(SqlTokenKind::LParen, "'('");
    s.column = identifier("column name");
    expect(SqlTokenKind::RParen, "')'");
    return s;
  }

  Statement drop_table() {
    expect_keyword("TABLE");
    DropTableStmt s;
    if (keyword("IF")) {
      expect_keyword("EXISTS");
      s.if_exists = true;
    }
    s.table = identifier("table name");
    return s;
  }

  // ---- expressions ----

  // Nesting bound: deeper input would overflow the stack, here or in the
  // tree's recursive evaluation and destructor. `depth_` counts open
  // recursion levels (parentheses, IN lists, NOT, unary signs);
  // `height_` is the height of the subtree parsed last, which the
  // left-associative loops (OR, AND, + - * /) grow without recursing.
  static constexpr int kMaxNesting = 1000;

  void bound(int n) const {
    if (n <= kMaxNesting) return;
    throw SqlError("expression nested deeper than " +
                   std::to_string(kMaxNesting) + " near '" + peek().text +
                   "'");
  }

  struct Nest {
    explicit Nest(SqlParser& owner) : parser(owner) {
      parser.bound(++parser.depth_);
    }
    ~Nest() { --parser.depth_; }
    SqlParser& parser;
  };

  /// Record a new node above children whose tallest is `child` high.
  void grow(int child) { bound(height_ = child + 1); }

  SqlExprPtr expression() {
    Nest nest(*this);
    return or_expr();
  }

  /// lhs `op` rhs, with the node's height recorded.
  SqlExprPtr binary(SqlBinOp op, SqlExprPtr lhs, int lhs_height,
                    SqlExprPtr (SqlParser::*operand)()) {
    SqlExprPtr rhs = (this->*operand)();
    grow(std::max(lhs_height, height_));
    return std::make_unique<SqlBinary>(op, std::move(lhs), std::move(rhs));
  }

  SqlExprPtr or_expr() {
    SqlExprPtr lhs = and_expr();
    while (keyword("OR")) {
      lhs = binary(SqlBinOp::Or, std::move(lhs), height_,
                   &SqlParser::and_expr);
    }
    return lhs;
  }

  SqlExprPtr and_expr() {
    SqlExprPtr lhs = not_expr();
    while (keyword("AND")) {
      lhs = binary(SqlBinOp::And, std::move(lhs), height_,
                   &SqlParser::not_expr);
    }
    return lhs;
  }

  SqlExprPtr not_expr() {
    if (!keyword("NOT")) return predicate();
    Nest nest(*this);
    SqlExprPtr operand = not_expr();
    grow(height_);
    return std::make_unique<SqlNot>(std::move(operand));
  }

  SqlExprPtr predicate() {
    SqlExprPtr lhs = additive();
    // IS [NOT] NULL
    if (keyword("IS")) {
      bool negated = keyword("NOT");
      expect_keyword("NULL");
      grow(height_);
      return std::make_unique<SqlIsNull>(std::move(lhs), negated);
    }
    bool negated = false;
    if (peek().is_keyword("NOT") &&
        (tokens_[pos_ + 1].is_keyword("LIKE") ||
         tokens_[pos_ + 1].is_keyword("IN"))) {
      keyword("NOT");
      negated = true;
    }
    if (keyword("LIKE")) {
      if (!check(SqlTokenKind::String)) {
        throw SqlError("expected string pattern after LIKE");
      }
      std::string pattern = advance().text;
      grow(height_);
      return std::make_unique<SqlLike>(std::move(lhs), std::move(pattern),
                                       negated);
    }
    if (keyword("IN")) {
      int tallest = height_;
      expect(SqlTokenKind::LParen, "'('");
      std::vector<SqlExprPtr> items;
      do {
        items.push_back(expression());
        tallest = std::max(tallest, height_);
      } while (match(SqlTokenKind::Comma));
      expect(SqlTokenKind::RParen, "')'");
      grow(tallest);
      return std::make_unique<SqlIn>(std::move(lhs), std::move(items),
                                     negated);
    }
    SqlBinOp op;
    switch (peek().kind) {
      case SqlTokenKind::Eq:
        op = SqlBinOp::Eq;
        break;
      case SqlTokenKind::NotEq:
        op = SqlBinOp::NotEq;
        break;
      case SqlTokenKind::Less:
        op = SqlBinOp::Less;
        break;
      case SqlTokenKind::LessEq:
        op = SqlBinOp::LessEq;
        break;
      case SqlTokenKind::Greater:
        op = SqlBinOp::Greater;
        break;
      case SqlTokenKind::GreaterEq:
        op = SqlBinOp::GreaterEq;
        break;
      default:
        return lhs;  // bare additive expression
    }
    advance();
    return binary(op, std::move(lhs), height_, &SqlParser::additive);
  }

  SqlExprPtr additive() {
    SqlExprPtr lhs = multiplicative();
    for (;;) {
      if (match(SqlTokenKind::Plus)) {
        lhs = binary(SqlBinOp::Add, std::move(lhs), height_,
                     &SqlParser::multiplicative);
      } else if (match(SqlTokenKind::Minus)) {
        lhs = binary(SqlBinOp::Subtract, std::move(lhs), height_,
                     &SqlParser::multiplicative);
      } else {
        return lhs;
      }
    }
  }

  SqlExprPtr multiplicative() {
    SqlExprPtr lhs = unary();
    for (;;) {
      if (match(SqlTokenKind::Star)) {
        lhs = binary(SqlBinOp::Multiply, std::move(lhs), height_,
                     &SqlParser::unary);
      } else if (match(SqlTokenKind::Slash)) {
        lhs = binary(SqlBinOp::Divide, std::move(lhs), height_,
                     &SqlParser::unary);
      } else {
        return lhs;
      }
    }
  }

  SqlExprPtr unary() {
    if (match(SqlTokenKind::Minus)) {
      Nest nest(*this);
      SqlExprPtr operand = unary();
      grow(height_);
      return std::make_unique<SqlNegate>(std::move(operand));
    }
    if (match(SqlTokenKind::Plus)) {
      Nest nest(*this);
      return unary();
    }
    return primary();
  }

  SqlExprPtr primary() {
    const SqlToken& t = peek();
    height_ = 1;  // a leaf; a parenthesized expression overwrites it
    switch (t.kind) {
      case SqlTokenKind::Integer:
        advance();
        return std::make_unique<SqlLiteral>(Value::integer(t.int_value));
      case SqlTokenKind::Real:
        advance();
        return std::make_unique<SqlLiteral>(Value::real(t.real_value));
      case SqlTokenKind::String:
        advance();
        return std::make_unique<SqlLiteral>(Value::text(t.text));
      case SqlTokenKind::LParen: {
        advance();
        SqlExprPtr e = expression();
        expect(SqlTokenKind::RParen, "')'");
        return e;
      }
      case SqlTokenKind::Identifier:
        if (t.is_keyword("NULL")) {
          advance();
          return std::make_unique<SqlLiteral>(Value::null());
        }
        if (t.is_keyword("TRUE")) {
          advance();
          return std::make_unique<SqlLiteral>(Value::integer(1));
        }
        if (t.is_keyword("FALSE")) {
          advance();
          return std::make_unique<SqlLiteral>(Value::integer(0));
        }
        advance();
        return std::make_unique<SqlColumnRef>(t.text);
      default:
        throw SqlError("unexpected token '" + t.text + "' in expression");
    }
  }

  std::vector<SqlToken> tokens_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int height_ = 0;
};

}  // namespace

Statement sql_parse(std::string_view input) {
  return SqlParser(sql_lex(input)).statement();
}

SqlExprPtr sql_parse_expression(std::string_view input) {
  return SqlParser(sql_lex(input)).lone_expression();
}

}  // namespace gridmon::rdbms
