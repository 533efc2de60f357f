#include <gtest/gtest.h>

#include <string>

#include "gridmon/rdbms/database.hpp"
#include "gridmon/rdbms/sql_parser.hpp"

namespace gridmon::rdbms {
namespace {

Database grid_db() {
  Database db;
  db.execute(
      "CREATE TABLE cpuload (host VARCHAR(64), site TEXT, load REAL, "
      "ts INT)");
  db.execute(
      "INSERT INTO cpuload VALUES "
      "('lucky0', 'anl', 0.5, 100), "
      "('lucky1', 'anl', 1.5, 100), "
      "('lucky3', 'anl', 0.9, 110), "
      "('ucgrid1', 'uc', 2.5, 120), "
      "('ucgrid2', 'uc', 0.1, 130)");
  return db;
}

TEST(SqlTest, CreateInsertSelectStar) {
  auto db = grid_db();
  auto r = db.execute("SELECT * FROM cpuload");
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.rows_examined, 5u);
}

TEST(SqlTest, SelectProjection) {
  auto db = grid_db();
  auto r = db.execute("SELECT host, load FROM cpuload WHERE site = 'uc'");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"host", "load"}));
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(SqlTest, WhereComparisons) {
  auto db = grid_db();
  EXPECT_EQ(db.execute("SELECT * FROM cpuload WHERE load > 1.0").rows.size(),
            2u);
  EXPECT_EQ(db.execute("SELECT * FROM cpuload WHERE load <= 0.5").rows.size(),
            2u);
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host != 'lucky0'").rows.size(),
      4u);
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host <> 'lucky0'").rows.size(),
      4u);
}

TEST(SqlTest, WhereBooleanComposition) {
  auto db = grid_db();
  auto r = db.execute(
      "SELECT host FROM cpuload WHERE site = 'anl' AND load < 1.0");
  EXPECT_EQ(r.rows.size(), 2u);
  r = db.execute(
      "SELECT host FROM cpuload WHERE load > 2.0 OR load < 0.2");
  EXPECT_EQ(r.rows.size(), 2u);
  r = db.execute("SELECT host FROM cpuload WHERE NOT site = 'anl'");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(SqlTest, LikePatterns) {
  auto db = grid_db();
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host LIKE 'lucky%'").rows.size(),
      3u);
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host LIKE '%grid%'").rows.size(),
      2u);
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host LIKE 'lucky_'").rows.size(),
      3u);
  EXPECT_EQ(db.execute("SELECT * FROM cpuload WHERE host NOT LIKE 'lucky%'")
                .rows.size(),
            2u);
  // Case-insensitive, MySQL-style.
  EXPECT_EQ(
      db.execute("SELECT * FROM cpuload WHERE host LIKE 'LUCKY%'").rows.size(),
      3u);
}

TEST(SqlTest, InList) {
  auto db = grid_db();
  auto r = db.execute(
      "SELECT * FROM cpuload WHERE host IN ('lucky0', 'ucgrid2')");
  EXPECT_EQ(r.rows.size(), 2u);
  r = db.execute(
      "SELECT * FROM cpuload WHERE host NOT IN ('lucky0', 'ucgrid2')");
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST(SqlTest, OrderByAndLimit) {
  auto db = grid_db();
  auto r = db.execute("SELECT host FROM cpuload ORDER BY load DESC LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0], Value::text("ucgrid1"));
  EXPECT_EQ(r.rows[1][0], Value::text("lucky1"));
  r = db.execute("SELECT host FROM cpuload ORDER BY load ASC LIMIT 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::text("ucgrid2"));
}

TEST(SqlTest, NullSemantics) {
  Database db;
  db.execute("CREATE TABLE t (a INT, b TEXT)");
  db.execute("INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL)");
  // NULL never matches a comparison.
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE a > 0").rows.size(), 2u);
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE a = NULL").rows.size(), 0u);
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE a IS NULL").rows.size(), 1u);
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE a IS NOT NULL").rows.size(),
            2u);
  // Kleene: unknown OR true = true.
  EXPECT_EQ(db.execute("SELECT * FROM t WHERE a > 0 OR b = 'y'").rows.size(),
            3u);
}

TEST(SqlTest, UpdateRows) {
  auto db = grid_db();
  auto r = db.execute("UPDATE cpuload SET load = 0.0 WHERE site = 'anl'");
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(db.execute("SELECT * FROM cpuload WHERE load = 0.0").rows.size(),
            3u);
  // Expression referencing the row's own columns.
  db.execute("UPDATE cpuload SET load = load + 1 WHERE host = 'ucgrid1'");
  auto check = db.execute("SELECT load FROM cpuload WHERE host = 'ucgrid1'");
  ASSERT_EQ(check.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(check.rows[0][0].as_number(), 3.5);
}

TEST(SqlTest, DeleteRows) {
  auto db = grid_db();
  auto r = db.execute("DELETE FROM cpuload WHERE site = 'uc'");
  EXPECT_EQ(r.affected, 2u);
  EXPECT_EQ(db.execute("SELECT * FROM cpuload").rows.size(), 3u);
  r = db.execute("DELETE FROM cpuload");
  EXPECT_EQ(r.affected, 3u);
  EXPECT_EQ(db.execute("SELECT * FROM cpuload").rows.size(), 0u);
}

TEST(SqlTest, InsertWithExplicitColumns) {
  auto db = grid_db();
  db.execute("INSERT INTO cpuload (host, load) VALUES ('partial', 9.9)");
  auto r = db.execute("SELECT site, ts FROM cpuload WHERE host = 'partial'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(r.rows[0][0].is_null());
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST(SqlTest, CreateIndexAndDrop) {
  auto db = grid_db();
  db.execute("CREATE INDEX ON cpuload (host)");
  EXPECT_TRUE(db.table("cpuload").has_index_on("host"));
  db.execute("CREATE INDEX idx_name ON cpuload (site)");
  EXPECT_TRUE(db.table("cpuload").has_index_on("site"));
  db.execute("DROP TABLE cpuload");
  EXPECT_FALSE(db.has_table("cpuload"));
  db.execute("DROP TABLE IF EXISTS cpuload");  // no throw
  EXPECT_THROW(db.execute("DROP TABLE cpuload"), SqlError);
}

TEST(SqlTest, TableNamesCaseInsensitive) {
  auto db = grid_db();
  EXPECT_EQ(db.execute("SELECT * FROM CPULOAD").rows.size(), 5u);
  EXPECT_TRUE(db.has_table("CpuLoad"));
}

TEST(SqlTest, StringEscapes) {
  Database db;
  db.execute("CREATE TABLE t (s TEXT)");
  db.execute("INSERT INTO t VALUES ('o''brien')");
  auto r = db.execute("SELECT * FROM t WHERE s = 'o''brien'");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST(SqlTest, ArithmeticInSelectViaWhere) {
  auto db = grid_db();
  auto r = db.execute("SELECT host FROM cpuload WHERE load * 2 > 2.9");
  EXPECT_EQ(r.rows.size(), 2u);
  r = db.execute("SELECT host FROM cpuload WHERE ts - 100 >= 20");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST(SqlTest, ParseErrors) {
  Database db;
  EXPECT_THROW(db.execute("SELEC * FROM x"), SqlError);
  EXPECT_THROW(db.execute("SELECT FROM x"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM"), SqlError);
  EXPECT_THROW(db.execute("CREATE TABLE t ()"), SqlError);
  EXPECT_THROW(db.execute("INSERT INTO t VALUES (1"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM t WHERE"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM t LIMIT x"), SqlError);
}

/// `ts = 100` inside `parens` pairs of parentheses.
std::string parenthesized(int parens) {
  return std::string(static_cast<std::size_t>(parens), '(') + "ts = 100" +
         std::string(static_cast<std::size_t>(parens), ')');
}

/// `terms` comparisons joined by OR: a left-deep tree terms + 1 high.
std::string or_chain(int terms) {
  std::string text = "ts = 100";
  for (int i = 1; i < terms; ++i) text += " OR ts = 100";
  return text;
}

TEST(SqlTest, NestingBoundedAtOneThousand) {
  auto db = grid_db();
  const std::string select = "SELECT * FROM cpuload WHERE ";
  // The WHERE expression is one level; 999 parentheses fill the bound.
  EXPECT_EQ(db.execute(select + parenthesized(999)).rows.size(), 2u);
  EXPECT_THROW(db.execute(select + parenthesized(1000)), SqlError);
  // Far past the bound: a typed error, not a stack overflow.
  EXPECT_THROW(sql_parse(select + std::string(100000, '(')), SqlError);
  EXPECT_THROW(sql_parse(select + parenthesized(100000)), SqlError);
  EXPECT_THROW(sql_parse(select + std::string(100000, '-') + "1"),
               SqlError);
  std::string nots;
  for (int i = 0; i < 100000; ++i) nots += "NOT ";
  EXPECT_THROW(sql_parse(select + nots + "ts = 100"), SqlError);
  // Left-associative chains build height without recursing in the
  // parser, but evaluation and destruction still recurse.
  EXPECT_EQ(db.execute(select + or_chain(999)).rows.size(), 2u);
  EXPECT_THROW(db.execute(select + or_chain(1000)), SqlError);
  EXPECT_THROW(sql_parse(select + or_chain(100000)), SqlError);
}

TEST(SqlTest, RuntimeErrors) {
  auto db = grid_db();
  EXPECT_THROW(db.execute("SELECT nope FROM cpuload"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM nothere"), SqlError);
  EXPECT_THROW(db.execute("SELECT * FROM cpuload WHERE nocol = 1"), SqlError);
  EXPECT_THROW(db.execute("CREATE TABLE cpuload (x INT)"), SqlError);
}

TEST(SqlTest, SemicolonTolerated) {
  auto db = grid_db();
  EXPECT_EQ(db.execute("SELECT * FROM cpuload;").rows.size(), 5u);
}

TEST(SqlTest, WireBytesGrowsWithResult) {
  auto db = grid_db();
  auto all = db.execute("SELECT * FROM cpuload");
  auto one = db.execute("SELECT * FROM cpuload LIMIT 1");
  EXPECT_GT(all.wire_bytes(), one.wire_bytes());
}

TEST(SqlExprTest, StandaloneExpressionParse) {
  auto e = sql_parse_expression("load > 0.5 AND site = 'anl'");
  Schema schema({{"site", ColumnType::Text}, {"load", ColumnType::Real}});
  Row row{Value::text("anl"), Value::real(0.7)};
  RowContext ctx{&schema, &row};
  EXPECT_EQ(e->eval(ctx), Value::integer(1));
}

TEST(SqlExprTest, LikeMatcherEdgeCases) {
  EXPECT_TRUE(SqlLike::like_match("", ""));
  EXPECT_TRUE(SqlLike::like_match("", "%"));
  EXPECT_FALSE(SqlLike::like_match("", "_"));
  EXPECT_TRUE(SqlLike::like_match("abc", "a%c"));
  EXPECT_TRUE(SqlLike::like_match("abc", "%%%"));
  EXPECT_TRUE(SqlLike::like_match("a%c", "a%c"));  // % in text
  EXPECT_FALSE(SqlLike::like_match("ab", "a"));
  EXPECT_TRUE(SqlLike::like_match("aXbXc", "a%b%c"));
}

}  // namespace
}  // namespace gridmon::rdbms
