#include <gtest/gtest.h>

#include <string>

#include "gridmon/classad/classad.hpp"
#include "gridmon/classad/parser.hpp"

namespace gridmon::classad {
namespace {

Value eval(const std::string& text, const ClassAd* my = nullptr,
           const ClassAd* target = nullptr, double now = 0) {
  auto e = parse_expression(text);
  EvalContext ctx;
  ctx.my = my;
  ctx.target = target;
  ctx.current_time = now;
  return e->evaluate(ctx);
}

TEST(ExprEvalTest, IntegerArithmetic) {
  EXPECT_EQ(eval("1 + 2 * 3").as_integer(), 7);
  EXPECT_EQ(eval("(1 + 2) * 3").as_integer(), 9);
  EXPECT_EQ(eval("10 / 3").as_integer(), 3);
  EXPECT_EQ(eval("10 % 3").as_integer(), 1);
  EXPECT_EQ(eval("-5 + 2").as_integer(), -3);
}

TEST(ExprEvalTest, RealPromotion) {
  EXPECT_DOUBLE_EQ(eval("1 + 2.5").as_real(), 3.5);
  EXPECT_DOUBLE_EQ(eval("10 / 4.0").as_real(), 2.5);
  EXPECT_TRUE(eval("1 + 2.5").is_real());
}

TEST(ExprEvalTest, DivisionByZeroIsError) {
  EXPECT_TRUE(eval("1 / 0").is_error());
  EXPECT_TRUE(eval("1 % 0").is_error());
  EXPECT_TRUE(eval("1.5 / 0").is_error());
}

TEST(ExprEvalTest, Comparisons) {
  EXPECT_TRUE(eval("3 < 4").as_boolean());
  EXPECT_FALSE(eval("4 < 3").as_boolean());
  EXPECT_TRUE(eval("3 <= 3").as_boolean());
  EXPECT_TRUE(eval("4 > 3").as_boolean());
  EXPECT_TRUE(eval("3 >= 3").as_boolean());
  EXPECT_TRUE(eval("3 == 3.0").as_boolean());
  EXPECT_TRUE(eval("3 != 4").as_boolean());
}

TEST(ExprEvalTest, StringComparisonCaseInsensitive) {
  EXPECT_TRUE(eval("\"LINUX\" == \"linux\"").as_boolean());
  EXPECT_TRUE(eval("\"abc\" < \"abd\"").as_boolean());
  EXPECT_FALSE(eval("\"abc\" == \"abd\"").as_boolean());
}

TEST(ExprEvalTest, MixedTypeComparisonIsError) {
  EXPECT_TRUE(eval("\"abc\" == 3").is_error());
  EXPECT_TRUE(eval("3 < \"abc\"").is_error());
}

TEST(ExprEvalTest, UndefinedPropagatesThroughArithmetic) {
  EXPECT_TRUE(eval("undefined + 1").is_undefined());
  EXPECT_TRUE(eval("undefined < 3").is_undefined());
  EXPECT_TRUE(eval("missing_attr + 1").is_undefined());
}

TEST(ExprEvalTest, ErrorDominatesUndefined) {
  EXPECT_TRUE(eval("error + undefined").is_error());
  EXPECT_TRUE(eval("(1/0) + undefined").is_error());
}

TEST(ExprEvalTest, LogicalTruthTables) {
  // FALSE dominates AND.
  EXPECT_FALSE(eval("false && undefined").as_boolean());
  EXPECT_FALSE(eval("undefined && false").as_boolean());
  EXPECT_FALSE(eval("false && error").as_boolean());
  EXPECT_TRUE(eval("true && undefined").is_undefined());
  EXPECT_TRUE(eval("true && error").is_error());
  EXPECT_TRUE(eval("true && true").as_boolean());
  // TRUE dominates OR.
  EXPECT_TRUE(eval("true || undefined").as_boolean());
  EXPECT_TRUE(eval("undefined || true").as_boolean());
  EXPECT_TRUE(eval("error || true").as_boolean());
  EXPECT_TRUE(eval("false || undefined").is_undefined());
  EXPECT_TRUE(eval("false || error").is_error());
  EXPECT_FALSE(eval("false || false").as_boolean());
}

TEST(ExprEvalTest, NumbersAsBooleans) {
  EXPECT_TRUE(eval("1 && true").as_boolean());
  EXPECT_FALSE(eval("0 || false").as_boolean());
}

TEST(ExprEvalTest, NotOperator) {
  EXPECT_FALSE(eval("!true").as_boolean());
  EXPECT_TRUE(eval("!0").as_boolean());
  EXPECT_TRUE(eval("!undefined").is_undefined());
  EXPECT_TRUE(eval("!\"str\"").is_error());
}

TEST(ExprEvalTest, MetaEquals) {
  EXPECT_TRUE(eval("undefined =?= undefined").as_boolean());
  EXPECT_FALSE(eval("undefined =?= 3").as_boolean());
  EXPECT_TRUE(eval("3 =?= 3").as_boolean());
  EXPECT_TRUE(eval("\"A\" =?= \"a\"").as_boolean());
  EXPECT_TRUE(eval("undefined =!= 3").as_boolean());
  EXPECT_FALSE(eval("undefined =!= undefined").as_boolean());
}

TEST(ExprEvalTest, TernaryConditional) {
  EXPECT_EQ(eval("true ? 1 : 2").as_integer(), 1);
  EXPECT_EQ(eval("false ? 1 : 2").as_integer(), 2);
  EXPECT_TRUE(eval("undefined ? 1 : 2").is_undefined());
  // Branches are lazy: the untaken branch may be erroneous.
  EXPECT_EQ(eval("true ? 1 : (1/0)").as_integer(), 1);
}

TEST(ExprEvalTest, AttributeResolutionMyThenTarget) {
  ClassAd my, target;
  my.insert("X", static_cast<std::int64_t>(1));
  target.insert("X", static_cast<std::int64_t>(2));
  target.insert("Y", static_cast<std::int64_t>(3));
  EXPECT_EQ(eval("X", &my, &target).as_integer(), 1);
  EXPECT_EQ(eval("Y", &my, &target).as_integer(), 3);
  EXPECT_EQ(eval("MY.X", &my, &target).as_integer(), 1);
  EXPECT_EQ(eval("TARGET.X", &my, &target).as_integer(), 2);
  EXPECT_TRUE(eval("TARGET.Z", &my, &target).is_undefined());
}

TEST(ExprEvalTest, AttrNamesAreCaseInsensitive) {
  ClassAd my;
  my.insert("CpuLoad", 55.0);
  EXPECT_DOUBLE_EQ(eval("cpuload", &my).as_real(), 55.0);
  EXPECT_DOUBLE_EQ(eval("CPULOAD", &my).as_real(), 55.0);
}

TEST(ExprEvalTest, ChainedAttributeReferences) {
  ClassAd my;
  my.insert_text("A", "B + 1");
  my.insert_text("B", "C * 2");
  my.insert("C", static_cast<std::int64_t>(5));
  EXPECT_EQ(eval("A", &my).as_integer(), 11);
}

TEST(ExprEvalTest, SelfReferenceHitsDepthGuard) {
  ClassAd my;
  my.insert_text("A", "A + 1");
  EXPECT_TRUE(eval("A", &my).is_error());
}

TEST(ExprEvalTest, TargetAttributeEvaluatesInTargetScope) {
  // The classic cross-referencing case: target's expression refers to its
  // own attributes.
  ClassAd my, target;
  target.insert_text("Memory", "RawMemory / 2");
  target.insert("RawMemory", static_cast<std::int64_t>(512));
  EXPECT_EQ(eval("TARGET.Memory", &my, &target).as_integer(), 256);
}

TEST(ExprEvalTest, BuiltinFunctions) {
  EXPECT_EQ(eval("floor(2.9)").as_integer(), 2);
  EXPECT_EQ(eval("ceiling(2.1)").as_integer(), 3);
  EXPECT_EQ(eval("round(2.5)").as_integer(), 3);
  EXPECT_EQ(eval("abs(-4)").as_integer(), 4);
  EXPECT_DOUBLE_EQ(eval("abs(-4.5)").as_real(), 4.5);
  EXPECT_EQ(eval("min(3, 7)").as_integer(), 3);
  EXPECT_EQ(eval("max(3, 7)").as_integer(), 7);
  EXPECT_EQ(eval("int(3.9)").as_integer(), 3);
  EXPECT_DOUBLE_EQ(eval("real(3)").as_real(), 3.0);
  EXPECT_EQ(eval("strcat(\"a\", \"b\", \"c\")").as_string(), "abc");
  EXPECT_EQ(eval("size(\"hello\")").as_integer(), 5);
  EXPECT_EQ(eval("toUpper(\"aBc\")").as_string(), "ABC");
  EXPECT_EQ(eval("toLower(\"aBc\")").as_string(), "abc");
  EXPECT_EQ(eval("substr(\"hello\", 1, 3)").as_string(), "ell");
  EXPECT_EQ(eval("substr(\"hello\", 3)").as_string(), "lo");
  EXPECT_EQ(eval("substr(\"hello\", -2)").as_string(), "lo");
}

TEST(ExprEvalTest, IsUndefinedIsErrorAreNonStrict) {
  EXPECT_TRUE(eval("isUndefined(undefined)").as_boolean());
  EXPECT_FALSE(eval("isUndefined(3)").as_boolean());
  EXPECT_TRUE(eval("isError(1/0)").as_boolean());
  EXPECT_FALSE(eval("isError(undefined)").as_boolean());
}

TEST(ExprEvalTest, TimeBuiltinUsesContext) {
  EXPECT_EQ(eval("time()", nullptr, nullptr, 1234.7).as_integer(), 1234);
}

TEST(ExprEvalTest, UnknownFunctionIsError) {
  EXPECT_TRUE(eval("fhqwhgads(1)").is_error());
}

TEST(ExprEvalTest, StrictFunctionPropagatesUndefined) {
  EXPECT_TRUE(eval("floor(undefined)").is_undefined());
  EXPECT_TRUE(eval("floor(1/0)").is_error());
}

TEST(ExprToStringTest, RoundTripThroughParser) {
  const char* exprs[] = {
      "(1 + (2 * 3))",
      "((CpuLoad > 50) && (OpSys == \"LINUX\"))",
      "(TARGET.Memory >= MY.MinMemory)",
      "(x =?= UNDEFINED)",
      "((a < b) ? \"low\" : \"high\")",
  };
  for (const char* text : exprs) {
    auto e1 = parse_expression(text);
    auto e2 = parse_expression(e1->to_string());
    EXPECT_EQ(e1->to_string(), e2->to_string()) << text;
  }
}

TEST(ExprParseTest, Errors) {
  EXPECT_THROW(parse_expression("1 +"), ParseError);
  EXPECT_THROW(parse_expression("(1"), ParseError);
  EXPECT_THROW(parse_expression("1 2"), ParseError);
  EXPECT_THROW(parse_expression("\"unterminated"), LexError);
  EXPECT_THROW(parse_expression("a ? b"), ParseError);
  EXPECT_THROW(parse_expression("@"), LexError);
}

TEST(ExprParseTest, DeepNestingIsAParseErrorNotACrash) {
  const std::size_t n = 100000;
  std::string parens = std::string(n, '(') + "1" + std::string(n, ')');
  EXPECT_THROW(parse_expression(parens), ParseError);

  std::string sum = "1";
  sum.reserve(2 * 1000001);
  for (int i = 0; i < 1000000; ++i) sum += "+1";
  EXPECT_THROW(parse_expression(sum), ParseError);

  std::string negs = std::string(n, '-') + "1";
  EXPECT_THROW(parse_expression(negs), ParseError);
  std::string ternary;
  for (std::size_t i = 0; i < n; ++i) ternary += "1?1:";
  EXPECT_THROW(parse_expression(ternary + "1"), ParseError);
}

TEST(ExprParseTest, NestingUpToTheBoundStillParses) {
  // The bound is 1000: 999 parentheses inside the top-level expression,
  // and a 1000-term sum (999 '+' nodes above the leaves).
  std::string parens = std::string(999, '(') + "1" + std::string(999, ')');
  EXPECT_EQ(eval(parens).as_integer(), 1);
  EXPECT_THROW(parse_expression("(" + parens + ")"), ParseError);
  std::string sum = "1";
  for (int i = 0; i < 999; ++i) sum += "+1";
  EXPECT_EQ(eval(sum).as_integer(), 1000);
  EXPECT_EQ(parse_expression(sum)->to_string().size(), 5 * 999 + 1000u);
  EXPECT_THROW(parse_expression(sum + "+1"), ParseError);
}

TEST(ExprParseTest, PrecedenceAndAssociativity) {
  EXPECT_EQ(eval("2 + 3 * 4 - 1").as_integer(), 13);
  EXPECT_EQ(eval("20 - 5 - 3").as_integer(), 12);  // left assoc
  EXPECT_EQ(eval("100 / 10 / 2").as_integer(), 5);
  EXPECT_TRUE(eval("1 < 2 == true").as_boolean());
  EXPECT_TRUE(eval("true || false && false").as_boolean());  // && binds tighter
}

TEST(ExprParseTest, ScientificNotation) {
  EXPECT_DOUBLE_EQ(eval("1e3").as_real(), 1000.0);
  EXPECT_DOUBLE_EQ(eval("2.5e-2").as_real(), 0.025);
}

}  // namespace
}  // namespace gridmon::classad
