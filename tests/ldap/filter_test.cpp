#include "gridmon/ldap/filter.hpp"

#include <gtest/gtest.h>

namespace gridmon::ldap {
namespace {

Entry host_entry() {
  Entry e(Dn::parse("Mds-Host-hn=lucky7.mcs.anl.gov, o=grid"));
  e.add("objectclass", "MdsHost");
  e.add("Mds-Host-hn", "lucky7.mcs.anl.gov");
  e.add("Mds-Cpu-Total-count", "2");
  e.add("Mds-Memory-Ram-Total-sizeMB", "512");
  e.add("Mds-Os-name", "Linux");
  e.add("description", "compute node");
  return e;
}

TEST(FilterTest, EqualityCaseInsensitive) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name=linux)")->matches(e));
  EXPECT_TRUE(Filter::parse("(MDS-OS-NAME=LINUX)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Os-name=solaris)")->matches(e));
}

TEST(FilterTest, Presence) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(description=*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(no-such-attr=*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(objectclass=*)")->matches(e));
}

TEST(FilterTest, NumericOrdering) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Cpu-Total-count>=2)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Cpu-Total-count>=3)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Memory-Ram-Total-sizeMB<=512)")->matches(e));
  // Numeric, not lexicographic: "512" >= "64".
  EXPECT_TRUE(Filter::parse("(Mds-Memory-Ram-Total-sizeMB>=64)")->matches(e));
}

TEST(FilterTest, LexicographicOrderingForNonNumbers) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name>=lin)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Os-name<=abc)")->matches(e));
}

TEST(FilterTest, SubstringForms) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=*anl.gov)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=*mcs*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*anl*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*mcs*gov)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Host-hn=happy*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Host-hn=*edu)")->matches(e));
}

TEST(FilterTest, SubstringOrderMatters) {
  Entry e(Dn::parse("cn=x"));
  e.add("v", "abcdef");
  EXPECT_TRUE(Filter::parse("(v=*bc*de*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(v=*de*bc*)")->matches(e));
}

TEST(FilterTest, AndOrNot) {
  auto e = host_entry();
  EXPECT_TRUE(
      Filter::parse("(&(objectclass=MdsHost)(Mds-Os-name=linux))")->matches(e));
  EXPECT_FALSE(
      Filter::parse("(&(objectclass=MdsHost)(Mds-Os-name=aix))")->matches(e));
  EXPECT_TRUE(
      Filter::parse("(|(Mds-Os-name=aix)(Mds-Os-name=linux))")->matches(e));
  EXPECT_TRUE(Filter::parse("(!(Mds-Os-name=aix))")->matches(e));
  EXPECT_FALSE(Filter::parse("(!(Mds-Os-name=linux))")->matches(e));
}

TEST(FilterTest, NestedComposition) {
  auto e = host_entry();
  auto f = Filter::parse(
      "(&(objectclass=MdsHost)"
      "(|(Mds-Cpu-Total-count>=4)(Mds-Memory-Ram-Total-sizeMB>=256))"
      "(!(Mds-Os-name=windows)))");
  EXPECT_TRUE(f->matches(e));
}

TEST(FilterTest, ApproxTreatedAsEquality) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name~=linux)")->matches(e));
}

TEST(FilterTest, MultiValuedAttributeAnyValueMatches) {
  Entry e(Dn::parse("cn=multi"));
  e.add("member", "alice");
  e.add("member", "bob");
  EXPECT_TRUE(Filter::parse("(member=bob)")->matches(e));
  EXPECT_FALSE(Filter::parse("(member=carol)")->matches(e));
}

TEST(FilterTest, ToStringRoundTrip) {
  const char* filters[] = {
      "(objectclass=*)",
      "(&(a=1)(b=2))",
      "(|(a=1)(!(b=2)))",
      "(cn=lucky*anl*gov)",
      "(x>=10)",
      "(y<=20)",
  };
  for (const char* text : filters) {
    auto f1 = Filter::parse(text);
    auto f2 = Filter::parse(f1->to_string());
    EXPECT_EQ(f1->to_string(), f2->to_string()) << text;
  }
}

TEST(FilterTest, ParseErrors) {
  EXPECT_THROW(Filter::parse("no-parens"), FilterError);
  EXPECT_THROW(Filter::parse("(unclosed"), FilterError);
  EXPECT_THROW(Filter::parse("(&)"), FilterError);
  EXPECT_THROW(Filter::parse("(a=1)(b=2)"), FilterError);
  EXPECT_THROW(Filter::parse("(=value)"), FilterError);
  EXPECT_THROW(Filter::parse("(attr=)"), FilterError);
  EXPECT_THROW(Filter::parse("(attr)"), FilterError);
}

/// `levels` nested filters: levels - 1 negations around one item.
std::string nested_not(int levels) {
  std::string text;
  for (int i = 1; i < levels; ++i) text += "(!";
  text += "(a=1)";
  for (int i = 1; i < levels; ++i) text += ")";
  return text;
}

TEST(FilterTest, NestingBoundedAtOneThousand) {
  auto at_bound = Filter::parse(nested_not(1000));
  Entry e(Dn::parse("cn=x"));
  e.add("a", "1");
  // 999 negations of a true item.
  EXPECT_FALSE(at_bound->matches(e));
  EXPECT_EQ(at_bound->to_string(), nested_not(1000));
  EXPECT_THROW(Filter::parse(nested_not(1001)), FilterError);
  // Far past the bound: a typed error, not a stack overflow.
  EXPECT_THROW(Filter::parse(nested_not(100000)), FilterError);
  EXPECT_THROW(Filter::parse(std::string(100000, '(')), FilterError);
}

TEST(FilterTest, MatchAllMatchesAnything) {
  Entry bare(Dn::parse("cn=bare"));
  EXPECT_TRUE(Filter::match_all()->matches(bare));
}

}  // namespace
}  // namespace gridmon::ldap
