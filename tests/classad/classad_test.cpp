#include "gridmon/classad/classad.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <string>

#include "gridmon/classad/parser.hpp"

namespace gridmon::classad {
namespace {

TEST(ClassAdTest, ParseOldSyntax) {
  auto ad = ClassAd::parse(
      "MyType = \"Machine\"\n"
      "OpSys = \"LINUX\"\n"
      "Memory = 512\n"
      "CpuLoad = 0.25\n"
      "# a comment line\n"
      "\n"
      "Requirements = CpuLoad < 0.5\n");
  EXPECT_EQ(ad.size(), 5u);
  EXPECT_EQ(ad.evaluate("OpSys").as_string(), "LINUX");
  EXPECT_EQ(ad.evaluate("Memory").as_integer(), 512);
  EXPECT_TRUE(ad.evaluate("Requirements").as_boolean());
}

TEST(ClassAdTest, ParseHandlesComparisonOperatorsOnRhs) {
  auto ad = ClassAd::parse("R = a == 3\nS = b <= 2\nT = c =?= UNDEFINED\n");
  EXPECT_TRUE(ad.contains("R"));
  EXPECT_TRUE(ad.contains("S"));
  EXPECT_TRUE(ad.evaluate("T").as_boolean());  // c is undefined
}

TEST(ClassAdTest, MissingAttributeIsUndefined) {
  ClassAd ad;
  EXPECT_TRUE(ad.evaluate("nope").is_undefined());
  EXPECT_EQ(ad.lookup("nope"), nullptr);
}

TEST(ClassAdTest, InsertShorthands) {
  ClassAd ad;
  ad.insert("i", static_cast<std::int64_t>(4));
  ad.insert("d", 2.5);
  ad.insert("b", true);
  ad.insert("s", "str");
  EXPECT_EQ(ad.evaluate("i").as_integer(), 4);
  EXPECT_DOUBLE_EQ(ad.evaluate("d").as_real(), 2.5);
  EXPECT_TRUE(ad.evaluate("b").as_boolean());
  EXPECT_EQ(ad.evaluate("s").as_string(), "str");
}

TEST(ClassAdTest, CaseInsensitiveNames) {
  ClassAd ad;
  ad.insert("OpSys", "LINUX");
  EXPECT_TRUE(ad.contains("opsys"));
  EXPECT_TRUE(ad.contains("OPSYS"));
  ad.insert("opsys", "SOLARIS");  // replaces, does not duplicate
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.evaluate("OpSys").as_string(), "SOLARIS");
}

TEST(ClassAdTest, EraseRemovesAttribute) {
  ClassAd ad;
  ad.insert("a", static_cast<std::int64_t>(1));
  ad.insert("b", static_cast<std::int64_t>(2));
  EXPECT_TRUE(ad.erase("A"));
  EXPECT_FALSE(ad.erase("A"));
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.names(), std::vector<std::string>{"b"});
}

TEST(ClassAdTest, UpdateMergesAndOverwrites) {
  ClassAd base, overlay;
  base.insert("a", static_cast<std::int64_t>(1));
  base.insert("b", static_cast<std::int64_t>(2));
  overlay.insert("b", static_cast<std::int64_t>(20));
  overlay.insert("c", static_cast<std::int64_t>(30));
  base.update(overlay);
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(base.evaluate("b").as_integer(), 20);
  EXPECT_EQ(base.evaluate("c").as_integer(), 30);
}

TEST(ClassAdTest, CopyIsDeep) {
  ClassAd a;
  a.insert_text("x", "y + 1");
  a.insert("y", static_cast<std::int64_t>(1));
  ClassAd b = a;
  b.insert("y", static_cast<std::int64_t>(100));
  EXPECT_EQ(a.evaluate("x").as_integer(), 2);
  EXPECT_EQ(b.evaluate("x").as_integer(), 101);
}

TEST(ClassAdTest, ToStringParsesBack) {
  auto ad = ClassAd::parse(
      "Name = \"lucky4\"\n"
      "Requirements = TARGET.CpuLoad > 50 && OpSys == \"LINUX\"\n"
      "Rank = Memory\n");
  auto round = ClassAd::parse(ad.to_string());
  EXPECT_EQ(ad.to_string(), round.to_string());
}

TEST(ClassAdTest, WireBytesGrowsWithContent) {
  ClassAd small, big;
  small.insert("a", static_cast<std::int64_t>(1));
  big = small;
  for (int i = 0; i < 50; ++i) {
    big.insert("attr_" + std::to_string(i), std::string(32, 'x'));
  }
  EXPECT_GT(big.wire_bytes(), small.wire_bytes() + 50 * 32);
}

TEST(ClassAdTest, ParseRejectsGarbage) {
  EXPECT_THROW(ClassAd::parse("this line has no equals\n"), ParseError);
  EXPECT_THROW(ClassAd::parse("= 3\n"), ParseError);
}

TEST(ClassAdTest, InsertionOrderPreservedInNames) {
  ClassAd ad;
  ad.insert("zeta", static_cast<std::int64_t>(1));
  ad.insert("alpha", static_cast<std::int64_t>(2));
  ad.insert("mid", static_cast<std::int64_t>(3));
  EXPECT_EQ(ad.names(),
            (std::vector<std::string>{"zeta", "alpha", "mid"}));
}

TEST(ClassAdTest, CaseInsensitiveReplaceKeepsFirstSpellingAndSlot) {
  ClassAd ad;
  ad.insert("MyType", "Machine");
  ad.insert("OpSys", "LINUX");
  ad.insert("Memory", static_cast<std::int64_t>(512));
  ad.insert("OPSYS", "SOLARIS");
  EXPECT_EQ(ad.names(),
            (std::vector<std::string>{"MyType", "OpSys", "Memory"}));
  EXPECT_EQ(ad.to_string(),
            "MyType = \"Machine\"\n"
            "OpSys = \"SOLARIS\"\n"
            "Memory = 512\n");
}

TEST(ClassAdTest, UpdateWithDifferentlyCasedNamesOverwritesInPlace) {
  ClassAd base, overlay;
  base.insert("Name", "lucky4");
  base.insert("CpuLoad", 0.5);
  base.insert("Memory", static_cast<std::int64_t>(512));
  overlay.insert("CPULOAD", 0.25);
  overlay.insert("memory", static_cast<std::int64_t>(1024));
  overlay.insert("Disk", static_cast<std::int64_t>(9));
  base.update(overlay);
  EXPECT_EQ(base.to_string(),
            "Name = \"lucky4\"\n"
            "CpuLoad = 0.25\n"
            "Memory = 1024\n"
            "Disk = 9\n");
}

TEST(ClassAdTest, EraseThenReinsertAppends) {
  ClassAd ad;
  ad.insert("a", static_cast<std::int64_t>(1));
  ad.insert("b", static_cast<std::int64_t>(2));
  ad.insert("c", static_cast<std::int64_t>(3));
  EXPECT_TRUE(ad.erase("A"));
  ad.insert("A", static_cast<std::int64_t>(4));
  EXPECT_EQ(ad.names(), (std::vector<std::string>{"b", "c", "A"}));
  EXPECT_EQ(ad.evaluate("a").as_integer(), 4);
}

TEST(ClassAdTest, MoveUpdateMatchesCopyUpdate) {
  auto make_base = [] {
    ClassAd ad;
    ad.insert("Name", "lucky4");
    ad.insert("CpuLoad", 0.5);
    return ad;
  };
  ClassAd overlay;
  overlay.insert_text("Requirements", "CpuLoad < 0.9 && TARGET.x == \"y\"");
  overlay.insert("cpuload", 0.75);
  overlay.insert("Disk", static_cast<std::int64_t>(9));
  ClassAd copied = make_base();
  copied.update(overlay);
  ClassAd moved = make_base();
  moved.update(ClassAd(overlay));
  EXPECT_EQ(moved.to_string(), copied.to_string());
  EXPECT_EQ(moved.names(), copied.names());
  EXPECT_EQ(overlay.size(), 3u);  // the copy-update source is untouched
}

TEST(ClassAdTest, NonAsciiBytesCompareByteExactly) {
  // Only 'A'..'Z' fold. Latin-1 "\xC9" (E-acute) and "\xE9" (e-acute),
  // and the UTF-8 spellings "\xC3\x89" / "\xC3\xA9", stay distinct under
  // any process locale, for attribute names and for string values.
  const std::string saved = std::setlocale(LC_ALL, nullptr);
  for (const char* loc :
       {"C", "C.UTF-8", "en_US.UTF-8", "en_US.ISO-8859-1", "de_DE.ISO-8859-1"}) {
    if (std::setlocale(LC_ALL, loc) == nullptr) continue;
    ClassAd ad;
    ad.insert("\xC9", static_cast<std::int64_t>(1));
    ad.insert("\xE9", static_cast<std::int64_t>(2));
    ad.insert("N\xC3\x89", static_cast<std::int64_t>(3));
    ad.insert("n\xC3\xA9", static_cast<std::int64_t>(4));
    EXPECT_EQ(ad.size(), 4u) << loc;
    EXPECT_EQ(ad.evaluate("\xC9").as_integer(), 1) << loc;
    EXPECT_EQ(ad.evaluate("n\xC3\x89").as_integer(), 3) << loc;
    EXPECT_FALSE(ad.contains("\xC3\xA9")) << loc;
    ad.insert_text("S", "\"\xC3\x89\" == \"\xC3\xA9\"");
    EXPECT_FALSE(ad.evaluate("S").as_boolean()) << loc;
    ad.insert_text("L", "\"\xC9\" == \"\xE9\"");
    EXPECT_FALSE(ad.evaluate("L").as_boolean()) << loc;
    ad.insert_text("U", "toupper(\"\xE9x\xC3\xA9\")");
    EXPECT_EQ(ad.evaluate("U").as_string(), "\xE9X\xC3\xA9") << loc;
    ad.insert_text("W", "tolower(\"\xC9X\xC3\x89\")");
    EXPECT_EQ(ad.evaluate("W").as_string(), "\xC9x\xC3\x89") << loc;
  }
  std::setlocale(LC_ALL, saved.c_str());
}

}  // namespace
}  // namespace gridmon::classad
