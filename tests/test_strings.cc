/**
 * @file
 * Unit tests for string helpers.
 */

#include <gtest/gtest.h>

#include "util/strings.hh"

namespace rememberr {
namespace strings {
namespace {

TEST(Trim, Basic)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim("hello"), "hello");
    EXPECT_EQ(trim("\t\n hello \r\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Split, KeepsEmptyFields)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split(",", ','),
              (std::vector<std::string>{"", ""}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespace, DropsEmpty)
{
    EXPECT_EQ(splitWhitespace("  a  b\tc\n"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitWhitespace("   ").empty());
    EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(SplitLines, HandlesCrLf)
{
    EXPECT_EQ(splitLines("a\nb\r\nc"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitLines("a\n"),
              (std::vector<std::string>{"a"}));
    EXPECT_EQ(splitLines("a\n\nb"),
              (std::vector<std::string>{"a", "", "b"}));
    EXPECT_TRUE(splitLines("").empty());
}

TEST(Join, Basic)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({"a"}, ","), "a");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Case, Conversions)
{
    EXPECT_EQ(toLower("MiXeD 123"), "mixed 123");
    EXPECT_EQ(toUpper("MiXeD 123"), "MIXED 123");
}

TEST(ReplaceAll, Basic)
{
    EXPECT_EQ(replaceAll("a-b-c", "-", "+"), "a+b+c");
    EXPECT_EQ(replaceAll("aaa", "aa", "b"), "ba");
    EXPECT_EQ(replaceAll("abc", "x", "y"), "abc");
    EXPECT_EQ(replaceAll("abc", "", "y"), "abc");
}

TEST(Affixes, StartsEndsWith)
{
    EXPECT_TRUE(startsWith("specification", "spec"));
    EXPECT_FALSE(startsWith("spec", "specification"));
    EXPECT_TRUE(endsWith("update", "date"));
    EXPECT_FALSE(endsWith("date", "update"));
    EXPECT_TRUE(startsWith("x", ""));
    EXPECT_TRUE(endsWith("x", ""));
}

TEST(ContainsIgnoreCase, Basic)
{
    EXPECT_TRUE(containsIgnoreCase("No Fix Planned.", "no fix"));
    EXPECT_TRUE(containsIgnoreCase("abc", ""));
    EXPECT_FALSE(containsIgnoreCase("abc", "abcd"));
    EXPECT_TRUE(containsIgnoreCase("BIOS update", "bios"));
    EXPECT_FALSE(containsIgnoreCase("BIOS update", "bias"));
}

TEST(EqualsIgnoreCase, Basic)
{
    EXPECT_TRUE(equalsIgnoreCase("DocumentationFix", "documentationfix"));
    EXPECT_TRUE(equalsIgnoreCase("", ""));
    EXPECT_FALSE(equalsIgnoreCase("intel", "intel "));
    EXPECT_FALSE(equalsIgnoreCase("amd", "and"));
}

TEST(Padding, LeftAndRight)
{
    EXPECT_EQ(padRight("ab", 5), "ab   ");
    EXPECT_EQ(padLeft("ab", 5), "   ab");
    EXPECT_EQ(padRight("abcdef", 3), "abcdef");
    EXPECT_EQ(padLeft("abcdef", 3), "abcdef");
}

TEST(Repeat, Basic)
{
    EXPECT_EQ(repeat("ab", 3), "ababab");
    EXPECT_EQ(repeat("x", 0), "");
    EXPECT_EQ(repeat("", 5), "");
}

TEST(Wrap, GreedyAtColumn)
{
    auto lines = wrap("the quick brown fox jumps", 10);
    for (const std::string &line : lines)
        EXPECT_LE(line.size(), 10u);
    EXPECT_EQ(join(lines, " "), "the quick brown fox jumps");
}

TEST(Wrap, LongWordUnbroken)
{
    auto lines = wrap("a verylongwordindeed b", 5);
    bool found = false;
    for (const std::string &line : lines)
        found |= line == "verylongwordindeed";
    EXPECT_TRUE(found);
}

TEST(Wrap, EmptyInput)
{
    auto lines = wrap("", 10);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(lines[0].empty());
}

TEST(Format, Doubles)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
    EXPECT_EQ(formatPercent(0.359, 1), "35.9%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
}

TEST(Canonicalize, NormalizesTitles)
{
    EXPECT_EQ(canonicalize("X87 FDP Value May be Saved Incorrectly"),
              "x87 fdp value may be saved incorrectly");
    // Punctuation collapses to single spaces.
    EXPECT_EQ(canonicalize("a,  b;c"), "a b c");
    // Intra-word hyphens/underscores survive.
    EXPECT_EQ(canonicalize("MC4_STATUS is virtual-8086"),
              "mc4_status is virtual-8086");
    EXPECT_EQ(canonicalize("  "), "");
}

TEST(Canonicalize, EqualForPhrasingNoise)
{
    EXPECT_EQ(canonicalize("Processor May Hang."),
              canonicalize("processor may hang"));
}

} // namespace
} // namespace strings
} // namespace rememberr
