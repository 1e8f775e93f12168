/**
 * @file
 * Unit tests for the regex engine.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "regex_oracle.hh"
#include "text/regex.hh"

namespace rememberr {
namespace {

bool
matches(const char *pattern, const std::string &subject)
{
    return Regex::compileOrDie(pattern).contains(subject);
}

TEST(RegexCompile, RejectsSyntaxErrors)
{
    EXPECT_FALSE(Regex::compile("("));
    EXPECT_FALSE(Regex::compile(")"));
    EXPECT_FALSE(Regex::compile("a)"));
    EXPECT_FALSE(Regex::compile("["));
    EXPECT_FALSE(Regex::compile("[z-a]"));
    EXPECT_FALSE(Regex::compile("*a"));
    EXPECT_FALSE(Regex::compile("a\\"));
    EXPECT_FALSE(Regex::compile("(?<x>a)"));
    EXPECT_FALSE(Regex::compile("a{70}")); // bound > 64
}

TEST(RegexCompile, AcceptsValidPatterns)
{
    EXPECT_TRUE(Regex::compile("a"));
    EXPECT_TRUE(Regex::compile("a|b|c"));
    EXPECT_TRUE(Regex::compile("(a(b(c)))"));
    EXPECT_TRUE(Regex::compile("[a-z0-9_]+"));
    EXPECT_TRUE(Regex::compile("a{2,5}"));
    EXPECT_TRUE(Regex::compile("^\\d+$"));
    EXPECT_TRUE(Regex::compile("(?:ab)+"));
}

TEST(RegexMatch, Literals)
{
    EXPECT_TRUE(matches("cache", "the cache line"));
    EXPECT_FALSE(matches("cache", "the cash line"));
}

TEST(RegexMatch, Dot)
{
    EXPECT_TRUE(matches("c.t", "a cat"));
    EXPECT_TRUE(matches("c.t", "a cut"));
    EXPECT_FALSE(matches("c.t", "a c\nt")); // dot excludes newline
}

TEST(RegexMatch, Alternation)
{
    EXPECT_TRUE(matches("warm|cold", "a cold reset"));
    EXPECT_TRUE(matches("warm|cold", "a warm reset"));
    EXPECT_FALSE(matches("warm|cold", "a soft reset"));
    EXPECT_TRUE(matches("a|b|c|d", "d"));
}

TEST(RegexMatch, CharClasses)
{
    EXPECT_TRUE(matches("[abc]", "b"));
    EXPECT_FALSE(matches("[abc]", "d"));
    EXPECT_TRUE(matches("[a-z]+", "hello"));
    EXPECT_TRUE(matches("[^0-9]", "a"));
    EXPECT_FALSE(matches("^[^0-9]+$", "a1b"));
    EXPECT_TRUE(matches("[0-9a-fA-F]+", "DeadBeef"));
    EXPECT_TRUE(matches("[-a]", "x-y")); // literal '-' at edge
    EXPECT_TRUE(matches("[]a]", "]"));   // ']' first is literal
}

TEST(RegexMatch, EscapeClasses)
{
    EXPECT_TRUE(matches("\\d+", "MSR 0x123"));
    EXPECT_FALSE(matches("\\d", "no digits"));
    EXPECT_TRUE(matches("\\w+", "word_1"));
    EXPECT_TRUE(matches("\\s", "a b"));
    EXPECT_FALSE(matches("\\s", "ab"));
    EXPECT_TRUE(matches("\\D", "5a"));
    EXPECT_TRUE(matches("\\W", "a!b"));
    EXPECT_TRUE(matches("\\S", " x "));
}

TEST(RegexMatch, EscapeClassesInsideClasses)
{
    EXPECT_TRUE(matches("[\\d]+", "42"));
    EXPECT_TRUE(matches("[\\w.]+", "a.b_c"));
    EXPECT_TRUE(matches("[\\s,]", "a, b"));
}

TEST(RegexMatch, Quantifiers)
{
    EXPECT_TRUE(matches("^ab*c$", "ac"));
    EXPECT_TRUE(matches("^ab*c$", "abbbc"));
    EXPECT_TRUE(matches("^ab+c$", "abc"));
    EXPECT_FALSE(matches("^ab+c$", "ac"));
    EXPECT_TRUE(matches("^ab?c$", "ac"));
    EXPECT_TRUE(matches("^ab?c$", "abc"));
    EXPECT_FALSE(matches("^ab?c$", "abbc"));
}

TEST(RegexMatch, BraceQuantifiers)
{
    EXPECT_TRUE(matches("^a{3}$", "aaa"));
    EXPECT_FALSE(matches("^a{3}$", "aa"));
    EXPECT_TRUE(matches("^a{2,}$", "aaaa"));
    EXPECT_FALSE(matches("^a{2,}$", "a"));
    EXPECT_TRUE(matches("^a{2,4}$", "aaa"));
    EXPECT_FALSE(matches("^a{2,4}$", "aaaaa"));
}

TEST(RegexMatch, BraceNotQuantifierIsLiteral)
{
    // '{' not followed by a valid quantifier matches literally.
    EXPECT_TRUE(matches("a{x", "a{x"));
    EXPECT_TRUE(matches("^a\\{2\\}$", "a{2}"));
}

TEST(RegexMatch, Anchors)
{
    EXPECT_TRUE(matches("^start", "start of text"));
    EXPECT_FALSE(matches("^start", "a start"));
    EXPECT_TRUE(matches("end$", "the end"));
    EXPECT_FALSE(matches("end$", "end it"));
    // ^ and $ also match at line boundaries.
    EXPECT_TRUE(matches("^second", "first\nsecond"));
    EXPECT_TRUE(matches("first$", "first\nsecond"));
}

TEST(RegexMatch, WordBoundaries)
{
    EXPECT_TRUE(matches("\\bhang\\b", "may hang now"));
    EXPECT_FALSE(matches("\\bhang\\b", "change"));
    EXPECT_TRUE(matches("\\bMCE\\b", "an MCE occurs"));
    EXPECT_FALSE(matches("\\bMCE\\b", "EMCEE"));
    EXPECT_TRUE(matches("\\Bar\\b", "bar"));
    EXPECT_FALSE(matches("\\Bar\\b", "ar"));
}

TEST(RegexMatch, Groups)
{
    auto regex = Regex::compileOrDie("(\\w+)-(\\d+)");
    auto match = regex.search("id AAJ-143 here");
    ASSERT_TRUE(match);
    EXPECT_EQ(match->begin, 3u);
    EXPECT_EQ(match->end, 10u);
    EXPECT_EQ(match->text("id AAJ-143 here"), "AAJ-143");
}

TEST(RegexMatch, NonParticipatingGroup)
{
    // The span comes from whichever alternative matched.
    auto regex = Regex::compileOrDie("(a)|(b)");
    auto match = regex.search("xb");
    ASSERT_TRUE(match);
    EXPECT_EQ(match->begin, 1u);
    EXPECT_EQ(match->end, 2u);
}

TEST(RegexMatch, NonCapturingGroup)
{
    auto regex = Regex::compileOrDie("(?:ab)+(c)");
    auto match = regex.search("ababc");
    ASSERT_TRUE(match);
    EXPECT_EQ(match->begin, 0u);
    EXPECT_EQ(match->end, 5u);
}

TEST(RegexMatch, GroupsDoNotCapture)
{
    // (...) compiles exactly like (?:...): the only Save slots left
    // are 0 and 1, around the whole match.
    auto plain = Regex::compileOrDie("(ab)+(c|d)");
    auto bare = Regex::compileOrDie("(?:ab)+(?:c|d)");
    ASSERT_EQ(plain.program().insts->size(),
              bare.program().insts->size());
    std::size_t saves = 0;
    for (std::size_t i = 0; i < plain.program().insts->size(); ++i) {
        const redetail::Inst &a = (*plain.program().insts)[i];
        const redetail::Inst &b = (*bare.program().insts)[i];
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.arg1, b.arg1);
        EXPECT_EQ(a.arg2, b.arg2);
        if (a.op == redetail::Op::Save)
            ++saves;
    }
    EXPECT_EQ(saves, 2u);
}

TEST(RegexMatch, GreedyVsLazy)
{
    auto greedy = Regex::compileOrDie("<.*>");
    auto lazy = Regex::compileOrDie("<.*?>");
    std::string subject = "<a><b>";
    EXPECT_EQ(greedy.search(subject)->length(), 6u);
    EXPECT_EQ(lazy.search(subject)->length(), 3u);
}

TEST(RegexMatch, LeftmostMatchWins)
{
    auto regex = Regex::compileOrDie("b+");
    auto match = regex.search("abba abbba");
    ASSERT_TRUE(match);
    EXPECT_EQ(match->begin, 1u);
    EXPECT_EQ(match->end, 3u);
}

TEST(RegexFullMatch, RequiresWholeSubject)
{
    auto regex = Regex::compileOrDie("a+b");
    EXPECT_TRUE(regex.fullMatch("aaab"));
    EXPECT_FALSE(regex.fullMatch("aaabc"));
    EXPECT_FALSE(regex.fullMatch("xaab"));
    // The full-length alternative must be found.
    auto tricky = Regex::compileOrDie("(a|ab)c?");
    EXPECT_TRUE(tricky.fullMatch("abc"));
    EXPECT_TRUE(tricky.fullMatch("ab"));
    EXPECT_TRUE(tricky.fullMatch("ac"));
}

TEST(RegexFindAll, NonOverlapping)
{
    auto regex = Regex::compileOrDie("\\d+");
    auto all = regex.findAll("MC0 and MC4 at 0x123");
    // "0" (MC0), "4" (MC4), "0" (0x) and "123".
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].text("MC0 and MC4 at 0x123"), "0");
    EXPECT_EQ(all[1].text("MC0 and MC4 at 0x123"), "4");
    EXPECT_EQ(all[3].text("MC0 and MC4 at 0x123"), "123");
}

TEST(RegexFindAll, EmptyMatchProgress)
{
    auto regex = Regex::compileOrDie("a*");
    auto all = regex.findAll("bab");
    // Must terminate and include empty matches at each position.
    EXPECT_GE(all.size(), 3u);
}

TEST(RegexCaseInsensitive, FoldsAscii)
{
    RegexOptions ci;
    ci.ignoreCase = true;
    auto regex = Regex::compileOrDie("machine check", ci);
    EXPECT_TRUE(regex.contains("Machine Check Exception"));
    EXPECT_TRUE(regex.contains("MACHINE CHECK"));
    EXPECT_FALSE(regex.contains("machine czech"));

    auto cls = Regex::compileOrDie("[a-z]+", ci);
    EXPECT_TRUE(cls.fullMatch("MiXeD"));
}

TEST(RegexStepLimit, ReportsExhaustion)
{
    // Classic catastrophic backtracking pattern.
    auto regex = Regex::compileOrDie("(a+)+$");
    const std::string subject = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaab";

    // The backtracking oracle blows its step budget and says so.
    bool exhausted = false;
    auto vmMatch = searchBacktracking(regex, subject, 0, &exhausted,
                                      2000);
    EXPECT_FALSE(vmMatch);
    EXPECT_TRUE(exhausted);

    // The library's linear tier decides the same subject with no
    // budget at all: the hazard class is structurally neutralized.
    EXPECT_FALSE(regex.search(subject));
    EXPECT_FALSE(regex.contains(subject));
    EXPECT_FALSE(regex.fullMatch(subject));
}

TEST(RegexEscape, EscapesMetacharacters)
{
    std::string escaped = regexEscape("a.b*c(d)[e]{f}|g\\h+i?");
    auto regex = Regex::compileOrDie(escaped);
    EXPECT_TRUE(regex.fullMatch("a.b*c(d)[e]{f}|g\\h+i?"));
    EXPECT_FALSE(regex.contains("aXbYc"));
}

TEST(RegexMatch, ControlEscapes)
{
    EXPECT_TRUE(matches("a\\tb", "a\tb"));
    EXPECT_TRUE(matches("a\\nb", "a\nb"));
    EXPECT_TRUE(matches("\\(x\\)", "f(x)"));
}

TEST(RegexSearch, FromOffset)
{
    auto regex = Regex::compileOrDie("a");
    auto match = regex.search("abca", 1);
    ASSERT_TRUE(match);
    EXPECT_EQ(match->begin, 3u);
}

/** Parameterized sweep: pattern/subject/expected triples. */
struct RegexCase
{
    const char *pattern;
    const char *subject;
    bool expected;
};

/**
 * Prints a case by its subject and expectation. gtest and ctest name
 * each case by this text; the default printer dumps the struct's
 * bytes, pointers included, which change with every build.
 */
void
PrintTo(const RegexCase &c, std::ostream *os)
{
    *os << '"' << c.subject
        << (c.expected ? "\" matches" : "\" does not match");
}

class RegexSweep : public ::testing::TestWithParam<RegexCase>
{
};

TEST_P(RegexSweep, ContainsMatchesExpectation)
{
    const RegexCase &c = GetParam();
    EXPECT_EQ(matches(c.pattern, c.subject), c.expected)
        << "/" << c.pattern << "/ on '" << c.subject << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RegexSweep,
    ::testing::Values(
        RegexCase{"(warm|cold) reset", "apply a warm reset", true},
        RegexCase{"(warm|cold) reset", "warm restart", false},
        RegexCase{"C[0-9] power state", "the C6 power state", true},
        RegexCase{"C[0-9] power state", "the CX power state", false},
        RegexCase{"MC\\d+_(STATUS|ADDR)", "MC4_STATUS", true},
        RegexCase{"MC\\d+_(STATUS|ADDR)", "MC_STATUS", false},
        RegexCase{"^ID: \\w+", "ID: AAJ143", true},
        RegexCase{"^ID: \\w+", " ID: AAJ143", false},
        RegexCase{"\\bVM (exit|entry)\\b", "a VM exit occurs", true},
        RegexCase{"\\bVM (exit|entry)\\b", "NVMe exit", false},
        RegexCase{"x87|FPU", "the x87 FDP value", true},
        RegexCase{"0x[0-9A-Fa-f]+", "MSR 0x9A3", true},
        RegexCase{"0x[0-9A-Fa-f]+", "MSR 09A3", false},
        RegexCase{"a{2,3}b", "aab", true},
        RegexCase{"a{2,3}b", "ab", false},
        RegexCase{"(ab)*c", "ababc", true},
        RegexCase{"^(ab)*c$", "abac", false}));

} // namespace
} // namespace rememberr
