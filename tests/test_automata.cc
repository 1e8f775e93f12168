/**
 * @file
 * Tests for the bounded automata-theoretic decision procedures
 * (text/regex_automata.hh): inclusion, equivalence and intersection
 * emptiness over contains languages, witness validity re-checked
 * through the linear matching tier and the backtracking oracle, a
 * differential fuzz
 * against the exact-literal inclusion oracle, and budget semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "regex_oracle.hh"
#include "text/regex.hh"
#include "text/regex_automata.hh"
#include "text/regex_linear.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

Regex
rx(const std::string &pattern, bool ignore_case = false)
{
    RegexOptions options;
    options.ignoreCase = ignore_case;
    return Regex::compileOrDie(pattern, options);
}

/** A witness must agree with the linear tier and the oracle. */
void
expectContains(const Regex &regex, const std::string &text,
               bool expected)
{
    EXPECT_EQ(RegexLinear::contains(regex, text), expected)
        << "linear tier, pattern " << regex.pattern() << " text \""
        << escapeWitness(text) << '"';
    EXPECT_EQ(containsBacktracking(regex, text), expected)
        << "backtracking oracle, pattern " << regex.pattern()
        << " text \"" << escapeWitness(text) << '"';
}

TEST(AutomataInclusion, NonLiteralContainmentHolds)
{
    // Every string containing "ab" contains "a": the pair the
    // exact-literal screen can never decide.
    AutomataResult r = RegexAutomata::includes(rx("ab+"), rx("ab*"));
    EXPECT_TRUE(r.holds());
    EXPECT_GT(r.statesExplored, 0u);
}

TEST(AutomataInclusion, FailsWithShortestWitness)
{
    AutomataResult r = RegexAutomata::includes(rx("ab*"), rx("ab+"));
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness, "a");
    expectContains(rx("ab*"), r.witness, true);
    expectContains(rx("ab+"), r.witness, false);
}

TEST(AutomataInclusion, AnchoredPatternIsSubsetOfUnanchored)
{
    EXPECT_TRUE(RegexAutomata::includes(rx("^abc"), rx("abc")).holds());
    AutomataResult r = RegexAutomata::includes(rx("abc"), rx("^abc"));
    ASSERT_TRUE(r.fails());
    // Shortest counterexample has the match off every line start.
    EXPECT_EQ(r.witness.size(), 4u);
    expectContains(rx("abc"), r.witness, true);
    expectContains(rx("^abc"), r.witness, false);
}

TEST(AutomataInclusion, WordBoundaryHandled)
{
    EXPECT_TRUE(
        RegexAutomata::includes(rx("\\bfoo\\b"), rx("foo")).holds());
    AutomataResult r =
        RegexAutomata::includes(rx("foo"), rx("\\bfoo\\b"));
    ASSERT_TRUE(r.fails());
    expectContains(rx("foo"), r.witness, true);
    expectContains(rx("\\bfoo\\b"), r.witness, false);
}

TEST(AutomataInclusion, CaseFoldingRespected)
{
    EXPECT_TRUE(
        RegexAutomata::includes(rx("FOO"), rx("foo", true)).holds());
    AutomataResult r =
        RegexAutomata::includes(rx("foo", true), rx("foo"));
    ASSERT_TRUE(r.fails());
    expectContains(rx("foo", true), r.witness, true);
    expectContains(rx("foo"), r.witness, false);
}

TEST(AutomataInclusion, UnionSide)
{
    std::vector<Regex> outer;
    outer.push_back(rx("ab"));
    outer.push_back(rx("xyz"));
    std::vector<const Regex *> refs;
    for (const Regex &regex : outer)
        refs.push_back(&regex);
    EXPECT_TRUE(
        RegexAutomata::includedInUnion(rx("abc"), refs).holds());

    AutomataResult r = RegexAutomata::includedInUnion(rx("cat"), refs);
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness, "cat");
    expectContains(rx("cat"), r.witness, true);
    for (const Regex *regex : refs)
        expectContains(*regex, r.witness, false);
}

TEST(AutomataInclusion, EmptyUnionIsEmptyLanguage)
{
    AutomataResult r = RegexAutomata::includedInUnion(rx("a"), {});
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness, "a");
}

TEST(AutomataEquivalence, BasicsAndWitness)
{
    EXPECT_TRUE(RegexAutomata::equivalent(rx("abc"), rx("abc")).holds());
    // Same contains language spelled differently.
    EXPECT_TRUE(
        RegexAutomata::equivalent(rx("aa*"), rx("a+")).holds());
    EXPECT_TRUE(
        RegexAutomata::equivalent(rx("a", true), rx("A", true)).holds());

    AutomataResult r = RegexAutomata::equivalent(rx("a"), rx("b"));
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness, "a");
    expectContains(rx("a"), r.witness, true);
    expectContains(rx("b"), r.witness, false);
}

TEST(AutomataIntersection, LiteralOverlapWitness)
{
    AutomataResult r =
        RegexAutomata::intersectionEmpty(rx("cat"), rx("dog"));
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness.size(), 6u);
    expectContains(rx("cat"), r.witness, true);
    expectContains(rx("dog"), r.witness, true);
}

TEST(AutomataIntersection, EmptyLanguagePatterns)
{
    // A word boundary between two word characters never holds, and
    // nothing can follow an end-of-line before a non-newline char:
    // both languages are empty, so every intersection is empty.
    EXPECT_TRUE(
        RegexAutomata::intersectionEmpty(rx("a\\bb"), rx(".*")).holds());
    EXPECT_TRUE(
        RegexAutomata::intersectionEmpty(rx("$a"), rx("a")).holds());
    EXPECT_EQ(RegexAutomata::shortestAcceptedWord(rx("a\\bb")),
              std::nullopt);
}

TEST(AutomataShortestWord, PrintablePreferenceAndLength)
{
    EXPECT_EQ(RegexAutomata::shortestAcceptedWord(rx("ab+")), "ab");
    EXPECT_EQ(RegexAutomata::shortestAcceptedWord(rx("x|yy")), "x");
    EXPECT_EQ(RegexAutomata::shortestAcceptedWord(rx("a*")), "");
    // Class atoms pick the best-ranked representative byte.
    std::optional<std::string> word =
        RegexAutomata::shortestAcceptedWord(rx("[A-Z]\\d"));
    ASSERT_TRUE(word.has_value());
    EXPECT_EQ(word->size(), 2u);
    expectContains(rx("[A-Z]\\d"), *word, true);
}

TEST(AutomataBudget, DeterministicExhaustion)
{
    AutomataOptions options;
    options.stateBudget = 3;
    AutomataResult first =
        RegexAutomata::includes(rx("abcdef"), rx("uvwxyz"), options);
    ASSERT_TRUE(first.budgetExhausted());
    EXPECT_EQ(first.witness, "");
    for (int run = 0; run < 3; ++run) {
        AutomataResult again = RegexAutomata::includes(
            rx("abcdef"), rx("uvwxyz"), options);
        EXPECT_TRUE(again.budgetExhausted());
        EXPECT_EQ(again.statesExplored, first.statesExplored);
    }
}

TEST(AutomataBudget, LargeEnoughBudgetDecides)
{
    AutomataOptions options;
    options.stateBudget = AutomataOptions::defaultStateBudget();
    AutomataResult r =
        RegexAutomata::includes(rx("abcdef"), rx("uvwxyz"), options);
    ASSERT_TRUE(r.fails());
    EXPECT_EQ(r.witness, "abcdef");
}

TEST(AutomataWitness, EscapeForDisplay)
{
    EXPECT_EQ(escapeWitness("ab c"), "ab c");
    EXPECT_EQ(escapeWitness(std::string{'a', '\x01', 'b'}), "a\\x01b");
    EXPECT_EQ(escapeWitness("say \"hi\"\\"), "say \\\"hi\\\"\\\\");
}

/**
 * Differential oracle on literal alternations: the contains language
 * of `w1|w2|...` is "some wi is a substring", so inclusion between
 * two such patterns holds iff every left word has some right word as
 * a substring — the same decision the exact-literal screen in
 * ruleset_checks.cc makes. Fuzz the automata against it.
 */
TEST(AutomataDifferential, LiteralAlternationsMatchOracle)
{
    const std::vector<std::string> pool = {
        "a",  "b",   "ab",  "ba",  "abc", "bca",
        "aa", "abb", "cab", "bab", "c",   "cc",
    };
    Rng rng(0xa0707a7aULL);
    int fails_seen = 0;
    for (int iter = 0; iter < 200; ++iter) {
        auto draw = [&](std::size_t count) {
            std::vector<std::string> words;
            for (std::size_t i = 0; i < count; ++i)
                words.push_back(
                    pool[rng.nextBelow(pool.size())]);
            return words;
        };
        std::vector<std::string> left =
            draw(1 + rng.nextBelow(3));
        std::vector<std::string> right =
            draw(1 + rng.nextBelow(3));
        auto join = [](const std::vector<std::string> &words) {
            std::string pattern;
            for (const std::string &word : words) {
                if (!pattern.empty())
                    pattern.push_back('|');
                pattern += word;
            }
            return pattern;
        };
        Regex a = rx(join(left));
        Regex b = rx(join(right));

        bool oracle_incl = true;
        for (const std::string &lw : left) {
            bool covered = false;
            for (const std::string &rw : right)
                covered = covered ||
                          lw.find(rw) != std::string::npos;
            oracle_incl = oracle_incl && covered;
        }

        AutomataResult incl = RegexAutomata::includes(a, b);
        ASSERT_FALSE(incl.budgetExhausted())
            << join(left) << " vs " << join(right);
        EXPECT_EQ(incl.holds(), oracle_incl)
            << join(left) << " vs " << join(right);
        if (incl.fails()) {
            ++fails_seen;
            expectContains(a, incl.witness, true);
            expectContains(b, incl.witness, false);
        }

        AutomataResult equiv = RegexAutomata::equivalent(a, b);
        ASSERT_FALSE(equiv.budgetExhausted());
        bool oracle_equiv = oracle_incl;
        for (const std::string &rw : right) {
            bool covered = false;
            for (const std::string &lw : left)
                covered = covered ||
                          rw.find(lw) != std::string::npos;
            oracle_equiv = oracle_equiv && covered;
        }
        EXPECT_EQ(equiv.holds(), oracle_equiv)
            << join(left) << " vs " << join(right);
        if (equiv.fails()) {
            bool in_a = RegexLinear::contains(a, equiv.witness);
            bool in_b = RegexLinear::contains(b, equiv.witness);
            EXPECT_NE(in_a, in_b)
                << join(left) << " vs " << join(right)
                << " witness \"" << escapeWitness(equiv.witness)
                << '"';
        }
    }
    // The generator must actually exercise the negative side.
    EXPECT_GT(fails_seen, 20);
}

} // namespace
} // namespace rememberr
