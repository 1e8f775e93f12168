/**
 * @file
 * Differential property tests for the regex engine: a tiny,
 * obviously-correct exponential reference matcher is compared with
 * the production engine over a generated space of patterns and
 * subjects drawn from a small alphabet, and the linear tier is
 * compared with the test-only backtracking oracle over the full
 * dialect.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "classify/engine.hh"
#include "classify/prefilter.hh"
#include "classify/rules.hh"
#include "regex_oracle.hh"
#include "text/literal_scan.hh"
#include "text/regex.hh"
#include "text/regex_linear.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

/**
 * Reference matcher supporting the core subset: literals, '.',
 * alternation of two branches, '*', '+', '?' on single atoms, and
 * concatenation. Implemented by brute-force expansion with explicit
 * recursion over (pattern position, subject position).
 */
class ReferenceMatcher
{
  public:
    explicit ReferenceMatcher(std::string pattern)
        : pattern_(std::move(pattern))
    {
    }

    /** True when the pattern matches the whole subject. */
    bool
    fullMatch(const std::string &subject) const
    {
        return matchHere(0, subject, 0);
    }

    /** True when the pattern matches anywhere. */
    bool
    contains(const std::string &subject) const
    {
        // Try as a whole-match of any substring.
        for (std::size_t begin = 0; begin <= subject.size();
             ++begin) {
            for (std::size_t end = begin; end <= subject.size();
                 ++end) {
                if (fullMatch(subject.substr(begin, end - begin)))
                    return true;
            }
        }
        return false;
    }

  private:
    bool
    atomMatches(char atom, char c) const
    {
        return atom == '.' || atom == c;
    }

    // match pattern_[p..] against subject[s..] to the exact end.
    bool
    matchHere(std::size_t p, const std::string &subject,
              std::size_t s) const
    {
        // Top-level alternation: split on '|' outside any
        // quantifier (the generated patterns have no groups).
        if (p == 0) {
            std::size_t bar = pattern_.find('|');
            if (bar != std::string::npos) {
                ReferenceMatcher left(pattern_.substr(0, bar));
                ReferenceMatcher right(pattern_.substr(bar + 1));
                return left.fullMatch(subject.substr(s)) ||
                       right.fullMatch(subject.substr(s));
            }
        }
        if (p == pattern_.size())
            return s == subject.size();
        char atom = pattern_[p];
        char quant = p + 1 < pattern_.size() ? pattern_[p + 1] : 0;
        if (quant == '*' || quant == '+' || quant == '?') {
            std::size_t minReps = quant == '+' ? 1 : 0;
            std::size_t maxReps =
                quant == '?' ? 1 : subject.size() - s;
            // Try every repetition count (exponential but tiny).
            for (std::size_t reps = minReps; reps <= maxReps;
                 ++reps) {
                bool ok = true;
                for (std::size_t k = 0; k < reps; ++k) {
                    if (s + k >= subject.size() ||
                        !atomMatches(atom, subject[s + k])) {
                        ok = false;
                        break;
                    }
                }
                if (ok && matchHere(p + 2, subject, s + reps))
                    return true;
            }
            return false;
        }
        if (s < subject.size() && atomMatches(atom, subject[s]))
            return matchHere(p + 1, subject, s + 1);
        return false;
    }

    std::string pattern_;
};

/** Generate a random pattern over {a, b, .} with quantifiers. */
std::string
randomPattern(Rng &rng)
{
    static const char atoms[] = {'a', 'b', 'c', '.'};
    std::string pattern;
    std::size_t atomCount = 1 + rng.nextBelow(4);
    for (std::size_t i = 0; i < atomCount; ++i) {
        pattern += atoms[rng.nextBelow(4)];
        switch (rng.nextBelow(5)) {
          case 0: pattern += '*'; break;
          case 1: pattern += '+'; break;
          case 2: pattern += '?'; break;
          default: break;
        }
    }
    if (rng.nextBool(0.3)) {
        pattern += '|';
        std::size_t tailCount = 1 + rng.nextBelow(2);
        for (std::size_t i = 0; i < tailCount; ++i)
            pattern += atoms[rng.nextBelow(4)];
    }
    return pattern;
}

std::string
randomSubject(Rng &rng)
{
    static const char chars[] = {'a', 'b', 'c'};
    std::string subject;
    std::size_t length = rng.nextBelow(7);
    for (std::size_t i = 0; i < length; ++i)
        subject += chars[rng.nextBelow(3)];
    return subject;
}

class RegexDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(RegexDifferential, AgreesWithReference)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    for (int round = 0; round < 300; ++round) {
        std::string pattern = randomPattern(rng);
        auto compiled = Regex::compile(pattern);
        ASSERT_TRUE(compiled) << pattern;
        ReferenceMatcher reference(pattern);
        for (int s = 0; s < 8; ++s) {
            std::string subject = randomSubject(rng);
            bool expectedFull = reference.fullMatch(subject);
            bool actualFull = compiled.value().fullMatch(subject);
            ASSERT_EQ(actualFull, expectedFull)
                << "/" << pattern << "/ fullMatch '" << subject
                << "'";
            bool expectedFind = reference.contains(subject);
            bool actualFind = compiled.value().contains(subject);
            ASSERT_EQ(actualFind, expectedFind)
                << "/" << pattern << "/ contains '" << subject
                << "'";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexDifferential,
                         ::testing::Range(0, 8));

/**
 * Factor soundness over generated patterns: whenever the engine
 * finds a match, at least one extracted literal factor must occur in
 * the case-folded subject — otherwise the prefilter would skip a
 * matching pattern.
 */
TEST(LiteralFactors, SoundOverGeneratedPatterns)
{
    Rng rng(0xFAC70B5ULL);
    std::size_t factored = 0;
    for (int round = 0; round < 2000; ++round) {
        const std::string pattern = randomPattern(rng);
        auto compiled = Regex::compile(pattern);
        ASSERT_TRUE(compiled) << pattern;
        const std::vector<std::string> factors =
            compiled.value().literalFactors();
        if (factors.empty())
            continue;
        ++factored;
        for (int s = 0; s < 16; ++s) {
            const std::string subject = randomSubject(rng);
            if (!compiled.value().contains(subject))
                continue;
            const std::string folded = foldForScan(subject);
            bool anyFactorPresent = false;
            for (const std::string &factor : factors) {
                if (folded.find(factor) != std::string::npos) {
                    anyFactorPresent = true;
                    break;
                }
            }
            ASSERT_TRUE(anyFactorPresent)
                << "/" << pattern << "/ matched '" << subject
                << "' but no factor occurred";
        }
    }
    // The generator produces plenty of patterns with literal runs;
    // if extraction stopped finding them the test would go vacuous.
    EXPECT_GT(factored, 200u);
}

/**
 * Factor soundness over the production rule set: for every rule
 * pattern, a match in generated prose implies a factor hit. Subjects
 * are built from rule-set phrases so matches actually happen.
 */
TEST(LiteralFactors, SoundOverRuleSetPatterns)
{
    std::vector<const Regex *> patterns;
    for (const CategoryRule &rule : RuleSet::instance().rules()) {
        for (const Regex &regex : rule.accept)
            patterns.push_back(&regex);
        for (const Regex &regex : rule.relevance)
            patterns.push_back(&regex);
    }
    ASSERT_FALSE(patterns.empty());

    static const char *const phrases[] = {
        "the processor may hang",
        "a machine check exception is signaled",
        "page boundary is crossed",
        "MSR write",
        "cache line split lock",
        "unexpected page fault",
        "PMC may overcount",
        "system may reset during C6",
        "spurious corrected error interrupt",
        "TLB invalidation",
    };
    Rng rng(0x5EED5E7ULL);
    for (int round = 0; round < 200; ++round) {
        std::string subject;
        const std::size_t count = 1 + rng.nextBelow(4);
        for (std::size_t i = 0; i < count; ++i) {
            if (!subject.empty())
                subject += rng.nextBool(0.5) ? ". " : " ";
            subject += phrases[rng.nextBelow(
                sizeof(phrases) / sizeof(phrases[0]))];
        }
        const std::string folded = foldForScan(subject);
        for (const Regex *regex : patterns) {
            const std::vector<std::string> factors =
                regex->literalFactors();
            if (factors.empty() || !regex->contains(subject))
                continue;
            bool anyFactorPresent = false;
            for (const std::string &factor : factors) {
                if (folded.find(factor) != std::string::npos) {
                    anyFactorPresent = true;
                    break;
                }
            }
            ASSERT_TRUE(anyFactorPresent)
                << "rule pattern matched '" << subject
                << "' but no factor occurred";
        }
    }
}

/**
 * End-to-end prefilter differential: classifyText with the literal
 * prefilter must produce exactly the decisions of the unfiltered
 * engine on generated corpus-like prose.
 */
TEST(ClassifyPrefilter, DecisionsIdenticalWithAndWithoutPrefilter)
{
    static const char *const phrases[] = {
        "the processor may hang",
        "a machine check exception may be signaled",
        "when a page boundary is crossed",
        "writing the MSR",
        "a cache line split lock is asserted",
        "an unexpected page fault occurs",
        "the performance counter may overcount",
        "the system may reset while exiting C6",
        "a spurious corrected error interrupt is delivered",
        "the TLB is not invalidated",
        "completely unrelated text about nothing in particular",
    };
    Rng rng(0xD1FFULL);
    ClassifyStats stats;
    for (int round = 0; round < 120; ++round) {
        std::string body;
        const std::size_t count = 1 + rng.nextBelow(5);
        for (std::size_t i = 0; i < count; ++i) {
            if (!body.empty())
                body += ". ";
            body += phrases[rng.nextBelow(
                sizeof(phrases) / sizeof(phrases[0]))];
        }
        const std::string full = "Erratum title\n" + body;

        ClassifyOptions plain;
        plain.usePrefilter = false;
        ClassifyOptions fast;
        fast.usePrefilter = true;
        fast.stats = &stats;
        const EngineResult expected =
            classifyText(body, full, plain);
        const EngineResult actual = classifyText(body, full, fast);

        ASSERT_EQ(actual.decisions, expected.decisions)
            << "body: " << body;
        ASSERT_EQ(actual.manual, expected.manual);
        for (CategoryId id = 0; id < expected.decisions.size();
             ++id) {
            ASSERT_EQ(actual.autoYes.contains(id),
                      expected.autoYes.contains(id));
        }
    }
    // The prefilter must actually skip regex work on this corpus,
    // and every skipped pattern is one the engine never needed to
    // run.
    EXPECT_GT(stats.skipped, 0u);
    EXPECT_GT(stats.vmRuns, 0u);
}

// ---- linear tier vs backtracking oracle ----------------------------
//
// The library's lazy-DFA/Pike tier must agree with the test-only
// backtracking oracle (regex_oracle.hh) on every decision and every
// leftmost span, capture-group syntax included. Subjects on which
// the oracle's search runs out of its step budget are skipped: it
// gave up, so there is no span to compare.

/**
 * Pattern generator exercising the full supported dialect: classes,
 * groups (capturing and not), anchors, word boundaries, escape
 * classes, bounded/unbounded/lazy quantifiers and alternation.
 */
std::string
randomRichPattern(Rng &rng, int depth = 0)
{
    auto atom = [&]() -> std::string {
        switch (rng.nextBelow(depth >= 2 ? 8 : 10)) {
          case 0: return "a";
          case 1: return "b";
          case 2: return "0";
          case 3: return ".";
          case 4: return "\\d";
          case 5: return "\\w";
          case 6: return "\\s";
          case 7: {
            static const char *const classes[] = {
                "[ab]",  "[a-c]", "[^ab]",   "[a-z0-9]",
                "[\\d]", "[^a]",  "[b-c_x]",
            };
            return classes[rng.nextBelow(7)];
          }
          case 8:
            return "(?:" + randomRichPattern(rng, depth + 1) + ")";
          default:
            return "(" + randomRichPattern(rng, depth + 1) + ")";
        }
    };
    std::string pattern;
    std::size_t pieces = 1 + rng.nextBelow(3);
    for (std::size_t i = 0; i < pieces; ++i) {
        pattern += atom();
        switch (rng.nextBelow(8)) {
          case 0: pattern += '*'; break;
          case 1: pattern += '+'; break;
          case 2: pattern += '?'; break;
          case 3:
            pattern += '{';
            pattern += static_cast<char>('0' + rng.nextBelow(3));
            if (rng.nextBool(0.5)) {
                pattern += ',';
                if (rng.nextBool(0.7))
                    pattern +=
                        static_cast<char>('2' + rng.nextBelow(3));
            }
            pattern += '}';
            break;
          default: break;
        }
        // Lazy variant of whatever quantifier was emitted.
        if ((pattern.back() == '*' || pattern.back() == '+' ||
             pattern.back() == '}') &&
            rng.nextBool(0.25)) {
            pattern += '?';
        }
        if (rng.nextBool(0.1))
            pattern += rng.nextBool(0.5) ? "\\b" : "\\B";
    }
    if (depth == 0 && rng.nextBool(0.15))
        pattern.insert(0, "^");
    if (depth == 0 && rng.nextBool(0.15))
        pattern += "$";
    if (rng.nextBool(0.25) && depth < 2)
        pattern += "|" + randomRichPattern(rng, depth + 1);
    return pattern;
}

std::string
randomRichSubject(Rng &rng)
{
    static const char chars[] = {'a', 'b', 'c', 'x', '0', '1',
                                 ' ', '\n', '-', '_'};
    std::string subject;
    std::size_t length = rng.nextBelow(13);
    for (std::size_t i = 0; i < length; ++i)
        subject += chars[rng.nextBelow(sizeof(chars))];
    return subject;
}

class LinearVsBacktracking : public ::testing::TestWithParam<int>
{
};

TEST_P(LinearVsBacktracking, DecisionsAndSpansAgree)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
    for (int round = 0; round < 250; ++round) {
        std::string pattern = randomRichPattern(rng);
        RegexOptions options;
        options.ignoreCase = rng.nextBool(0.2);
        auto compiled = Regex::compile(pattern, options);
        ASSERT_TRUE(compiled) << pattern;
        const Regex &regex = compiled.value();
        for (int s = 0; s < 8; ++s) {
            std::string subject = randomRichSubject(rng);

            bool exhausted = false;
            auto vmMatch =
                searchBacktracking(regex, subject, 0, &exhausted);
            if (exhausted)
                continue; // the oracle gave up; nothing to compare
            auto linMatch = regex.search(subject);

            ASSERT_EQ(linMatch.has_value(), vmMatch.has_value())
                << "/" << pattern << "/ on '" << subject << "'";
            if (linMatch) {
                ASSERT_EQ(linMatch->begin, vmMatch->begin)
                    << "/" << pattern << "/ on '" << subject << "'";
                ASSERT_EQ(linMatch->end, vmMatch->end)
                    << "/" << pattern << "/ on '" << subject << "'";
            }
            ASSERT_EQ(regex.contains(subject), vmMatch.has_value())
                << "/" << pattern << "/ contains '" << subject
                << "'";
            ASSERT_EQ(regex.fullMatch(subject),
                      fullMatchBacktracking(regex, subject))
                << "/" << pattern << "/ fullMatch '" << subject
                << "'";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearVsBacktracking,
                         ::testing::Range(0, 8));

/**
 * The RBE204 hazard corpus: patterns whose failing subjects force
 * exponential backtracking. The linear tier must decide them
 * instantly and correctly; the oracle (with a small budget) exhausts
 * on the failing subjects and agrees on the matching ones.
 */
TEST(LinearVsBacktracking, HazardCorpusNeutralized)
{
    static const char *const hazards[] = {
        "(?:a+)+b", "(a+)+$",       "(?:a*)*b",
        "(?:a|a)+b", "(?:a+){2,}b", "(\\w+)+b",
    };
    const std::string without(40, 'a');
    const std::string with = without + "b";

    // A small budget keeps the exhausting oracle fast.
    constexpr std::size_t kBudget = 50000;
    for (const char *patternText : hazards) {
        auto regex = Regex::compileOrDie(patternText);

        // '(a+)+$' matches the bare a-run (it ends at $); the
        // b-terminated patterns match the b-terminated subject. The
        // other subject is the exponential-failure case for the
        // oracle.
        const bool anchorPattern =
            std::string(patternText) == "(a+)+$";
        const std::string &matching = anchorPattern ? without : with;
        const std::string &failing = anchorPattern ? with : without;

        // Correct decisions, no budget, no blowup.
        EXPECT_TRUE(regex.contains(matching)) << patternText;
        EXPECT_FALSE(regex.contains(failing)) << patternText;

        // Span agreement on the matching subject when the oracle can
        // still answer there.
        bool exhausted = false;
        auto vmMatch =
            searchBacktracking(regex, matching, 0, &exhausted, kBudget);
        if (!exhausted) {
            auto linMatch = regex.search(matching);
            ASSERT_TRUE(vmMatch.has_value()) << patternText;
            ASSERT_TRUE(linMatch.has_value()) << patternText;
            EXPECT_EQ(linMatch->begin, vmMatch->begin) << patternText;
            EXPECT_EQ(linMatch->end, vmMatch->end) << patternText;
        }

        // On the failing subject the oracle exhausts (that is the
        // hazard) and reports no match.
        exhausted = false;
        auto gaveUp =
            searchBacktracking(regex, failing, 0, &exhausted, kBudget);
        EXPECT_FALSE(gaveUp.has_value()) << patternText;
        EXPECT_TRUE(exhausted) << patternText;
    }
}

/**
 * Flush-on-overflow: with the state cap shrunk to almost nothing the
 * DFA keeps flushing and falls back to the uncached NFA — decisions
 * must not change.
 */
TEST(LinearVsBacktracking, DecisionsSurviveCacheFlush)
{
    RegexLinear::setMaxDfaStatesForTest(3);
    Rng rng(0xF1A5ULL);
    for (int round = 0; round < 60; ++round) {
        std::string pattern = randomRichPattern(rng);
        auto compiled = Regex::compile(pattern);
        ASSERT_TRUE(compiled) << pattern;
        const Regex &regex = compiled.value();
        for (int s = 0; s < 4; ++s) {
            std::string subject = randomRichSubject(rng);
            bool exhausted = false;
            auto vmMatch =
                searchBacktracking(regex, subject, 0, &exhausted);
            if (exhausted)
                continue;
            ASSERT_EQ(regex.contains(subject), vmMatch.has_value())
                << "/" << pattern << "/ on '" << subject << "'";
        }
    }
    RegexLinear::setMaxDfaStatesForTest(0);
}

/**
 * One compiled Regex, many threads: the shared lazy-DFA cache must
 * stay consistent under concurrent scans (exercised under TSan in
 * tools/ci.sh).
 */
TEST(LinearVsBacktracking, SharedRegexScansConcurrently)
{
    auto regex = Regex::compileOrDie(
        "(?:hang|fault|err[a-z0-9_]*)\\b|machine check");
    static const char *const subjects[] = {
        "the processor may hang",
        "an err_code_17 is latched",
        "a machine check exception",
        "errxyz without boundary_",
        "completely unrelated text",
        "faults and hangs everywhere",
    };
    bool expected[6];
    for (int i = 0; i < 6; ++i)
        expected[i] = containsBacktracking(regex, subjects[i]);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int round = 0; round < 300; ++round) {
                for (int i = 0; i < 6; ++i) {
                    if (regex.contains(subjects[i]) != expected[i])
                        mismatches.fetch_add(1);
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
}

/** The automaton screens conservatively: a skipped pattern never
 * matches, checked pattern-by-pattern against the regex engine. */
TEST(ClassifyPrefilter, SkippedPatternsNeverMatch)
{
    const ClassifyPrefilter &prefilter =
        ClassifyPrefilter::instance();
    const std::string body =
        "the processor may hang when a page boundary is crossed. "
        "a machine check exception may be signaled";
    const std::string folded = foldForScan(body);
    std::vector<std::uint8_t> hits;
    prefilter.scanBody(folded, hits);

    std::size_t category = 0;
    for (const CategoryRule &rule : RuleSet::instance().rules()) {
        for (std::size_t p = 0; p < rule.accept.size(); ++p) {
            if (prefilter.acceptState(hits, category, p) ==
                PrefilterState::Skip) {
                ASSERT_FALSE(rule.accept[p].contains(body));
            }
        }
        ++category;
    }
}

} // namespace
} // namespace rememberr
