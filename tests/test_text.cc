/**
 * @file
 * Unit tests for tokenization, similarity metrics and the n-gram
 * index.
 */

#include <gtest/gtest.h>

#include "text/literal_scan.hh"
#include "text/ngram_index.hh"
#include "text/regex.hh"
#include "text/similarity.hh"
#include "text/tokenize.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

// ---- Tokenizer -----------------------------------------------------

// ---- table-driven vs <cctype> reference differential ---------------
//
// The production tokenizer classifies and lowercases through
// constexpr 256-entry tables; tokenizeReference keeps the original
// per-character <cctype> implementation. The two must agree on
// every byte value and every option combination — token text AND
// source spans.

std::vector<TokenizerOptions>
tokenizerOptionGrid()
{
    std::vector<TokenizerOptions> grid;
    for (bool stop : {false, true}) {
        for (bool numbers : {true, false}) {
            for (std::size_t minLen : {std::size_t{1},
                                       std::size_t{3}}) {
                TokenizerOptions options;
                options.dropStopWords = stop;
                options.keepNumbers = numbers;
                options.minLength = minLen;
                grid.push_back(options);
            }
        }
    }
    return grid;
}

TEST(TokenizeDifferential, AgreesOverAllByteValues)
{
    // Every byte value, each embedded in token-relevant contexts so
    // classification, joiner and lowercase behavior all trigger.
    for (const TokenizerOptions &options : tokenizerOptionGrid()) {
        for (int b = 0; b < 256; ++b) {
            char c = static_cast<char>(b);
            const std::string probes[] = {
                std::string(1, c),
                "a" + std::string(1, c) + "b",
                "A" + std::string(1, c),
                std::string(1, c) + "7",
                "x1" + std::string(1, c) + std::string(1, c) + "Y2",
                "the " + std::string(1, c) + " 42",
            };
            for (const std::string &probe : probes) {
                EXPECT_EQ(tokenize(probe, options),
                          tokenizeReference(probe, options))
                    << "byte " << b << " in '" << probe << "'";
            }
        }
    }
}

TEST(TokenizeDifferential, AgreesOverRandomByteStrings)
{
    Rng rng(0x70C3ULL);
    const auto grid = tokenizerOptionGrid();
    for (int round = 0; round < 4000; ++round) {
        std::string text;
        std::size_t length = rng.nextBelow(48);
        for (std::size_t i = 0; i < length; ++i) {
            text += static_cast<char>(
                static_cast<unsigned char>(rng.nextBelow(256)));
        }
        const TokenizerOptions &options =
            grid[rng.nextBelow(grid.size())];
        ASSERT_EQ(tokenize(text, options),
                  tokenizeReference(text, options))
            << "round " << round;
    }
}

TEST(Tokenize, BasicWords)
{
    auto words = tokenizeWords("The Processor May Hang");
    EXPECT_EQ(words, (std::vector<std::string>{"the", "processor",
                                               "may", "hang"}));
}

TEST(Tokenize, PreservesTechnicalTokens)
{
    auto words =
        tokenizeWords("MC4_STATUS in virtual-8086 mode with x87");
    EXPECT_EQ(words,
              (std::vector<std::string>{"mc4_status", "in",
                                        "virtual-8086", "mode",
                                        "with", "x87"}));
}

TEST(Tokenize, SpansMapBackToSource)
{
    std::string text = "a cache line";
    auto tokens = tokenize(text);
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(text.substr(tokens[1].begin,
                          tokens[1].end - tokens[1].begin),
              "cache");
}

TEST(Tokenize, StopWordRemoval)
{
    TokenizerOptions options;
    options.dropStopWords = true;
    auto words =
        tokenizeWords("the value of the register may be wrong",
                      options);
    EXPECT_EQ(words, (std::vector<std::string>{"value", "register",
                                               "wrong"}));
}

TEST(Tokenize, NumberFiltering)
{
    TokenizerOptions options;
    options.keepNumbers = false;
    auto words = tokenizeWords("revision 37 of 320836", options);
    EXPECT_EQ(words,
              (std::vector<std::string>{"revision", "of"}));
}

TEST(Tokenize, MinLength)
{
    TokenizerOptions options;
    options.minLength = 3;
    auto words = tokenizeWords("a an the cache", options);
    EXPECT_EQ(words, (std::vector<std::string>{"the", "cache"}));
}

TEST(Tokenize, TrailingJoinerNotAbsorbed)
{
    auto words = tokenizeWords("end. next");
    EXPECT_EQ(words, (std::vector<std::string>{"end", "next"}));
}

TEST(CharacterNgrams, Basic)
{
    auto grams = characterNgrams("abcd", 2);
    EXPECT_EQ(grams,
              (std::vector<std::string>{"ab", "bc", "cd"}));
    EXPECT_TRUE(characterNgrams("ab", 3).empty());
    EXPECT_TRUE(characterNgrams("abc", 0).empty());
}

TEST(CharacterNgrams, LowerCases)
{
    auto grams = characterNgrams("AbC", 3);
    ASSERT_EQ(grams.size(), 1u);
    EXPECT_EQ(grams[0], "abc");
}

// ---- Similarity metrics --------------------------------------------

TEST(Levenshtein, KnownDistances)
{
    EXPECT_EQ(levenshteinDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(levenshteinDistance("", "abc"), 3u);
    EXPECT_EQ(levenshteinDistance("abc", "abc"), 0u);
    EXPECT_EQ(levenshteinDistance("abc", ""), 3u);
    EXPECT_EQ(levenshteinDistance("ab", "ba"), 2u);
}

TEST(Levenshtein, Symmetric)
{
    EXPECT_EQ(levenshteinDistance("cache", "cash"),
              levenshteinDistance("cash", "cache"));
}

TEST(LevenshteinSimilarity, Bounds)
{
    EXPECT_DOUBLE_EQ(levenshteinSimilarity("x", "x"), 1.0);
    EXPECT_DOUBLE_EQ(levenshteinSimilarity("", ""), 1.0);
    EXPECT_DOUBLE_EQ(levenshteinSimilarity("ab", "cd"), 0.0);
}

TEST(Jaro, KnownValues)
{
    EXPECT_NEAR(jaroSimilarity("MARTHA", "MARHTA"), 0.944, 0.001);
    EXPECT_NEAR(jaroSimilarity("DWAYNE", "DUANE"), 0.822, 0.001);
    EXPECT_DOUBLE_EQ(jaroSimilarity("", ""), 1.0);
    EXPECT_DOUBLE_EQ(jaroSimilarity("a", ""), 0.0);
}

TEST(JaroWinkler, PrefixBoost)
{
    double jaro = jaroSimilarity("MARTHA", "MARHTA");
    double jw = jaroWinklerSimilarity("MARTHA", "MARHTA");
    EXPECT_GT(jw, jaro);
    EXPECT_NEAR(jw, 0.961, 0.001);
}

TEST(TokenJaccard, Basics)
{
    EXPECT_DOUBLE_EQ(tokenJaccardSimilarity({"a", "b"}, {"a", "b"}),
                     1.0);
    EXPECT_DOUBLE_EQ(tokenJaccardSimilarity({"a"}, {"b"}), 0.0);
    EXPECT_DOUBLE_EQ(tokenJaccardSimilarity({"a", "b"}, {"b", "c"}),
                     1.0 / 3.0);
    EXPECT_DOUBLE_EQ(tokenJaccardSimilarity({}, {}), 1.0);
}

TEST(TitleSimilarity, RobustToSmallEdits)
{
    double sim = titleSimilarity(
        "Processor May Hang When Switching Caches",
        "Processor Might Hang When Switching Caches");
    EXPECT_GT(sim, 0.85);
}

TEST(TitleSimilarity, RobustToWordReorder)
{
    double sim =
        titleSimilarity("Counter Overflow Causes Hang",
                        "Hang Causes Counter Overflow");
    EXPECT_GT(sim, 0.9);
}

TEST(TitleSimilarity, LowForUnrelated)
{
    // Jaro-Winkler assigns a ~0.55 floor to any prose pair, so
    // "low" for unrelated titles means well below 0.70, the review
    // threshold of the D3 metric ablation (dedup reviews at 0.85).
    double sim =
        titleSimilarity("X87 FDP Value May Be Saved Incorrectly",
                        "PCIe Link Retrains Unexpectedly");
    EXPECT_LT(sim, 0.65);
}

/**
 * Metric properties over a sweep of string pairs. The strings are
 * std::string so gtest prints (and ctest names) each pair by its
 * text; pointers would print their addresses.
 */
class SimilaritySweep
    : public ::testing::TestWithParam<std::pair<std::string, std::string>>
{
};

TEST_P(SimilaritySweep, MetricInvariants)
{
    auto [a, b] = GetParam();
    // Bounds.
    for (double value :
         {levenshteinSimilarity(a, b), jaroSimilarity(a, b),
          jaroWinklerSimilarity(a, b), titleSimilarity(a, b)}) {
        EXPECT_GE(value, 0.0);
        EXPECT_LE(value, 1.0 + 1e-9);
    }
    // Symmetry.
    EXPECT_DOUBLE_EQ(levenshteinSimilarity(a, b),
                     levenshteinSimilarity(b, a));
    EXPECT_NEAR(jaroSimilarity(a, b), jaroSimilarity(b, a), 1e-12);
    // Identity.
    EXPECT_DOUBLE_EQ(levenshteinSimilarity(a, a), 1.0);
    EXPECT_DOUBLE_EQ(jaroWinklerSimilarity(b, b), 1.0);
    // Triangle-ish: distance to self is minimal.
    EXPECT_LE(levenshteinDistance(a, a), levenshteinDistance(a, b));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SimilaritySweep,
    ::testing::Values(
        std::make_pair("cache line split", "cache line spilt"),
        std::make_pair("", "nonempty"),
        std::make_pair("a", "a"),
        std::make_pair("processor hang", "system hang"),
        std::make_pair("MC4_STATUS", "MC4_ADDR"),
        std::make_pair("completely different", "unrelated words")));

// ---- N-gram index ---------------------------------------------------

TEST(NgramIndex, FindsNearDuplicates)
{
    NgramIndex index(3);
    index.add("Processor May Hang When Switching Caches");
    index.add("PCIe Link May Retrain Unexpectedly");
    index.add("Processor Might Hang When Switching Caches");

    auto hits =
        index.query("Processor May Hang When Switching Caches",
                    0.3, 0);
    ASSERT_FALSE(hits.empty());
    EXPECT_EQ(hits.front().docId, 2u);
    EXPECT_GT(hits.front().overlap, 0.6);
}

TEST(NgramIndex, ExcludesSelf)
{
    NgramIndex index(3);
    index.add("alpha beta gamma");
    auto hits = index.query("alpha beta gamma", 0.1, 0);
    EXPECT_TRUE(hits.empty());
}

TEST(NgramIndex, NoFalseCandidatesForDisjointText)
{
    NgramIndex index(3);
    index.add("alpha beta gamma");
    auto hits = index.query("zzz yyy xxx", 0.1);
    EXPECT_TRUE(hits.empty());
}

TEST(NgramIndex, RanksByOverlap)
{
    NgramIndex index(3);
    index.add("cache line boundary crossing");     // 0
    index.add("cache line boundary");              // 1
    index.add("unrelated title entirely");         // 2
    auto hits = index.query("cache line boundary crossing", 0.1);
    ASSERT_GE(hits.size(), 2u);
    EXPECT_EQ(hits[0].docId, 0u);
    EXPECT_EQ(hits[1].docId, 1u);
}

TEST(NgramIndex, ShortTitlesStillIndexed)
{
    NgramIndex index(5);
    index.add("ab");
    index.add("ab");
    auto hits = index.query("ab", 0.5, 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].docId, 0u);
}

TEST(NgramIndex, SizeTracksAdds)
{
    NgramIndex index(3);
    EXPECT_EQ(index.size(), 0u);
    index.add("one");
    index.add("two");
    EXPECT_EQ(index.size(), 2u);
}

TEST(NgramIndex, ScratchQueryMatchesPlainQuery)
{
    NgramIndex index(3);
    index.add("cache line boundary crossing");
    index.add("cache line boundary");
    index.add("unrelated title entirely");
    index.add("processor may hang");

    NgramQueryScratch scratch;
    const char *const queries[] = {
        "cache line boundary crossing", "processor may hang",
        "zzz yyy xxx", "cache line"};
    // Repeated queries through the same scratch must match the
    // plain overload exactly (the scratch resets sparsely).
    for (int pass = 0; pass < 3; ++pass) {
        for (const char *query : queries) {
            auto plain = index.query(query, 0.1);
            auto fast = index.query(query, scratch, 0.1);
            ASSERT_EQ(fast.size(), plain.size()) << query;
            for (std::size_t i = 0; i < plain.size(); ++i) {
                EXPECT_EQ(fast[i].docId, plain[i].docId);
                EXPECT_EQ(fast[i].sharedGrams,
                          plain[i].sharedGrams);
                EXPECT_EQ(fast[i].overlap, plain[i].overlap);
            }
        }
    }
}

// ---- Literal scanner ------------------------------------------------

TEST(LiteralScanner, ClassicAhoCorasick)
{
    LiteralScanner scanner;
    scanner.addOwner(0, {"he"});
    scanner.addOwner(1, {"she"});
    scanner.addOwner(2, {"his"});
    scanner.addOwner(3, {"hers"});
    scanner.build();

    std::vector<std::uint8_t> hits;
    scanner.scan("ushers", hits);
    ASSERT_EQ(hits.size(), 4u);
    EXPECT_EQ(hits[0], 1); // "he" inside "ushers"
    EXPECT_EQ(hits[1], 1); // "she"
    EXPECT_EQ(hits[2], 0); // "his" absent
    EXPECT_EQ(hits[3], 1); // "hers"

    scanner.scan("this", hits);
    EXPECT_EQ(hits[0], 0);
    EXPECT_EQ(hits[1], 0);
    EXPECT_EQ(hits[2], 1);
    EXPECT_EQ(hits[3], 0);

    scanner.scan("", hits);
    for (std::uint8_t hit : hits)
        EXPECT_EQ(hit, 0);
}

TEST(LiteralScanner, AlternativeNeedlesAnyHitCounts)
{
    LiteralScanner scanner;
    scanner.addOwner(0, {"hang", "freeze"});
    scanner.addOwner(2, {"tlb"}); // sparse ids allowed
    scanner.build();

    std::vector<std::uint8_t> hits;
    scanner.scan("the system may freeze", hits);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[0], 1);
    EXPECT_EQ(hits[1], 0);
    EXPECT_EQ(hits[2], 0);

    scanner.scan("tlb shootdown causes hang", hits);
    EXPECT_EQ(hits[0], 1);
    EXPECT_EQ(hits[2], 1);
}

TEST(FoldForScan, LowerCasesAscii)
{
    EXPECT_EQ(foldForScan("MCE on Page-Boundary"),
              "mce on page-boundary");
    EXPECT_EQ(foldForScan(""), "");
}

// ---- Literal factor extraction --------------------------------------

TEST(LiteralFactors, PlainLiteralIsItsOwnFactor)
{
    auto regex = Regex::compileOrDie("machine check");
    auto factors = regex.literalFactors();
    ASSERT_EQ(factors.size(), 1u);
    EXPECT_EQ(factors[0], "machine check");
}

TEST(LiteralFactors, CaseIsFolded)
{
    RegexOptions options;
    options.ignoreCase = true;
    auto regex = Regex::compileOrDie("Machine Check", options);
    auto factors = regex.literalFactors();
    ASSERT_EQ(factors.size(), 1u);
    EXPECT_EQ(factors[0], "machine check");
}

TEST(LiteralFactors, AlternationYieldsAlternatives)
{
    auto regex = Regex::compileOrDie("hang|freeze");
    auto factors = regex.literalFactors();
    ASSERT_EQ(factors.size(), 2u);
    EXPECT_EQ(factors[0], "freeze"); // sorted
    EXPECT_EQ(factors[1], "hang");
}

TEST(LiteralFactors, OptionalPartsExpandIntoAlternatives)
{
    // "s?" is optional: factors are alternatives, so every matching
    // variant must contain at least one of them.
    auto regex = Regex::compileOrDie("cache lines? split");
    auto factors = regex.literalFactors();
    ASSERT_FALSE(factors.empty());
    for (const std::string variant :
         {"cache line split", "cache lines split"}) {
        bool anyPresent = false;
        for (const auto &factor : factors) {
            if (variant.find(factor) != std::string::npos) {
                anyPresent = true;
                break;
            }
        }
        EXPECT_TRUE(anyPresent) << variant;
    }
}

TEST(LiteralFactors, NoFactorForPureWildcards)
{
    auto regex = Regex::compileOrDie(".*");
    EXPECT_TRUE(regex.literalFactors().empty());
    auto regexClass = Regex::compileOrDie("[abc]+");
    EXPECT_TRUE(regexClass.literalFactors().empty());
}

TEST(LiteralFactors, AnchorsContributeNothing)
{
    auto regex = Regex::compileOrDie("^reset$");
    auto factors = regex.literalFactors();
    ASSERT_EQ(factors.size(), 1u);
    EXPECT_EQ(factors[0], "reset");
}

} // namespace
} // namespace rememberr
