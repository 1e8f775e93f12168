/**
 * @file
 * Differential tests for the bit-parallel and thresholded similarity
 * kernels: every fast path must agree exactly — bit-identically for
 * doubles — with the scalar reference implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/similarity.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

std::string
randomString(Rng &rng, std::size_t maxLength,
             std::size_t alphabet)
{
    std::string out;
    const std::size_t length = rng.nextBelow(maxLength + 1);
    for (std::size_t i = 0; i < length; ++i) {
        out += static_cast<char>('a' + rng.nextBelow(alphabet));
    }
    return out;
}

/** Full-matrix OSA Damerau distance, the obviously-correct shape the
 * rolling-row production version replaced. */
std::size_t
damerauReference(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size(), m = b.size();
    std::vector<std::vector<std::size_t>> d(
        n + 1, std::vector<std::size_t>(m + 1));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
            d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                                d[i - 1][j - 1] + cost});
            if (i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
                a[i - 2] == b[j - 1]) {
                d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
            }
        }
    }
    return d[n][m];
}

TEST(BitParallelLevenshtein, HandCases)
{
    EXPECT_EQ(levenshteinDistanceBitParallel("", ""), 0u);
    EXPECT_EQ(levenshteinDistanceBitParallel("", "abc"), 3u);
    EXPECT_EQ(levenshteinDistanceBitParallel("abc", ""), 3u);
    EXPECT_EQ(levenshteinDistanceBitParallel("kitten", "sitting"),
              3u);
    EXPECT_EQ(levenshteinDistanceBitParallel("flaw", "lawn"), 2u);
    EXPECT_EQ(levenshteinDistanceBitParallel("abc", "abc"), 0u);
}

TEST(BitParallelLevenshtein, MultiBlockBoundaries)
{
    // Lengths straddling the 64-bit block boundary exercise the
    // last-block hout mask and inter-block carries.
    for (std::size_t len :
         {std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{127}, std::size_t{128}, std::size_t{129},
          std::size_t{200}}) {
        std::string a(len, 'a');
        std::string b = a;
        b[len / 2] = 'b';
        EXPECT_EQ(levenshteinDistanceBitParallel(a, b), 1u)
            << "len " << len;
        EXPECT_EQ(levenshteinDistanceBitParallel(a, a + "xy"), 2u)
            << "len " << len;
        EXPECT_EQ(levenshteinDistanceBitParallel(a, std::string()),
                  len);
    }
}

TEST(BitParallelLevenshtein, MatchesScalarOnRandomStrings)
{
    Rng rng(0xB17B17ULL);
    for (int round = 0; round < 400; ++round) {
        // Mix short strings (edge cases) with multi-block ones.
        const std::size_t maxLength = round % 4 == 0 ? 300 : 24;
        const std::size_t alphabet = 2 + rng.nextBelow(20);
        std::string a = randomString(rng, maxLength, alphabet);
        std::string b = randomString(rng, maxLength, alphabet);
        ASSERT_EQ(levenshteinDistanceBitParallel(a, b),
                  levenshteinDistanceScalar(a, b))
            << "'" << a << "' vs '" << b << "'";
    }
}

TEST(LevenshteinWithin, AgreesWithScalarAtEveryThreshold)
{
    Rng rng(0x7435D01DULL);
    for (int round = 0; round < 200; ++round) {
        std::string a = randomString(rng, 20, 3);
        std::string b = randomString(rng, 20, 3);
        const std::size_t d = levenshteinDistanceScalar(a, b);
        const std::size_t maxK = std::max(a.size(), b.size()) + 2;
        for (std::size_t k = 0; k <= maxK; ++k) {
            auto within = levenshteinWithin(a, b, k);
            if (d <= k) {
                ASSERT_TRUE(within.has_value())
                    << "'" << a << "' vs '" << b << "' k=" << k;
                ASSERT_EQ(*within, d)
                    << "'" << a << "' vs '" << b << "' k=" << k;
            } else {
                ASSERT_FALSE(within.has_value())
                    << "'" << a << "' vs '" << b << "' k=" << k;
            }
        }
    }
}

TEST(LevenshteinWithin, LongStringsAroundThresholdBoundary)
{
    Rng rng(0xBADBADULL);
    for (int round = 0; round < 40; ++round) {
        std::string a = randomString(rng, 180, 4);
        std::string b = a;
        // Apply a known number of random edits; the true distance is
        // at most `edits`, so checking k = distance and distance - 1
        // hits the accept/reject boundary exactly.
        const std::size_t edits = 1 + rng.nextBelow(8);
        for (std::size_t e = 0; e < edits && !b.empty(); ++e) {
            const std::size_t pos = rng.nextBelow(b.size());
            switch (rng.nextBelow(3)) {
              case 0:
                b[pos] = static_cast<char>('a' + rng.nextBelow(4));
                break;
              case 1: b.erase(pos, 1); break;
              default:
                b.insert(pos, 1,
                         static_cast<char>('a' + rng.nextBelow(4)));
                break;
            }
        }
        const std::size_t d = levenshteinDistanceScalar(a, b);
        auto at = levenshteinWithin(a, b, d);
        ASSERT_TRUE(at.has_value());
        EXPECT_EQ(*at, d);
        if (d > 0) {
            EXPECT_FALSE(levenshteinWithin(a, b, d - 1).has_value());
        }
    }
}

TEST(DamerauDistance, MatchesFullMatrixReference)
{
    EXPECT_EQ(damerauDistance("ca", "abc"), 3u); // OSA, not full DL
    EXPECT_EQ(damerauDistance("abcd", "acbd"), 1u);
    Rng rng(0xDA3E4A0ULL);
    for (int round = 0; round < 300; ++round) {
        std::string a = randomString(rng, 14, 3);
        std::string b = randomString(rng, 14, 3);
        ASSERT_EQ(damerauDistance(a, b), damerauReference(a, b))
            << "'" << a << "' vs '" << b << "'";
    }
}

TEST(LevenshteinSimilarityAtLeast, AgreesWithFullSimilarity)
{
    Rng rng(0x51A11A57ULL);
    const double thresholds[] = {0.0, 0.5, 0.8, 0.9, 0.99, 1.0};
    for (int round = 0; round < 200; ++round) {
        std::string a = randomString(rng, 24, 3);
        std::string b = randomString(rng, 24, 3);
        const double sim = levenshteinSimilarity(a, b);
        for (double threshold : thresholds) {
            auto fast = levenshteinSimilarityAtLeast(a, b, threshold);
            if (sim >= threshold) {
                ASSERT_TRUE(fast.has_value())
                    << "'" << a << "' vs '" << b << "' t="
                    << threshold;
                // Bit-identical, not merely close.
                ASSERT_EQ(*fast, sim);
            } else {
                ASSERT_FALSE(fast.has_value())
                    << "'" << a << "' vs '" << b << "' t="
                    << threshold;
            }
        }
    }
}

/**
 * The textbook Jaro loop the bit-parallel kernel replaced: each a[i]
 * matches the first unmatched equal b[j] in the window, then one pass
 * pairs the matched characters in order. Kept as the kernel's oracle.
 */
double
jaroScalar(std::string_view a, std::string_view b)
{
    if (a.empty() && b.empty())
        return 1.0;
    if (a.empty() || b.empty())
        return 0.0;
    std::size_t window = std::max(a.size(), b.size()) / 2;
    if (window > 0)
        --window;

    std::vector<bool> aMatched(a.size(), false);
    std::vector<bool> bMatched(b.size(), false);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::size_t lo = i > window ? i - window : 0;
        std::size_t hi = std::min(b.size(), i + window + 1);
        for (std::size_t j = lo; j < hi; ++j) {
            if (bMatched[j] || a[i] != b[j])
                continue;
            aMatched[i] = true;
            bMatched[j] = true;
            ++matches;
            break;
        }
    }
    if (matches == 0)
        return 0.0;

    std::size_t transpositions = 0;
    std::size_t k = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (!aMatched[i])
            continue;
        while (!bMatched[k])
            ++k;
        if (a[i] != b[k])
            ++transpositions;
        ++k;
    }
    double md = static_cast<double>(matches);
    return (md / a.size() + md / b.size() +
            (md - transpositions / 2.0) / md) /
           3.0;
}

/** Jaro-Winkler over the oracle: prefix scale 0.1, at most 4. */
double
jaroWinklerScalar(std::string_view a, std::string_view b)
{
    const double jaro = jaroScalar(a, b);
    const std::size_t limit = std::min({a.size(), b.size(), std::size_t{4}});
    std::size_t prefix = 0;
    while (prefix < limit && a[prefix] == b[prefix])
        ++prefix;
    return jaro + prefix * 0.1 * (1.0 - jaro);
}

/** A string of exactly `length` bytes drawn from `alphabet`. */
std::string
randomBytes(Rng &rng, std::size_t length, std::string_view alphabet)
{
    std::string out(length, '\0');
    for (char &c : out)
        c = alphabet[rng.nextBelow(alphabet.size())];
    return out;
}

/** Exact double equality of the kernel and the oracle, both ways,
 * for Jaro and Jaro-Winkler. */
void
expectJaroMatchesScalar(const std::string &a, const std::string &b)
{
    ASSERT_EQ(jaroSimilarity(a, b), jaroScalar(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
    ASSERT_EQ(jaroSimilarity(b, a), jaroScalar(b, a))
        << "|a|=" << b.size() << " |b|=" << a.size();
    ASSERT_EQ(jaroWinklerSimilarity(a, b), jaroWinklerScalar(a, b))
        << "|a|=" << a.size() << " |b|=" << b.size();
    ASSERT_EQ(jaroWinklerSimilarity(b, a), jaroWinklerScalar(b, a))
        << "|a|=" << b.size() << " |b|=" << a.size();
}

TEST(BitParallelJaro, MatchesScalarAcrossWordBoundaries)
{
    // Every pairing of lengths around the 64-bit word boundaries:
    // unequal pairs take the window from the longer string, and
    // 2-4 symbol alphabets give dense matches and many
    // transpositions.
    const std::size_t lengths[] = {0,   1,   2,   63,  64,  65,
                                   127, 128, 129, 200, 257, 300};
    Rng rng(0x1A40B17ULL);
    for (std::string_view alphabet : {"ab", "abc", "abcd"}) {
        for (std::size_t la : lengths) {
            for (std::size_t lb : lengths) {
                expectJaroMatchesScalar(
                    randomBytes(rng, la, alphabet),
                    randomBytes(rng, lb, alphabet));
            }
            // A near-copy: adjacent swaps keep every byte matchable
            // and turn some matches into transpositions.
            std::string a = randomBytes(rng, la, alphabet);
            std::string b = a;
            for (std::size_t i = 0; i + 1 < b.size(); i += 3) {
                if (rng.nextBool(0.5))
                    std::swap(b[i], b[i + 1]);
            }
            expectJaroMatchesScalar(a, b);
        }
    }
}

TEST(BitParallelJaro, MatchesScalarOnArbitraryBytes)
{
    // NUL and high-bit bytes catch char sign-extension bugs in the
    // byte -> mask-row lookup; the 256-byte string leaves no absent
    // byte, so its masks have no shared zero row.
    Rng rng(0xB17E5ULL);
    std::vector<char> bytes(256);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i);
    rng.shuffle(bytes);
    const std::string every(bytes.begin(), bytes.end());
    const std::string dense("\x00\x80\xff", 3);
    expectJaroMatchesScalar(every, every);
    for (int round = 0; round < 300; ++round) {
        const std::string_view alphabet =
            round % 2 == 0 ? std::string_view(every) : dense;
        const std::string a =
            randomBytes(rng, rng.nextBelow(301), alphabet);
        const std::string b =
            round % 5 == 0 ? every
                           : randomBytes(rng, rng.nextBelow(301),
                                         alphabet);
        expectJaroMatchesScalar(a, b);
    }
}

std::string
randomTitle(Rng &rng, std::size_t minWords = 1,
            std::size_t maxWords = 9)
{
    static const char *const vocabulary[] = {
        "processor",  "may",       "hang",     "cache",
        "line",       "split",     "lock",     "the",
        "a",          "of",        "TLB",      "page",
        "boundary",   "machine",   "check",    "unexpected",
        "exception",  "MSR",       "write",    "incorrect",
        "value",      "system",    "reset",    "during",
        "C6",         "state",     "PMC",      "overcount",
        "corrected",  "error",     "spurious", "interrupt",
    };
    constexpr std::size_t kWords =
        sizeof(vocabulary) / sizeof(vocabulary[0]);
    std::string title;
    const std::size_t count =
        minWords + rng.nextBelow(maxWords - minWords + 1);
    for (std::size_t i = 0; i < count; ++i) {
        if (!title.empty())
            title += ' ';
        title += vocabulary[rng.nextBelow(kWords)];
    }
    // Occasional punctuation/typo noise to vary canonicalization.
    if (rng.nextBool(0.3))
        title += '.';
    if (rng.nextBool(0.2) && !title.empty())
        title[rng.nextBelow(title.size())] = 'x';
    return title;
}

TEST(TitleSimilarityAtLeast, BitIdenticalToTitleSimilarity)
{
    Rng rng(0x717135ULL);
    const double thresholds[] = {0.5, 0.75, 0.85, 0.95};
    std::size_t kept = 0, rejected = 0;
    SimilarityKernelStats stats;
    for (int round = 0; round < 2000; ++round) {
        const std::string a = randomTitle(rng);
        const std::string b =
            rng.nextBool(0.2) ? a : randomTitle(rng);
        const double slow = titleSimilarity(a, b);
        const TitleProfile pa = makeTitleProfile(a);
        const TitleProfile pb = makeTitleProfile(b);
        for (double threshold : thresholds) {
            auto fast =
                titleSimilarityAtLeast(pa, pb, threshold, &stats);
            if (slow >= threshold) {
                ASSERT_TRUE(fast.has_value())
                    << "'" << a << "' vs '" << b << "' t="
                    << threshold;
                // The kept score must be the same double.
                ASSERT_EQ(*fast, slow);
                ++kept;
            } else {
                ASSERT_FALSE(fast.has_value())
                    << "'" << a << "' vs '" << b << "' t="
                    << threshold;
                ++rejected;
            }
        }
    }
    // The generator must exercise both outcomes and the screen must
    // actually fire, or the test proves nothing.
    EXPECT_GT(kept, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_LE(stats.kept + stats.screenRejects, stats.pairs);
    EXPECT_LE(stats.jaroRuns, stats.pairs - stats.screenRejects);
    EXPECT_GT(stats.screenRejects, 0u);
    EXPECT_LT(stats.jaroRuns, stats.pairs);
}

TEST(TitleSimilarityAtLeast, LongTitlesSpanSeveralMaskWords)
{
    // Canonical titles past 128 bytes need three or more 64-bit words
    // per mask row; near-copies make the Jaro kernel actually run.
    Rng rng(0x1096717ULL);
    std::size_t longTitles = 0, kept = 0;
    SimilarityKernelStats stats;
    for (int round = 0; round < 300; ++round) {
        const std::string a = randomTitle(rng, 24, 40);
        const std::string b =
            rng.nextBool(0.5) ? a + " " + randomTitle(rng, 1, 3)
                              : randomTitle(rng, 24, 40);
        const double slow = titleSimilarity(a, b);
        const TitleProfile pa = makeTitleProfile(a);
        const TitleProfile pb = makeTitleProfile(b);
        if (pa.canonical.size() > 128 && pb.canonical.size() > 128)
            ++longTitles;
        for (double threshold : {0.85, 0.95}) {
            auto fast =
                titleSimilarityAtLeast(pa, pb, threshold, &stats);
            if (slow >= threshold) {
                ASSERT_TRUE(fast.has_value())
                    << "'" << a << "' vs '" << b << "'";
                ASSERT_EQ(*fast, slow);
                ++kept;
            } else {
                ASSERT_FALSE(fast.has_value())
                    << "'" << a << "' vs '" << b << "'";
            }
        }
    }
    EXPECT_GT(longTitles, 200u);
    EXPECT_GT(kept, 0u);
    EXPECT_GT(stats.jaroRuns, 0u);
}

TEST(TitleSimilarityAtLeast, EmptyAndDegenerateTitles)
{
    const char *const titles[] = {"", " ", "a", "the of a",
                                  "processor hang"};
    for (const char *ta : titles) {
        for (const char *tb : titles) {
            const double slow = titleSimilarity(ta, tb);
            const TitleProfile pa = makeTitleProfile(ta);
            const TitleProfile pb = makeTitleProfile(tb);
            for (double threshold : {0.0, 0.85, 1.0}) {
                auto fast =
                    titleSimilarityAtLeast(pa, pb, threshold);
                if (slow >= threshold) {
                    ASSERT_TRUE(fast.has_value())
                        << "'" << ta << "' vs '" << tb << "'";
                    ASSERT_EQ(*fast, slow);
                } else {
                    ASSERT_FALSE(fast.has_value())
                        << "'" << ta << "' vs '" << tb << "'";
                }
            }
        }
    }
}

} // namespace
} // namespace rememberr
