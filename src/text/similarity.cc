#include "similarity.hh"

#include <algorithm>
#include <bit>
#include <set>

#include "tokenize.hh"
#include "util/strings.hh"

namespace rememberr {

std::size_t
levenshteinDistance(std::string_view a, std::string_view b)
{
    if (a.size() < b.size())
        std::swap(a, b);
    // b is now the shorter string; keep one rolling row of |b|+1.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            std::size_t next = std::min({
                row[j] + 1,      // deletion
                row[j - 1] + 1,  // insertion
                diag + (a[i - 1] == b[j - 1] ? 0 : 1), // substitution
            });
            diag = row[j];
            row[j] = next;
        }
    }
    return row[b.size()];
}

double
levenshteinSimilarity(std::string_view a, std::string_view b)
{
    std::size_t longest = std::max(a.size(), b.size());
    if (longest == 0)
        return 1.0;
    return 1.0 - static_cast<double>(levenshteinDistance(a, b)) /
                     static_cast<double>(longest);
}

namespace {

JaroMasks
makeJaroMasks(std::string_view s)
{
    JaroMasks masks;
    masks.words = (s.size() + 63) / 64;
    // Rows in first-occurrence order; the shared zero row follows
    // them when some byte is absent, so row indices stay below 256.
    std::array<bool, 256> present{};
    std::size_t distinct = 0;
    for (char c : s) {
        const unsigned char byte = static_cast<unsigned char>(c);
        if (!present[byte]) {
            present[byte] = true;
            masks.slot[byte] = static_cast<std::uint8_t>(distinct++);
        }
    }
    if (distinct < 256) {
        for (std::size_t byte = 0; byte < 256; ++byte) {
            if (!present[byte])
                masks.slot[byte] = static_cast<std::uint8_t>(distinct);
        }
        ++distinct;
    }
    masks.rows.assign(distinct * masks.words, 0);
    for (std::size_t j = 0; j < s.size(); ++j) {
        const std::size_t row =
            masks.slot[static_cast<unsigned char>(s[j])];
        masks.rows[row * masks.words + j / 64] |= std::uint64_t{1}
                                                  << (j % 64);
    }
    return masks;
}

/**
 * Bit-parallel Jaro over bm, the position masks of b. For each a[i]
 * the match is the lowest set bit of mask[a[i]] & ~bMatched within
 * the window, found by walking the window's words from its low end:
 * exactly the "first unmatched equal j" the textbook loop picks, so
 * match and transposition counts, and the double, are the same.
 */
double
jaroKernel(std::string_view a, std::string_view b, const JaroMasks &bm)
{
    if (a.empty() && b.empty())
        return 1.0;
    if (a.empty() || b.empty())
        return 0.0;
    std::size_t window = std::max(a.size(), b.size()) / 2;
    if (window > 0)
        --window;

    // Matched-position bitsets of a and b, back to back.
    const std::size_t aWords = (a.size() + 63) / 64;
    std::vector<std::uint64_t> matched(aWords + bm.words, 0);
    std::uint64_t *aMatched = matched.data();
    std::uint64_t *bMatched = aMatched + aWords;

    constexpr std::uint64_t ones = ~std::uint64_t{0};
    std::size_t matches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::size_t lo = i > window ? i - window : 0;
        const std::size_t hi = std::min(b.size(), i + window + 1);
        if (lo >= hi)
            continue;
        const std::uint64_t *row =
            &bm.rows[bm.slot[static_cast<unsigned char>(a[i])] *
                     bm.words];
        const std::size_t first = lo / 64, last = (hi - 1) / 64;
        for (std::size_t w = first; w <= last; ++w) {
            std::uint64_t pick = row[w] & ~bMatched[w];
            if (w == first)
                pick &= ones << (lo % 64);
            if (w == last)
                pick &= ones >> (63 - (hi - 1) % 64);
            if (pick != 0) {
                bMatched[w] |= std::uint64_t{1}
                               << std::countr_zero(pick);
                aMatched[i / 64] |= std::uint64_t{1} << (i % 64);
                ++matches;
                break;
            }
        }
    }
    if (matches == 0)
        return 0.0;

    // Pair the k-th matched a position with the k-th matched b
    // position; both sets hold `matches` bits, so the b walk never
    // runs past its last word.
    std::size_t transpositions = 0;
    std::size_t bw = 0;
    std::uint64_t bBits = bMatched[0];
    for (std::size_t aw = 0; aw < aWords; ++aw) {
        for (std::uint64_t aBits = aMatched[aw]; aBits != 0;
             aBits &= aBits - 1) {
            while (bBits == 0)
                bBits = bMatched[++bw];
            const std::size_t i =
                aw * 64 + static_cast<std::size_t>(
                              std::countr_zero(aBits));
            const std::size_t j =
                bw * 64 + static_cast<std::size_t>(
                              std::countr_zero(bBits));
            bBits &= bBits - 1;
            if (a[i] != b[j])
                ++transpositions;
        }
    }
    double md = static_cast<double>(matches);
    return (md / a.size() + md / b.size() +
            (md - transpositions / 2.0) / md) /
           3.0;
}

double
jaroWinklerKernel(std::string_view a, std::string_view b,
                  const JaroMasks &bm)
{
    double jaro = jaroKernel(a, b, bm);
    std::size_t prefix = 0;
    for (std::size_t i = 0;
         i < std::min({a.size(), b.size(), std::size_t{4}}); ++i) {
        if (a[i] == b[i])
            ++prefix;
        else
            break;
    }
    return jaro + prefix * 0.1 * (1.0 - jaro);
}

} // namespace

double
jaroSimilarity(std::string_view a, std::string_view b)
{
    return jaroKernel(a, b, makeJaroMasks(b));
}

double
jaroWinklerSimilarity(std::string_view a, std::string_view b)
{
    return jaroWinklerKernel(a, b, makeJaroMasks(b));
}

double
tokenJaccardSimilarity(const std::vector<std::string> &a,
                       const std::vector<std::string> &b)
{
    if (a.empty() && b.empty())
        return 1.0;
    std::set<std::string> setA(a.begin(), a.end());
    std::set<std::string> setB(b.begin(), b.end());
    std::size_t inter = 0;
    for (const auto &token : setA)
        inter += setB.count(token);
    std::size_t uni = setA.size() + setB.size() - inter;
    if (uni == 0)
        return 1.0;
    return static_cast<double>(inter) / static_cast<double>(uni);
}

double
titleSimilarity(std::string_view a, std::string_view b)
{
    std::string ca = strings::canonicalize(a);
    std::string cb = strings::canonicalize(b);
    double jw = jaroWinklerSimilarity(ca, cb);
    TokenizerOptions opt;
    opt.dropStopWords = true;
    double jac =
        tokenJaccardSimilarity(tokenizeWords(a, opt),
                               tokenizeWords(b, opt));
    return std::max(jw, jac);
}

SimilarityKernelStats &
SimilarityKernelStats::operator+=(const SimilarityKernelStats &o)
{
    pairs += o.pairs;
    screenRejects += o.screenRejects;
    jaroRuns += o.jaroRuns;
    kept += o.kept;
    return *this;
}

TitleProfile
makeTitleProfile(std::string_view title)
{
    TitleProfile profile;
    profile.canonical = strings::canonicalize(title);
    TokenizerOptions opt;
    opt.dropStopWords = true;
    profile.tokens = tokenizeWords(title, opt);
    std::sort(profile.tokens.begin(), profile.tokens.end());
    profile.tokens.erase(std::unique(profile.tokens.begin(),
                                     profile.tokens.end()),
                         profile.tokens.end());
    for (char c : profile.canonical)
        ++profile.histogram[static_cast<unsigned char>(c)];
    profile.masks = makeJaroMasks(profile.canonical);
    return profile;
}

namespace {

/**
 * Token Jaccard over sorted distinct token vectors: the same
 * intersection and union counts — and therefore the same double —
 * as tokenJaccardSimilarity over the underlying token lists.
 */
double
jaccardSorted(const std::vector<std::string> &a,
              const std::vector<std::string> &b)
{
    if (a.empty() && b.empty())
        return 1.0;
    std::size_t inter = 0;
    auto ia = a.begin();
    auto ib = b.begin();
    while (ia != a.end() && ib != b.end()) {
        const int cmp = ia->compare(*ib);
        if (cmp == 0) {
            ++inter;
            ++ia;
            ++ib;
        } else if (cmp < 0) {
            ++ia;
        } else {
            ++ib;
        }
    }
    const std::size_t uni = a.size() + b.size() - inter;
    if (uni == 0)
        return 1.0;
    return static_cast<double>(inter) / static_cast<double>(uni);
}

} // namespace

std::optional<double>
titleSimilarityAtLeast(const TitleProfile &a, const TitleProfile &b,
                       double min_keep, SimilarityKernelStats *stats)
{
    SimilarityKernelStats local;
    SimilarityKernelStats &s = stats ? *stats : local;
    ++s.pairs;

    const double jac = jaccardSorted(a.tokens, b.tokens);
    double result;
    if (a.canonical.empty() || b.canonical.empty()) {
        const double jw =
            a.canonical.empty() && b.canonical.empty() ? 1.0 : 0.0;
        result = std::max(jw, jac);
    } else {
        // Jaro matches can pair at most min(histA[c], histB[c])
        // occurrences of each byte, and the transposition term of
        // the Jaro formula is at most 1, so this bounds Jaro from
        // above; Winkler's prefix boost is increasing in Jaro, so
        // boosting the bound by the exact common prefix bounds
        // Jaro-Winkler.
        std::size_t common = 0;
        for (std::size_t c = 0; c < 256; ++c)
            common += std::min(a.histogram[c], b.histogram[c]);
        if (common == 0) {
            // No shared byte: zero Jaro matches and an empty common
            // prefix, so Jaro-Winkler is exactly 0.
            result = std::max(0.0, jac);
        } else {
            std::size_t prefix = 0;
            for (std::size_t i = 0;
                 i < std::min({a.canonical.size(),
                               b.canonical.size(), std::size_t{4}});
                 ++i) {
                if (a.canonical[i] == b.canonical[i])
                    ++prefix;
                else
                    break;
            }
            const double md = static_cast<double>(common);
            const double jaroUB =
                (md / static_cast<double>(a.canonical.size()) +
                 md / static_cast<double>(b.canonical.size()) +
                 1.0) /
                3.0;
            const double jwUB =
                jaroUB + prefix * 0.1 * (1.0 - jaroUB);
            if (jwUB <= jac) {
                // max(jw, jac) can only be jac; when they tie,
                // std::max's pick is the same double anyway.
                result = jac;
            } else if (jwUB < min_keep && jac < min_keep) {
                ++s.screenRejects;
                return std::nullopt;
            } else {
                ++s.jaroRuns;
                const double jw = jaroWinklerKernel(
                    a.canonical, b.canonical, b.masks);
                result = std::max(jw, jac);
            }
        }
    }
    if (result < min_keep)
        return std::nullopt;
    ++s.kept;
    return result;
}

} // namespace rememberr
