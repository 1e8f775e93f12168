#include "similarity.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <set>

#include "tokenize.hh"
#include "util/strings.hh"

namespace rememberr {

std::size_t
levenshteinDistanceScalar(std::string_view a, std::string_view b)
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

namespace {

/**
 * Advance one 64-row block of the Myers/Hyyrö bit-vector DP by one
 * text column. Pv/Mv are the vertical positive/negative delta
 * vectors, eq the pattern-match bits for the text character, hin the
 * horizontal delta entering the block's low row (-1, 0 or +1). The
 * returned horizontal delta is read at houtMask's row — bit 63 when
 * feeding the next block, the pattern's last-row bit for the final
 * block (rows above it carry pad characters that never match; they
 * sit above the last row in the DP, so they cannot influence it).
 */
inline int
advanceBlock(std::uint64_t &pv, std::uint64_t &mv, std::uint64_t eq,
             int hin, std::uint64_t hout_mask)
{
    const std::uint64_t hinNeg = hin < 0 ? 1u : 0u;
    const std::uint64_t xv = eq | mv;
    eq |= hinNeg;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    int hout = 0;
    if (ph & hout_mask)
        hout = 1;
    else if (mh & hout_mask)
        hout = -1;
    ph <<= 1;
    mh <<= 1;
    mh |= hinNeg;
    if (hin > 0)
        ph |= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    return hout;
}

} // namespace

std::size_t
levenshteinDistanceBitParallel(std::string_view a, std::string_view b)
{
    // The shorter string becomes the pattern: fewer 64-bit blocks.
    if (a.size() > b.size())
        std::swap(a, b);
    const std::size_t m = a.size();
    if (m == 0)
        return b.size();

    const std::size_t blocks = (m + 63) / 64;
    std::vector<std::uint64_t> peq(blocks * 256, 0);
    for (std::size_t i = 0; i < m; ++i) {
        peq[static_cast<unsigned char>(a[i]) * blocks + i / 64] |=
            std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> pv(blocks, ~std::uint64_t{0});
    std::vector<std::uint64_t> mv(blocks, 0);
    const std::uint64_t lastMask = std::uint64_t{1}
                                   << ((m - 1) % 64);
    const std::uint64_t topMask = std::uint64_t{1} << 63;
    std::ptrdiff_t score = static_cast<std::ptrdiff_t>(m);
    for (char c : b) {
        const std::uint64_t *eqRow =
            &peq[static_cast<unsigned char>(c) * blocks];
        int h = 1; // boundary row D[0][j] = j increments by one
        for (std::size_t blk = 0; blk < blocks; ++blk) {
            const bool last = blk + 1 == blocks;
            h = advanceBlock(pv[blk], mv[blk], eqRow[blk], h,
                             last ? lastMask : topMask);
        }
        score += h;
    }
    return static_cast<std::size_t>(score);
}

std::size_t
levenshteinDistance(std::string_view a, std::string_view b)
{
    return levenshteinDistanceBitParallel(a, b);
}

std::optional<std::size_t>
levenshteinWithin(std::string_view a, std::string_view b,
                  std::size_t k)
{
    if (a.size() < b.size())
        std::swap(a, b);
    const std::size_t n = a.size(); // rows (longer)
    const std::size_t m = b.size(); // columns (shorter)
    if (n - m > k)
        return std::nullopt;
    if (m == 0)
        return n <= k ? std::optional<std::size_t>(n)
                      : std::nullopt;
    if (k >= n) {
        // Threshold can never bind; the unbanded kernel is cheaper
        // than a full-width band.
        std::size_t d = levenshteinDistanceBitParallel(a, b);
        return d <= k ? std::optional<std::size_t>(d)
                      : std::nullopt;
    }

    // Character-count lower bound: a substitution fixes at most two
    // histogram mismatches, an insert/delete at most one.
    {
        std::array<std::int32_t, 256> diff{};
        for (char c : a)
            ++diff[static_cast<unsigned char>(c)];
        for (char c : b)
            --diff[static_cast<unsigned char>(c)];
        std::size_t mismatch = 0;
        for (std::int32_t d : diff) {
            mismatch += static_cast<std::size_t>(d < 0 ? -d : d);
        }
        if ((mismatch + 1) / 2 > k)
            return std::nullopt;
    }

    // Banded rolling-row DP: only cells with |i - j| <= k can stay
    // at or below k (D[i][j] >= |i - j|); everything else saturates
    // at BIG. Cells <= k are exact, BIG means "> k".
    const std::size_t BIG = k + 1;
    std::vector<std::size_t> row(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        row[j] = j <= k ? j : BIG;
    for (std::size_t i = 1; i <= n; ++i) {
        const std::size_t lo = i > k ? i - k : 1;
        const std::size_t hi = std::min(m, i + k);
        std::size_t diag = row[lo - 1]; // D[i-1][lo-1]
        std::size_t left = BIG;        // D[i][lo-1], outside band
        if (lo == 1) {
            row[0] = i <= k ? i : BIG;
            left = row[0];
        }
        std::size_t rowMin = left;
        for (std::size_t j = lo; j <= hi; ++j) {
            // Above the band's top-right edge the stored value is
            // stale; the true cell is > k there.
            const std::size_t up = j == i + k ? BIG : row[j];
            std::size_t value = std::min({
                up + 1,
                left + 1,
                diag + (a[i - 1] == b[j - 1] ? 0 : 1),
            });
            if (value > BIG)
                value = BIG;
            diag = row[j];
            row[j] = value;
            left = value;
            rowMin = std::min(rowMin, value);
        }
        if (rowMin >= BIG)
            return std::nullopt; // every continuation exceeds k
    }
    return row[m] <= k ? std::optional<std::size_t>(row[m])
                       : std::nullopt;
}

std::size_t
damerauDistance(std::string_view a, std::string_view b)
{
    const std::size_t n = a.size(), m = b.size();
    if (n == 0)
        return m;
    if (m == 0)
        return n;
    // Three rolling rows (the transposition case reads two rows
    // back), O(min(n,m)) memory instead of a full matrix.
    std::string_view x = a, y = b;
    if (x.size() < y.size())
        std::swap(x, y);
    const std::size_t rows = x.size(), cols = y.size();
    std::vector<std::size_t> prev2(cols + 1), prev(cols + 1),
        curr(cols + 1);
    for (std::size_t j = 0; j <= cols; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= rows; ++i) {
        curr[0] = i;
        for (std::size_t j = 1; j <= cols; ++j) {
            std::size_t cost = x[i - 1] == y[j - 1] ? 0 : 1;
            curr[j] = std::min({
                prev[j] + 1,
                curr[j - 1] + 1,
                prev[j - 1] + cost,
            });
            if (i > 1 && j > 1 && x[i - 1] == y[j - 2] &&
                x[i - 2] == y[j - 1]) {
                curr[j] = std::min(curr[j], prev2[j - 2] + 1);
            }
        }
        std::swap(prev2, prev);
        std::swap(prev, curr);
    }
    return prev[cols];
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
tokenDiceSimilarity(const std::vector<std::string> &a,
                    const std::vector<std::string> &b)
{
    if (a.empty() && b.empty())
        return 1.0;
    std::set<std::string> setA(a.begin(), a.end());
    std::set<std::string> setB(b.begin(), b.end());
    if (setA.empty() && setB.empty())
        return 1.0;
    std::size_t inter = 0;
    for (const auto &token : setA)
        inter += setB.count(token);
    return 2.0 * static_cast<double>(inter) /
           static_cast<double>(setA.size() + setB.size());
}

double
tokenCosineSimilarity(const std::vector<std::string> &a,
                      const std::vector<std::string> &b)
{
    if (a.empty() && b.empty())
        return 1.0;
    if (a.empty() || b.empty())
        return 0.0;
    std::map<std::string, double> tfA, tfB;
    for (const auto &token : a)
        tfA[token] += 1.0;
    for (const auto &token : b)
        tfB[token] += 1.0;
    double dot = 0.0;
    for (const auto &[token, freq] : tfA) {
        auto it = tfB.find(token);
        if (it != tfB.end())
            dot += freq * it->second;
    }
    double normA = 0.0, normB = 0.0;
    for (const auto &[token, freq] : tfA)
        normA += freq * freq;
    for (const auto &[token, freq] : tfB)
        normB += freq * freq;
    return dot / (std::sqrt(normA) * std::sqrt(normB));
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

std::optional<double>
levenshteinSimilarityAtLeast(std::string_view a, std::string_view b,
                             double min_similarity)
{
    const std::size_t longest = std::max(a.size(), b.size());
    if (longest == 0) {
        return 1.0 >= min_similarity ? std::optional<double>(1.0)
                                     : std::nullopt;
    }
    // sim >= minSim requires d <= longest * (1 - minSim) in real
    // arithmetic; one extra unit of slack absorbs rounding so the
    // final decision is always made on the exact similarity double.
    const double bound =
        static_cast<double>(longest) * (1.0 - min_similarity);
    std::size_t k = longest;
    if (bound < static_cast<double>(longest)) {
        const double floored = std::floor(std::max(bound, 0.0));
        k = std::min(longest,
                     static_cast<std::size_t>(floored) + 1);
    }
    const auto d = levenshteinWithin(a, b, k);
    if (!d)
        return std::nullopt;
    const double sim = 1.0 - static_cast<double>(*d) /
                                 static_cast<double>(longest);
    if (sim >= min_similarity)
        return sim;
    return std::nullopt;
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
