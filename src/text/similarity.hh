/**
 * @file
 * String and token-set similarity metrics.
 *
 * The Intel duplicate-detection pipeline of Section IV-A marks errata
 * with (nearly) identical titles as duplicates and then ranks the
 * remaining pairs by decreasing title similarity for manual review.
 * These metrics implement both steps. DESIGN.md D3 compares them.
 */

#ifndef REMEMBERR_TEXT_SIMILARITY_HH
#define REMEMBERR_TEXT_SIMILARITY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rememberr {

/**
 * Levenshtein edit distance (insert/delete/substitute, unit cost).
 * Dispatches to the bit-parallel kernel; identical results to the
 * scalar reference for every input.
 */
std::size_t levenshteinDistance(std::string_view a, std::string_view b);

/**
 * Scalar rolling-row reference implementation, O(min(n,m)) memory.
 * Kept public so differential tests (and the kernel benchmarks) can
 * pin the bit-parallel kernels against an obviously-correct baseline.
 */
std::size_t levenshteinDistanceScalar(std::string_view a,
                                      std::string_view b);

/**
 * Myers' bit-vector Levenshtein kernel (64-bit blocks, multi-block
 * for longer strings). Exact: equals the scalar reference for every
 * input, at roughly one column update per 64 pattern characters.
 */
std::size_t levenshteinDistanceBitParallel(std::string_view a,
                                           std::string_view b);

/**
 * Thresholded distance: the exact distance when it is <= k, nullopt
 * otherwise. Pre-rejects on length difference and a character-count
 * lower bound, then runs a banded O(k * min(n,m)) DP that exits as
 * soon as every cell of a row exceeds k. Equivalent to computing
 * levenshteinDistance and comparing against k, only cheaper.
 */
std::optional<std::size_t> levenshteinWithin(std::string_view a,
                                             std::string_view b,
                                             std::size_t k);

/**
 * Damerau-Levenshtein distance (adds adjacent transposition), the
 * restricted "optimal string alignment" variant.
 */
std::size_t damerauDistance(std::string_view a, std::string_view b);

/** Levenshtein similarity normalized to [0, 1]; 1 means equal. */
double levenshteinSimilarity(std::string_view a, std::string_view b);

/**
 * Jaro similarity in [0, 1], computed by the bit-parallel kernel
 * over b's position masks (JaroMasks); the double equals the
 * textbook window loop's for every input.
 */
double jaroSimilarity(std::string_view a, std::string_view b);

/**
 * Jaro-Winkler similarity in [0, 1] with the standard prefix scale
 * 0.1 over at most 4 common prefix characters.
 */
double jaroWinklerSimilarity(std::string_view a, std::string_view b);

/** Jaccard similarity of the two token multiset supports, in [0, 1]. */
double tokenJaccardSimilarity(const std::vector<std::string> &a,
                              const std::vector<std::string> &b);

/** Dice coefficient over token sets, in [0, 1]. */
double tokenDiceSimilarity(const std::vector<std::string> &a,
                           const std::vector<std::string> &b);

/** Cosine similarity of term-frequency vectors, in [0, 1]. */
double tokenCosineSimilarity(const std::vector<std::string> &a,
                             const std::vector<std::string> &b);

/**
 * The composite title similarity used by the dedup pipeline: the
 * maximum of Jaro-Winkler over canonicalized text and token Jaccard,
 * which is robust to both small edits and word reorderings.
 */
double titleSimilarity(std::string_view a, std::string_view b);

/**
 * Levenshtein similarity thresholded at minSimilarity: the exact
 * levenshteinSimilarity when it is >= minSimilarity, nullopt when
 * the thresholded kernel proves it below. Bit-identical to computing
 * the full similarity and comparing.
 */
std::optional<double>
levenshteinSimilarityAtLeast(std::string_view a, std::string_view b,
                             double min_similarity);

/**
 * Per-byte position bitmasks of a string s, the Jaro kernel's view
 * of its second argument: bit j of byte c's row is set when
 * s[j] == c. Only bytes that occur in s get a row; every absent byte
 * shares one all-zero row. A title thus costs the 256-byte slot
 * table plus ceil(|s| / 64) words per distinct byte, not a full
 * 256-row table.
 */
struct JaroMasks
{
    /** Row index of each byte value. */
    std::array<std::uint8_t, 256> slot{};
    /** 64-bit words per row: ceil(|s| / 64). */
    std::size_t words = 0;
    /** Rows back to back, `words` words each. */
    std::vector<std::uint64_t> rows;
};

/**
 * Precomputed per-title state for the thresholded composite
 * similarity: dedup compares each candidate title against many
 * others, so canonicalization, tokenization, the byte histogram and
 * the Jaro position masks move out of the pair loop into one pass
 * per title.
 */
struct TitleProfile
{
    /** strings::canonicalize of the raw title. */
    std::string canonical;
    /** Sorted distinct stop-word-filtered tokens (Jaccard support). */
    std::vector<std::string> tokens;
    /** Byte histogram of the canonical text (Jaro upper bound). */
    std::array<std::uint32_t, 256> histogram{};
    /** Position masks of the canonical text (Jaro kernel). */
    JaroMasks masks;
};

TitleProfile makeTitleProfile(std::string_view title);

/** Counters from the thresholded composite kernel. */
struct SimilarityKernelStats
{
    /** Pairs scored. */
    std::uint64_t pairs = 0;
    /** Pairs rejected by the histogram screen without running the
     * Jaro kernel. */
    std::uint64_t screenRejects = 0;
    /** Pairs where the Jaro-Winkler kernel actually ran. */
    std::uint64_t jaroRuns = 0;
    /** Pairs at or above the threshold. */
    std::uint64_t kept = 0;

    SimilarityKernelStats &operator+=(const SimilarityKernelStats &o);
};

/**
 * Thresholded composite similarity over precomputed profiles: the
 * exact titleSimilarity when it is >= minKeep, nullopt otherwise.
 * A conservative histogram upper bound on Jaro-Winkler skips the
 * Jaro kernel whenever the pair provably cannot reach minKeep (or
 * Jaccard already decides the max); the kernel that does run reads
 * b's precomputed masks. Kept pairs and their scores are
 * bit-identical to titleSimilarity.
 */
std::optional<double>
titleSimilarityAtLeast(const TitleProfile &a, const TitleProfile &b,
                       double min_keep,
                       SimilarityKernelStats *stats = nullptr);

} // namespace rememberr

#endif // REMEMBERR_TEXT_SIMILARITY_HH
