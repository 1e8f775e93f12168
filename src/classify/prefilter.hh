/**
 * @file
 * Literal prefilter for the classification rule set.
 *
 * Running the regex engine for every (erratum, pattern) pair
 * dominates classification cost. Almost every rule regex requires
 * some literal phrase to appear in the text (Regex::literalFactors);
 * one Aho–Corasick scan over the erratum therefore decides, for all
 * patterns at once, which ones can possibly match. Only those run
 * the regex engine. Patterns without an extractable factor always
 * fall through to it, so decisions are bit-identical to the
 * unfiltered engine.
 *
 * Accept patterns match against the body text and relevance patterns
 * against the full text (see engine.hh), so the prefilter keeps two
 * automatons, one per haystack kind. The singleton is built once per
 * process from RuleSet::instance() and is immutable afterwards;
 * concurrent scans are safe.
 */

#ifndef REMEMBERR_CLASSIFY_PREFILTER_HH
#define REMEMBERR_CLASSIFY_PREFILTER_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "text/literal_scan.hh"

namespace rememberr {

/** Prefilter verdict for one pattern given a scanned haystack. */
enum class PrefilterState : std::uint8_t
{
    /** A required factor is absent: the pattern cannot match. */
    Skip,
    /** A factor occurred: the pattern may match, run the regex. */
    FactorHit,
    /** No factor was extractable: the regex must always run. */
    NoFactors,
};

/** The shared literal prefilter over RuleSet::instance(). */
class ClassifyPrefilter
{
  public:
    /** Lazily built on first use (spanned as
     * "classify.prefilter.build" on the global trace recorder). */
    static const ClassifyPrefilter &instance();

    /** Flattened accept-pattern count across all categories. */
    std::size_t acceptPatternCount() const { return acceptHasFactors_.size(); }
    /** Flattened relevance-pattern count across all categories. */
    std::size_t relevancePatternCount() const { return relevanceHasFactors_.size(); }
    /** Accept patterns with at least one extracted factor. */
    std::size_t factoredAcceptCount() const { return factoredAccept_; }
    /** Relevance patterns with at least one extracted factor. */
    std::size_t factoredRelevanceCount() const { return factoredRelevance_; }

    /** Scan a case-folded body; hits is indexed by flattened accept
     * pattern id. */
    void
    scanBody(std::string_view foldedBody,
             std::vector<std::uint8_t> &hits) const
    {
        bodyScanner_.scan(foldedBody, hits);
    }

    /** Scan a case-folded full text; hits is indexed by flattened
     * relevance pattern id. */
    void
    scanFull(std::string_view foldedFull,
             std::vector<std::uint8_t> &hits) const
    {
        fullScanner_.scan(foldedFull, hits);
    }

    /** Verdict for accept pattern `pattern` of the category at rule
     * position `category` (RuleSet::rules() order). */
    PrefilterState
    acceptState(const std::vector<std::uint8_t> &hits,
                std::size_t category, std::size_t pattern) const
    {
        const std::size_t id = acceptBase_[category] + pattern;
        if (!acceptHasFactors_[id])
            return PrefilterState::NoFactors;
        return hits[id] ? PrefilterState::FactorHit
                        : PrefilterState::Skip;
    }

    /** Verdict for relevance pattern `pattern` of the category at
     * rule position `category`. */
    PrefilterState
    relevanceState(const std::vector<std::uint8_t> &hits,
                   std::size_t category, std::size_t pattern) const
    {
        const std::size_t id = relevanceBase_[category] + pattern;
        if (!relevanceHasFactors_[id])
            return PrefilterState::NoFactors;
        return hits[id] ? PrefilterState::FactorHit
                        : PrefilterState::Skip;
    }

  private:
    ClassifyPrefilter();

    LiteralScanner bodyScanner_;
    LiteralScanner fullScanner_;
    /** First flattened pattern id per category position. */
    std::vector<std::size_t> acceptBase_;
    std::vector<std::size_t> relevanceBase_;
    /** Whether each flattened pattern contributed factors. */
    std::vector<std::uint8_t> acceptHasFactors_;
    std::vector<std::uint8_t> relevanceHasFactors_;
    std::size_t factoredAccept_ = 0;
    std::size_t factoredRelevance_ = 0;
};

} // namespace rememberr

#endif // REMEMBERR_CLASSIFY_PREFILTER_HH
