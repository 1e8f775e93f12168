/**
 * @file
 * The software-assisted classification engine.
 *
 * For every (erratum, category) pair the engine produces one of
 * three outcomes: AutoYes (a conservative accept pattern matched the
 * body), AutoNo (no relevance pattern matched anywhere) or Manual
 * (relevant but not conclusive — a human decision is required).
 * Accept patterns are evaluated over the description and implications
 * only; titles are too terse to trust for automatic acceptance but do
 * count towards relevance.
 */

#ifndef REMEMBERR_CLASSIFY_ENGINE_HH
#define REMEMBERR_CLASSIFY_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "model/erratum.hh"
#include "taxonomy/taxonomy.hh"

namespace rememberr {

/** Outcome of the automatic stage for one (erratum, category). */
enum class Decision : std::uint8_t { AutoYes, AutoNo, Manual };

/** Engine output for one erratum. */
struct EngineResult
{
    /** Decision per category id (indexed by CategoryId). */
    std::vector<Decision> decisions;
    /** Categories auto-accepted. */
    CategorySet autoYes;
    /** Categories requiring a human decision. */
    std::vector<CategoryId> manual;

    std::size_t
    manualCount() const
    {
        return manual.size();
    }
};

/** Body text used for conservative acceptance. */
std::string erratumBodyText(const Erratum &erratum);

/** Full text (title + all prose) used for relevance filtering. */
std::string erratumFullText(const Erratum &erratum);

/** Counters describing one classification's prefilter behavior. */
struct ClassifyStats
{
    /** Patterns matched because a literal factor occurred. */
    std::uint64_t prefilterHits = 0;
    /** Patterns the regex engine actually evaluated (the name, and
     * the classify.prefilter.vm_runs counter, predate the linear
     * tier). */
    std::uint64_t vmRuns = 0;
    /** Patterns skipped because a required factor was absent. */
    std::uint64_t skipped = 0;

    ClassifyStats &
    operator+=(const ClassifyStats &o)
    {
        prefilterHits += o.prefilterHits;
        vmRuns += o.vmRuns;
        skipped += o.skipped;
        return *this;
    }
};

/** Engine knobs. Defaults preserve the historical behavior (the
 * prefilter changes no decision, only the work done). */
struct ClassifyOptions
{
    /** Screen patterns with the Aho–Corasick literal prefilter and
     * run the regex engine only on possible matches. Decisions are
     * identical either way. */
    bool usePrefilter = true;
    /** Optional per-call counters (not thread-shared). */
    ClassifyStats *stats = nullptr;
};

/** Classify one erratum against all 60 categories. */
EngineResult classifyErratum(const Erratum &erratum,
                             const ClassifyOptions &options = {});

/** Classify raw text (body == full). Used by tests and tools. */
EngineResult classifyText(const std::string &body,
                          const std::string &full,
                          const ClassifyOptions &options = {});

} // namespace rememberr

#endif // REMEMBERR_CLASSIFY_ENGINE_HH
