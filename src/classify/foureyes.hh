/**
 * @file
 * The four-eyes classification protocol.
 *
 * Section V-A: two researchers independently classified every
 * (erratum, category) pair the automatic stage left open, in seven
 * successive discussion steps, then resolved each mismatch. Here the
 * two humans are stochastic annotator models whose per-decision error
 * rate varies by step (learning over time, with a bump when the AMD
 * corpus — new phrasing — starts); the protocol, the agreement curve
 * (Figure 9), the cumulative step sizes (Figure 8) and the final
 * annotated database all fall out of the simulation.
 */

#ifndef REMEMBERR_CLASSIFY_FOUREYES_HH
#define REMEMBERR_CLASSIFY_FOUREYES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.hh"
#include "obs/metrics.hh"
#include "taxonomy/taxonomy.hh"

namespace rememberr {

/** Protocol configuration. */
struct FourEyesOptions
{
    std::uint64_t seed = 0xc1a551f1ULL;
    /** Per-step annotator error rates; length defines the number of
     * steps. The bump at step 6 models the switch to the AMD corpus
     * (classified after Intel, Section V-A). */
    std::vector<double> stepErrorRates{0.095, 0.085, 0.075, 0.065,
                                       0.055, 0.080, 0.045};
    /** Unique errata classified per step (Intel in the first five
     * steps, AMD in the last two; sums must match the corpus). */
    std::vector<std::size_t> stepSizes{120, 140, 150, 160, 173,
                                       190, 195};
    /** Probability that discussing a mismatch recovers the truth. */
    double discussionFidelity = 0.97;
    /** Error-rate multiplier when the true answer is "yes" (a
     * present category is easier to miss than an absent one is to
     * invent). */
    double missFactor = 1.3;
    double inventFactor = 0.8;
    /**
     * Worker threads for the regex prefilter (0 = all hardware
     * threads, 1 = serial). Only the per-erratum engine runs is
     * parallel; the stochastic annotator protocol consumes the
     * precomputed results in bug order, so annotations are
     * bit-identical for every thread count.
     */
    std::size_t threads = 1;
    /** Screen rule patterns with the literal prefilter before
     * running the regex engine (decision-neutral; see engine.hh). */
    bool usePrefilter = true;
    /** When set, receives classify.prefilter.{hits,vm_runs,skipped}
     * counters for the engine stage. */
    MetricsRegistry *metrics = nullptr;
};

/** Per-step protocol statistics. */
struct StepStats
{
    int step = 0;
    std::size_t erratumCount = 0;
    std::size_t cumulativeErrata = 0;
    std::size_t manualDecisions = 0;
    std::size_t mismatches = 0;
    /** Fraction of manual decisions both annotators made
     * identically, before discussion. */
    double agreement = 1.0;
};

/** Final annotation for one unique bug. */
struct AnnotatedBug
{
    std::uint32_t bugKey = 0;
    CategorySet triggers;
    CategorySet contexts;
    CategorySet effects;
    /** Categories the automatic stage accepted. */
    CategorySet autoAccepted;
    /** Manual decisions this bug required (per annotator). */
    std::size_t manualDecisions = 0;
};

/** Complete protocol outcome. */
struct FourEyesResult
{
    std::vector<StepStats> steps;
    /** One annotation per unique bug, indexed by bugKey. */
    std::vector<AnnotatedBug> annotations;
    /** Decisions without filtering: unique errata x 60. */
    std::size_t naiveDecisionsPerAnnotator = 0;
    /** Decisions actually requiring a human, per annotator. */
    std::size_t manualDecisionsPerAnnotator = 0;
    /** Fraction of (bug, category) pairs annotated correctly. */
    double labelAccuracy = 0.0;

    /** Merge the final annotation into one CategorySet. */
    static CategorySet allCategories(const AnnotatedBug &bug);
};

/** Run the protocol over the corpus's unique bugs. */
FourEyesResult runFourEyes(const Corpus &corpus,
                           const FourEyesOptions &options = {});

} // namespace rememberr

#endif // REMEMBERR_CLASSIFY_FOUREYES_HH
