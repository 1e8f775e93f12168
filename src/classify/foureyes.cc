#include "foureyes.hh"

#include "engine.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace rememberr {

namespace {

/** Build the representative erratum entry for one unique bug. */
Erratum
representative(const BugSpec &bug)
{
    Erratum erratum;
    erratum.title = bug.title;
    erratum.description = bug.description;
    erratum.implications = bug.implications;
    erratum.workaroundText = bug.workaroundText;
    erratum.workaroundClass = bug.workaroundClass;
    erratum.status = bug.fixStatus;
    erratum.msrs = bug.msrs;
    return erratum;
}

CategorySet
groundTruth(const BugSpec &bug)
{
    return bug.triggers | bug.contexts | bug.effects;
}

} // namespace

CategorySet
FourEyesResult::allCategories(const AnnotatedBug &bug)
{
    return bug.triggers | bug.contexts | bug.effects;
}

FourEyesResult
runFourEyes(const Corpus &corpus, const FourEyesOptions &options)
{
    // Configuration mistakes are user errors, not library bugs.
    if (options.stepErrorRates.size() != options.stepSizes.size())
        REMEMBERR_FATAL("runFourEyes: step table size mismatch");
    std::size_t planned = 0;
    for (std::size_t size : options.stepSizes)
        planned += size;
    if (planned != corpus.bugs.size())
        REMEMBERR_FATAL("runFourEyes: step sizes cover ", planned,
                        " errata, corpus has ", corpus.bugs.size());

    const Taxonomy &taxonomy = Taxonomy::instance();
    Rng rngA(options.seed);
    Rng rngB(options.seed ^ 0x9e3779b97f4a7c15ULL);
    Rng rngDiscuss(options.seed ^ 0x5851f42d4c957f2dULL);

    FourEyesResult result;
    result.annotations.resize(corpus.bugs.size());
    result.naiveDecisionsPerAnnotator =
        corpus.bugs.size() * taxonomy.categoryCount();

    // The regex prefilter dominates the protocol's cost and each
    // erratum is independent, so it runs up front across threads.
    // The annotator loop below draws from sequential RNG streams and
    // therefore stays serial, consuming the precomputed results in
    // bug order — output is identical for every thread count.
    std::vector<EngineResult> engineResults(corpus.bugs.size());
    std::vector<ClassifyStats> engineStats(corpus.bugs.size());
    parallelFor(corpus.bugs.size(), options.threads,
                [&](std::size_t i) {
                    ClassifyOptions classifyOptions;
                    classifyOptions.stats = &engineStats[i];
                    engineResults[i] = classifyErratum(
                        representative(corpus.bugs[i]),
                        classifyOptions);
                });
    if (options.metrics) {
        ClassifyStats total;
        for (const ClassifyStats &stats : engineStats)
            total += stats;
        options.metrics->counter("classify.prefilter.hits")
            .add(total.prefilterHits);
        options.metrics->counter("classify.prefilter.vm_runs")
            .add(total.regexRuns);
        options.metrics->counter("classify.prefilter.skipped")
            .add(total.skipped);
    }

    std::size_t correctLabels = 0;
    std::size_t totalLabels = 0;
    std::size_t nextBug = 0;
    std::size_t cumulative = 0;

    for (std::size_t stepIdx = 0; stepIdx < options.stepSizes.size();
         ++stepIdx) {
        StepStats stats;
        stats.step = static_cast<int>(stepIdx) + 1;
        stats.erratumCount = options.stepSizes[stepIdx];
        const double errorRate = options.stepErrorRates[stepIdx];

        for (std::size_t k = 0;
             k < options.stepSizes[stepIdx] &&
             nextBug < corpus.bugs.size();
             ++k, ++nextBug) {
            const BugSpec &bug = corpus.bugs[nextBug];
            const CategorySet truth = groundTruth(bug);

            const EngineResult &engine = engineResults[nextBug];

            AnnotatedBug annotation;
            annotation.bugKey = bug.bugKey;
            annotation.autoAccepted = engine.autoYes;
            annotation.manualDecisions = engine.manual.size();

            CategorySet final = engine.autoYes;
            for (CategoryId id : engine.manual) {
                bool truthHere = truth.contains(id);
                double pA = errorRate * (truthHere
                                             ? options.missFactor
                                             : options.inventFactor);
                double pB = pA;
                bool decisionA =
                    rngA.nextBool(pA) ? !truthHere : truthHere;
                bool decisionB =
                    rngB.nextBool(pB) ? !truthHere : truthHere;
                ++stats.manualDecisions;
                bool finalDecision;
                if (decisionA == decisionB) {
                    finalDecision = decisionA;
                } else {
                    ++stats.mismatches;
                    finalDecision =
                        rngDiscuss.nextBool(
                            options.discussionFidelity)
                            ? truthHere
                            : !truthHere;
                }
                if (finalDecision)
                    final.insert(id);
            }

            annotation.triggers = final.filterAxis(Axis::Trigger);
            annotation.contexts = final.filterAxis(Axis::Context);
            annotation.effects = final.filterAxis(Axis::Effect);
            result.manualDecisionsPerAnnotator +=
                engine.manual.size();

            // Label accuracy over all 60 categories.
            for (CategoryId id = 0; id < taxonomy.categoryCount();
                 ++id) {
                ++totalLabels;
                if (final.contains(id) == truth.contains(id))
                    ++correctLabels;
            }

            result.annotations[bug.bugKey] = annotation;
        }

        cumulative += stats.erratumCount;
        stats.cumulativeErrata = cumulative;
        stats.agreement =
            stats.manualDecisions == 0
                ? 1.0
                : 1.0 - static_cast<double>(stats.mismatches) /
                            static_cast<double>(
                                stats.manualDecisions);
        result.steps.push_back(stats);
    }

    result.labelAccuracy =
        totalLabels == 0 ? 1.0
                         : static_cast<double>(correctLabels) /
                               static_cast<double>(totalLabels);
    return result;
}

} // namespace rememberr
