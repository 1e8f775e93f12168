/**
 * @file
 * Applications to design testing (Section VI).
 *
 * The database's value is operational: triggers are conjunctive, so
 * a campaign must *combine* the stimuli that historically uncovered
 * bugs; observations are disjunctive, so watching the few most
 * common observation points suffices. This module compiles the
 * database into three artifacts:
 *
 *   - a TestCampaign: ranked stimulus pairs + contexts +
 *     observation points for dynamic testing (Section VI-A);
 *   - a fuzzer SeedCorpus: weighted abstract stimulus sequences to
 *     seed hardware fuzzers (the RFUZZ/DifuzzRTL/TheHuzz gap the
 *     paper identifies);
 *   - MonitorRules: observation predicates for runtime detection
 *     (the Phoenix/SPECS line of work, Section VI-A "Runtime
 *     detection").
 */

#ifndef REMEMBERR_GUIDANCE_GUIDANCE_HH
#define REMEMBERR_GUIDANCE_GUIDANCE_HH

#include <optional>
#include <string>
#include <vector>

#include "db/database.hh"
#include "db/query.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace rememberr {

/** One combined stimulus of a directed campaign. */
struct StimulusStep
{
    CategoryId first = 0;
    CategoryId second = 0;
    /** Number of past bugs requiring at least this pair. */
    std::size_t evidence = 0;
    /** Concrete example actions, from the historical record. */
    std::vector<std::string> concreteActions;
};

/** One observation point with the registers to poll. */
struct ObservationPoint
{
    CategoryId effect = 0;
    std::size_t evidence = 0;
    /** MSR families historically witnessing this effect. */
    std::vector<std::string> msrFamilies;
};

/** A directed testing campaign. */
struct TestCampaign
{
    std::vector<StimulusStep> stimuli;
    /** Contexts ranked by evidence (disjunctive: any suffices). */
    std::vector<CategoryId> contexts;
    std::vector<ObservationPoint> observations;

    /** Human-readable plan. */
    std::string renderText() const;
    /** Machine-readable plan. */
    JsonValue toJson() const;
};

/** Campaign derivation knobs. */
struct CampaignOptions
{
    std::size_t stimulusPairs = 8;
    std::size_t contexts = 4;
    std::size_t observationPoints = 5;
    /** Restrict the quoted historical examples to one vendor;
     * evidence counts always use the whole corpus. */
    std::optional<Vendor> vendor;
};

/** Derive a campaign from the database. */
TestCampaign deriveCampaign(const Database &db,
                            const CampaignOptions &options = {});

/** One fuzzer seed: an ordered abstract stimulus sequence. */
struct StimulusSequence
{
    /** Abstract trigger categories, in application order. */
    std::vector<CategoryId> triggers;
    /** Context to set up before applying the sequence. */
    std::optional<CategoryId> context;
    /** Sampling weight of the historical pattern. */
    double weight = 0.0;
};

/** Seed-corpus generation knobs. */
struct SeedCorpusOptions
{
    std::size_t sequenceCount = 64;
    std::uint64_t seed = 0x5eedc0de;
};

/** A generated fuzzer seed corpus. */
struct SeedCorpus
{
    std::vector<StimulusSequence> sequences;

    /**
     * Coverage of the top-n historical trigger pairs: the fraction
     * that appears (both members, any order) in at least one
     * sequence.
     */
    double pairCoverage(const Database &db, std::size_t top_n) const;

    /** One JSON object per sequence (JSON-lines friendly). */
    JsonValue toJson() const;
};

/**
 * Sample a seed corpus: sequences follow the empirical trigger
 * marginals and pairwise correlations, so the fuzzer starts from
 * the stimulus space where bugs historically lived.
 */
SeedCorpus generateSeedCorpus(const Database &db,
                              const SeedCorpusOptions &options = {});

/** One runtime monitor rule (Phoenix/SPECS style). */
struct MonitorRule
{
    std::string name;
    CategoryId effect = 0;
    /** MSR families to snapshot/compare. */
    std::vector<std::string> msrs;
    /** Trigger classes whose activity arms the rule. */
    std::vector<ClassId> armedBy;
    std::size_t evidence = 0;

    std::string renderText() const;
};

/**
 * Compile observation predicates for online bug detection: for each
 * frequent effect, which registers to watch and which trigger-class
 * activity should arm the check (keeping the observation footprint
 * minimal, Section VI-A "Challenge: observation space").
 */
std::vector<MonitorRule> deriveMonitorRules(const Database &db,
                                            std::size_t max_rules);

/**
 * Observation-budget optimization (Section VI-A "Challenge:
 * observation space"): observations are disjunctive, so covering a
 * bug requires watching only *one* of its effects — picking the k
 * observation points that maximize the number of covered bugs is a
 * maximum-coverage problem, solved greedily here (the classic
 * (1 - 1/e)-approximation).
 */
struct ObservationPlan
{
    /** Chosen effect categories, in greedy pick order. */
    std::vector<CategoryId> picks;
    /** Bugs covered after each pick (the coverage curve). */
    std::vector<std::size_t> coverageCurve;
    std::size_t totalBugs = 0;

    double
    coverage() const
    {
        return totalBugs == 0 || coverageCurve.empty()
                   ? 0.0
                   : static_cast<double>(coverageCurve.back()) /
                         static_cast<double>(totalBugs);
    }
};

/** Greedy maximum-coverage selection of k observation points. */
ObservationPlan selectObservationPoints(const Database &db,
                                        std::size_t budget);

/**
 * Baseline for the ablation: pick the k individually most frequent
 * effects (ignoring overlap) and report the same coverage curve.
 */
ObservationPlan topFrequencyObservationPoints(const Database &db,
                                              std::size_t budget);

} // namespace rememberr

#endif // REMEMBERR_GUIDANCE_GUIDANCE_HH
