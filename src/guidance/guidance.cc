#include "guidance.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/correlation.hh"
#include "analysis/frequency.hh"
#include "analysis/msr.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace rememberr {

namespace {

/** Entries restricted to a vendor when requested. */
std::vector<const DbEntry *>
scopedEntries(const Database &db, std::optional<Vendor> vendor)
{
    std::vector<const DbEntry *> out;
    for (const DbEntry &entry : db.entries()) {
        if (!vendor || entry.vendor == *vendor)
            out.push_back(&entry);
    }
    return out;
}

} // namespace

TestCampaign
deriveCampaign(const Database &db, const CampaignOptions &options)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    TestCampaign campaign;
    auto entries = scopedEntries(db, options.vendor);

    // ---- Stimulus pairs (conjunctive triggers) ---------------------
    TriggerCorrelation correlation = triggerCorrelation(db);
    for (const auto &pair :
         correlation.topPairs(options.stimulusPairs)) {
        StimulusStep step;
        step.first = pair.a;
        step.second = pair.b;
        step.evidence = pair.count;
        // Quote up to two historical instances.
        for (const DbEntry *entry : entries) {
            if (entry->triggers.contains(pair.a) &&
                entry->triggers.contains(pair.b)) {
                step.concreteActions.push_back(entry->title);
                if (step.concreteActions.size() >= 2)
                    break;
            }
        }
        campaign.stimuli.push_back(std::move(step));
    }

    // ---- Contexts (disjunctive) ------------------------------------
    for (const CategoryFrequency &freq :
         categoryFrequencies(db, Axis::Context, options.contexts)) {
        campaign.contexts.push_back(freq.id);
    }

    // ---- Observation points ----------------------------------------
    for (const CategoryFrequency &freq :
         categoryFrequencies(db, Axis::Effect,
                             options.observationPoints)) {
        ObservationPoint point;
        point.effect = freq.id;
        point.evidence = freq.total();
        std::set<std::string> families;
        for (const DbEntry *entry : entries) {
            if (!entry->effects.contains(freq.id))
                continue;
            for (const MsrRef &msr : entry->msrs)
                families.insert(msrFamily(msr.name));
        }
        point.msrFamilies.assign(families.begin(), families.end());
        campaign.observations.push_back(std::move(point));
    }
    (void)taxonomy;
    return campaign;
}

std::string
TestCampaign::renderText() const
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    std::string out;
    out += "Directed testing campaign\n";
    out += "=========================\n\n";
    out += "Combined stimuli (apply together; triggers are "
           "conjunctive):\n";
    for (const StimulusStep &step : stimuli) {
        out += "  - ";
        out += taxonomy.categoryById(step.first).description;
        out += " WHILE ";
        out += taxonomy.categoryById(step.second).description;
        out += " [" + std::to_string(step.evidence) +
               " past bugs]\n";
        for (const std::string &example : step.concreteActions) {
            out += "      e.g. \"" + example + "\"\n";
        }
    }
    out += "\nContexts (any suffices per bug; cover all across the "
           "campaign):\n";
    for (CategoryId context : contexts) {
        out += "  - ";
        out += taxonomy.categoryById(context).description;
        out += '\n';
    }
    out += "\nObservation points (one deviation suffices; keep the "
           "footprint minimal):\n";
    for (const ObservationPoint &point : observations) {
        out += "  - ";
        out += taxonomy.categoryById(point.effect).description;
        out += " [" + std::to_string(point.evidence) +
               " past bugs]";
        if (!point.msrFamilies.empty()) {
            out += " — poll ";
            out += strings::join(point.msrFamilies, ", ");
        }
        out += '\n';
    }
    return out;
}

JsonValue
TestCampaign::toJson() const
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    JsonValue root = JsonValue::makeObject();

    JsonValue stimuliJson = JsonValue::makeArray();
    for (const StimulusStep &step : stimuli) {
        JsonValue item = JsonValue::makeObject();
        item["first"] = taxonomy.categoryById(step.first).code;
        item["second"] = taxonomy.categoryById(step.second).code;
        item["evidence"] =
            static_cast<std::int64_t>(step.evidence);
        JsonValue examples = JsonValue::makeArray();
        for (const std::string &example : step.concreteActions)
            examples.append(example);
        item["examples"] = std::move(examples);
        stimuliJson.append(std::move(item));
    }
    root["stimuli"] = std::move(stimuliJson);

    JsonValue contextsJson = JsonValue::makeArray();
    for (CategoryId context : contexts)
        contextsJson.append(taxonomy.categoryById(context).code);
    root["contexts"] = std::move(contextsJson);

    JsonValue observationsJson = JsonValue::makeArray();
    for (const ObservationPoint &point : observations) {
        JsonValue item = JsonValue::makeObject();
        item["effect"] = taxonomy.categoryById(point.effect).code;
        item["evidence"] =
            static_cast<std::int64_t>(point.evidence);
        JsonValue msrs = JsonValue::makeArray();
        for (const std::string &family : point.msrFamilies)
            msrs.append(family);
        item["msrs"] = std::move(msrs);
        observationsJson.append(std::move(item));
    }
    root["observations"] = std::move(observationsJson);
    return root;
}

SeedCorpus
generateSeedCorpus(const Database &db,
                   const SeedCorpusOptions &options)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    Rng rng(options.seed);
    SeedCorpus corpus;

    // Empirical marginals and pair counts.
    auto triggerFreqs = categoryFrequencies(db, Axis::Trigger);
    TriggerCorrelation correlation = triggerCorrelation(db);
    std::map<CategoryId, std::size_t> columnOf;
    for (std::size_t i = 0; i < correlation.categories.size(); ++i)
        columnOf[correlation.categories[i]] = i;

    std::vector<CategoryId> ids;
    std::vector<double> marginal;
    for (const CategoryFrequency &freq : triggerFreqs) {
        if (freq.total() == 0)
            continue;
        ids.push_back(freq.id);
        marginal.push_back(static_cast<double>(freq.total()));
    }
    if (ids.empty())
        return corpus;

    auto contextFreqs = categoryFrequencies(db, Axis::Context);
    std::vector<CategoryId> contextIds;
    std::vector<double> contextWeights;
    for (const CategoryFrequency &freq : contextFreqs) {
        if (freq.total() == 0)
            continue;
        contextIds.push_back(freq.id);
        contextWeights.push_back(
            static_cast<double>(freq.total()));
    }

    // Sequence lengths 1 to 4, one weight each: 4 is the longest.
    const std::vector<double> lengthWeights{0.45, 0.35, 0.15,
                                            0.05};
    std::set<std::vector<CategoryId>> seen;

    // The distinct-pattern space can be smaller than the requested
    // corpus; bound the attempts so saturation terminates.
    std::size_t attempts = 0;
    const std::size_t maxAttempts = options.sequenceCount * 64 + 64;

    while (corpus.sequences.size() < options.sequenceCount &&
           ++attempts <= maxAttempts) {
        const std::size_t length =
            1 + rng.nextWeighted(lengthWeights);

        StimulusSequence sequence;
        std::set<CategoryId> used;
        double weight = 0.0;
        for (std::size_t step = 0; step < length; ++step) {
            std::vector<double> weights = marginal;
            for (std::size_t i = 0; i < ids.size(); ++i) {
                if (used.count(ids[i])) {
                    weights[i] = 0.0;
                    continue;
                }
                // Bias towards historically co-occurring
                // triggers.
                for (CategoryId prev : sequence.triggers) {
                    std::size_t a = columnOf[prev];
                    std::size_t b = columnOf[ids[i]];
                    weights[i] *=
                        1.0 +
                        2.0 * static_cast<double>(
                                  correlation.counts[a][b]);
                }
            }
            double total = 0.0;
            for (double w : weights)
                total += w;
            if (total <= 0.0)
                break;
            CategoryId pick = ids[rng.nextWeighted(weights)];
            sequence.triggers.push_back(pick);
            used.insert(pick);
            weight += marginal[static_cast<std::size_t>(
                std::find(ids.begin(), ids.end(), pick) -
                ids.begin())];
        }
        if (sequence.triggers.empty())
            continue;
        if (!seen.insert(sequence.triggers).second)
            continue; // duplicate pattern
        if (!contextIds.empty() && rng.nextBool(0.45)) {
            sequence.context =
                contextIds[rng.nextWeighted(contextWeights)];
        }
        sequence.weight = weight;
        corpus.sequences.push_back(std::move(sequence));
    }
    (void)taxonomy;
    return corpus;
}

double
SeedCorpus::pairCoverage(const Database &db,
                         std::size_t top_n) const
{
    TriggerCorrelation correlation = triggerCorrelation(db);
    auto top = correlation.topPairs(top_n);
    if (top.empty())
        return 1.0;
    std::size_t covered = 0;
    for (const auto &pair : top) {
        bool hit = false;
        for (const StimulusSequence &sequence : sequences) {
            bool hasA = std::find(sequence.triggers.begin(),
                                  sequence.triggers.end(),
                                  pair.a) !=
                        sequence.triggers.end();
            bool hasB = std::find(sequence.triggers.begin(),
                                  sequence.triggers.end(),
                                  pair.b) !=
                        sequence.triggers.end();
            if (hasA && hasB) {
                hit = true;
                break;
            }
        }
        if (hit)
            ++covered;
    }
    return static_cast<double>(covered) /
           static_cast<double>(top.size());
}

JsonValue
SeedCorpus::toJson() const
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    JsonValue root = JsonValue::makeArray();
    for (const StimulusSequence &sequence : sequences) {
        JsonValue item = JsonValue::makeObject();
        JsonValue triggers = JsonValue::makeArray();
        for (CategoryId id : sequence.triggers)
            triggers.append(taxonomy.categoryById(id).code);
        item["triggers"] = std::move(triggers);
        if (sequence.context) {
            item["context"] =
                taxonomy.categoryById(*sequence.context).code;
        }
        item["weight"] = sequence.weight;
        root.append(std::move(item));
    }
    return root;
}

std::string
MonitorRule::renderText() const
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    std::string out = name;
    out += ": on activity of {";
    bool first = true;
    for (ClassId cls : armedBy) {
        if (!first)
            out += ", ";
        first = false;
        out += taxonomy.classById(cls).code;
    }
    out += "} check for ";
    out += taxonomy.categoryById(effect).description;
    if (!msrs.empty()) {
        out += " via ";
        out += strings::join(msrs, ", ");
    }
    out += " [" + std::to_string(evidence) + " past bugs]";
    return out;
}

namespace {

/** Coverage curve for a fixed pick order. */
ObservationPlan
planFromOrder(const Database &db,
              const std::vector<CategoryId> &order,
              std::size_t budget)
{
    ObservationPlan plan;
    plan.totalBugs = db.entries().size();
    CategorySet watched;
    for (std::size_t i = 0; i < order.size() && i < budget; ++i) {
        watched.insert(order[i]);
        plan.picks.push_back(order[i]);
        std::size_t covered = 0;
        for (const DbEntry &entry : db.entries()) {
            if (!(entry.effects & watched).empty())
                ++covered;
        }
        plan.coverageCurve.push_back(covered);
    }
    return plan;
}

} // namespace

ObservationPlan
selectObservationPoints(const Database &db, std::size_t budget)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    ObservationPlan plan;
    plan.totalBugs = db.entries().size();

    CategorySet watched;
    std::vector<bool> covered(db.entries().size(), false);
    std::size_t coveredCount = 0;

    for (std::size_t round = 0; round < budget; ++round) {
        CategoryId best = 0;
        std::size_t bestGain = 0;
        for (CategoryId candidate :
             taxonomy.categoriesOfAxis(Axis::Effect)) {
            if (watched.contains(candidate))
                continue;
            std::size_t gain = 0;
            for (std::size_t i = 0; i < db.entries().size(); ++i) {
                if (!covered[i] &&
                    db.entries()[i].effects.contains(candidate)) {
                    ++gain;
                }
            }
            if (gain > bestGain) {
                bestGain = gain;
                best = candidate;
            }
        }
        if (bestGain == 0)
            break; // every remaining point adds nothing
        watched.insert(best);
        plan.picks.push_back(best);
        for (std::size_t i = 0; i < db.entries().size(); ++i) {
            if (!covered[i] &&
                db.entries()[i].effects.contains(best)) {
                covered[i] = true;
                ++coveredCount;
            }
        }
        plan.coverageCurve.push_back(coveredCount);
    }
    return plan;
}

ObservationPlan
topFrequencyObservationPoints(const Database &db,
                              std::size_t budget)
{
    std::vector<CategoryId> order;
    for (const CategoryFrequency &freq :
         categoryFrequencies(db, Axis::Effect)) {
        order.push_back(freq.id);
    }
    return planFromOrder(db, order, budget);
}

std::vector<MonitorRule>
deriveMonitorRules(const Database &db, std::size_t max_rules)
{
    const Taxonomy &taxonomy = Taxonomy::instance();
    std::vector<MonitorRule> rules;

    for (const CategoryFrequency &freq :
         categoryFrequencies(db, Axis::Effect, max_rules)) {
        MonitorRule rule;
        rule.effect = freq.id;
        rule.evidence = freq.total();
        rule.name =
            "watch-" +
            strings::toLower(taxonomy.categoryById(freq.id).code);

        // Registers historically witnessing the effect, and the
        // trigger classes whose activity should arm the check.
        std::set<std::string> families;
        std::map<ClassId, std::size_t> classCounts;
        for (const DbEntry &entry : db.entries()) {
            if (!entry.effects.contains(freq.id))
                continue;
            for (const MsrRef &msr : entry.msrs)
                families.insert(msrFamily(msr.name));
            for (CategoryId trigger : entry.triggers.toVector())
                ++classCounts[taxonomy.categoryById(trigger)
                                  .classId];
        }
        rule.msrs.assign(families.begin(), families.end());

        std::vector<std::pair<std::size_t, ClassId>> ranked;
        for (const auto &[cls, count] : classCounts)
            ranked.emplace_back(count, cls);
        std::sort(ranked.rbegin(), ranked.rend());
        for (std::size_t i = 0; i < ranked.size() && i < 3; ++i)
            rule.armedBy.push_back(ranked[i].second);

        rules.push_back(std::move(rule));
    }
    return rules;
}

} // namespace rememberr
