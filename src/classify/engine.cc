#include "engine.hh"

#include "prefilter.hh"
#include "rules.hh"
#include "text/literal_scan.hh"

namespace rememberr {

std::string
erratumBodyText(const Erratum &erratum)
{
    std::string out = erratum.description;
    out += '\n';
    out += erratum.implications;
    return out;
}

std::string
erratumFullText(const Erratum &erratum)
{
    // The workaround field describes the mitigation, not the bug;
    // including it floods the relevance filter ("BIOS code change"
    // would make every mitigated erratum a boot-context candidate),
    // so relevance sees title + description + implications only.
    std::string out = erratum.title;
    out += '\n';
    out += erratum.description;
    out += '\n';
    out += erratum.implications;
    return out;
}

EngineResult
classifyText(const std::string &body, const std::string &full,
             const ClassifyOptions &options)
{
    const RuleSet &rules = RuleSet::instance();
    const Taxonomy &taxonomy = Taxonomy::instance();

    EngineResult result;
    result.decisions.resize(taxonomy.categoryCount(),
                            Decision::AutoNo);

    ClassifyStats localStats;
    ClassifyStats &stats = options.stats ? *options.stats
                                         : localStats;

    // One linear scan per haystack answers, for every pattern at
    // once, whether its required literal factors occur; the matcher
    // then only runs on possible matches. A skipped pattern cannot
    // match, so the first-match-wins loops below take the same
    // branches as without the prefilter. Survivors run through
    // Regex::contains, the lazy DFA.
    const ClassifyPrefilter *prefilter = nullptr;
    std::vector<std::uint8_t> bodyHits;
    std::vector<std::uint8_t> fullHits;
    if (options.usePrefilter) {
        prefilter = &ClassifyPrefilter::instance();
        prefilter->scanBody(foldForScan(body), bodyHits);
        prefilter->scanFull(foldForScan(full), fullHits);
    }

    std::size_t category = 0;
    for (const CategoryRule &rule : rules.rules()) {
        bool accepted = false;
        for (std::size_t p = 0; p < rule.accept.size(); ++p) {
            if (prefilter) {
                const PrefilterState state =
                    prefilter->acceptState(bodyHits, category, p);
                if (state == PrefilterState::Skip) {
                    ++stats.skipped;
                    continue;
                }
                if (state == PrefilterState::FactorHit)
                    ++stats.prefilterHits;
            }
            ++stats.regexRuns;
            if (rule.accept[p].contains(body)) {
                accepted = true;
                break;
            }
        }
        if (accepted) {
            result.decisions[rule.id] = Decision::AutoYes;
            result.autoYes.insert(rule.id);
            ++category;
            continue;
        }
        bool relevant = false;
        for (std::size_t p = 0; p < rule.relevance.size(); ++p) {
            if (prefilter) {
                const PrefilterState state =
                    prefilter->relevanceState(fullHits, category, p);
                if (state == PrefilterState::Skip) {
                    ++stats.skipped;
                    continue;
                }
                if (state == PrefilterState::FactorHit)
                    ++stats.prefilterHits;
            }
            ++stats.regexRuns;
            if (rule.relevance[p].contains(full)) {
                relevant = true;
                break;
            }
        }
        if (relevant) {
            result.decisions[rule.id] = Decision::Manual;
            result.manual.push_back(rule.id);
        }
        ++category;
    }
    return result;
}

EngineResult
classifyErratum(const Erratum &erratum, const ClassifyOptions &options)
{
    return classifyText(erratumBodyText(erratum),
                        erratumFullText(erratum), options);
}

} // namespace rememberr
