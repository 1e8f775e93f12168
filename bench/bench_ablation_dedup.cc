/**
 * @file
 * Ablation benches for the design choices in DESIGN.md:
 *   D1 — n-gram index prefilter vs all-pairs candidate generation;
 *   D3 — similarity metric choice for title matching.
 */

#include "common.hh"

#include <cstdio>
#include <set>

namespace rememberr {
namespace bench {
namespace {

void
BM_DedupWithIndex(benchmark::State &state)
{
    const PipelineResult &result = pipeline();
    DedupOptions options;
    options.useNgramIndex = true;
    for (auto _ : state) {
        DedupResult dedup =
            deduplicate(result.corpus.documents, options);
        benchmark::DoNotOptimize(dedup.clusters.size());
    }
}
BENCHMARK(BM_DedupWithIndex)->Unit(benchmark::kMillisecond);

void
BM_DedupAllPairs(benchmark::State &state)
{
    const PipelineResult &result = pipeline();
    DedupOptions options;
    options.useNgramIndex = false;
    for (auto _ : state) {
        DedupResult dedup =
            deduplicate(result.corpus.documents, options);
        benchmark::DoNotOptimize(dedup.clusters.size());
    }
}
BENCHMARK(BM_DedupAllPairs)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** D3: pair accuracy when the title metric is swapped. */
void
printAblation()
{
    const PipelineResult &result = pipeline();

    std::printf("D1: candidate generation (n-gram index vs "
                "all-pairs)\n");
    for (bool useIndex : {true, false}) {
        DedupOptions options;
        options.useNgramIndex = useIndex;
        DedupResult dedup =
            deduplicate(result.corpus.documents, options);
        DedupAccuracy accuracy =
            evaluateDedup(result.corpus, dedup);
        std::printf("  %-9s: %8zu candidate pairs, %4zu reviewed, "
                    "precision %s, recall %s\n",
                    useIndex ? "index" : "all-pairs",
                    dedup.candidatePairsConsidered,
                    dedup.reviewedPairs,
                    strings::formatPercent(accuracy.pairPrecision,
                                           2)
                        .c_str(),
                    strings::formatPercent(accuracy.pairRecall, 2)
                        .c_str());
    }

    std::printf("\nD3: title-similarity metric choice (review "
                "threshold fixed at 0.70)\n");
    struct Metric
    {
        const char *name;
        double (*fn)(std::string_view, std::string_view);
    };
    const Metric metrics[] = {
        {"levenshtein",
         [](std::string_view a, std::string_view b) {
             return levenshteinSimilarity(a, b);
         }},
        {"jaro-winkler",
         [](std::string_view a, std::string_view b) {
             return jaroWinklerSimilarity(a, b);
         }},
        {"token-jaccard",
         [](std::string_view a, std::string_view b) {
             return tokenJaccardSimilarity(tokenizeWords(a),
                                           tokenizeWords(b));
         }},
        {"composite (default)",
         [](std::string_view a, std::string_view b) {
             return titleSimilarity(a, b);
         }},
    };
    // Evaluate each metric on the known 29 title-variant pairs vs
    // a sample of unrelated title pairs.
    std::vector<std::pair<std::string, std::string>> variantPairs;
    for (const auto &cluster : result.dedup.clusters) {
        if (cluster.size() < 2)
            continue;
        std::set<std::string> titles;
        for (const ErratumRef &ref : cluster) {
            titles.insert(
                result.corpus
                    .documents[static_cast<std::size_t>(
                        ref.docIndex)]
                    .errata[ref.position]
                    .title);
        }
        if (titles.size() >= 2) {
            auto it = titles.begin();
            std::string a = *it++;
            variantPairs.emplace_back(a, *it);
        }
    }
    std::vector<std::pair<std::string, std::string>> unrelated;
    const auto &entries = db().entries();
    for (std::size_t i = 0;
         i + 37 < entries.size() && unrelated.size() < 200;
         i += 11) {
        unrelated.emplace_back(entries[i].title,
                               entries[i + 37].title);
    }

    for (const Metric &metric : metrics) {
        std::size_t variantHits = 0;
        for (const auto &[a, b] : variantPairs) {
            if (metric.fn(a, b) >= 0.70)
                ++variantHits;
        }
        std::size_t falseHits = 0;
        for (const auto &[a, b] : unrelated) {
            if (metric.fn(a, b) >= 0.70)
                ++falseHits;
        }
        std::printf("  %-20s: recalls %zu/%zu variant pairs, "
                    "surfaces %zu/%zu unrelated pairs for review\n",
                    metric.name, variantHits, variantPairs.size(),
                    falseHits, unrelated.size());
    }

    std::printf("\nD4: regex step budget — see "
                "BM_RegexPathological above (bounded instead of "
                "exponential)\n");
}

} // namespace
} // namespace bench
} // namespace rememberr

REMEMBERR_BENCH_MAIN(rememberr::bench::printAblation)
