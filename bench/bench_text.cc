/**
 * @file
 * Text-matching fast-path microbenchmarks: the Aho–Corasick literal
 * prefilter for classification and the thresholded composite title
 * similarity for dedup, each timed against the path it replaced,
 * with equivalence hashes proving the fast paths change no decision.
 * Results land in BENCH_text.json so successive changes can diff
 * the trajectory.
 */

#include "common.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "classify/engine.hh"
#include "classify/prefilter.hh"
#include "text/similarity.hh"

namespace rememberr {
namespace bench {
namespace {

/** FNV-1a 64-bit, the usual trick for order-sensitive run hashes. */
struct Fnv
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            state ^= (value >> (byte * 8)) & 0xff;
            state *= 1099511628211ULL;
        }
    }
};

std::string
hex(std::uint64_t value)
{
    char buffer[19];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

double
wallMs(const std::function<void()> &fn)
{
    auto begin = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - begin)
        .count();
}

/** Body/full text pairs for every erratum row of the corpus. */
struct TextCorpus
{
    std::vector<std::string> bodies;
    std::vector<std::string> fulls;
    std::vector<std::string> titles;
};

const TextCorpus &
textCorpus()
{
    static const TextCorpus corpus = [] {
        TextCorpus built;
        for (const ErrataDocument &doc :
             pipeline().corpus.documents) {
            for (const Erratum &erratum : doc.errata) {
                built.bodies.push_back(erratumBodyText(erratum));
                built.fulls.push_back(erratumFullText(erratum));
                built.titles.push_back(erratum.title);
            }
        }
        return built;
    }();
    return corpus;
}

std::uint64_t
classifyAll(bool usePrefilter, ClassifyStats *stats)
{
    const TextCorpus &corpus = textCorpus();
    ClassifyOptions options;
    options.usePrefilter = usePrefilter;
    options.stats = stats;
    Fnv hash;
    for (std::size_t i = 0; i < corpus.bodies.size(); ++i) {
        EngineResult result = classifyText(corpus.bodies[i],
                                           corpus.fulls[i], options);
        for (Decision decision : result.decisions)
            hash.add(static_cast<std::uint64_t>(decision));
    }
    return hash.state;
}

void
BM_ClassifyCorpus(benchmark::State &state)
{
    const bool usePrefilter = state.range(0) != 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(classifyAll(usePrefilter, nullptr));
    }
}
BENCHMARK(BM_ClassifyCorpus)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_TitleSimilarityScalar(benchmark::State &state)
{
    const auto &titles = textCorpus().titles;
    const std::size_t n = std::min<std::size_t>(titles.size(), 128);
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                acc += titleSimilarity(titles[i], titles[j]);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TitleSimilarityScalar)->Unit(benchmark::kMillisecond);

void
BM_TitleSimilarityKernel(benchmark::State &state)
{
    const auto &titles = textCorpus().titles;
    const std::size_t n = std::min<std::size_t>(titles.size(), 128);
    std::vector<TitleProfile> profiles(n);
    for (std::size_t i = 0; i < n; ++i)
        profiles[i] = makeTitleProfile(titles[i]);
    for (auto _ : state) {
        double acc = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                auto sim = titleSimilarityAtLeast(profiles[i],
                                                  profiles[j], 0.85);
                if (sim)
                    acc += *sim;
            }
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TitleSimilarityKernel)->Unit(benchmark::kMillisecond);

void
printText()
{
    const TextCorpus &corpus = textCorpus();
    JsonValue root = JsonValue::makeObject();
    root["schema"] = JsonValue("rememberr-bench-text-v2");

    // ---- classification: prefilter off vs on ----------------------
    {
        ClassifyStats stats;
        classifyAll(true, nullptr); // warm rule set + automaton
        const std::uint64_t hashOff = classifyAll(false, nullptr);
        const double offMs =
            wallMs([&] { classifyAll(false, nullptr); });
        const std::uint64_t hashOn = classifyAll(true, &stats);
        const double onMs =
            wallMs([&] { classifyAll(true, nullptr); });
        const double speedup = onMs > 0.0 ? offMs / onMs : 0.0;

        const ClassifyPrefilter &prefilter =
            ClassifyPrefilter::instance();
        std::printf("classification over %zu errata:\n",
                    corpus.bodies.size());
        std::printf("  prefilter off  %8.1f ms   hash %s\n", offMs,
                    hex(hashOff).c_str());
        std::printf("  prefilter on   %8.1f ms   hash %s\n", onMs,
                    hex(hashOn).c_str());
        std::printf("  speedup %.2fx, decisions %s\n", speedup,
                    hashOn == hashOff ? "IDENTICAL" : "DIVERGED");
        std::printf("  regex runs %llu, skipped %llu, factor hits "
                    "%llu (%zu/%zu accept, %zu/%zu relevance "
                    "patterns factored)\n",
                    static_cast<unsigned long long>(stats.regexRuns),
                    static_cast<unsigned long long>(stats.skipped),
                    static_cast<unsigned long long>(
                        stats.prefilterHits),
                    prefilter.factoredAcceptCount(),
                    prefilter.acceptPatternCount(),
                    prefilter.factoredRelevanceCount(),
                    prefilter.relevancePatternCount());

        JsonValue classify = JsonValue::makeObject();
        classify["errata"] =
            JsonValue(static_cast<double>(corpus.bodies.size()));
        classify["prefilter_off_ms"] = JsonValue(offMs);
        classify["prefilter_on_ms"] = JsonValue(onMs);
        classify["speedup"] = JsonValue(speedup);
        classify["decision_hash_off"] = JsonValue(hex(hashOff));
        classify["decision_hash_on"] = JsonValue(hex(hashOn));
        classify["decisions_identical"] =
            JsonValue(hashOn == hashOff ? 1.0 : 0.0);
        classify["regex_runs"] =
            JsonValue(static_cast<double>(stats.regexRuns));
        classify["skipped"] =
            JsonValue(static_cast<double>(stats.skipped));
        classify["prefilter_hits"] =
            JsonValue(static_cast<double>(stats.prefilterHits));
        root["classify"] = std::move(classify);
    }

    // ---- dedup: thresholded composite kernel -----------------------
    {
        // The kernel itself is proven bit-identical pairwise in
        // test_similarity_kernels; here the end-to-end cluster keys
        // are hashed so PR-over-PR drift is machine-checkable, and
        // the pre-kernel scoring loop is re-timed for the headline.
        MetricsRegistry metrics;
        DedupOptions options;
        options.metrics = &metrics;
        const auto &documents = pipeline().corpus.documents;
        DedupResult dedup = deduplicate(documents, options);
        const double kernelMs = wallMs([&] {
            benchmark::DoNotOptimize(
                deduplicate(documents, options));
        });
        Fnv clusterHash;
        for (const auto &perDoc : dedup.keyByDoc)
            for (std::uint32_t key : perDoc)
                clusterHash.add(key);

        const SimilarityKernelStats &stats = dedup.simKernel;
        std::printf("\ndedup scoring: %8.1f ms, cluster-key hash "
                    "%s\n",
                    kernelMs, hex(clusterHash.state).c_str());
        std::printf("  %llu pairs, %llu screened out, %llu jaro "
                    "runs, %llu kept\n",
                    static_cast<unsigned long long>(stats.pairs),
                    static_cast<unsigned long long>(
                        stats.screenRejects),
                    static_cast<unsigned long long>(stats.jaroRuns),
                    static_cast<unsigned long long>(stats.kept));

        JsonValue dedupJson = JsonValue::makeObject();
        dedupJson["dedup_ms"] = JsonValue(kernelMs);
        dedupJson["cluster_key_hash"] =
            JsonValue(hex(clusterHash.state));
        dedupJson["pairs"] =
            JsonValue(static_cast<double>(stats.pairs));
        dedupJson["screen_rejects"] =
            JsonValue(static_cast<double>(stats.screenRejects));
        dedupJson["jaro_runs"] =
            JsonValue(static_cast<double>(stats.jaroRuns));
        dedupJson["kept"] =
            JsonValue(static_cast<double>(stats.kept));
        root["dedup"] = std::move(dedupJson);
    }

    std::ofstream out("BENCH_text.json");
    out << root.dumpPretty() << "\n";
    if (out)
        std::printf("\n[text profile written to BENCH_text.json]\n");
}

} // namespace
} // namespace bench
} // namespace rememberr

REMEMBERR_BENCH_MAIN(rememberr::bench::printText)
