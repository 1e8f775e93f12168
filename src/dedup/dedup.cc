#include "dedup.hh"

#include <algorithm>
#include <map>
#include <set>

#include "text/ngram_index.hh"
#include "text/similarity.hh"
#include "union_find.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/strings.hh"

namespace rememberr {

namespace {

/** Flattened view of all rows with precomputed canonical titles. */
struct RowView
{
    ErratumRef ref;
    const Erratum *erratum = nullptr;
    Vendor vendor = Vendor::Intel;
    std::string canonicalTitle;
};

} // namespace

DedupResult
deduplicate(const std::vector<ErrataDocument> &documents,
            const DedupOptions &options)
{
    // Flatten rows.
    std::vector<RowView> rows;
    for (std::size_t d = 0; d < documents.size(); ++d) {
        const ErrataDocument &doc = documents[d];
        for (std::size_t i = 0; i < doc.errata.size(); ++i) {
            RowView row;
            row.ref = ErratumRef{static_cast<int>(d), i};
            row.erratum = &doc.errata[i];
            row.vendor = doc.design.vendor;
            row.canonicalTitle =
                strings::canonicalize(doc.errata[i].title);
            rows.push_back(std::move(row));
        }
    }

    DedupResult result;
    UnionFind forest(rows.size());

    // ---- AMD: shared numeric identifiers ---------------------------
    {
        std::map<std::string, std::size_t> firstByNumber;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].vendor != Vendor::Amd)
                continue;
            auto [it, inserted] = firstByNumber.try_emplace(
                rows[i].erratum->localId, i);
            if (!inserted) {
                if (forest.unite(it->second, i))
                    ++result.numericIdMerges;
            }
        }
    }

    // ---- Intel step 1: (nearly) identical titles -------------------
    {
        std::map<std::string, std::size_t> firstByTitle;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].vendor != Vendor::Intel)
                continue;
            auto [it, inserted] =
                firstByTitle.try_emplace(rows[i].canonicalTitle, i);
            if (!inserted) {
                if (forest.unite(it->second, i))
                    ++result.exactTitleMerges;
            }
        }
    }

    // ---- Intel step 2: similarity-ranked review --------------------
    // Collect one representative per current Intel cluster to avoid
    // re-reviewing rows already merged by exact title.
    std::vector<std::size_t> reps;
    {
        std::set<std::size_t> seen;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (rows[i].vendor != Vendor::Intel)
                continue;
            if (seen.insert(forest.find(i)).second)
                reps.push_back(i);
        }
    }

    struct Candidate
    {
        std::size_t a = 0;
        std::size_t b = 0;
        double similarity = 0.0;
    };

    // Scoring compares each representative against many others, so
    // canonicalization, tokenization, the byte histogram and the Jaro
    // position masks move out of the pair loop into one profile per
    // representative; the thresholded kernel then screens most pairs
    // without running Jaro. Kept pairs and scores are bit-identical
    // to titleSimilarity (see similarity.hh). Review emulates the
    // paper's manual inspection, confirming a pair when the
    // descriptions are identical up to canonicalization, so each
    // representative's canonical description is computed here once.
    std::vector<TitleProfile> profiles(reps.size());
    std::vector<std::string> descriptions(reps.size());
    {
        ScopedSpan span(options.trace, "dedup.profiles");
        parallelFor(reps.size(), options.threads, [&](std::size_t i) {
            const Erratum &erratum = *rows[reps[i]].erratum;
            profiles[i] = makeTitleProfile(erratum.title);
            descriptions[i] =
                strings::canonicalize(erratum.description);
        });
    }

    // Candidate generation + similarity scoring is the hot loop and
    // is read-only over rows/index/profiles, so it shards across
    // threads by representative index. Partial candidate lists are
    // concatenated in chunk order, which reproduces the serial
    // append order exactly; the union-find below stays strictly
    // serial.
    struct CandidateShard
    {
        std::vector<Candidate> candidates;
        std::size_t pairsConsidered = 0;
        SimilarityKernelStats stats;
    };
    auto mergeShards = [](CandidateShard &acc, CandidateShard &&part) {
        acc.candidates.insert(
            acc.candidates.end(),
            std::make_move_iterator(part.candidates.begin()),
            std::make_move_iterator(part.candidates.end()));
        acc.pairsConsidered += part.pairsConsidered;
        acc.stats += part.stats;
    };

    // Candidates hold representative indices; reps ascend in row
    // order, so ordering by them is ordering by row.
    CandidateShard generated;
    if (options.useNgramIndex) {
        NgramIndex index(3);
        {
            ScopedSpan span(options.trace, "dedup.index");
            for (std::size_t rep : reps)
                index.add(rows[rep].erratum->title);
        }
        ScopedSpan span(options.trace, "dedup.score");
        generated = parallelMapReduce<CandidateShard>(
            reps.size(), options.threads,
            [&](std::size_t begin, std::size_t end) {
                CandidateShard shard;
                NgramQueryScratch scratch;
                for (std::size_t i = begin; i < end; ++i) {
                    auto hits = index.query(
                        rows[reps[i]].erratum->title, scratch,
                        options.ngramMinOverlap,
                        static_cast<std::int64_t>(i));
                    for (const NgramCandidate &hit : hits) {
                        if (hit.docId <= i)
                            continue; // count each unordered pair once
                        ++shard.pairsConsidered;
                        auto sim = titleSimilarityAtLeast(
                            profiles[i], profiles[hit.docId],
                            options.reviewThreshold, &shard.stats);
                        if (sim) {
                            shard.candidates.push_back(
                                Candidate{i, hit.docId, *sim});
                        }
                    }
                }
                return shard;
            },
            mergeShards);
    } else {
        ScopedSpan span(options.trace, "dedup.score");
        generated = parallelMapReduce<CandidateShard>(
            reps.size(), options.threads,
            [&](std::size_t begin, std::size_t end) {
                CandidateShard shard;
                for (std::size_t i = begin; i < end; ++i) {
                    for (std::size_t j = i + 1; j < reps.size();
                         ++j) {
                        ++shard.pairsConsidered;
                        auto sim = titleSimilarityAtLeast(
                            profiles[i], profiles[j],
                            options.reviewThreshold, &shard.stats);
                        if (sim) {
                            shard.candidates.push_back(
                                Candidate{i, j, *sim});
                        }
                    }
                }
                return shard;
            },
            mergeShards);
    }
    std::vector<Candidate> candidates =
        std::move(generated.candidates);
    result.candidatePairsConsidered = generated.pairsConsidered;
    result.simKernel = generated.stats;
    if (options.metrics) {
        options.metrics->counter("dedup.simkernel.pairs")
            .add(generated.stats.pairs);
        options.metrics->counter("dedup.simkernel.screen_rejects")
            .add(generated.stats.screenRejects);
        options.metrics->counter("dedup.simkernel.jaro_runs")
            .add(generated.stats.jaroRuns);
        options.metrics->counter("dedup.simkernel.kept")
            .add(generated.stats.kept);
    }

    // Review in decreasing title similarity, as the paper did.
    {
        ScopedSpan span(options.trace, "dedup.review");
        std::sort(candidates.begin(), candidates.end(),
                  [](const Candidate &a, const Candidate &b) {
                      if (a.similarity != b.similarity)
                          return a.similarity > b.similarity;
                      if (a.a != b.a)
                          return a.a < b.a;
                      return a.b < b.b;
                  });
        for (const Candidate &candidate : candidates) {
            const std::size_t a = reps[candidate.a];
            const std::size_t b = reps[candidate.b];
            if (forest.connected(a, b))
                continue;
            ++result.reviewedPairs;
            if (descriptions[candidate.a] == descriptions[candidate.b]) {
                if (forest.unite(a, b))
                    ++result.reviewConfirmedMerges;
            }
        }
    }

    // ---- Assign cluster keys ---------------------------------------
    ScopedSpan keysSpan(options.trace, "dedup.keys");
    std::map<std::size_t, std::uint32_t> keyOfRoot;
    result.keyByDoc.resize(documents.size());
    for (std::size_t d = 0; d < documents.size(); ++d)
        result.keyByDoc[d].resize(documents[d].errata.size());

    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::size_t root = forest.find(i);
        auto [it, inserted] = keyOfRoot.try_emplace(
            root, static_cast<std::uint32_t>(result.clusters.size()));
        if (inserted)
            result.clusters.emplace_back();
        std::uint32_t key = it->second;
        result.clusters[key].push_back(rows[i].ref);
        result.keyByDoc[static_cast<std::size_t>(rows[i].ref.docIndex)]
                       [rows[i].ref.position] = key;
    }
    return result;
}

std::size_t
DedupResult::uniqueCount(const std::vector<ErrataDocument> &docs,
                         Vendor vendor) const
{
    std::size_t count = 0;
    for (const auto &cluster : clusters) {
        if (cluster.empty())
            continue;
        Vendor v = docs[static_cast<std::size_t>(
                            cluster.front().docIndex)]
                       .design.vendor;
        if (v == vendor)
            ++count;
    }
    return count;
}

DedupAccuracy
evaluateDedup(const Corpus &corpus, const DedupResult &result)
{
    // Pair-level evaluation: for every unordered pair of rows, is it
    // correctly placed in the same / different cluster?  Pairs are
    // enumerated implicitly from cluster sizes to stay linear.
    DedupAccuracy accuracy;

    auto pairsOf = [](std::size_t n) {
        return n * (n - 1) / 2;
    };

    // Ground-truth clusters: rows grouped by bugKey.
    std::map<std::uint32_t, std::vector<ErratumRef>> truth;
    for (const auto &[row, bug] : corpus.rowToBug) {
        truth[bug].push_back(ErratumRef{
            row.first, static_cast<std::size_t>(row.second)});
    }
    for (const auto &[bug, refs] : truth)
        accuracy.truePairs += pairsOf(refs.size());

    for (const auto &cluster : result.clusters)
        accuracy.predictedPairs += pairsOf(cluster.size());

    // Correct pairs: intersect predicted clusters with truth by
    // mapping every row to its true bug.
    std::map<std::pair<int, std::size_t>, std::uint32_t> rowToBug;
    for (const auto &[bug, refs] : truth) {
        for (const ErratumRef &ref : refs)
            rowToBug[{ref.docIndex, ref.position}] = bug;
    }
    for (const auto &cluster : result.clusters) {
        std::map<std::uint32_t, std::size_t> perBug;
        for (const ErratumRef &ref : cluster) {
            auto it = rowToBug.find({ref.docIndex, ref.position});
            if (it != rowToBug.end())
                ++perBug[it->second];
        }
        for (const auto &[bug, count] : perBug)
            accuracy.correctPairs += pairsOf(count);
    }

    accuracy.pairPrecision =
        accuracy.predictedPairs == 0
            ? 1.0
            : static_cast<double>(accuracy.correctPairs) /
                  static_cast<double>(accuracy.predictedPairs);
    accuracy.pairRecall =
        accuracy.truePairs == 0
            ? 1.0
            : static_cast<double>(accuracy.correctPairs) /
                  static_cast<double>(accuracy.truePairs);
    return accuracy;
}

} // namespace rememberr
