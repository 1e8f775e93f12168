/**
 * @file
 * Duplicate detection across errata documents.
 *
 * Section IV-A: AMD identifies errata across families by a shared
 * numeric identifier; Intel provides no such mechanism, so duplicates
 * are found by title — first exact (canonicalized) title matches,
 * then remaining pairs ranked by decreasing title similarity and
 * confirmed by review (simulated here by comparing the canonicalized
 * descriptions, which is what the manual inspection did). The
 * resulting keying mechanism assigns one cluster key to every group
 * of identical errata.
 */

#ifndef REMEMBERR_DEDUP_DEDUP_HH
#define REMEMBERR_DEDUP_DEDUP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.hh"
#include "model/erratum.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "text/similarity.hh"

namespace rememberr {

/** Reference to one erratum row. */
struct ErratumRef
{
    int docIndex = 0;
    /** Position inside the document's errata vector. */
    std::size_t position = 0;

    bool operator==(const ErratumRef &other) const = default;
};

/** Tuning knobs for the Intel title pipeline. */
struct DedupOptions
{
    /**
     * Similarity above which a pair is surfaced for review. Titles
     * identical after canonicalization merge without review (the
     * paper's step 1); every other candidate pair is reviewed in
     * decreasing similarity order (step 2) — near-identical titles
     * are never merged blindly, since similar phrasing can describe
     * distinct bugs (e.g. "overflow" vs "underflow").
     */
    double reviewThreshold = 0.85;
    /** Use the n-gram index for candidate generation instead of the
     * quadratic all-pairs scan (DESIGN.md D1). */
    bool useNgramIndex = true;
    /** Minimum n-gram overlap for index candidates. */
    double ngramMinOverlap = 0.30;
    /**
     * Worker threads for candidate generation + similarity scoring
     * (0 = all hardware threads, 1 = serial). Results are
     * bit-identical for every thread count: shards merge in index
     * order and union-find merges stay serial.
     */
    std::size_t threads = 1;
    /** When set, receives dedup.simkernel.* counters describing how
     * often the thresholded similarity kernel short-circuited. */
    MetricsRegistry *metrics = nullptr;
    /** When set, receives one span per phase: dedup.profiles,
     * dedup.index (n-gram candidate generation only), dedup.score,
     * dedup.review and dedup.keys. */
    TraceRecorder *trace = nullptr;
};

/** Outcome of deduplication. */
struct DedupResult
{
    /** Cluster key for every row, aligned with documents/errata. */
    std::vector<std::vector<std::uint32_t>> keyByDoc;
    /** Rows grouped per cluster key. */
    std::vector<std::vector<ErratumRef>> clusters;

    // Pipeline statistics.
    std::size_t exactTitleMerges = 0;
    std::size_t reviewedPairs = 0;
    std::size_t reviewConfirmedMerges = 0;
    std::size_t numericIdMerges = 0;
    std::size_t candidatePairsConsidered = 0;
    /** Thresholded-similarity kernel behavior over the scoring loop. */
    SimilarityKernelStats simKernel;

    /** Number of clusters whose rows all belong to the vendor. */
    std::size_t uniqueCount(const std::vector<ErrataDocument> &docs,
                            Vendor vendor) const;
};

/** Run deduplication over a set of documents. */
DedupResult deduplicate(const std::vector<ErrataDocument> &documents,
                        const DedupOptions &options = {});

/** Pairwise precision/recall against the corpus ground truth. */
struct DedupAccuracy
{
    double pairPrecision = 0.0;
    double pairRecall = 0.0;
    std::size_t truePairs = 0;
    std::size_t predictedPairs = 0;
    std::size_t correctPairs = 0;
};

DedupAccuracy evaluateDedup(const Corpus &corpus,
                            const DedupResult &result);

} // namespace rememberr

#endif // REMEMBERR_DEDUP_DEDUP_HH
