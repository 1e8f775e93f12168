/**
 * @file
 * Unit tests for the end-to-end pipeline facade.
 */

#include <gtest/gtest.h>

#include "core/pipeline.hh"
#include "snap/format.hh"
#include "snap/writer.hh"
#include "util/logging.hh"

namespace rememberr {
namespace {

TEST(Pipeline, RoundTripAndDirectPathsAgree)
{
    setLogQuiet(true);
    PipelineOptions direct;
    direct.roundTripDocuments = false;
    direct.lint = false;
    PipelineOptions roundTrip;
    roundTrip.roundTripDocuments = true;
    roundTrip.lint = false;

    PipelineResult a = runPipeline(direct);
    PipelineResult b = runPipeline(roundTrip);

    // The text format round-trip must not change the corpus in any
    // way visible to the downstream stages.
    ASSERT_EQ(a.corpus.documents.size(), b.corpus.documents.size());
    for (std::size_t d = 0; d < a.corpus.documents.size(); ++d) {
        ASSERT_EQ(a.corpus.documents[d].errata.size(),
                  b.corpus.documents[d].errata.size());
    }
    EXPECT_EQ(a.dedup.clusters.size(), b.dedup.clusters.size());
    EXPECT_EQ(a.database.entries().size(),
              b.database.entries().size());
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    setLogQuiet(true);
    PipelineOptions options;
    options.roundTripDocuments = false;
    options.lint = false;
    PipelineResult a = runPipeline(options);
    PipelineResult b = runPipeline(options);

    ASSERT_EQ(a.database.entries().size(),
              b.database.entries().size());
    for (std::size_t i = 0; i < a.database.entries().size(); ++i) {
        const DbEntry &ea = a.database.entries()[i];
        const DbEntry &eb = b.database.entries()[i];
        ASSERT_EQ(ea.title, eb.title);
        ASSERT_EQ(ea.triggers, eb.triggers);
        ASSERT_EQ(ea.contexts, eb.contexts);
        ASSERT_EQ(ea.effects, eb.effects);
    }
    // Same JSON dump byte-for-byte.
    EXPECT_EQ(a.groundTruth.toJson().dump(),
              b.groundTruth.toJson().dump());
}

TEST(Pipeline, DefaultSeedOutputsArePinned)
{
    // The default seed's pipeline outputs, fingerprinted as the
    // perfbench build workload does: the snapshot of the database
    // that dedup and classification assemble, and FNV-1a over the
    // dedup cluster keys (8 little-endian bytes each). The truth
    // snapshot hash beside them is pinned in test_snapshot.
    setLogQuiet(true);
    PipelineResult result = runPipeline(PipelineOptions{});
    EXPECT_EQ(snap::hashHex(snap::snapshotContentHash(
                  snap::writeSnapshot(result.database))),
              "891673173b46c08d");

    std::string keys;
    for (const auto &perDoc : result.dedup.keyByDoc)
        for (std::uint32_t key : perDoc)
            snap::storeU64(keys, key);
    EXPECT_EQ(snap::hashHex(snap::fnv1a64(
                  reinterpret_cast<const unsigned char *>(keys.data()),
                  keys.size())),
              "1d7d32c467094f80");

    // The dedup counters behind those keys: a scoring change that
    // keeps the clusters can still not move what it screened,
    // scored, reviewed or merged.
    const DedupResult &dedup = result.dedup;
    EXPECT_EQ(dedup.candidatePairsConsidered, 68702u);
    EXPECT_EQ(dedup.simKernel.jaroRuns, 50481u);
    EXPECT_EQ(dedup.simKernel.screenRejects, 18192u);
    EXPECT_EQ(dedup.simKernel.kept, 9985u);
    EXPECT_EQ(dedup.reviewedPairs, 9985u);
    EXPECT_EQ(dedup.reviewConfirmedMerges, 30u);
    EXPECT_EQ(dedup.exactTitleMerges, 1285u);
    EXPECT_EQ(dedup.numericIdMerges, 121u);
    EXPECT_EQ(dedup.clusters.size(), 1127u);
}

TEST(Pipeline, DedupPhaseSpansNestInsideDedupStage)
{
    setLogQuiet(true);
    TraceRecorder recorder;
    PipelineOptions options;
    options.roundTripDocuments = false;
    options.lint = false;
    options.metrics = nullptr;
    options.trace = &recorder;
    runPipeline(options);

    const std::vector<TraceEvent> events = recorder.snapshot();
    auto only = [&](const std::string &name) {
        std::vector<TraceEvent> found;
        for (const TraceEvent &event : events) {
            if (event.name == name)
                found.push_back(event);
        }
        EXPECT_EQ(found.size(), 1u) << name;
        return found.empty() ? TraceEvent{} : found.front();
    };
    const TraceEvent stage = only("pipeline.dedup");
    std::uint64_t phaseUs = 0;
    for (const char *name : {"dedup.profiles", "dedup.index",
                             "dedup.score", "dedup.review",
                             "dedup.keys"}) {
        const TraceEvent phase = only(name);
        EXPECT_LE(stage.tsUs, phase.tsUs) << name;
        EXPECT_LE(phase.tsUs + phase.durUs, stage.tsUs + stage.durUs)
            << name;
        phaseUs += phase.durUs;
    }
    EXPECT_LE(phaseUs, stage.durUs);
}

TEST(Pipeline, SeedChangesTextButNotStructure)
{
    setLogQuiet(true);
    PipelineOptions options;
    options.roundTripDocuments = false;
    options.lint = false;
    options.generator.seed = 99;
    PipelineResult other = runPipeline(options);
    EXPECT_EQ(other.corpus.totalRows(Vendor::Intel), 2057u);
    EXPECT_EQ(other.corpus.totalRows(Vendor::Amd), 506u);
    EXPECT_EQ(other.groundTruth.entries().size(), 1128u);
}

TEST(Pipeline, LintTogglesFindings)
{
    setLogQuiet(true);
    PipelineOptions noLint;
    noLint.roundTripDocuments = false;
    noLint.lint = false;
    EXPECT_TRUE(runPipeline(noLint).lintFindings.empty());

    PipelineOptions withLint;
    withLint.roundTripDocuments = false;
    withLint.lint = true;
    PipelineResult result = runPipeline(withLint);
    EXPECT_EQ(result.lintFindings.size(), 28u);
}

TEST(Pipeline, ProposedFormatContainsAllSections)
{
    setLogQuiet(true);
    PipelineOptions options;
    options.roundTripDocuments = false;
    options.lint = false;
    PipelineResult result = runPipeline(options);
    const DbEntry &entry = result.groundTruth.entries().front();
    std::string rendered = renderProposedFormat(entry);
    for (const char *section :
         {"ID:", "Title:", "Triggers:", "Contexts:", "Effects:",
          "Root cause:", "Workaround:", "Status:", "Abstract:",
          "Concrete:"}) {
        EXPECT_NE(rendered.find(section), std::string::npos)
            << section;
    }
}

} // namespace
} // namespace rememberr
