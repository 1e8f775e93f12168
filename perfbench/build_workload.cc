/**
 * @file
 * The `build` workload: the serial pipeline that turns the errata
 * corpus into the RemembERR database, followed by the snapshot
 * serialize of the ground-truth database, repeated. One parallel
 * build after the timed phase checks that the fork-join pool changes
 * no output.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/pipeline.hh"
#include "document/format.hh"
#include "snap/view.hh"
#include "snap/writer.hh"
#include "util/parallel.hh"
#include "workloads.hh"

namespace perfbench {

using namespace rememberr;

namespace {

/*
 * Fingerprints of the default seed's outputs, recorded at the commit
 * that introduced this benchmark: the ground-truth snapshot (also
 * pinned in tests/test_snapshot.cc), the snapshot of the database the
 * pipeline assembles, and the dedup cluster keys (the hash bench_text
 * prints).
 */
constexpr std::uint64_t kTruthSnapshotHash = 0xd01351645546c791ULL;
constexpr std::uint64_t kDatabaseSnapshotHash = 0x891673173b46c08dULL;
constexpr std::uint64_t kClusterKeyHash = 0x1d7d32c467094f80ULL;

/** What one build produced, reduced to comparable fingerprints. */
struct BuildHashes
{
    std::uint64_t truth = 0;
    std::uint64_t database = 0;
    std::uint64_t clusters = 0;

    bool operator==(const BuildHashes &) const = default;
};

std::uint64_t
clusterKeyHash(const DedupResult &dedup)
{
    Fnv hash;
    for (const auto &perDoc : dedup.keyByDoc)
        for (std::uint32_t key : perDoc)
            hash.add(key);
    return hash.state;
}

BuildHashes
hashesOf(const std::string &truthSnapshot, const Database &database,
         const DedupResult &dedup)
{
    return BuildHashes{snap::snapshotContentHash(truthSnapshot),
                       snap::snapshotContentHash(
                           snap::writeSnapshot(database)),
                       clusterKeyHash(dedup)};
}

std::string
describe(const BuildHashes &hashes)
{
    return "truth " + hex64(hashes.truth) + ", database " +
           hex64(hashes.database) + ", clusters " +
           hex64(hashes.clusters);
}

PipelineOptions
pipelineOptions(const Options &options, std::size_t threads)
{
    PipelineOptions pipeline;
    pipeline.generator.seed = generatorSeed(options.seed);
    pipeline.threads = threads;
    pipeline.metrics = nullptr;
    pipeline.trace = nullptr;
    return pipeline;
}

/** One untraced timed build: runPipeline + ground-truth serialize. */
struct TimedBuild
{
    PipelineResult result;
    std::string truthSnapshot;
    double wall = 0;
    double cpu = 0;
};

TimedBuild
timedBuild(const PipelineOptions &pipeline)
{
    TimedBuild out;
    double wall = wallSeconds();
    double cpu = processCpuSeconds();
    out.result = runPipeline(pipeline);
    out.truthSnapshot = snap::writeSnapshot(out.result.groundTruth);
    out.cpu = processCpuSeconds() - cpu;
    out.wall = wallSeconds() - wall;
    return out;
}

/** Gates on the first build: pinned hashes (seed 0), round trip. */
void
checkOutputs(const Options &options, const TimedBuild &build,
             const BuildHashes &hashes, const std::string &snapPath,
             Report &report)
{
    std::printf("hashes: %s\n", describe(hashes).c_str());
    if (options.seed == 0) {
        report.check(hashes.truth == kTruthSnapshotHash,
                     "default seed reproduces pinned ground-truth "
                     "snapshot hash " +
                         hex64(kTruthSnapshotHash));
        report.check(hashes.database == kDatabaseSnapshotHash,
                     "default seed reproduces pinned pipeline-"
                     "database snapshot hash " +
                         hex64(kDatabaseSnapshotHash));
        report.check(hashes.clusters == kClusterKeyHash,
                     "default seed reproduces pinned dedup cluster-"
                     "key hash " +
                         hex64(kClusterKeyHash));
    }
    auto written = snap::writeSnapshotFile(
        snapPath, build.result.groundTruth);
    report.check(written && written.value() ==
                                build.truthSnapshot.size(),
                 "snapshot file written");
    auto view = snap::SnapshotView::open(snapPath);
    report.check(view && view.value().contentHash() == hashes.truth &&
                     view.value().database() ==
                         build.result.groundTruth,
                 "snapshot round trip equals the built database");
}

/** Process CPU and wall time of one traced stage. */
class Stage
{
  public:
    Stage(SpanRecorder &spans, const char *name,
          std::map<std::string, Samples> &cpu)
        : span_(&spans, name), name_(name), cpu_(cpu),
          begin_(processCpuSeconds())
    {
    }
    ~Stage() { cpu_[name_].add(processCpuSeconds() - begin_); }
    Stage(const Stage &) = delete;
    Stage &operator=(const Stage &) = delete;

  private:
    Span span_;
    const char *name_;
    std::map<std::string, Samples> &cpu_;
    double begin_;
};

/**
 * runPipeline's stages called one by one, as pipeline.cc composes
 * them, plus the ground-truth serialize: the traced build.
 */
struct ComposedBuild
{
    Corpus corpus;
    DedupResult dedup;
    FourEyesResult annotations;
    Database database;
    Database groundTruth;
    std::string truthSnapshot;
    std::string parseError;
};

ComposedBuild
composedBuild(const PipelineOptions &pipeline, SpanRecorder &spans,
              std::map<std::string, Samples> &cpu,
              MetricsRegistry &registry)
{
    ComposedBuild out;
    Span build(&spans, "build");
    {
        Stage stage(spans, "corpus.generate", cpu);
        out.corpus = CorpusGenerator(pipeline.generator).generate();
    }
    std::vector<ErrataDocument> &documents = out.corpus.documents;
    {
        Stage stage(spans, "document.roundtrip", cpu);
        std::vector<std::string> errors(documents.size());
        parallelFor(documents.size(), pipeline.threads,
                    [&](std::size_t d) {
                        auto reparsed = parseDocument(
                            renderDocument(documents[d]));
                        if (!reparsed) {
                            errors[d] = reparsed.error().toString();
                            return;
                        }
                        reparsed.value().sourcePath =
                            std::move(documents[d].sourcePath);
                        documents[d] = std::move(reparsed.value());
                    });
        for (const std::string &error : errors) {
            if (!error.empty() && out.parseError.empty())
                out.parseError = error;
        }
    }
    {
        Stage stage(spans, "document.lint", cpu);
        std::vector<std::vector<LintFinding>> findings(
            documents.size());
        parallelFor(documents.size(), pipeline.threads,
                    [&](std::size_t d) {
                        findings[d] = lintDocument(documents[d]);
                    });
    }
    {
        Stage stage(spans, "dedup", cpu);
        DedupOptions dedup = pipeline.dedup;
        dedup.threads = pipeline.threads;
        dedup.metrics = &registry;
        out.dedup = deduplicate(documents, dedup);
    }
    {
        Stage stage(spans, "classify", cpu);
        FourEyesOptions foureyes = pipeline.foureyes;
        foureyes.threads = pipeline.threads;
        foureyes.metrics = &registry;
        out.annotations = runFourEyes(out.corpus, foureyes);
    }
    {
        Stage stage(spans, "db.assemble", cpu);
        out.database =
            Database::build(out.corpus, out.dedup, out.annotations);
        out.groundTruth = Database::buildFromGroundTruth(out.corpus);
    }
    {
        Stage stage(spans, "snap.write", cpu);
        out.truthSnapshot = snap::writeSnapshot(out.groundTruth);
    }
    return out;
}

double
counterValue(const MetricsRegistry &registry, const std::string &name)
{
    const Counter *counter = registry.findCounter(name);
    return counter ? double(counter->value()) : 0.0;
}

std::string
snapshotPath(const Options &options)
{
    return (std::filesystem::path(options.workdir) / "truth.snap")
        .string();
}

} // namespace

void
runBuild(const Options &options, Report &report)
{
    // The CLI default: one thread. The parallel check build uses
    // min(nproc, 4).
    PipelineOptions pipeline = pipelineOptions(options, 1);
    std::size_t parallel = std::min<std::size_t>(threadBudget(), 4);
    std::printf("thread budget: 1 pipeline worker timed, %zu for the "
                "parallel check, of %zu hardware thread(s)\n",
                parallel, threadBudget());

    // Set-up: the first build pays lazy rule compilation and the
    // automata warm-up.
    TimedBuild first = timedBuild(pipeline);
    report.metric("setup_s", first.wall, "s", 1);
    BuildHashes reference = hashesOf(
        first.truthSnapshot, first.result.database, first.result.dedup);
    std::string path = snapshotPath(options);
    checkOutputs(options, first, reference, path, report);

    // Timed phase: repeated builds, each followed by snapshot cold
    // starts for a quarter of the build's time, so slow stretches of
    // the machine hit both alike.
    double until = wallSeconds() + options.seconds;
    Samples wall;
    Samples cpu;
    Samples coldStart;
    while (wall.size() < 3 || wallSeconds() < until) {
        TimedBuild build = timedBuild(pipeline);
        wall.add(build.wall);
        cpu.add(build.cpu);
        coldStart.append(measureColdStart(
            path, first.result.groundTruth, 0.25 * build.wall, nullptr,
            report));
        report.attempted(1);
        BuildHashes hashes =
            hashesOf(build.truthSnapshot, build.result.database,
                     build.result.dedup);
        if (!(hashes == reference) ||
            build.truthSnapshot != first.truthSnapshot)
            report.fail("build output differs from the first "
                        "build: " +
                        describe(hashes));
    }
    double buildSeconds = wall.mean() * double(wall.size());

    TimedBuild par = timedBuild(pipelineOptions(options, parallel));
    BuildHashes hashes = hashesOf(par.truthSnapshot, par.result.database,
                                  par.result.dedup);
    report.check(hashes == reference &&
                     par.truthSnapshot == first.truthSnapshot &&
                     snap::writeSnapshot(par.result.database) ==
                         snap::writeSnapshot(first.result.database),
                 "parallel build output bit-identical to the serial "
                 "build");

    std::printf("build iterations: min %.4fs, quartiles %.4fs %.4fs "
                "%.4fs, max %.4fs\n",
                wall.quantile(0), wall.quantile(0.25), wall.median(),
                wall.quantile(0.75), wall.quantile(1));
    report.info("build_s", wall.median(), "s", wall.size());
    report.info("build_cpu_s", cpu.median(), "s", cpu.size());
    report.metric("op_p50_ms", wall.median() * 1e3, "ms", wall.size());
    report.metric("throughput_per_s",
                  double(wall.size()) / buildSeconds, "1/s",
                  wall.size());
    report.metric("cpu_ms_per_op", cpu.median() * 1e3, "ms",
                  cpu.size());
    report.metric("cold_start_ms", coldStart.median() * 1e3, "ms",
                  coldStart.size());
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
}

Samples
measureColdStart(const std::string &path, const Database &expected,
                 double seconds, SpanRecorder *spans, Report &report)
{
    Samples total;
    double until = wallSeconds() + seconds;
    while (total.size() < 20 || wallSeconds() < until) {
        double begin = wallSeconds();
        Span rep(spans, "cold_start");
        Expected<snap::SnapshotView> view = makeError("not opened");
        {
            Span open(spans, "snap.open");
            view = snap::SnapshotView::open(path);
        }
        if (!view) {
            report.fail("snapshot open: " + view.error().toString());
            return total;
        }
        Database db;
        {
            Span materialize(spans, "snap.materialize");
            db = view.value().database();
        }
        total.add(wallSeconds() - begin);
        if (total.size() == 1 && !(db == expected))
            report.fail("cold-started database differs from the "
                        "database the snapshot was written from");
    }
    report.attempted(1);
    return total;
}

Database
traceBuildLayers(const Options &options, double seconds,
                 int minIterations, Report &report)
{
    PipelineOptions pipeline = pipelineOptions(options, 1);
    TimedBuild first = timedBuild(pipeline); // warm-up, untimed
    BuildHashes reference = hashesOf(
        first.truthSnapshot, first.result.database, first.result.dedup);

    SpanRecorder spans;
    std::map<std::string, Samples> cpu;
    Samples untraced;
    Samples pairs, jaroRuns, kept, screenRatio, skipRatio;
    double until = wallSeconds() + seconds;
    Database groundTruth;
    for (int i = 0; i < minIterations || wallSeconds() < until; ++i) {
        // Alternate which kind runs first, so neither always follows
        // the other.
        if (i % 2 == 0)
            untraced.add(timedBuild(pipeline).wall);
        MetricsRegistry registry;
        ComposedBuild build =
            composedBuild(pipeline, spans, cpu, registry);
        report.attempted(1);
        if (!build.parseError.empty())
            report.fail("traced build: document failed to re-parse: " +
                        build.parseError);
        BuildHashes hashes = hashesOf(build.truthSnapshot,
                                      build.database, build.dedup);
        if (!(hashes == reference))
            report.fail("traced (composed) build differs from "
                        "runPipeline: " +
                        describe(hashes));
        double pairCount =
            counterValue(registry, "dedup.simkernel.pairs");
        pairs.add(pairCount);
        jaroRuns.add(
            counterValue(registry, "dedup.simkernel.jaro_runs"));
        kept.add(counterValue(registry, "dedup.simkernel.kept"));
        screenRatio.add(
            pairCount > 0
                ? counterValue(registry,
                               "dedup.simkernel.screen_rejects") /
                      pairCount
                : 0.0);
        double skipped =
            counterValue(registry, "classify.prefilter.skipped");
        double screened =
            skipped + counterValue(registry, "classify.prefilter.vm_runs");
        skipRatio.add(screened > 0 ? skipped / screened : 0.0);
        groundTruth = std::move(build.groundTruth);
        if (i % 2 == 1)
            untraced.add(timedBuild(pipeline).wall);
    }

    auto ms = [&](const char *metric, const char *span) {
        Samples durations = spans.durations(span);
        report.metric(metric, durations.median() * 1e3, "ms",
                      durations.size());
    };
    ms("corpus.generate_ms", "corpus.generate");
    ms("document.roundtrip_ms", "document.roundtrip");
    ms("document.lint_ms", "document.lint");
    ms("dedup.ms", "dedup");
    ms("classify.ms", "classify");
    ms("db.assemble_ms", "db.assemble");
    ms("snap.write_ms", "snap.write");
    report.metric("dedup.cpu_ms", cpu["dedup"].median() * 1e3, "ms",
                  cpu["dedup"].size());
    report.metric("classify.cpu_ms", cpu["classify"].median() * 1e3,
                  "ms", cpu["classify"].size());
    report.metric("dedup.pairs", pairs.median(), "count",
                  pairs.size());
    report.metric("dedup.jaro_runs", jaroRuns.median(), "count",
                  jaroRuns.size());
    report.metric("dedup.kept", kept.median(), "count", kept.size());
    report.metric("dedup.screen_reject_ratio", screenRatio.median(),
                  "ratio", screenRatio.size());
    report.metric("classify.prefilter_skip_ratio", skipRatio.median(),
                  "ratio", skipRatio.size());

    // Accounting: what the stage spans leave unexplained, and what
    // tracing costs (traced minus untraced build).
    Samples traced = spans.durations("build");
    report.metric("trace.build_unexplained_share",
                  spans.selfShare("build"), "ratio", traced.size());
    report.info("trace.build_s_traced_minus_untraced",
                traced.median() - untraced.median(), "s",
                traced.size());
    report.metric("trace.build_overhead_share",
                  (traced.median() - untraced.median()) /
                      untraced.median(),
                  "ratio", traced.size());
    return groundTruth;
}

} // namespace perfbench
