/**
 * @file
 * Benchmark program: one workload per process.
 *
 *   perfbench --workload <build|query-hot|query-cold>
 *             [--seed N] [--seconds S] [--trace 0|1] [--workdir DIR]
 *
 * Prints human-readable progress and figures, then, as the last line
 * of stdout, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. Exits 0 when every correctness gate held, 1 when one
 * failed and 2 on a usage error. perfbench/run.py builds this program
 * and runs it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "snap/writer.hh"
#include "util/logging.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<build|query-hot|query-cold> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--workdir DIR]\n",
                 why);
    return 2;
}

/** The traced run: per-layer metrics only. */
int
runTraced(const Options &options, Report &report)
{
    bool build = options.workload == "build";
    Mix mix = options.workload == "query-cold" ? Mix::Cold : Mix::Hot;
    // Every traced run reports every layer: the workload's own layers
    // get most of the time, the others a short probe (the build layers
    // on query-* are the set-up's database build).
    rememberr::Database db = traceBuildLayers(
        options, build ? 0.6 * options.seconds : 0.0, build ? 2 : 1,
        report);
    std::string path =
        (std::filesystem::path(options.workdir) / "traced.snap")
            .string();
    if (!rememberr::snap::writeSnapshotFile(path, db)) {
        report.fail("cannot write " + path);
        return report.finish();
    }
    SpanRecorder snapSpans;
    measureColdStart(path, db, 0.1 * options.seconds, &snapSpans,
                     report);
    for (const char *layer : {"snap.open", "snap.materialize"}) {
        Samples durations = snapSpans.durations(layer);
        report.metric(std::string(layer) + "_ms",
                      durations.median() * 1e3, "ms", durations.size());
    }
    std::filesystem::remove(path);
    traceQueryLayers(options, db, mix,
                     (build ? 0.3 : 0.8) * options.seconds, report);
    return report.finish();
}

int
run(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            options.trace = value == "1";
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
        } else if (arg == "--workdir") {
            options.workdir = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad number for " + arg).c_str());
    }
    if (options.seconds <= 0)
        return usage("--seconds must be positive");
    bool known = options.workload == "build" ||
                 options.workload == "query-hot" ||
                 options.workload == "query-cold";
    if (!known)
        return usage("unknown workload");
    std::filesystem::create_directories(options.workdir);

    rememberr::setLogQuiet(true);
    std::printf("perfbench: workload %s, seed %llu (corpus seed "
                "%016llx), %.3g s, %s run, %zu hardware threads\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(
                    generatorSeed(options.seed)),
                options.seconds, options.trace ? "traced" : "untraced",
                threadBudget());

    Report report;
    if (options.trace)
        return runTraced(options, report);
    if (options.workload == "build")
        runBuild(options, report);
    else
        runQuery(options,
                 options.workload == "query-cold" ? Mix::Cold
                                                  : Mix::Hot,
                 report);
    return report.finish();
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
