/**
 * @file
 * Every reproduced table and figure of the paper: one timing run per
 * figure-registry entry (its data, SVGs and rows), then every
 * entry's rows in registry order, annotated with the paper's
 * published values where the paper states them.
 */

#include "common.hh"

#include <cstdio>

#include "report/figures.hh"

namespace rememberr {
namespace bench {
namespace {

/** Each entry's rows, one blank line apart. */
void
printRows()
{
    const PipelineResult &result = pipeline();
    const char *separator = "";
    for (const FigureEntry &entry : figureRegistry()) {
        FigureOutput output = entry.render(result.groundTruth, &result);
        std::printf("%s%s", separator, output.rows.c_str());
        separator = "\n";
    }
}

} // namespace
} // namespace bench
} // namespace rememberr

int
main(int argc, char **argv)
{
    using namespace rememberr;
    for (const FigureEntry &entry : figureRegistry()) {
        benchmark::RegisterBenchmark(
            entry.name.c_str(),
            [&entry](benchmark::State &state) {
                const PipelineResult &result = bench::pipeline();
                for (auto _ : state) {
                    FigureOutput output =
                        entry.render(result.groundTruth, &result);
                    benchmark::DoNotOptimize(output.rows.data());
                }
            })
            ->Unit(benchmark::kMillisecond);
    }
    return bench::runBenchMain(argc, argv, bench::printRows);
}
