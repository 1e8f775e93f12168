/**
 * @file
 * Shared infrastructure for the bench binaries.
 *
 * Each bench binary times the pipeline stages or kernels behind one
 * part of the evaluation and then prints the reproduced rows,
 * annotated with the paper's published values where the paper states
 * them.
 */

#ifndef REMEMBERR_BENCH_COMMON_HH
#define REMEMBERR_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include "core/rememberr.hh"

namespace rememberr {
namespace bench {

/** The cached full pipeline result (built once per process). */
const PipelineResult &pipeline();

/** Shorthand for the ground-truth database of the cached pipeline. */
const Database &db();

/**
 * Bench main: run the registered benchmarks, then print the
 * reproduced rows.
 */
int runBenchMain(int argc, char **argv, void (*print_figure)());

} // namespace bench
} // namespace rememberr

/** Define main() for a bench binary with the given print function. */
#define REMEMBERR_BENCH_MAIN(printFn)                                  \
    int main(int argc, char **argv)                                    \
    {                                                                  \
        return ::rememberr::bench::runBenchMain(argc, argv, printFn); \
    }

#endif // REMEMBERR_BENCH_COMMON_HH
