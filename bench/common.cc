#include "common.hh"

#include <cstdio>

namespace rememberr {
namespace bench {

const PipelineResult &
pipeline()
{
    static const PipelineResult result = [] {
        setLogQuiet(true);
        PipelineOptions options;
        options.metrics = nullptr;
        options.trace = nullptr;
        return runPipeline(options);
    }();
    return result;
}

const Database &
db()
{
    return pipeline().groundTruth;
}

int
runBenchMain(int argc, char **argv, void (*print_figure)())
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    std::printf("\n");
    print_figure();
    return 0;
}

} // namespace bench
} // namespace rememberr
