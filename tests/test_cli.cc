/**
 * @file
 * Unit tests for the command-line interface.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <unistd.h>

#include "cli/commands.hh"
#include "core/pipeline.hh"
#include "diag/diagnostic.hh"
#include "document/format.hh"
#include "util/csv.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace rememberr {
namespace cli {
namespace {

/** Run the CLI capturing both streams. */
struct CliResult
{
    int code = 0;
    std::string out;
    std::string err;
};

CliResult
run(std::vector<std::string> args)
{
    std::ostringstream out, err;
    CliResult result;
    result.code = runCli(args, out, err);
    result.out = out.str();
    result.err = err.str();
    return result;
}

// ---- Argument parsing ---------------------------------------------------

TEST(ArgList, ParsesCommandAndPositionals)
{
    ArgList args = ArgList::parse({"lint", "a.txt", "b.txt"});
    EXPECT_EQ(args.command(), "lint");
    EXPECT_EQ(args.positionals(),
              (std::vector<std::string>{"a.txt", "b.txt"}));
}

TEST(ArgList, ParsesOptionsBothStyles)
{
    ArgList args = ArgList::parse(
        {"query", "--vendor=intel", "--limit", "5", "--json"});
    EXPECT_EQ(args.option("vendor"), "intel");
    EXPECT_EQ(args.intOption("limit"), 5);
    EXPECT_TRUE(args.hasFlag("json"));
    EXPECT_FALSE(args.hasFlag("vendors"));
    EXPECT_EQ(args.option("absent"), std::nullopt);
}

TEST(ArgList, IntOptionRejectsNonNumeric)
{
    ArgList args = ArgList::parse({"x", "--limit", "abc"});
    EXPECT_EQ(args.intOption("limit"), std::nullopt);
}

TEST(ArgList, IntOptionRejectsEmptyValue)
{
    // "--limit=" and a bare "--limit" flag both carry an empty
    // value; strtol("") would silently return 0.
    ArgList equals = ArgList::parse({"x", "--limit="});
    EXPECT_EQ(equals.intOption("limit"), std::nullopt);
    ArgList bare = ArgList::parse({"x", "--limit"});
    EXPECT_EQ(bare.intOption("limit"), std::nullopt);
}

TEST(ArgList, IntOptionRejectsTrailingJunkAndOverflow)
{
    ArgList junk = ArgList::parse({"x", "--limit=12x"});
    EXPECT_EQ(junk.intOption("limit"), std::nullopt);
    // Out of range for long: strtol saturates with errno == ERANGE.
    ArgList overflow = ArgList::parse(
        {"x", "--limit=99999999999999999999999999"});
    EXPECT_EQ(overflow.intOption("limit"), std::nullopt);
    ArgList underflow = ArgList::parse(
        {"x", "--limit=-99999999999999999999999999"});
    EXPECT_EQ(underflow.intOption("limit"), std::nullopt);
}

TEST(ArgList, IntOptionAcceptsNegative)
{
    ArgList args = ArgList::parse({"x", "--limit=-7"});
    EXPECT_EQ(args.intOption("limit"), -7);
}

// ---- Commands --------------------------------------------------------------

TEST(Cli, NoCommandPrintsUsage)
{
    CliResult result = run({});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(Cli, HelpExitsCleanly)
{
    CliResult result = run({"help"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails)
{
    CliResult result = run({"frobnicate"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("unknown command"),
              std::string::npos);
}

TEST(Cli, CheckListRulesPrintsTheCatalog)
{
    CliResult result = run({"check", "--list-rules"});
    EXPECT_EQ(result.code, 0);
    // Every catalog entry appears with id, severity, name, summary.
    EXPECT_NE(result.out.find("RBE001  warning  "
                              "duplicate-revision-claim"),
              std::string::npos);
    EXPECT_NE(result.out.find("RBE207  note     "
                              "analysis-budget-exceeded"),
              std::string::npos);
    EXPECT_NE(result.out.find(
                  "a rule pattern is subsumed by an earlier"),
              std::string::npos);
    // One id + summary pair per rule.
    std::size_t lines = 0;
    for (char c : result.out)
        lines += c == '\n';
    EXPECT_EQ(lines, 2 * ruleCatalog().size());
}

TEST(Cli, StatsPrintsPaperComparison)
{
    CliResult result = run({"stats"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("2,057 / 743"), std::string::npos);
    EXPECT_NE(result.out.find("14.4%"), std::string::npos);
}

TEST(Cli, MalformedIntOptionFailsFast)
{
    CliResult result = run({"query", "--limit", "abc"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("invalid integer"),
              std::string::npos);
    EXPECT_NE(result.err.find("--limit"), std::string::npos);
}

TEST(Cli, EmptyIntOptionFailsFast)
{
    CliResult result = run({"query", "--limit="});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("invalid integer"),
              std::string::npos);
}

TEST(Cli, OutOfRangeIntOptionFailsFast)
{
    CliResult result =
        run({"query", "--limit=99999999999999999999999999"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("invalid integer"),
              std::string::npos);
}

TEST(Cli, NegativeThreadsRejected)
{
    CliResult result = run({"stats", "--threads=-2"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("non-negative"), std::string::npos);
}

TEST(Cli, ServePortOutOfRangeRejected)
{
    CliResult result = run({"serve", "--port=99999"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("--port must be in [0, 65535]"),
              std::string::npos);
}

TEST(Cli, ServeNegativePortRejected)
{
    CliResult result = run({"serve", "--port=-1"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("non-negative"), std::string::npos);
}

TEST(Cli, ServeMaxConnectionsZeroRejected)
{
    CliResult result = run({"serve", "--max-connections=0"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("--max-connections must be at least 1"),
              std::string::npos);
}

TEST(Cli, ServeMalformedCacheRejected)
{
    CliResult result = run({"serve", "--cache=lots"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("invalid integer"),
              std::string::npos);
    EXPECT_NE(result.err.find("--cache"), std::string::npos);
}

TEST(Cli, UsageMentionsServe)
{
    CliResult result = run({"help"});
    EXPECT_NE(result.err.find("serve"), std::string::npos);
    EXPECT_NE(result.err.find("--max-connections"),
              std::string::npos);
}

TEST(Cli, ThreadsOptionMatchesSerialOutput)
{
    CliResult serial = run({"stats"});
    CliResult parallel = run({"stats", "--threads", "4"});
    EXPECT_EQ(parallel.code, 0);
    EXPECT_EQ(serial.out, parallel.out);
}

TEST(Cli, UsageMentionsThreads)
{
    CliResult result = run({"help"});
    EXPECT_NE(result.err.find("--threads"), std::string::npos);
}

TEST(Cli, QueryFiltersAndLimits)
{
    CliResult result = run({"query", "--vendor", "amd",
                            "--min-triggers", "2", "--limit",
                            "3"});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("matching unique errata"),
              std::string::npos);
    EXPECT_NE(result.out.find("AMD"), std::string::npos);
    EXPECT_EQ(result.out.find("Intel"), std::string::npos);
}

TEST(Cli, QueryRejectsUnknownVendorAndCategory)
{
    EXPECT_EQ(run({"query", "--vendor", "via"}).code, 2);
    EXPECT_EQ(run({"query", "--category", "Trg_FOO_bar"}).code, 2);
    EXPECT_EQ(run({"query", "--class", "Nope"}).code, 2);
    EXPECT_EQ(run({"query", "--workaround", "magic"}).code, 2);
}

TEST(Cli, CampaignRendersPlanAndJson)
{
    CliResult text = run({"campaign", "--pairs", "3"});
    EXPECT_EQ(text.code, 0);
    EXPECT_NE(text.out.find("Combined stimuli"),
              std::string::npos);

    CliResult json = run({"campaign", "--pairs", "3", "--json"});
    EXPECT_EQ(json.code, 0);
    auto parsed = parseJson(json.out);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().at("stimuli").size(), 3u);
}

TEST(Cli, SeedsEmitValidJson)
{
    CliResult result = run({"seeds", "--count", "5"});
    EXPECT_EQ(result.code, 0);
    auto parsed = parseJson(result.out);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().size(), 5u);
}

TEST(Cli, LintRequiresFiles)
{
    CliResult result = run({"lint"});
    EXPECT_EQ(result.code, 2);
}

TEST(Cli, LintMissingFileFails)
{
    CliResult result = run({"lint", "/nonexistent/doc.txt"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("cannot open"), std::string::npos);
}

class CliFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogQuiet(true);
        // Unique per process: ctest runs each case as its own
        // process, possibly in parallel, and TearDown's remove_all
        // on a shared directory would race against sibling cases.
        dir_ = std::filesystem::temp_directory_path() /
               ("rememberr_cli_test_" + std::to_string(getpid()));
        std::filesystem::create_directories(dir_);
        // Write one small document (the defect-bearing Core 1 D).
        Corpus corpus = generateDefaultCorpus();
        path_ = (dir_ / "core1d.txt").string();
        std::ofstream out(path_);
        out << renderDocument(corpus.documents[0]);
        firstId_ = corpus.documents[0].errata[0].localId;
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::filesystem::path dir_;
    std::string path_;
    std::string firstId_;
};

TEST_F(CliFileTest, LintFindsInjectedDefects)
{
    CliResult result = run({"lint", path_});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("ReusedName"), std::string::npos);
    EXPECT_NE(result.out.find("IntraDocDuplicate"),
              std::string::npos);
}

TEST_F(CliFileTest, ClassifyAnnotatesEveryErratum)
{
    CliResult result = run({"classify", path_});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find(firstId_ + ":"), std::string::npos);
    EXPECT_NE(result.out.find("manual decision"),
              std::string::npos);
}

TEST_F(CliFileTest, HighlightProducesMarkup)
{
    CliResult ansi = run(
        {"highlight", path_, firstId_, "Trg_CFG_wrg"});
    EXPECT_EQ(ansi.code, 0);

    CliResult html = run({"highlight", path_, firstId_,
                          "Trg_CFG_wrg", "--html"});
    EXPECT_EQ(html.code, 0);

    CliResult bad = run(
        {"highlight", path_, firstId_, "Not_A_Category"});
    EXPECT_EQ(bad.code, 2);

    CliResult missing =
        run({"highlight", path_, "ZZZ999", "Trg_CFG_wrg"});
    EXPECT_EQ(missing.code, 1);
}

TEST_F(CliFileTest, GenerateWritesDocumentsAndExports)
{
    std::string outDir = (dir_ / "generated").string();
    CliResult result = run({"generate", "--out", outDir});
    EXPECT_EQ(result.code, 0);
    EXPECT_TRUE(std::filesystem::exists(outDir +
                                        "/intel_1_D.txt"));
    EXPECT_TRUE(std::filesystem::exists(outDir +
                                        "/rememberr_db.json"));
    EXPECT_TRUE(std::filesystem::exists(outDir +
                                        "/rememberr_db.csv"));

    // The written document parses back.
    std::ifstream in(outDir + "/intel_1_D.txt");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_TRUE(parseDocument(buffer.str()));
}

/** The SVG files of a directory, by name without ".svg". */
std::map<std::string, std::string>
svgFiles(const std::filesystem::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &file : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(file.path());
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[file.path().stem().string()] = bytes.str();
    }
    return files;
}

TEST_F(CliFileTest, FiguresWritesSvgs)
{
    const auto committed =
        svgFiles(REMEMBERR_SOURCE_DIR "/figures");
    ASSERT_EQ(committed.size(), 19u);

    std::string outDir = (dir_ / "figures").string();
    CliResult result = run({"figures", "--out", outDir});
    EXPECT_EQ(result.code, 0);
    auto written = svgFiles(outDir);
    EXPECT_EQ(written.size(), committed.size());
    for (const auto &[name, bytes] : written)
        EXPECT_TRUE(committed.count(name) && committed.at(name) == bytes)
            << name;

    // A snapshot holds the database but no classification run:
    // every figure except 8 and 9, still byte for byte.
    std::string snapPath = (dir_ / "db.snap").string();
    ASSERT_EQ(run({"snapshot", "--out", snapPath}).code, 0);
    std::string snapDir = (dir_ / "snapshot_figures").string();
    result = run({"figures", "--snapshot", snapPath, "--out", snapDir});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("skipped fig8_steps, fig9_agreement"),
              std::string::npos)
        << result.out;
    written = svgFiles(snapDir);
    EXPECT_EQ(written.size(), 17u);
    for (const auto &[name, bytes] : written)
        EXPECT_TRUE(committed.count(name) && committed.at(name) == bytes)
            << name;
}

TEST(Cli, GenerateRequiresOut)
{
    EXPECT_EQ(run({"generate"}).code, 2);
    EXPECT_EQ(run({"figures"}).code, 2);
}

// ---- Observability ------------------------------------------------------

TEST(Cli, VerboseAndQuietAreMutuallyExclusive)
{
    CliResult result = run({"stats", "--verbose", "--quiet"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("mutually exclusive"),
              std::string::npos);
}

TEST(Cli, UsageMentionsObservabilityOptions)
{
    CliResult result = run({"help"});
    EXPECT_NE(result.err.find("profile"), std::string::npos);
    EXPECT_NE(result.err.find("--metrics-out"), std::string::npos);
    EXPECT_NE(result.err.find("--trace-out"), std::string::npos);
    EXPECT_NE(result.err.find("--verbose"), std::string::npos);
}

TEST(Cli, ProfilePrintsPerStageTable)
{
    CliResult result = run({"profile"});
    EXPECT_EQ(result.code, 0);
    for (const char *stage : {"acquire", "parse", "lint", "dedup",
                              "classify", "assemble", "total"}) {
        EXPECT_NE(result.out.find(stage), std::string::npos)
            << "missing stage row: " << stage;
    }
    EXPECT_NE(result.out.find("items/s"), std::string::npos);
    EXPECT_NE(result.out.find("work pool"), std::string::npos);
}

class CliObsFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogQuiet(true);
        // Unique per process; see CliFileTest::SetUp.
        dir_ = std::filesystem::temp_directory_path() /
               ("rememberr_cli_obs_test_" +
                std::to_string(getpid()));
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string
    slurp(const std::string &path) const
    {
        std::ifstream in(path);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    std::filesystem::path dir_;
};

TEST_F(CliObsFileTest, ProfileWritesValidMetricsAndTrace)
{
    std::string metricsPath = (dir_ / "metrics.json").string();
    std::string tracePath = (dir_ / "trace.json").string();
    CliResult result =
        run({"profile", "--threads", "2", "--metrics-out",
             metricsPath, "--trace-out", tracePath});
    EXPECT_EQ(result.code, 0);

    auto metrics = parseJson(slurp(metricsPath));
    ASSERT_TRUE(metrics);
    const JsonValue &counters = metrics.value().at("counters");
    EXPECT_GT(counters.at("pipeline.parse.documents").asInt(), 0);
    EXPECT_GT(counters.at("pipeline.dedup.candidate_pairs").asInt(),
              0);
    // --threads 2 engages the pool, so worker stats must be there.
    EXPECT_GT(counters.at("parallel.chunks").asInt(), 0);
    const JsonValue &gauges = metrics.value().at("gauges");
    std::int64_t total = gauges.at("pipeline.total_us").asInt();
    EXPECT_GT(total, 0);

    // Stage durations must cover the pipeline wall time (>= 90%).
    std::int64_t stageSum = 0;
    for (const char *stage : {"acquire", "parse", "lint", "dedup",
                              "classify", "assemble"}) {
        stageSum += gauges
                        .at(std::string("pipeline.stage_us.") +
                            stage)
                        .asInt();
    }
    EXPECT_GE(stageSum * 10, total * 9);
    EXPECT_LE(stageSum, total);

    // The trace validates against the Chrome trace_event shape.
    auto trace = parseJson(slurp(tracePath));
    ASSERT_TRUE(trace);
    ASSERT_TRUE(trace.value().isArray());
    EXPECT_GE(trace.value().size(), 7u); // 6 stages + umbrella
    bool sawPipeline = false;
    for (const JsonValue &event : trace.value().asArray()) {
        ASSERT_TRUE(event.isObject());
        EXPECT_EQ(event.at("ph").asString(), "X");
        EXPECT_TRUE(event.at("name").isString());
        EXPECT_TRUE(event.at("ts").isNumber());
        EXPECT_TRUE(event.at("dur").isNumber());
        EXPECT_TRUE(event.at("pid").isNumber());
        EXPECT_TRUE(event.at("tid").isNumber());
        sawPipeline |= event.at("name").asString() == "pipeline";
    }
    EXPECT_TRUE(sawPipeline);
}

TEST_F(CliObsFileTest, ProfileWritesCsvMetricsByExtension)
{
    std::string path = (dir_ / "metrics.csv").string();
    CliResult result = run({"profile", "--metrics-out", path});
    EXPECT_EQ(result.code, 0);
    auto parsed = parseCsv(slurp(path));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().header,
              (std::vector<std::string>{"kind", "name", "field",
                                        "value"}));
    EXPECT_FALSE(parsed.value().rows.empty());
}

TEST_F(CliObsFileTest, StatsAcceptsMetricsAndTraceOut)
{
    std::string metricsPath = (dir_ / "stats_metrics.json").string();
    std::string tracePath = (dir_ / "stats_trace.json").string();
    CliResult result = run({"stats", "--metrics-out", metricsPath,
                            "--trace-out", tracePath});
    EXPECT_EQ(result.code, 0);
    auto metrics = parseJson(slurp(metricsPath));
    ASSERT_TRUE(metrics);
    EXPECT_TRUE(metrics.value().contains("counters"));
    auto trace = parseJson(slurp(tracePath));
    ASSERT_TRUE(trace);
    EXPECT_TRUE(trace.value().isArray());
}

TEST(Cli, MetricsOutToUnwritablePathFails)
{
    CliResult result = run(
        {"stats", "--metrics-out", "/nonexistent/dir/m.json"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("cannot write"), std::string::npos);
}

TEST_F(CliObsFileTest, MetricsIntervalWritesJsonlSeries)
{
    std::string path = (dir_ / "series.jsonl").string();
    CliResult result = run({"stats", "--metrics-interval", "10",
                            "--metrics-out", path});
    EXPECT_EQ(result.code, 0);

    std::istringstream in(slurp(path));
    std::string line;
    std::size_t lines = 0;
    double lastSeq = -1.0;
    while (std::getline(in, line)) {
        ++lines;
        auto parsed = parseJson(line);
        ASSERT_TRUE(parsed) << line;
        const JsonValue &record = parsed.value();
        EXPECT_TRUE(record.contains("seq"));
        EXPECT_TRUE(record.contains("elapsed_ms"));
        EXPECT_TRUE(record.contains("counters"));
        EXPECT_TRUE(record.contains("quantiles"));
        EXPECT_GT(record.at("seq").asNumber(), lastSeq);
        lastSeq = record.at("seq").asNumber();
    }
    // At minimum the shutdown snapshot; a slow run adds periodic
    // ticks in front of it.
    EXPECT_GE(lines, 1u);
}

TEST(Cli, MetricsIntervalRequiresMetricsOut)
{
    CliResult result = run({"stats", "--metrics-interval", "10"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("--metrics-out"), std::string::npos);
}

TEST(Cli, MetricsIntervalMustBePositive)
{
    CliResult result = run({"stats", "--metrics-interval", "0",
                            "--metrics-out", "m.jsonl"});
    EXPECT_EQ(result.code, 2);
    EXPECT_NE(result.err.find("positive"), std::string::npos);
}

TEST_F(CliObsFileTest, ProfileSnapshotTimesTheLoadPath)
{
    std::string snapPath = (dir_ / "db.snap").string();
    ASSERT_EQ(run({"snapshot", "--out", snapPath}).code, 0);

    CliResult result = run({"profile", "--snapshot", snapPath});
    EXPECT_EQ(result.code, 0);
    EXPECT_NE(result.out.find("open+verify"), std::string::npos);
    EXPECT_NE(result.out.find("materialize"), std::string::npos);
    EXPECT_NE(result.out.find("unique errata"), std::string::npos);
}

TEST(Cli, ProfileSnapshotMissingFileFails)
{
    CliResult result =
        run({"profile", "--snapshot", "/nonexistent/db.snap"});
    EXPECT_EQ(result.code, 1);
    EXPECT_NE(result.err.find("cannot load snapshot"),
              std::string::npos);
}

TEST(Cli, LogJsonEmitsStructuredRecordsAndRestoresDefault)
{
    // A fresh seed forces a real pipeline run (the per-seed cache
    // would otherwise swallow the debug records this test expects).
    testing::internal::CaptureStderr();
    CliResult result =
        run({"stats", "--log-json", "--verbose", "--seed",
             "424242"});
    std::string captured = testing::internal::GetCapturedStderr();
    EXPECT_EQ(result.code, 0);

    std::istringstream in(captured);
    std::string line;
    std::size_t records = 0;
    while (std::getline(in, line)) {
        auto parsed = parseJson(line);
        ASSERT_TRUE(parsed) << line;
        EXPECT_EQ(parsed.value().at("level").asString(), "debug");
        EXPECT_TRUE(parsed.value().contains("ts_us"));
        EXPECT_TRUE(parsed.value().contains("span"));
        ++records;
    }
    EXPECT_GT(records, 0u);

    // runCli restores the plain emitter on exit.
    setLogLevel(LogLevel::Info);
    testing::internal::CaptureStderr();
    REMEMBERR_WARN("plain");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: plain\n");
    setLogQuiet(true);
}

} // namespace
} // namespace cli
} // namespace rememberr
