/**
 * @file
 * Substrate micro-benchmarks: the regex engine against the full rule
 * set, the title-similarity metrics, the n-gram index, the JSON
 * codec and the two query renderers. These bound the cost of the
 * pipeline's inner loops and of an uncached serve request.
 */

#include "common.hh"

#include <cstdio>

#include "db/query_plan.hh"

namespace rememberr {
namespace bench {
namespace {

const std::string &
sampleBody()
{
    static const std::string body = [] {
        const PipelineResult &result = pipeline();
        // Longest description in the corpus: worst-ish case.
        const std::string *longest =
            &result.corpus.bugs.front().description;
        for (const BugSpec &bug : result.corpus.bugs) {
            if (bug.description.size() > longest->size())
                longest = &bug.description;
        }
        return *longest;
    }();
    return body;
}

void
BM_RegexFullRuleSet(benchmark::State &state)
{
    const RuleSet &rules = RuleSet::instance();
    const std::string &body = sampleBody();
    for (auto _ : state) {
        std::size_t hits = 0;
        for (const CategoryRule &rule : rules.rules()) {
            for (const Regex &regex : rule.accept)
                hits += regex.contains(body);
            for (const Regex &regex : rule.relevance)
                hits += regex.contains(body);
        }
        benchmark::DoNotOptimize(hits);
    }
}
BENCHMARK(BM_RegexFullRuleSet)->Unit(benchmark::kMicrosecond);

void
BM_RegexCompile(benchmark::State &state)
{
    for (auto _ : state) {
        auto regex = Regex::compile(
            R"((warm|cold) reset|C[0-9] power state|\bMC\d+_(STATUS|ADDR)\b)");
        benchmark::DoNotOptimize(regex.hasValue());
    }
}
BENCHMARK(BM_RegexCompile)->Unit(benchmark::kMicrosecond);

void
BM_TitleSimilarity(benchmark::State &state)
{
    const PipelineResult &result = pipeline();
    const std::string &a = result.corpus.bugs[0].title;
    const std::string &b = result.corpus.bugs[1].title;
    for (auto _ : state) {
        double sim = titleSimilarity(a, b);
        benchmark::DoNotOptimize(sim);
    }
}
BENCHMARK(BM_TitleSimilarity)->Unit(benchmark::kMicrosecond);

void
BM_NgramIndexBuild(benchmark::State &state)
{
    const PipelineResult &result = pipeline();
    for (auto _ : state) {
        NgramIndex index(3);
        for (const BugSpec &bug : result.corpus.bugs)
            index.add(bug.title);
        benchmark::DoNotOptimize(index.size());
    }
}
BENCHMARK(BM_NgramIndexBuild)->Unit(benchmark::kMillisecond);

void
BM_NgramIndexQuery(benchmark::State &state)
{
    const PipelineResult &result = pipeline();
    NgramIndex index(3);
    for (const BugSpec &bug : result.corpus.bugs)
        index.add(bug.title);
    std::size_t i = 0;
    for (auto _ : state) {
        auto hits = index.query(
            result.corpus.bugs[i % result.corpus.bugs.size()]
                .title,
            0.3);
        benchmark::DoNotOptimize(hits.size());
        ++i;
    }
}
BENCHMARK(BM_NgramIndexQuery)->Unit(benchmark::kMicrosecond);

void
BM_JsonSerializeDatabase(benchmark::State &state)
{
    const Database &database = db();
    for (auto _ : state) {
        std::string dump = database.toJson().dump();
        benchmark::DoNotOptimize(dump.size());
    }
}
BENCHMARK(BM_JsonSerializeDatabase)->Unit(benchmark::kMillisecond);

void
BM_JsonParseDatabase(benchmark::State &state)
{
    const std::string dump = db().toJson().dump();
    for (auto _ : state) {
        auto parsed = parseJson(dump);
        benchmark::DoNotOptimize(parsed.hasValue());
    }
}
BENCHMARK(BM_JsonParseDatabase)->Unit(benchmark::kMillisecond);

/**
 * Cold-style serve requests, fixed by one seed: every op, each
 * filter drawn as perfbench's query-cold draws it (a disclosure
 * window of up to five years, thresholds, vendor, workaround,
 * status), run limits of 5 and 20, every grouping and axis.
 */
const std::vector<QuerySpec> &
coldSpecs()
{
    static const std::vector<QuerySpec> specs = [] {
        std::vector<QuerySpec> out;
        Rng rng(0xc01d5eed);
        for (int i = 0; i < 1024; ++i) {
            QuerySpec spec;
            spec.op = static_cast<QuerySpec::Op>(rng.nextBelow(4));
            spec.limit = rng.nextBool() ? 5 : 20;
            spec.groupBy =
                static_cast<QuerySpec::GroupBy>(rng.nextBelow(3));
            spec.axis = static_cast<Axis>(rng.nextBelow(3));
            if (spec.op == QuerySpec::Op::Ping) {
                out.push_back(spec);
                continue;
            }
            Date from = Date(2008, 1, 1).addDays(
                rng.nextInRange(0, 16 * 365));
            spec.disclosedFrom = from;
            spec.disclosedTo =
                from.addDays(rng.nextInRange(0, 5 * 365));
            if (rng.nextBool(0.4))
                spec.minTriggers = rng.nextInRange(1, 3);
            if (rng.nextBool(0.3))
                spec.minOccurrences = rng.nextInRange(1, 3);
            if (rng.nextBool(0.3))
                spec.vendor =
                    rng.nextBool() ? Vendor::Intel : Vendor::Amd;
            if (rng.nextBool(0.3))
                spec.workaround =
                    static_cast<WorkaroundClass>(rng.nextBelow(6));
            if (rng.nextBool(0.3))
                spec.status = static_cast<FixStatus>(rng.nextBelow(3));
            out.push_back(spec);
        }
        return out;
    }();
    return specs;
}

/** The request line a client sends for `spec` (keys sorted). */
std::string
requestLine(const QuerySpec &spec)
{
    JsonValue request = JsonValue::makeObject();
    request["op"] = JsonValue(std::string(queryOpName(spec.op)));
    auto text = [&](const char *key, std::string_view value) {
        request[key] = JsonValue(std::string(value));
    };
    if (spec.vendor)
        text("vendor", vendorName(*spec.vendor));
    if (spec.workaround)
        text("workaround", workaroundClassName(*spec.workaround));
    if (spec.status)
        text("status", fixStatusName(*spec.status));
    if (spec.minTriggers)
        request["min_triggers"] = JsonValue(*spec.minTriggers);
    if (spec.minOccurrences)
        request["min_occurrences"] = JsonValue(*spec.minOccurrences);
    if (spec.disclosedFrom) {
        text("disclosed_from", spec.disclosedFrom->toString());
        text("disclosed_to", spec.disclosedTo->toString());
    }
    if (spec.op == QuerySpec::Op::Run)
        request["limit"] = JsonValue(spec.limit);
    if (spec.op == QuerySpec::Op::Group) {
        text("by", groupByName(spec.groupBy));
        if (spec.groupBy != QuerySpec::GroupBy::Workaround)
            text("axis", axisName(spec.axis));
    }
    return request.dump();
}

/**
 * The serve daemon's work on a cache miss before the plan runs:
 * parse the line, build the spec and its canonical `query` echo.
 */
void
BM_QuerySpecFromLine(benchmark::State &state)
{
    std::vector<std::string> lines;
    for (const QuerySpec &spec : coldSpecs())
        lines.push_back(requestLine(spec));
    std::size_t i = 0;
    for (auto _ : state) {
        auto spec = QuerySpec::fromJson(
            parseJson(lines[i++ % lines.size()]).value());
        std::string canonical = spec.value().canonical();
        benchmark::DoNotOptimize(canonical);
    }
}
BENCHMARK(BM_QuerySpecFromLine)->Unit(benchmark::kMicrosecond);

/** The oracle: `Query` predicates, a `JsonValue` tree, `dump()`. */
void
BM_QueryExecuteOracle(benchmark::State &state)
{
    const Database &database = db();
    const std::vector<QuerySpec> &specs = coldSpecs();
    std::size_t i = 0;
    for (auto _ : state) {
        std::string response =
            specs[i++ % specs.size()].execute(database).dump();
        benchmark::DoNotOptimize(response);
    }
}
BENCHMARK(BM_QueryExecuteOracle)->Unit(benchmark::kMicrosecond);

/**
 * The serve path: compile the plan and render over the column block.
 * The canonical `query` echo is precomputed (the daemon builds it on
 * a miss, timed in `BM_QuerySpecFromLine`); the oracle computes it
 * inside `execute`.
 */
void
BM_QueryPlanRender(benchmark::State &state)
{
    const ColumnBlock block(db());
    const std::vector<QuerySpec> &specs = coldSpecs();
    std::vector<std::string> canonical;
    for (const QuerySpec &spec : specs)
        canonical.push_back(spec.canonical());
    std::size_t i = 0;
    for (auto _ : state) {
        std::size_t at = i++ % specs.size();
        std::string response;
        QueryPlan(specs[at]).render(block, canonical[at], response);
        benchmark::DoNotOptimize(response);
    }
}
BENCHMARK(BM_QueryPlanRender)->Unit(benchmark::kMicrosecond);

void
printSummary()
{
    std::printf("Substrate micro-benchmarks: see the timing table "
                "above.\n");
    std::printf("Context: the classification stage evaluates the "
                "full rule set (60 categories,\n"
                "~130 compiled patterns) once per unique erratum; "
                "the dedup stage performs one\n"
                "index query per Intel cluster representative.\n");
}

} // namespace
} // namespace bench
} // namespace rememberr

REMEMBERR_BENCH_MAIN(rememberr::bench::printSummary)
