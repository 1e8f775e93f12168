/**
 * @file
 * Tests for the query daemon stack: QuerySpec normalization (the
 * canonical `query` echo), the sharded LRU result cache and its
 * line-keyed counting, the TCP server's protocol behaviour —
 * malformed/truncated/oversized request lines, pipelining,
 * connection limits, graceful shutdown — the pinned bytes of a fixed
 * request stream, and a concurrent-clients hammer that doubles as
 * the TSan workload for the sharded cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hh"
#include "db/query_spec.hh"
#include "obs/metrics.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace rememberr {
namespace {

// ---- QuerySpec: the canonical query echo --------------------------------

TEST(QuerySpec, CanonicalIsSpellingInsensitive)
{
    auto a = QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"vendor\":\"Intel\"}")
            .value());
    auto b = QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"vendor\":\"INTEL\"}")
            .value());
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_EQ(a.value().canonical(), b.value().canonical());
}

TEST(QuerySpec, CanonicalSeparatesDifferentQueries)
{
    auto a = QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"vendor\":\"intel\"}")
            .value());
    auto b = QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"vendor\":\"amd\"}").value());
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    EXPECT_NE(a.value().canonical(), b.value().canonical());
}

TEST(QuerySpec, RejectsUnknownOpAndFields)
{
    EXPECT_FALSE(QuerySpec::fromJson(
        parseJson("{\"op\":\"drop\"}").value()));
    EXPECT_FALSE(QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"bogus\":1}").value()));
    EXPECT_FALSE(QuerySpec::fromJson(
        parseJson("{\"vendor\":\"intel\"}").value()));
    EXPECT_FALSE(QuerySpec::fromJson(
        parseJson("{\"op\":\"run\",\"limit\":100000}").value()));
    EXPECT_FALSE(QuerySpec::fromJson(
        parseJson("{\"op\":\"count\",\"disclosed_from\":"
                  "\"2020-01-01\"}")
            .value()));
}

// ---- Sharded LRU cache --------------------------------------------------

serve::ShardedLruCache::Value
boxed(const std::string &text)
{
    return std::make_shared<const std::string>(text);
}

TEST(ServeCache, EvictsLeastRecentlyUsed)
{
    serve::ShardedLruCache cache(2, 1);
    cache.put("a", boxed("1"));
    cache.put("b", boxed("2"));
    ASSERT_TRUE(cache.get("a")); // bump a: b is now LRU
    cache.put("c", boxed("3"));
    EXPECT_TRUE(cache.get("a"));
    EXPECT_FALSE(cache.get("b"));
    EXPECT_TRUE(cache.get("c"));
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, GetCountsHitsAndPutCountsMisses)
{
    serve::ShardedLruCache cache(4, 1);
    // A failed probe counts nothing: the key may never be cached.
    EXPECT_FALSE(cache.get("a"));
    EXPECT_EQ(cache.stats().misses, 0u);
    cache.put("a", boxed("1"), true);
    EXPECT_EQ(cache.stats().misses, 1u);

    // Looked up through a view into a larger buffer, with its flag.
    const std::string buffer = "xay";
    bool elided = false;
    auto hit = cache.get(std::string_view(buffer).substr(1, 1), &elided);
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "1");
    EXPECT_TRUE(elided);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ServeCache, ZeroCapacityDisables)
{
    serve::ShardedLruCache cache(0);
    EXPECT_FALSE(cache.enabled());
    cache.put("a", boxed("1"));
    EXPECT_FALSE(cache.get("a"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ServeCache, HoldsExactlyItsCapacity)
{
    // Capacities below, at and around multiples of the 8 shards: the
    // per-shard capacities must sum to the total, with no remainder
    // left unheld.
    std::vector<std::size_t> capacities;
    for (std::size_t capacity = 1; capacity <= 40; ++capacity)
        capacities.push_back(capacity);
    capacities.push_back(1030);
    for (std::size_t capacity : capacities) {
        serve::ShardedLruCache cache(capacity);
        for (int i = 0; i < 5000; ++i)
            cache.put("key-" + std::to_string(i), boxed("v"));
        EXPECT_EQ(cache.size(), cache.capacity())
            << "capacity " << capacity;
    }
}

TEST(ServeCache, RefreshReplacesValueWithoutGrowth)
{
    serve::ShardedLruCache cache(4, 1);
    cache.put("a", boxed("old"));
    cache.put("a", boxed("new"));
    auto hit = cache.get("a");
    ASSERT_TRUE(hit);
    EXPECT_EQ(*hit, "new");
    EXPECT_EQ(cache.size(), 1u);
}

// ---- Server protocol ----------------------------------------------------

class ServeTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        setLogQuiet(true);
        PipelineOptions options;
        options.roundTripDocuments = false;
        options.lint = false;
        result_ = new PipelineResult(runPipeline(options));
    }

    static void
    TearDownTestSuite()
    {
        delete result_;
        result_ = nullptr;
    }

    static const Database &db() { return result_->groundTruth; }

    static std::unique_ptr<serve::Server>
    startServer(serve::ServeOptions options = {})
    {
        if (options.workers == 0)
            options.workers = 2;
        auto server =
            std::make_unique<serve::Server>(db(), options);
        auto started = server->start();
        EXPECT_TRUE(started) << started.error().toString();
        return server;
    }

    static serve::Client
    connect(const serve::Server &server)
    {
        auto client =
            serve::Client::connect("127.0.0.1", server.port());
        EXPECT_TRUE(client) << client.error().toString();
        return std::move(client.value());
    }

    static std::string
    expected(const std::string &line)
    {
        auto spec =
            QuerySpec::fromJson(parseJson(line).value());
        EXPECT_TRUE(spec) << spec.error().toString();
        return spec.value().execute(db()).dump();
    }

    static PipelineResult *result_;
};

PipelineResult *ServeTest::result_ = nullptr;

TEST_F(ServeTest, AnswersPingAndCount)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
    auto pong = client.readLine();
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong.value(), "{\"ok\":true,\"op\":\"ping\"}");

    std::string request = "{\"op\":\"count\",\"vendor\":\"intel\"}";
    ASSERT_TRUE(client.sendLine(request));
    auto count = client.readLine();
    ASSERT_TRUE(count);
    EXPECT_EQ(count.value(), expected(request));
}

TEST_F(ServeTest, MalformedLineGetsErrorAndConnectionSurvives)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    ASSERT_TRUE(client.sendLine("this is not json"));
    auto error = client.readLine();
    ASSERT_TRUE(error);
    auto parsed = parseJson(error.value());
    ASSERT_TRUE(parsed);
    EXPECT_FALSE(parsed.value().at("ok").asBool());
    EXPECT_TRUE(parsed.value().contains("error"));

    // A protocol error is per-line, not per-connection.
    ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
    auto pong = client.readLine();
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong.value(), "{\"ok\":true,\"op\":\"ping\"}");
}

TEST_F(ServeTest, BadRequestShapesAllAnswerWithErrors)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    const char *bad[] = {
        "{\"op\":\"count\",\"vendor\":\"via\"}",
        "{\"op\":\"count\",\"limit\":5}",
        "{\"op\":\"group\",\"by\":\"vendor\"}",
        "{\"op\":\"run\",\"min_triggers\":-1}",
        "[1,2,3]",
        "\"just a string\"",
        "{\"op\":\"ping\",\"vendor\":\"intel\"}",
    };
    for (const char *line : bad) {
        ASSERT_TRUE(client.sendLine(line)) << line;
        auto response = client.readLine();
        ASSERT_TRUE(response) << line;
        auto parsed = parseJson(response.value());
        ASSERT_TRUE(parsed) << line;
        EXPECT_FALSE(parsed.value().at("ok").asBool()) << line;
    }
}

TEST_F(ServeTest, EmptyAndCarriageReturnLinesAreIgnored)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    ASSERT_TRUE(
        client.sendText("\n\r\n{\"op\":\"ping\"}\r\n\n"));
    auto pong = client.readLine();
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong.value(), "{\"ok\":true,\"op\":\"ping\"}");
}

TEST_F(ServeTest, TruncatedLineIsNeverAnswered)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    // No terminating newline: the fragment must not be executed.
    ASSERT_TRUE(client.sendText("{\"op\":\"count\""));
    client.closeWrite();
    auto response = client.readLine(2000);
    EXPECT_FALSE(response); // connection closes without a response
}

TEST_F(ServeTest, OversizedLineIsRejected)
{
    MetricsRegistry metrics;
    serve::ServeOptions options;
    options.maxLineBytes = 128;
    options.metrics = &metrics;
    auto server = startServer(options);
    serve::Client client = connect(*server);
    std::string huge = "{\"op\":\"count\",\"vendor\":\"" +
                       std::string(500, 'x') + "\"}";
    ASSERT_TRUE(client.sendLine(huge));
    auto response = client.readLine();
    ASSERT_TRUE(response);
    EXPECT_NE(response.value().find("exceeds"),
              std::string::npos);
    // The refusal is counted where --metrics-out reads it, too.
    EXPECT_EQ(server->stats().errors, 1u);
    EXPECT_EQ(metrics.counter("serve.errors").value(),
              server->stats().errors);
}

TEST_F(ServeTest, PipelinedRequestsAnswerInOrder)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    const std::string intel = "{\"op\":\"count\",\"vendor\":\"intel\"}";
    std::vector<std::string> requests = {
        intel,
        "{\"op\":\"count\",\"vendor\":\"amd\"}",
        "{\"op\":\"group\",\"by\":\"workaround\"}",
        "{\"op\":\"run\",\"limit\":3}",
        intel, // cache hit
        "{\"op\":\"ping\"}",
        intel, // cache hit
        // Another spelling of `intel`: its own entry, the same bytes.
        "{\"vendor\":\"INTEL\", \"op\":\"count\", \"min_triggers\":0}",
        "{\"op\":\"run\",\"limit\":3}", // hit, sent with "\r\n"
    };
    std::string batch;
    for (const std::string &request : requests)
        batch += request + (&request == &requests.back() ? "\r\n" : "\n");
    ASSERT_TRUE(client.sendText(batch));
    std::vector<std::string> responses;
    for (const std::string &request : requests) {
        auto response = client.readLine();
        ASSERT_TRUE(response) << request;
        if (request.find("ping") == std::string::npos) {
            EXPECT_EQ(response.value(), expected(request))
                << request;
        }
        responses.push_back(response.value());
    }
    EXPECT_EQ(responses[4], responses[0]);
    EXPECT_EQ(responses[6], responses[0]);
    EXPECT_EQ(responses[7], responses[0]);
    // One lookup per count/run/group line, keyed on the line's bytes:
    // the ping counts none, each spelling renders once, and the
    // "\r\n" line hits the entry its "\n" twin made.
    EXPECT_EQ(server->cache().stats().misses, 5u);
    EXPECT_EQ(server->cache().stats().hits, 3u);
    EXPECT_EQ(server->cache().size(), 5u);
}

TEST_F(ServeTest, OnlyQueryLinesCountCacheLookups)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    for (const char *line :
         {"{\"op\":\"ping\"}", "{\"op\":\"stats\"}", "{\"op\":\"count\"",
          "{\"op\":\"count\",\"bogus\":1}", "{\"op\":\"ping\"}"}) {
        ASSERT_TRUE(client.sendLine(line)) << line;
        ASSERT_TRUE(client.readLine()) << line;
    }
    EXPECT_EQ(server->cache().stats().hits, 0u);
    EXPECT_EQ(server->cache().stats().misses, 0u);
    EXPECT_EQ(server->cache().size(), 0u);
    EXPECT_EQ(server->stats().errors, 2u);
}

TEST_F(ServeTest, RejectsConnectionsBeyondLimit)
{
    serve::ServeOptions options;
    options.workers = 1;
    options.maxConnections = 1;
    auto server = startServer(options);
    serve::Client first = connect(*server);
    ASSERT_TRUE(first.sendLine("{\"op\":\"ping\"}"));
    ASSERT_TRUE(first.readLine());

    serve::Client second = connect(*server);
    auto busy = second.readLine(5000);
    ASSERT_TRUE(busy);
    EXPECT_NE(busy.value().find("busy"), std::string::npos);
    EXPECT_GE(server->stats().rejected, 1u);

    // The first connection is unaffected.
    ASSERT_TRUE(first.sendLine("{\"op\":\"ping\"}"));
    EXPECT_TRUE(first.readLine());
}

// ---- Provably-empty query elision ---------------------------------------

TEST(QuerySpecLint, DetectsProvablyEmptyConjunctions)
{
    JsonValue contradictory = parseJson(
        "{\"op\":\"count\",\"exact_triggers\":1,"
        "\"min_triggers\":3}").value();
    auto spec = QuerySpec::fromJson(contradictory);
    ASSERT_TRUE(spec);
    ASSERT_TRUE(spec.value().emptyReason().has_value());
    EXPECT_NE(spec.value().emptyReason()->find("contradicts"),
              std::string::npos);

    JsonValue inverted = parseJson(
        "{\"op\":\"run\",\"disclosed_from\":\"2020-05-01\","
        "\"disclosed_to\":\"2019-01-01\"}").value();
    auto window = QuerySpec::fromJson(inverted);
    ASSERT_TRUE(window);
    ASSERT_TRUE(window.value().emptyReason().has_value());

    // Satisfiable specs are never flagged: min below exact, a
    // forward window, a plain filter.
    for (const char *line :
         {"{\"op\":\"count\",\"exact_triggers\":3,"
          "\"min_triggers\":3}",
          "{\"op\":\"count\",\"vendor\":\"intel\"}",
          "{\"op\":\"group\",\"by\":\"class\"}",
          "{\"op\":\"ping\"}"}) {
        auto ok = QuerySpec::fromJson(parseJson(line).value());
        ASSERT_TRUE(ok) << line;
        EXPECT_FALSE(ok.value().emptyReason().has_value()) << line;
    }
}

TEST_F(ServeTest, ExecuteEmptyIsBitIdenticalToExecution)
{
    // For every op shape, the database-free empty render must equal
    // the full execution byte for byte, as the daemon's plan does
    // for the same specs (tests/test_query_plan.cc).
    for (const char *line :
         {"{\"op\":\"count\",\"exact_triggers\":2,"
          "\"min_triggers\":9}",
          "{\"op\":\"run\",\"exact_triggers\":0,"
          "\"min_triggers\":5,\"limit\":7}",
          "{\"op\":\"group\",\"by\":\"workaround\","
          "\"exact_triggers\":1,\"min_triggers\":2}",
          "{\"op\":\"group\",\"by\":\"class\",\"axis\":\"effect\","
          "\"disclosed_from\":\"2021-01-01\","
          "\"disclosed_to\":\"2020-01-01\"}"}) {
        auto spec = QuerySpec::fromJson(parseJson(line).value());
        ASSERT_TRUE(spec) << line;
        ASSERT_TRUE(spec.value().emptyReason().has_value()) << line;
        EXPECT_EQ(spec.value().executeEmpty().dump(),
                  spec.value().execute(db()).dump())
            << line;
    }
}

TEST_F(ServeTest, ProvablyEmptyQueriesAreElided)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    std::string request =
        "{\"op\":\"count\",\"exact_triggers\":1,"
        "\"min_triggers\":4}";
    ASSERT_TRUE(client.sendLine(request));
    auto answer = client.readLine();
    ASSERT_TRUE(answer);
    // Response over the socket matches in-process execution bit
    // for bit, even though the daemon never touched the database.
    EXPECT_EQ(answer.value(), expected(request));

    // Elisions are counted — on the cache-hit path too.
    ASSERT_TRUE(client.sendLine(request));
    ASSERT_TRUE(client.readLine());
    EXPECT_EQ(server->stats().elided, 2u);
    EXPECT_EQ(server->cache().stats().misses, 1u);
    EXPECT_EQ(server->cache().stats().hits, 1u);

    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\"}"));
    auto stats = client.readLine();
    ASSERT_TRUE(stats);
    auto parsed = parseJson(stats.value());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().at("elided").asNumber(), 2.0);

    // An ordinary query is never counted as elided.
    ASSERT_TRUE(client.sendLine(
        "{\"op\":\"count\",\"vendor\":\"amd\"}"));
    ASSERT_TRUE(client.readLine());
    EXPECT_EQ(server->stats().elided, 2u);
}

TEST_F(ServeTest, StatsOpReportsCountersUncached)
{
    auto server = startServer();
    serve::Client client = connect(*server);
    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\"}"));
    auto first = client.readLine();
    ASSERT_TRUE(first);
    auto parsed = parseJson(first.value());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed.value().at("entries").asNumber(),
              static_cast<double>(db().entries().size()));
    // A second stats call must reflect the first (not be cached).
    ASSERT_TRUE(client.sendLine("{\"op\":\"stats\"}"));
    auto second = client.readLine();
    ASSERT_TRUE(second);
    EXPECT_NE(first.value(), second.value());
}

TEST_F(ServeTest, StopDrainsAndRefusesNewConnections)
{
    auto server = startServer();
    {
        serve::Client client = connect(*server);
        ASSERT_TRUE(client.sendLine("{\"op\":\"ping\"}"));
        ASSERT_TRUE(client.readLine());
    }
    int port = server->port();
    server->stop();
    EXPECT_FALSE(server->running());
    EXPECT_FALSE(serve::Client::connect("127.0.0.1", port));
    server->stop(); // idempotent
}

// ---- Pinned response bytes ----------------------------------------------

/** bench_serve's 45 request shapes, in its order. */
std::vector<std::string>
benchServeShapes()
{
    std::vector<std::string> shapes;
    const char *vendors[] = {nullptr, "intel", "amd"};
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"count\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        for (const char *filter :
             {"", ",\"workaround\":\"none\"",
              ",\"workaround\":\"software\"", ",\"min_triggers\":2",
              ",\"min_triggers\":3", ",\"complex\":true",
              ",\"simulation_only\":true", ",\"min_occurrences\":2"})
            shapes.push_back(base + filter + "}");
    }
    shapes.push_back("{\"op\":\"count\",\"status\":\"fixed\"}");
    shapes.push_back("{\"op\":\"count\",\"status\":\"nofix\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2016-01-01\",\"disclosed_to\":\"2019-12-31\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2020-01-01\",\"disclosed_to\":\"2023-12-31\"}");
    for (const char *axis : {"trigger", "context", "effect"}) {
        for (const char *by : {"class", "category"})
            shapes.push_back(std::string("{\"op\":\"group\",\"by\":\"") +
                             by + "\",\"axis\":\"" + axis + "\"}");
    }
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\"}");
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"run\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        shapes.push_back(base + ",\"limit\":5}");
        shapes.push_back(base + ",\"limit\":20}");
    }
    shapes.push_back("{\"op\":\"count\",\"exact_triggers\":1,"
                     "\"min_triggers\":4}");
    shapes.push_back("{\"op\":\"run\",\"limit\":5,\"disclosed_from\":"
                     "\"2022-01-01\",\"disclosed_to\":\"2020-12-31\"}");
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\","
                     "\"exact_triggers\":0,\"min_triggers\":2}");
    shapes.push_back("{\"op\":\"ping\"}");
    return shapes;
}

/** Flip the case of each letter of `text` with probability 1/2. */
std::string
mixCase(std::string_view text, Rng &rng)
{
    std::string out(text);
    for (char &c : out) {
        if (rng.nextBool())
            c = static_cast<char>(
                std::isupper(static_cast<unsigned char>(c))
                    ? std::tolower(static_cast<unsigned char>(c))
                    : std::toupper(static_cast<unsigned char>(c)));
    }
    return out;
}

/**
 * A cold-style request line: fresh filter values and disclosure
 * windows (some inverted, some with contradictory trigger counts),
 * enum values in mixed case and the keys in shuffled order.
 */
std::string
coldStyleLine(Rng &rng)
{
    std::vector<std::pair<std::string, std::string>> fields;
    auto text = [](std::string_view value) {
        return "\"" + std::string(value) + "\"";
    };
    auto number = [](std::int64_t value) {
        return std::to_string(value);
    };
    const char *ops[] = {"count", "run", "group"};
    std::string op = ops[rng.nextBelow(3)];
    fields.emplace_back("op", text(op));
    if (rng.nextBool(0.8)) {
        const Date base(2008, 1, 1);
        std::int64_t from = rng.nextInRange(0, 16 * 365);
        std::int64_t length = rng.nextInRange(0, 5 * 365);
        std::int64_t to =
            rng.nextBool(0.1) ? from - 1 - length : from + length;
        fields.emplace_back("disclosed_from",
                            text(base.addDays(from).toString()));
        fields.emplace_back("disclosed_to",
                            text(base.addDays(to).toString()));
    }
    if (rng.nextBool(0.1)) {
        std::int64_t exact = rng.nextInRange(0, 3);
        fields.emplace_back("exact_triggers", number(exact));
        fields.emplace_back("min_triggers",
                            number(exact + rng.nextInRange(1, 3)));
    } else if (rng.nextBool(0.4)) {
        fields.emplace_back("min_triggers",
                            number(rng.nextInRange(0, 3)));
    }
    if (rng.nextBool(0.3))
        fields.emplace_back("min_occurrences",
                            number(rng.nextInRange(0, 3)));
    if (rng.nextBool(0.3))
        fields.emplace_back(
            "vendor", text(mixCase(rng.nextBool() ? "intel" : "amd",
                                   rng)));
    if (rng.nextBool(0.3))
        fields.emplace_back(
            "workaround",
            text(mixCase(workaroundClassName(static_cast<WorkaroundClass>(
                             rng.nextBelow(6))),
                         rng)));
    if (rng.nextBool(0.3))
        fields.emplace_back(
            "status", text(mixCase(fixStatusName(static_cast<FixStatus>(
                                       rng.nextBelow(3))),
                                   rng)));
    if (rng.nextBool(0.1))
        fields.emplace_back("complex", rng.nextBool() ? "true" : "false");
    if (rng.nextBool(0.1))
        fields.emplace_back("simulation_only",
                            rng.nextBool() ? "true" : "false");
    // Descriptor codes match case-insensitively in their prefix only.
    const Taxonomy &taxonomy = Taxonomy::instance();
    if (rng.nextBool(0.1)) {
        const std::string &code =
            taxonomy
                .categoryById(static_cast<CategoryId>(
                    rng.nextBelow(taxonomy.categoryCount())))
                .code;
        fields.emplace_back("category", text(mixCase(code.substr(0, 3), rng) +
                                             code.substr(3)));
    }
    if (rng.nextBool(0.1)) {
        const std::string &code =
            taxonomy
                .classById(static_cast<ClassId>(
                    rng.nextBelow(taxonomy.classCount())))
                .code;
        fields.emplace_back("class", text(mixCase(code.substr(0, 3), rng) +
                                          code.substr(3)));
    }
    if (op == "run" && rng.nextBool(0.7))
        fields.emplace_back("limit", number(rng.nextInRange(0, 30)));
    if (op == "group") {
        const char *groupings[] = {"category", "class", "workaround"};
        std::string by = groupings[rng.nextBelow(3)];
        fields.emplace_back("by", text(mixCase(by, rng)));
        const char *axes[] = {"trigger", "context", "effect"};
        if (by != "workaround" && rng.nextBool(0.7))
            fields.emplace_back(
                "axis", text(mixCase(axes[rng.nextBelow(3)], rng)));
    }
    rng.shuffle(fields);
    std::string line = "{";
    for (const auto &[key, value] : fields) {
        if (line.size() > 1)
            line += ',';
        line += text(key) + ":" + value;
    }
    return line + "}";
}

/** FNV-1a 64, continued from `hash`. */
std::uint64_t
fnv1a64(std::string_view bytes,
        std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Every response byte the daemon sends for a fixed request stream,
 * pinned: bench_serve's shapes twice each (render, then cache hit)
 * and 2,000 seeded cold-style lines over one connection. Each reply
 * must equal in-process execution, and the hash of all of them must
 * not move, so a change to the canonical `query` echo shows here
 * even though the daemon and `execute(db).dump()` would move
 * together.
 */
TEST_F(ServeTest, ResponsesArePinned)
{
    std::vector<std::string> lines;
    for (const std::string &shape : benchServeShapes()) {
        lines.push_back(shape);
        lines.push_back(shape);
    }
    ASSERT_EQ(lines.size(), 90u);
    Rng rng(0xc01d5eedULL);
    for (int i = 0; i < 2000; ++i)
        lines.push_back(coldStyleLine(rng));

    auto server = startServer();
    serve::Client client = connect(*server);
    std::uint64_t hash = fnv1a64({});
    constexpr std::size_t kBatch = 64;
    for (std::size_t start = 0; start < lines.size(); start += kBatch) {
        std::size_t end = std::min(lines.size(), start + kBatch);
        std::string batch;
        for (std::size_t i = start; i < end; ++i)
            batch += lines[i] + "\n";
        ASSERT_TRUE(client.sendText(batch));
        for (std::size_t i = start; i < end; ++i) {
            auto response = client.readLine();
            ASSERT_TRUE(response) << lines[i];
            ASSERT_EQ(response.value(), expected(lines[i])) << lines[i];
            hash = fnv1a64(response.value() + "\n", hash);
        }
    }
    EXPECT_EQ(server->stats().errors, 0u);
    EXPECT_EQ(hash, 0x73da6184939fa16cULL)
        << std::hex << "response hash is now 0x" << hash;
}

/**
 * The TSan workload: several clients hammer a deliberately tiny
 * cache with a shared hot set, so concurrent get/put/evict races on
 * the shards and response shared_ptrs are exercised while every
 * response is still checked against in-process execution.
 */
TEST_F(ServeTest, ConcurrentClientsAgreeWithLocalExecution)
{
    serve::ServeOptions options;
    options.workers = 4;
    options.cacheCapacity = 4; // force constant eviction
    auto server = startServer(options);

    std::vector<std::string> requests = {
        "{\"op\":\"count\",\"vendor\":\"intel\"}",
        "{\"op\":\"count\",\"vendor\":\"amd\"}",
        "{\"op\":\"count\",\"min_triggers\":2}",
        "{\"op\":\"group\",\"by\":\"workaround\"}",
        "{\"op\":\"group\",\"by\":\"class\",\"axis\":\"effect\"}",
        "{\"op\":\"run\",\"limit\":2}",
        "{\"op\":\"count\",\"workaround\":\"none\"}",
        "{\"op\":\"count\",\"status\":\"fixed\"}",
    };
    std::vector<std::string> answers;
    answers.reserve(requests.size());
    for (const std::string &request : requests)
        answers.push_back(expected(request));

    constexpr int kClients = 4;
    constexpr int kRounds = 50;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            auto client =
                serve::Client::connect("127.0.0.1", server->port());
            if (!client) {
                failures.fetch_add(1);
                return;
            }
            for (int round = 0; round < kRounds; ++round) {
                std::size_t i = static_cast<std::size_t>(
                    (round + t) % requests.size());
                if (!client.value().sendLine(requests[i])) {
                    failures.fetch_add(1);
                    return;
                }
                auto response = client.value().readLine();
                if (!response ||
                    response.value() != answers[i]) {
                    failures.fetch_add(1);
                    return;
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(), 0);
    auto stats = server->cache().stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.hits, 0u);
}

} // namespace
} // namespace rememberr
