/**
 * @file
 * Traffic benchmark for the query daemon (`rememberr serve`).
 *
 * A deterministic Zipf-distributed client storm (hot queries
 * dominate, a long tail keeps missing the cache) drives pipelined
 * request batches at the server while a dedicated probe connection
 * measures true request/response round trips into a quantile
 * histogram. Results — throughput, p50/p95/p99 latency, cache hit
 * rate — land in BENCH_serve.json so successive PRs can diff the
 * trajectory.
 *
 * Every run starts with an equivalence pass: each query shape is
 * sent twice (cache miss, then cache hit) and both response lines
 * must be byte-identical to the in-process `QuerySpec::execute()`
 * rendering. `--smoke` runs that pass plus a small storm for the CI
 * leg, exiting 1 on any divergence or unless the daemon's stats op
 * shows the pass took the render and hit paths it meant to; `--port
 * N` targets an external daemon, which `--smoke` expects fresh,
 * instead of the in-process server.
 */

#include "common.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/query_spec.hh"
#include "obs/quantile.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/fileio.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace rememberr {
namespace bench {
namespace {

/**
 * The mixed workload: ~40 distinct query shapes spanning every
 * operation the daemon caches (count with each filter family, all
 * group-by combinations, bounded runs) plus the uncached ping.
 */
std::vector<std::string>
buildShapes()
{
    std::vector<std::string> shapes;
    const char *vendors[] = {nullptr, "intel", "amd"};
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"count\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        shapes.push_back(base + "}");
        shapes.push_back(base + ",\"workaround\":\"none\"}");
        shapes.push_back(base + ",\"workaround\":\"software\"}");
        shapes.push_back(base + ",\"min_triggers\":2}");
        shapes.push_back(base + ",\"min_triggers\":3}");
        shapes.push_back(base + ",\"complex\":true}");
        shapes.push_back(base + ",\"simulation_only\":true}");
        shapes.push_back(base + ",\"min_occurrences\":2}");
    }
    shapes.push_back("{\"op\":\"count\",\"status\":\"fixed\"}");
    shapes.push_back("{\"op\":\"count\",\"status\":\"nofix\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2016-01-01\",\"disclosed_to\":"
                     "\"2019-12-31\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2020-01-01\",\"disclosed_to\":"
                     "\"2023-12-31\"}");
    const char *axes[] = {"trigger", "context", "effect"};
    for (const char *axis : axes) {
        shapes.push_back(
            std::string("{\"op\":\"group\",\"by\":\"class\","
                        "\"axis\":\"") +
            axis + "\"}");
        shapes.push_back(
            std::string("{\"op\":\"group\",\"by\":\"category\","
                        "\"axis\":\"") +
            axis + "\"}");
    }
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\"}");
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"run\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        shapes.push_back(base + ",\"limit\":5}");
        shapes.push_back(base + ",\"limit\":20}");
    }
    // Provably-empty conjunctions: the daemon's query lint elides
    // these without touching the database, and the responses must
    // still be bit-identical to in-process execution.
    shapes.push_back("{\"op\":\"count\",\"exact_triggers\":1,"
                     "\"min_triggers\":4}");
    shapes.push_back("{\"op\":\"run\",\"limit\":5,"
                     "\"disclosed_from\":\"2022-01-01\","
                     "\"disclosed_to\":\"2020-12-31\"}");
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\","
                     "\"exact_triggers\":0,\"min_triggers\":2}");
    shapes.push_back("{\"op\":\"ping\"}");
    return shapes;
}

/**
 * Zipf(s = 1.1) cumulative distribution over the shapes, with ranks
 * assigned by a deterministic shuffle so popularity is uncorrelated
 * with construction order (counts and groups both get hot entries).
 */
std::vector<double>
zipfCdf(std::size_t n, std::uint64_t seed,
        std::vector<std::size_t> &ranks)
{
    ranks.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        ranks[i] = i;
    Rng rng(seed);
    rng.shuffle(ranks);
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i)
        weights[ranks[i]] = 1.0 / std::pow(double(i + 1), 1.1);
    std::vector<double> cdf(n);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i)
        total += weights[i];
    double running = 0;
    for (std::size_t i = 0; i < n; ++i) {
        running += weights[i] / total;
        cdf[i] = running;
    }
    cdf[n - 1] = 1.0;
    return cdf;
}

std::size_t
sampleCdf(const std::vector<double> &cdf, Rng &rng)
{
    double u = rng.nextDouble();
    std::size_t lo = 0;
    std::size_t hi = cdf.size() - 1;
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (cdf[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/** Render the expected response for a request line in-process. */
std::string
expectedResponse(const Database &db, const std::string &line)
{
    auto parsed = parseJson(line);
    if (!parsed)
        return "<unparseable shape>";
    auto spec = QuerySpec::fromJson(parsed.value());
    if (!spec)
        return "<invalid shape: " + spec.error().message + ">";
    return spec.value().execute(db).dump();
}

/**
 * The correctness gate: every shape twice over one connection. The
 * first send renders (cache miss), the second is served from the
 * sharded LRU — both must equal the local rendering bit for bit.
 */
int
checkEquivalence(const Database &db, const std::string &host,
                 int port, const std::vector<std::string> &shapes)
{
    auto client = serve::Client::connect(host, port);
    if (!client) {
        std::fprintf(stderr, "equivalence: %s\n",
                     client.error().toString().c_str());
        return -1;
    }
    int mismatches = 0;
    for (const std::string &shape : shapes) {
        std::string expected = expectedResponse(db, shape);
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (!client.value().sendLine(shape)) {
                std::fprintf(stderr, "equivalence: send failed\n");
                return -1;
            }
            auto got = client.value().readLine();
            if (!got) {
                std::fprintf(stderr, "equivalence: %s\n",
                             got.error().toString().c_str());
                return -1;
            }
            if (got.value() != expected) {
                ++mismatches;
                std::fprintf(
                    stderr,
                    "MISMATCH (%s) on %s\n  expect %s\n  got    %s\n",
                    attempt == 0 ? "miss" : "hit", shape.c_str(),
                    expected.c_str(), got.value().c_str());
            }
        }
    }
    // The same shapes once more as one pipelined burst: responses
    // must come back complete and in order through the batched path.
    std::string burst;
    for (const std::string &shape : shapes)
        burst += shape + "\n";
    if (!client.value().sendText(burst)) {
        std::fprintf(stderr, "equivalence: burst send failed\n");
        return -1;
    }
    for (const std::string &shape : shapes) {
        auto got = client.value().readLine();
        if (!got || got.value() != expectedResponse(db, shape)) {
            ++mismatches;
            std::fprintf(stderr, "MISMATCH (pipelined) on %s\n",
                         shape.c_str());
        }
    }
    return mismatches;
}

struct StormConfig
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::size_t clients = 2;
    std::size_t queries = 400000;
    std::size_t window = 128;
    std::uint64_t seed = 0x5e27e5ULL;
};

/** One storm client: pipelined batches of Zipf-sampled requests. */
void
stormClient(const StormConfig &config,
            const std::vector<std::string> &shapes,
            const std::vector<double> &cdf, std::uint64_t seed,
            std::size_t requests, std::atomic<std::uint64_t> &sent,
            std::atomic<bool> &failed)
{
    auto client = serve::Client::connect(config.host, config.port);
    if (!client) {
        failed.store(true);
        return;
    }
    Rng rng(seed);
    std::string batch;
    std::size_t remaining = requests;
    while (remaining > 0) {
        std::size_t burst = std::min(config.window, remaining);
        batch.clear();
        for (std::size_t i = 0; i < burst; ++i) {
            batch += shapes[sampleCdf(cdf, rng)];
            batch += '\n';
        }
        if (!client.value().sendText(batch)) {
            failed.store(true);
            return;
        }
        for (std::size_t i = 0; i < burst; ++i) {
            auto line = client.value().readLine();
            if (!line || line.value().empty() ||
                line.value()[0] != '{') {
                failed.store(true);
                return;
            }
        }
        sent.fetch_add(burst, std::memory_order_relaxed);
        remaining -= burst;
    }
}

/**
 * The latency probe: a dedicated connection issuing one request at a
 * time, so each round trip is a true unloaded-queue RTT measured
 * under the storm's load.
 */
void
latencyProbe(const StormConfig &config,
             const std::vector<std::string> &shapes,
             const std::vector<double> &cdf,
             std::atomic<bool> &stopFlag,
             QuantileHistogram &latency)
{
    auto client = serve::Client::connect(config.host, config.port);
    if (!client)
        return;
    Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
    while (!stopFlag.load(std::memory_order_acquire)) {
        const std::string &shape = shapes[sampleCdf(cdf, rng)];
        auto begin = std::chrono::steady_clock::now();
        if (!client.value().sendLine(shape))
            return;
        if (!client.value().readLine())
            return;
        auto us = std::chrono::duration_cast<
                      std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - begin)
                      .count();
        latency.observe(static_cast<double>(us));
    }
}

/** Ask the daemon for its own counters via the stats op. */
JsonValue
fetchServerStats(const std::string &host, int port)
{
    auto client = serve::Client::connect(host, port);
    if (!client)
        return JsonValue();
    if (!client.value().sendLine("{\"op\":\"stats\"}"))
        return JsonValue();
    auto line = client.value().readLine();
    if (!line)
        return JsonValue();
    auto parsed = parseJson(line.value());
    return parsed ? parsed.value() : JsonValue();
}

/** A count from a stats op response (-1 when absent). */
double
statsCount(const JsonValue &stats, const char *group, const char *name)
{
    const JsonValue *node = &stats;
    if (group) {
        if (!stats.isObject() || !stats.contains(group))
            return -1.0;
        node = &stats.at(group);
    }
    return node->isObject() && node->contains(name)
               ? node->at(name).asNumber()
               : -1.0;
}

/**
 * The equivalence pass sends every shape three times over a fresh
 * daemon: the first send of a count/run/group line renders (one
 * miss), the repeat and the pipelined burst hit its entry, and a
 * provably-empty line is counted elided on all three. Pings count
 * no lookup. Prints each counter's rise and returns false when one
 * differs, so a daemon that re-renders hits, or whose hits skip the
 * elision count, fails the smoke test.
 */
bool
checkPassCounters(const JsonValue &before, const JsonValue &after,
                  const std::vector<std::string> &shapes)
{
    double cacheable = 0;
    double empty = 0;
    for (const std::string &shape : shapes) {
        auto spec = QuerySpec::fromJson(parseJson(shape).value());
        if (!spec || spec.value().op == QuerySpec::Op::Ping)
            continue;
        ++cacheable;
        if (spec.value().emptyReason())
            ++empty;
    }
    struct Expectation
    {
        const char *group;
        const char *name;
        double rise;
    };
    const Expectation expectations[] = {
        {"cache", "misses", cacheable},
        {"cache", "hits", 2 * cacheable},
        {nullptr, "elided", 3 * empty},
    };
    bool ok = true;
    for (const Expectation &expect : expectations) {
        double from = statsCount(before, expect.group, expect.name);
        double to = statsCount(after, expect.group, expect.name);
        bool held = from >= 0 && to - from == expect.rise;
        std::printf("pass counters: %s rose by %.0f (expected %.0f)%s\n",
                    expect.name, to - from, expect.rise,
                    held ? "" : " MISMATCH");
        ok = ok && held;
    }
    return ok;
}

int
runServe(bool smoke, int externalPort, std::size_t clientsArg,
         std::size_t queriesArg)
{
    const Database &database = db();
    StormConfig config;
    config.clients = clientsArg != 0 ? clientsArg : 2;
    config.queries = queriesArg != 0 ? queriesArg
                     : smoke         ? 20000
                                     : 400000;
    if (smoke && clientsArg == 0)
        config.clients = 1;

    // In-process server unless --port points at a running daemon.
    // Workers must cover every concurrent connection (storm clients
    // + probe + the sequential check connections), or a client would
    // wait in the accept queue forever.
    std::unique_ptr<serve::Server> server;
    if (externalPort > 0) {
        config.port = externalPort;
    } else {
        serve::ServeOptions options;
        options.workers = config.clients + 2;
        options.cacheCapacity = 1024;
        server =
            std::make_unique<serve::Server>(database, options);
        if (auto started = server->start(); !started) {
            std::fprintf(stderr, "serve: %s\n",
                         started.error().toString().c_str());
            return 1;
        }
        config.port = server->port();
    }

    std::vector<std::string> shapes = buildShapes();
    std::vector<std::size_t> ranks;
    std::vector<double> cdf =
        zipfCdf(shapes.size(), config.seed, ranks);

    std::printf("serve bench: %zu shapes, %zu clients, window %zu, "
                "%zu queries%s against 127.0.0.1:%d\n",
                shapes.size(), config.clients, config.window,
                config.queries, smoke ? " (smoke)" : "",
                config.port);

    JsonValue beforePass = fetchServerStats(config.host, config.port);
    int mismatches = checkEquivalence(database, config.host,
                                      config.port, shapes);
    if (mismatches < 0)
        return 1;
    bool equivalent = mismatches == 0;
    std::printf("equivalence: %s (%zu shapes, miss + hit + "
                "pipelined)\n",
                equivalent ? "OK, bit-identical" : "FAILED",
                shapes.size());
    bool countersHeld = checkPassCounters(
        beforePass, fetchServerStats(config.host, config.port), shapes);

    // The storm proper.
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> failed{false};
    std::atomic<bool> stopProbe{false};
    QuantileHistogram latency;
    std::size_t perClient = config.queries / config.clients;

    auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> storm;
    storm.reserve(config.clients);
    for (std::size_t i = 0; i < config.clients; ++i) {
        storm.emplace_back([&, i] {
            stormClient(config, shapes, cdf,
                        config.seed + 17 * (i + 1), perClient,
                        sent, failed);
        });
    }
    std::thread probe([&] {
        latencyProbe(config, shapes, cdf, stopProbe, latency);
    });
    for (std::thread &thread : storm)
        thread.join();
    double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - begin)
            .count();
    stopProbe.store(true, std::memory_order_release);
    probe.join();

    if (failed.load()) {
        std::fprintf(stderr, "storm client failed\n");
        return 1;
    }

    std::uint64_t total = sent.load();
    double qps = seconds > 0 ? double(total) / seconds : 0.0;
    std::printf("storm: %llu requests in %.2fs -> %.0f queries/s\n",
                static_cast<unsigned long long>(total), seconds,
                qps);
    std::printf("probe: %llu round trips, p50 %.0fus p95 %.0fus "
                "p99 %.0fus max %.0fus\n",
                static_cast<unsigned long long>(latency.count()),
                latency.quantile(0.5), latency.quantile(0.95),
                latency.quantile(0.99), latency.max());

    JsonValue serverStats =
        fetchServerStats(config.host, config.port);
    if (server)
        server->stop();

    // The equivalence pass sent each provably-empty shape three
    // times (miss, hit, pipelined); the daemon's elision counter
    // must have moved or the lint short-circuit is not wired in.
    double elided =
        serverStats.isObject() && serverStats.contains("elided")
            ? serverStats.at("elided").asNumber()
            : -1.0;
    std::printf("elided: %.0f provably-empty queries answered "
                "without touching the database\n", elided);

    JsonValue root = JsonValue::makeObject();
    root["schema"] = JsonValue("rememberr-bench-serve-v1");
    root["smoke"] = JsonValue(smoke);
    root["equivalent"] = JsonValue(equivalent);
    root["shapes"] = JsonValue(shapes.size());
    root["clients"] = JsonValue(config.clients);
    root["window"] = JsonValue(config.window);
    root["queries"] = JsonValue(static_cast<std::size_t>(total));
    root["seconds"] = JsonValue(seconds);
    root["qps"] = JsonValue(qps);
    root["elided"] = JsonValue(elided);
    JsonValue latencyJson = JsonValue::makeObject();
    latencyJson["p50"] = JsonValue(latency.quantile(0.5));
    latencyJson["p95"] = JsonValue(latency.quantile(0.95));
    latencyJson["p99"] = JsonValue(latency.quantile(0.99));
    latencyJson["max"] = JsonValue(latency.max());
    latencyJson["count"] = JsonValue(
        static_cast<std::size_t>(latency.count()));
    root["latency_us"] = std::move(latencyJson);
    if (serverStats.isObject() && serverStats.contains("cache")) {
        const JsonValue &cache = serverStats.at("cache");
        double hits = cache.at("hits").asNumber();
        double misses = cache.at("misses").asNumber();
        JsonValue cacheJson = JsonValue::makeObject();
        cacheJson["hits"] = JsonValue(hits);
        cacheJson["misses"] = JsonValue(misses);
        cacheJson["hit_rate"] = JsonValue(
            hits + misses > 0 ? hits / (hits + misses) : 0.0);
        root["cache"] = std::move(cacheJson);
    }
    auto written =
        atomicWriteFile("BENCH_serve.json",
                        root.dumpPretty() + "\n");
    if (!written)
        std::fprintf(stderr,
                     "cannot write BENCH_serve.json\n");
    else
        std::printf("[wrote BENCH_serve.json]\n");

    if (!equivalent) {
        std::fprintf(stderr,
                     "FAIL: daemon responses diverge from "
                     "in-process query execution\n");
        return 1;
    }
    if (elided <= 0) {
        std::fprintf(stderr,
                     "FAIL: provably-empty queries were not "
                     "elided (counter %.0f)\n", elided);
        return 1;
    }
    if (smoke && !countersHeld) {
        std::fprintf(stderr,
                     "FAIL: the equivalence pass did not move the "
                     "daemon's miss, hit and elided counters as "
                     "expected\n");
        return 1;
    }
    if (smoke)
        std::printf("smoke OK: daemon responses bit-identical over "
                    "cache miss, cache hit and pipelined paths\n");
    return 0;
}

} // namespace
} // namespace bench
} // namespace rememberr

int
main(int argc, char **argv)
{
    bool smoke = false;
    int port = 0;
    std::size_t clients = 0;
    std::size_t queries = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--port") == 0 &&
                 i + 1 < argc)
            port = std::atoi(argv[++i]);
        else if (std::strcmp(argv[i], "--clients") == 0 &&
                 i + 1 < argc)
            clients = static_cast<std::size_t>(
                std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--queries") == 0 &&
                 i + 1 < argc)
            queries = static_cast<std::size_t>(
                std::atoll(argv[++i]));
    }
    return rememberr::bench::runServe(smoke, port, clients,
                                      queries);
}
