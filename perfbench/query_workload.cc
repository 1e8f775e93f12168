/**
 * @file
 * The `query-hot` and `query-cold` workloads: the query daemon
 * (`serve::Server`) answering over loopback TCP from the ground-truth
 * database loaded through its snapshot, as `rememberr serve
 * --snapshot` serves it.
 *
 * Both share one op mix: a Zipf(1.1) draw over the ~45 query shapes
 * of bench_serve. `query-hot` sends the shapes verbatim, so nearly
 * every request is a cache hit. `query-cold` keeps each drawn shape's
 * op and limit but gives it fresh filter values (a day-granularity
 * disclosure window, thresholds, vendor, workaround, status) from a
 * pool of 65536 requests, so nearly every request misses the
 * 1024-entry cache, executes, renders and evicts.
 *
 * The timed phase has three parts: snapshot cold starts, a
 * closed-loop saturation run (pipelined clients, giving the
 * throughput) and an open-loop run at a fixed offered rate (latency
 * timed from each request's due time). Every response is checked
 * against the first response to the same request, and after the
 * timed phase each distinct request's response is byte-compared with
 * in-process `QuerySpec::execute(db).dump()`.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include <sys/prctl.h>

#include "corpus/generator.hh"
#include "db/query_spec.hh"
#include "document/format.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "snap/view.hh"
#include "snap/writer.hh"
#include "util/date.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "workloads.hh"

namespace perfbench {

using namespace rememberr;

namespace {

constexpr std::size_t kCacheCapacity = 1024;
constexpr std::size_t kColdPool = 65536;
constexpr std::size_t kWindow = 128;
constexpr int kReadTimeoutMs = 10000;
/**
 * Closed-loop clients, each on its own connection, and as many daemon
 * workers, since a worker serves one connection at a time. One of
 * each, on the one CPU that pinDaemonAndClients chose.
 */
constexpr std::size_t kClients = 1;
/**
 * An open-loop run is invalid when its median request left more than
 * this long after its due time: the generator fell behind its
 * schedule. Sporadic late requests (the machine pausing the sender)
 * show in the reported lag instead.
 */
constexpr double kBehindUs = 1000;

/** Offered rate of the open-loop phase, per workload. */
double
offeredRate(Mix mix)
{
    return mix == Mix::Hot ? 20000 : 10000;
}

/** The query shapes of bench_serve: every cached op and filter. */
std::vector<std::string>
hotShapes()
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
                     "\"2016-01-01\",\"disclosed_to\":\"2019-12-31\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2020-01-01\",\"disclosed_to\":\"2023-12-31\"}");
    for (const char *axis : {"trigger", "context", "effect"}) {
        shapes.push_back(std::string("{\"op\":\"group\",\"by\":"
                                     "\"class\",\"axis\":\"") +
                         axis + "\"}");
        shapes.push_back(std::string("{\"op\":\"group\",\"by\":"
                                     "\"category\",\"axis\":\"") +
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
    // Provably-empty conjunctions, answered without the database.
    shapes.push_back("{\"op\":\"count\",\"exact_triggers\":1,"
                     "\"min_triggers\":4}");
    shapes.push_back("{\"op\":\"run\",\"limit\":5,\"disclosed_from\":"
                     "\"2022-01-01\",\"disclosed_to\":\"2020-12-31\"}");
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\","
                     "\"exact_triggers\":0,\"min_triggers\":2}");
    shapes.push_back("{\"op\":\"ping\"}");
    return shapes;
}

/**
 * Zipf(1.1) CDF with ranks assigned by a fixed shuffle (bench_serve's),
 * so popularity is uncorrelated with construction order and the op
 * mix is the same for every benchmark seed.
 */
std::vector<double>
zipfCdf(std::size_t n)
{
    const std::uint64_t seed = 0x5e27e5ULL;
    std::vector<std::size_t> ranks(n);
    for (std::size_t i = 0; i < n; ++i)
        ranks[i] = i;
    Rng rng(seed);
    rng.shuffle(ranks);
    std::vector<double> weights(n);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        weights[ranks[i]] = 1.0 / std::pow(double(i + 1), 1.1);
        total += 1.0 / std::pow(double(i + 1), 1.1);
    }
    std::vector<double> cdf(n);
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

/**
 * A cold request: the hot shape's op, limit and (for provably-empty
 * shapes) contradiction, with fresh filter values.
 */
std::string
coldVariant(const std::string &shape, Rng &rng)
{
    JsonValue request = parseJson(shape).value();
    if (request.at("op").asString() == "ping")
        return shape;
    const Date base(2008, 1, 1);
    std::int64_t from = rng.nextInRange(0, 16 * 365);
    std::int64_t length = rng.nextInRange(0, 5 * 365);
    bool inverted = request.contains("disclosed_from") &&
                    request.at("disclosed_from").asString() >
                        request.at("disclosed_to").asString();
    std::int64_t to = inverted ? from - 1 - length : from + length;
    request["disclosed_from"] =
        JsonValue(base.addDays(from).toString());
    request["disclosed_to"] = JsonValue(base.addDays(to).toString());
    auto maybeSet = [&](const char *key, double p, JsonValue value) {
        if (!request.contains(key) && rng.nextBool(p))
            request[key] = std::move(value);
    };
    if (!request.contains("exact_triggers"))
        maybeSet("min_triggers", 0.4,
                 JsonValue(std::size_t(rng.nextInRange(1, 3))));
    maybeSet("min_occurrences", 0.3,
             JsonValue(std::size_t(rng.nextInRange(1, 3))));
    maybeSet("vendor", 0.3,
             JsonValue(rng.nextBool() ? "intel" : "amd"));
    maybeSet("workaround", 0.3,
             JsonValue(strings::toLower(workaroundClassName(
                 static_cast<WorkaroundClass>(rng.nextBelow(6))))));
    maybeSet("status", 0.3,
             JsonValue(strings::toLower(
                 fixStatusName(static_cast<FixStatus>(rng.nextBelow(3))))));
    return request.dump();
}

/** The distinct requests of a workload and how they are drawn. */
struct RequestPool
{
    std::vector<std::string> requests;
    /** Hot: Zipf over the shapes. Cold: empty (uniform draw). */
    std::vector<double> cdf;

    std::size_t
    sample(Rng &rng) const
    {
        return cdf.empty() ? rng.nextBelow(requests.size())
                           : sampleCdf(cdf, rng);
    }
};

RequestPool
makePool(Mix mix, std::uint64_t seed)
{
    RequestPool pool;
    std::vector<std::string> shapes = hotShapes();
    std::vector<double> cdf = zipfCdf(shapes.size());
    if (mix == Mix::Hot) {
        pool.requests = std::move(shapes);
        pool.cdf = std::move(cdf);
        return pool;
    }
    Rng rng(seed ^ 0xc01dULL);
    pool.requests.reserve(kColdPool);
    for (std::size_t i = 0; i < kColdPool; ++i)
        pool.requests.push_back(
            coldVariant(shapes[sampleCdf(cdf, rng)], rng));
    return pool;
}

/**
 * Responses one client thread saw: the first response to every
 * request index, which every later response to it must equal.
 */
struct Ledger
{
    explicit Ledger(std::size_t poolSize) : first(poolSize) {}

    void
    record(std::size_t index, std::string &&line)
    {
        ++responses;
        if (line.rfind("{\"error\"", 0) == 0) {
            if (errors++ == 0)
                firstError = line;
        } else if (first[index].empty()) {
            first[index] = std::move(line);
        } else if (first[index] != line) {
            ++mismatches;
        }
    }

    std::vector<std::string> first;
    std::uint64_t sent = 0;
    std::uint64_t responses = 0;
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t timeouts = 0;
    std::string firstError;
};


/**
 * Closed loop: one connection per ledger, each pipelining windows of
 * requests and waiting for their responses.
 */
struct ClosedLoop
{
    double seconds = 0;
    double cpuSeconds = 0;
    std::uint64_t responses = 0;
};

ClosedLoop
closedLoop(int port, const RequestPool &pool, std::uint64_t seed,
           double seconds, std::vector<Ledger> &ledgers,
           std::vector<SpanRecorder> *spans)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    std::size_t clients = ledgers.size();
    std::uint64_t responsesBefore = 0;
    for (const Ledger &ledger : ledgers)
        responsesBefore += ledger.responses;
    if (spans)
        spans->resize(clients);
    double cpu0 = processCpuSeconds();
    double begin = wallSeconds();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            Ledger &ledger = ledgers[c];
            SpanRecorder *recorder = spans ? &(*spans)[c] : nullptr;
            auto client = serve::Client::connect("127.0.0.1", port);
            if (!client) {
                ++ledger.timeouts;
                return;
            }
            Rng rng(seed + 17 * (c + 1));
            std::vector<std::size_t> batch(kWindow);
            std::string text;
            while (!stop.load(std::memory_order_relaxed)) {
                text.clear();
                for (std::size_t &index : batch) {
                    index = pool.sample(rng);
                    text += pool.requests[index];
                    text += '\n';
                }
                {
                    Span span(recorder, "client.send");
                    if (!client.value().sendText(text)) {
                        ++ledger.timeouts;
                        return;
                    }
                }
                ledger.sent += batch.size();
                Span span(recorder, "client.receive");
                for (std::size_t index : batch) {
                    auto line = client.value().readLine(kReadTimeoutMs);
                    if (!line) {
                        ledger.timeouts += 1;
                        return;
                    }
                    ledger.record(index, std::move(line.value()));
                }
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread &thread : threads)
        thread.join();
    ClosedLoop out;
    out.seconds = wallSeconds() - begin;
    out.cpuSeconds = processCpuSeconds() - cpu0;
    for (const Ledger &ledger : ledgers)
        out.responses += ledger.responses;
    out.responses -= responsesBefore;
    return out;
}

/** Open loop: one connection, requests sent on a fixed schedule. */
struct OpenLoop
{
    Samples latencyUs;
    Samples lagUs;
};

OpenLoop
openLoop(int port, const RequestPool &pool, std::uint64_t seed,
         double rate, double seconds, Ledger &ledger)
{
    OpenLoop out;
    auto client = serve::Client::connect("127.0.0.1", port);
    if (!client) {
        ++ledger.timeouts;
        return out;
    }
    std::size_t n = static_cast<std::size_t>(rate * seconds);
    std::vector<std::size_t> indices(n);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t &index : indices)
        index = pool.sample(rng);
    std::vector<double> due(n);
    std::vector<double> lag(n, 0.0);
    std::atomic<std::size_t> sentCount{0};
    double start = wallSeconds() + 0.01;
    for (std::size_t i = 0; i < n; ++i)
        due[i] = start + double(i) / rate;

    // The sender and the receiver share the socket: the client's
    // send path touches only the descriptor, its read path only the
    // descriptor and its own buffer. The sender sleeps until just
    // before each due time (with the timer slack cut to 1 ns) and
    // spins the rest, yielding: the daemon's worker shares the
    // sender's CPU (pinDaemonAndClients), and a spin without yield
    // would hold it off for a whole time slice.
    std::thread sender([&] {
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
        for (std::size_t i = 0; i < n; ++i) {
            double now = wallSeconds();
            if (due[i] - now > 200e-6)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(due[i] - now -
                                                  100e-6));
            while ((now = wallSeconds()) < due[i])
                std::this_thread::yield();
            lag[i] = now - due[i];
            if (!client.value().sendLine(pool.requests[indices[i]]))
                break;
            sentCount.store(i + 1, std::memory_order_release);
        }
    });
    std::vector<double> received(n, 0.0);
    std::size_t got = 0;
    for (; got < n; ++got) {
        auto line = client.value().readLine(kReadTimeoutMs);
        if (!line) {
            ledger.timeouts += n - got;
            break;
        }
        received[got] = wallSeconds();
        ledger.record(indices[got], std::move(line.value()));
    }
    sender.join();
    ledger.sent += sentCount.load();
    for (std::size_t i = 0; i < got; ++i) {
        out.latencyUs.add((received[i] - due[i]) * 1e6);
        out.lagUs.add(lag[i] * 1e6);
    }
    return out;
}

/**
 * Fold the ledgers into the report and byte-compare each distinct
 * request's response with in-process execution (outside the timed
 * window).
 */
void
verifyLedgers(const Database &db, const RequestPool &pool,
              const std::vector<Ledger> &ledgers, Report &report)
{
    std::uint64_t sent = 0, errors = 0, mismatches = 0, timeouts = 0;
    for (const Ledger &ledger : ledgers) {
        sent += ledger.sent;
        errors += ledger.errors;
        mismatches += ledger.mismatches;
        timeouts += ledger.timeouts;
        if (!ledger.firstError.empty())
            std::printf("error response: %s\n",
                        ledger.firstError.c_str());
    }
    report.attempted(sent);
    if (errors)
        report.fail("error responses", errors);
    if (mismatches)
        report.fail("responses differing from an earlier response to "
                    "the same request",
                    mismatches);
    if (timeouts)
        report.fail("requests unanswered (timeout or disconnect)",
                    timeouts);

    std::size_t distinct = 0;
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
        std::string expected;
        for (const Ledger &ledger : ledgers) {
            if (ledger.first[i].empty())
                continue;
            if (expected.empty()) {
                ++distinct;
                auto spec =
                    QuerySpec::fromJson(parseJson(pool.requests[i])
                                            .value());
                expected = spec ? spec.value().execute(db).dump()
                                : std::string("<invalid request>");
            }
            if (ledger.first[i] != expected) {
                if (wrong++ == 0)
                    std::printf("MISMATCH on %s\n  expect %s\n  got "
                                "   %s\n",
                                pool.requests[i].c_str(),
                                expected.c_str(),
                                ledger.first[i].c_str());
            }
        }
    }
    std::printf("equivalence: %zu distinct requests byte-compared with "
                "in-process execution, %llu mismatch(es)\n",
                distinct, static_cast<unsigned long long>(wrong));
    if (wrong)
        report.fail("responses differing from in-process execution",
                    wrong);
}

/** The served database and the daemon in front of it. */
struct ServeSetup
{
    /** Heap-held: the daemon keeps a reference across moves. */
    std::unique_ptr<Database> db;
    std::uint64_t truthHash = 0;
    std::string snapshotPath;
    std::unique_ptr<serve::Server> server;
};

/**
 * Set-up of a query workload: build the ground-truth database from
 * the corpus (the database `rememberr snapshot` writes), write and
 * open its snapshot, materialize it and start the daemon on it.
 */
ServeSetup
setUp(const Options &options, std::size_t workers, Report &report)
{
    ServeSetup setup;
    GeneratorOptions generator;
    generator.seed = generatorSeed(options.seed);
    Corpus corpus = CorpusGenerator(generator).generate();
    for (ErrataDocument &document : corpus.documents) {
        auto reparsed = parseDocument(renderDocument(document));
        if (!reparsed) {
            report.fail("document failed to re-parse: " +
                        reparsed.error().toString());
            return setup;
        }
        reparsed.value().sourcePath = std::move(document.sourcePath);
        document = std::move(reparsed.value());
    }
    Database built = Database::buildFromGroundTruth(corpus);
    setup.snapshotPath =
        (std::filesystem::path(options.workdir) / "served.snap")
            .string();
    auto written = snap::writeSnapshotFile(setup.snapshotPath, built);
    if (!written) {
        report.fail("snapshot write: " + written.error().toString());
        return setup;
    }
    auto view = snap::SnapshotView::open(setup.snapshotPath);
    if (!view) {
        report.fail("snapshot open: " + view.error().toString());
        return setup;
    }
    setup.truthHash = view.value().contentHash();
    setup.db = std::make_unique<Database>(view.value().database());
    serve::ServeOptions serveOptions;
    serveOptions.workers = workers;
    serveOptions.cacheCapacity = kCacheCapacity;
    setup.server =
        std::make_unique<serve::Server>(*setup.db, serveOptions);
    if (auto started = setup.server->start(); !started) {
        report.fail("serve: " + started.error().toString());
        setup.server.reset();
    }
    return setup;
}

/** Send every hot request once so the cache starts warm. */
void
warmCache(int port, const RequestPool &pool, Mix mix, Ledger &ledger)
{
    if (mix != Mix::Hot)
        return;
    auto client = serve::Client::connect("127.0.0.1", port);
    if (!client) {
        ++ledger.timeouts;
        return;
    }
    for (std::size_t i = 0; i < pool.requests.size(); ++i) {
        ++ledger.sent;
        if (!client.value().sendLine(pool.requests[i])) {
            ++ledger.timeouts;
            return;
        }
        auto line = client.value().readLine(kReadTimeoutMs);
        if (!line) {
            ++ledger.timeouts;
            return;
        }
        ledger.record(i, std::move(line.value()));
    }
}

/** Cache and daemon counters over one stretch of traffic. */
struct ServeCounters
{
    serve::ShardedLruCache::Stats cache;
    serve::ServerStats server;

    static ServeCounters
    of(const serve::Server &server)
    {
        return ServeCounters{server.cache().stats(), server.stats()};
    }
};

/** Hit rate between two counter readings; checks the regime. */
double
checkRegime(const ServeCounters &before, const ServeCounters &after,
            Mix mix, Report &report)
{
    double hits = double(after.cache.hits - before.cache.hits);
    double misses = double(after.cache.misses - before.cache.misses);
    double rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    std::printf("cache: hit rate %.4f over %.0f lookups (%.0f hits, "
                "%.0f misses, %llu evictions)\n",
                rate, hits + misses, hits, misses,
                static_cast<unsigned long long>(
                    after.cache.evictions - before.cache.evictions));
    if (mix == Mix::Hot)
        report.check(rate >= 0.95, "query-hot cache hit rate >= 0.95");
    else
        report.check(rate <= 0.05,
                     "query-cold cache hit rate <= 0.05");
    return rate;
}

void
checkLag(const OpenLoop &open, Report &report)
{
    std::size_t late = 0;
    for (double lag : open.lagUs.values())
        late += lag > kBehindUs ? 1 : 0;
    std::printf("open loop: generator lag p50 %.1fus p99 %.1fus; %zu of "
                "%zu requests sent over %.0fus late\n",
                open.lagUs.median(), open.lagUs.quantile(0.99), late,
                open.lagUs.size(), kBehindUs);
    report.check(!open.lagUs.empty() &&
                     open.lagUs.median() <= kBehindUs,
                 "open-loop generator kept its schedule (median lag "
                 "<= 1 ms)");
}

/**
 * The cold generator must yield many times more distinct canonical
 * keys than the cache holds.
 */
void
checkColdKeys(const RequestPool &pool, Report &report)
{
    std::vector<std::string> keys;
    keys.reserve(pool.requests.size());
    for (const std::string &request : pool.requests) {
        auto spec = QuerySpec::fromJson(parseJson(request).value());
        if (!spec) {
            report.fail("cold generator made an invalid request " +
                        request + ": " + spec.error().message);
            return;
        }
        keys.push_back(spec.value().canonical());
    }
    std::sort(keys.begin(), keys.end());
    std::size_t distinct =
        std::unique(keys.begin(), keys.end()) - keys.begin();
    std::printf("cold generator: %zu distinct canonical keys in %zu "
                "requests (cache capacity %zu)\n",
                distinct, pool.requests.size(), kCacheCapacity);
    report.check(distinct >= 16 * kCacheCapacity,
                 "cold generator yields >= 16x the cache capacity in "
                 "distinct keys");
}

/**
 * Pin this thread, and so the daemon and the client threads it starts
 * later, to one CPU; then print the thread budget and check it. The
 * closed loop runs the server workers and one thread per client; the
 * open loop one worker, the sender thread and the receiving calling
 * thread.
 *
 * On one CPU a request hands over between threads without waking an
 * idle CPU. On a shared virtual machine such a wake-up costs from a
 * few to tens of microseconds depending on the host's load, which
 * would swamp a hot request's round trip; pinned, both throughput and
 * latency measure the request path's own work.
 */
void
pinDaemonAndClients(Report &report)
{
    int cpu = pinToOneCpu();
    if (cpu >= 0)
        std::printf("daemon and clients pinned to CPU %d\n", cpu);
    else
        std::printf("warning: cannot pin to one CPU; round trips "
                    "include cross-CPU wake-ups\n");
    std::size_t closed = 2 * kClients;
    std::size_t open = 1 + 2;
    std::printf("thread budget: closed loop %zu daemon worker(s) + %zu "
                "client thread(s), open loop 1 worker + sender + "
                "receiver; %zu hardware threads\n",
                kClients, kClients, threadBudget());
    report.check(std::max(closed, open) <= threadBudget(),
                 "daemon workers + generator threads within the "
                 "thread budget");
}

} // namespace

void
runQuery(const Options &options, Mix mix, Report &report)
{
    pinDaemonAndClients(report);

    RequestPool pool = makePool(mix, options.seed);
    if (mix == Mix::Cold)
        checkColdKeys(pool, report);

    // Set-up, five times; the last daemon serves the run.
    Samples setupTimes;
    ServeSetup setup;
    for (int i = 0; i < 5; ++i) {
        setup.server.reset(); // stop it before its database goes
        double begin = wallSeconds();
        setup = setUp(options, kClients, report);
        setupTimes.add(wallSeconds() - begin);
        if (!setup.server)
            return;
    }
    report.metric("setup_s", setupTimes.median(), "s",
                  setupTimes.size());
    std::printf("snapshot: ground truth %s\n",
                hex64(setup.truthHash).c_str());
    if (options.seed == 0)
        report.check(setup.truthHash == 0xd01351645546c791ULL,
                     "default seed serves the pinned ground-truth "
                     "snapshot d01351645546c791");

    // Timed phase: rounds of cold starts, a closed-loop slice and an
    // open-loop slice, so a slow stretch of the machine hits every
    // figure alike; each figure is the median over the rounds.
    int port = setup.server->port();
    std::size_t poolSize = pool.requests.size();
    std::vector<Ledger> closedLedgers(kClients,
                                      Ledger(poolSize));
    Ledger openLedger(poolSize);
    Ledger warmLedger(poolSize);
    warmCache(port, pool, mix, warmLedger);
    ServeCounters before = ServeCounters::of(*setup.server);
    int rounds = std::max(3, static_cast<int>(options.seconds));
    double slice = options.seconds / rounds;
    Samples coldStart, qps, cpuPerOp, p50, p99;
    OpenLoop open;
    std::uint64_t responses = 0;
    for (int round = 0; round < rounds; ++round) {
        coldStart.append(measureColdStart(setup.snapshotPath, *setup.db,
                                          0.1 * slice, nullptr, report));
        ClosedLoop closed =
            closedLoop(port, pool, options.seed * 1000 + round,
                       0.45 * slice, closedLedgers, nullptr);
        responses += closed.responses;
        qps.add(double(closed.responses) / closed.seconds);
        cpuPerOp.add(closed.cpuSeconds / double(closed.responses));
        OpenLoop slicePart =
            openLoop(port, pool, options.seed * 1000 + round,
                     offeredRate(mix), 0.45 * slice, openLedger);
        p50.add(slicePart.latencyUs.median());
        p99.add(slicePart.latencyUs.quantile(0.99));
        open.latencyUs.append(slicePart.latencyUs);
        open.lagUs.append(slicePart.lagUs);
    }
    ServeCounters after = ServeCounters::of(*setup.server);
    setup.server->stop();

    std::printf("closed loop: %zu clients x window %zu, %llu "
                "responses over %d rounds\n",
                kClients, kWindow,
                static_cast<unsigned long long>(responses), rounds);
    std::printf("open loop: offered %.0f req/s, %zu requests over %d "
                "rounds\n",
                offeredRate(mix), open.latencyUs.size(), rounds);
    checkRegime(before, after, mix, report);
    checkLag(open, report);
    closedLedgers.push_back(std::move(openLedger));
    closedLedgers.push_back(std::move(warmLedger));
    verifyLedgers(*setup.db, pool, closedLedgers, report);

    report.info("qps", qps.median(), "1/s", qps.size());
    report.info("rtt_p50_us", p50.median(), "us", p50.size());
    report.info("rtt_p99_us", p99.median(), "us", p99.size());
    report.info("rtt_p99_pooled_us", open.latencyUs.quantile(0.99),
                "us", open.latencyUs.size());
    report.metric("op_p50_ms", p50.median() / 1e3, "ms", p50.size());
    report.metric("throughput_per_s", qps.median(), "1/s", qps.size());
    report.metric("cpu_ms_per_op", cpuPerOp.median() * 1e3, "ms",
                  cpuPerOp.size());
    report.metric("cold_start_ms", coldStart.median() * 1e3, "ms",
                  coldStart.size());
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
    std::filesystem::remove(setup.snapshotPath);
}

void
traceQueryLayers(const Options &options, const Database &db, Mix mix,
                 double seconds, Report &report)
{
    RequestPool pool = makePool(mix, options.seed);
    pinDaemonAndClients(report);

    // 1. In-process replay through the calls the daemon makes for
    // each request line (Server::handleLine), one span per call.
    SpanRecorder spans;
    serve::ShardedLruCache cache(kCacheCapacity);
    Rng rng(options.seed + 17);
    double until = wallSeconds() + 0.4 * seconds;
    std::size_t replayed = 0;
    std::uint64_t replayErrors = 0;
    for (; replayed < 50000 && wallSeconds() < until; ++replayed) {
        const std::string &line = pool.requests[pool.sample(rng)];
        Span request(&spans, "request");
        Expected<JsonValue> parsed = makeError("unparsed");
        {
            Span span(&spans, "util.json_parse");
            parsed = parseJson(line);
        }
        if (!parsed) {
            ++replayErrors;
            continue;
        }
        Expected<QuerySpec> spec = makeError("unparsed");
        std::optional<std::string> emptyReason;
        std::string key;
        {
            Span span(&spans, "db.spec");
            spec = QuerySpec::fromJson(parsed.value());
            if (spec && spec.value().op != QuerySpec::Op::Ping) {
                emptyReason = spec.value().emptyReason();
                key = spec.value().canonical();
            }
        }
        if (!spec) {
            ++replayErrors;
            continue;
        }
        if (spec.value().op == QuerySpec::Op::Ping) {
            Span span(&spans, "serve.ping");
            std::string response = spec.value().execute(db).dump();
            continue;
        }
        serve::ShardedLruCache::Value hit;
        {
            Span span(&spans, "serve.cache");
            hit = cache.get(key);
        }
        if (hit)
            continue;
        JsonValue result;
        {
            Span span(&spans, "db.execute");
            result = emptyReason ? spec.value().executeEmpty()
                                 : spec.value().execute(db);
        }
        std::shared_ptr<const std::string> response;
        {
            Span span(&spans, "util.json_render");
            response =
                std::make_shared<const std::string>(result.dump());
        }
        Span span(&spans, "serve.cache");
        cache.put(key, std::move(response));
    }
    report.attempted(replayed);
    if (replayErrors)
        report.fail("in-process replay rejected requests",
                    replayErrors);

    auto us = [&](const char *metric, Samples samples) {
        report.metric(metric, samples.median() * 1e6, "us",
                      samples.size());
    };
    us("util.json_parse_us", spans.durations("util.json_parse"));
    us("db.spec_us", spans.durations("db.spec"));
    us("serve.cache_us", spans.childSums("request", "serve.cache"));
    us("db.execute_us", spans.durations("db.execute"));
    us("util.json_render_us", spans.durations("util.json_render"));
    Samples handling = spans.durations("request");
    report.info("request.handling_us", handling.median() * 1e6, "us",
                handling.size());
    report.metric("trace.request_unexplained_share",
                  spans.selfShare("request"), "ratio",
                  handling.size());

    // 2. The daemon over the socket: untraced and traced closed loops
    // (the tracing overhead on throughput), then the open loop for the
    // round trip that the transport share is derived from.
    serve::ServeOptions serveOptions;
    serveOptions.workers = kClients;
    serveOptions.cacheCapacity = kCacheCapacity;
    serve::Server server(db, serveOptions);
    if (auto started = server.start(); !started) {
        report.fail("serve: " + started.error().toString());
        return;
    }
    std::size_t poolSize = pool.requests.size();
    std::vector<Ledger> ledgers(kClients, Ledger(poolSize));
    Ledger openLedger(poolSize);
    Ledger warmLedger(poolSize);
    warmCache(server.port(), pool, mix, warmLedger);
    ServeCounters before = ServeCounters::of(server);
    // Untraced and traced closed-loop slices in ABBAABBA order after
    // an untimed warm-up slice, so neither side gets the first-slice
    // costs or a slow stretch of the machine alone.
    double phase = std::max(0.3, 0.18 * seconds);
    closedLoop(server.port(), pool, options.seed, 0.2 * phase, ledgers,
               nullptr);
    // A span around each window's send and receive: the tracing whose
    // cost trace.qps_overhead_share measures.
    std::vector<SpanRecorder> clientSpans;
    Samples plainQps, tracedQps;
    std::uint64_t tracedResponses = 0;
    for (int slice = 0; slice < 8; ++slice) {
        bool tracedSlice = slice % 4 == 1 || slice % 4 == 2;
        ClosedLoop part = closedLoop(
            server.port(), pool, options.seed + 1 + slice, phase / 4,
            ledgers, tracedSlice ? &clientSpans : nullptr);
        (tracedSlice ? tracedQps : plainQps)
            .add(double(part.responses) / part.seconds);
        if (tracedSlice)
            tracedResponses += part.responses;
    }
    OpenLoop open = openLoop(server.port(), pool, options.seed,
                             offeredRate(mix), phase, openLedger);
    ledgers.push_back(std::move(openLedger));
    ledgers.push_back(std::move(warmLedger));
    ServeCounters after = ServeCounters::of(server);
    server.stop();
    double hitRate = checkRegime(before, after, mix, report);
    checkLag(open, report);
    verifyLedgers(db, pool, ledgers, report);

    double rtt = open.latencyUs.median();
    report.info("rtt_p50_us", rtt, "us", open.latencyUs.size());
    report.metric("serve.transport_us", rtt - handling.median() * 1e6,
                  "us", open.latencyUs.size());
    double lookups = double(after.cache.hits - before.cache.hits +
                            after.cache.misses - before.cache.misses);
    report.metric("serve.cache_hit_rate", hitRate, "ratio",
                  static_cast<std::size_t>(lookups));
    report.metric("serve.cache_evictions",
                  double(after.cache.evictions - before.cache.evictions),
                  "count", static_cast<std::size_t>(lookups));
    double requests =
        double(after.server.requests - before.server.requests);
    report.metric("serve.elided_ratio",
                  requests > 0 ? double(after.server.elided -
                                        before.server.elided) /
                                     requests
                               : 0.0,
                  "ratio", static_cast<std::size_t>(requests));
    report.metric("loadgen.lag_us", open.lagUs.quantile(0.99), "us",
                  open.lagUs.size());
    double qpsPlain = plainQps.median();
    double qpsTraced = tracedQps.median();
    report.info("trace.qps_traced_minus_untraced",
                qpsTraced - qpsPlain, "1/s", tracedQps.size());
    report.metric("trace.qps_overhead_share",
                  (qpsPlain - qpsTraced) / qpsPlain, "ratio",
                  tracedResponses);
}

} // namespace perfbench
