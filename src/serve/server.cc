#include "server.hh"

#include <chrono>

#include "db/query_plan.hh"
#include "util/json.hh"
#include "util/parallel.hh"

#if defined(__unix__) || defined(__APPLE__)
#define REMEMBERR_SERVE_POSIX 1
#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif
#endif

namespace rememberr {
namespace serve {

namespace {

/** Render a protocol error line (no trailing newline). */
std::string
errorLine(const std::string &message)
{
    JsonValue response = JsonValue::makeObject();
    response["ok"] = JsonValue(false);
    response["error"] = JsonValue(message);
    return response.dump();
}

} // namespace

Server::Server(const Database &db, ServeOptions options)
    : db_(db), columns_(db), options_(std::move(options)),
      cache_(options_.cacheCapacity)
{
}

Server::~Server()
{
    stop();
}

Expected<bool>
Server::start()
{
#ifndef REMEMBERR_SERVE_POSIX
    return makeError("serve requires POSIX sockets");
#else
    if (started_)
        return makeError("server already started");
    if (options_.port < 0 || options_.port > 65535)
        return makeError("port must be in [0, 65535]");
    if (options_.maxConnections == 0)
        return makeError("max connections must be at least 1");

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return makeError("cannot create socket");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.host.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(listenFd_);
        listenFd_ = -1;
        return makeError("bad bind address '" + options_.host +
                         "'");
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return makeError("cannot bind " + options_.host + ":" +
                         std::to_string(options_.port));
    }
    if (::listen(listenFd_, 128) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return makeError("cannot listen on port " +
                         std::to_string(options_.port));
    }
    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    if (::getsockname(listenFd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) == 0)
        port_ = static_cast<int>(ntohs(bound.sin_port));

    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    std::size_t workers = resolveThreadCount(options_.workers);
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    return true;
#endif
}

void
Server::stop()
{
#ifdef REMEMBERR_SERVE_POSIX
    if (!started_)
        return;
    stop_.store(true, std::memory_order_release);
    queueReady_.notify_all();
    if (acceptThread_.joinable())
        acceptThread_.join();
    for (std::thread &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Workers drain the queue on shutdown; this is a backstop for
    // connections accepted after the last worker exited.
    std::lock_guard<std::mutex> lock(queueMutex_);
    for (int fd : pending_)
        ::close(fd);
    pending_.clear();
#endif
}

ServerStats
Server::stats() const
{
    ServerStats out;
    out.requests = requests_.load(std::memory_order_relaxed);
    out.errors = errors_.load(std::memory_order_relaxed);
    out.accepted = accepted_.load(std::memory_order_relaxed);
    out.rejected = rejected_.load(std::memory_order_relaxed);
    out.bytesIn = bytesIn_.load(std::memory_order_relaxed);
    out.bytesOut = bytesOut_.load(std::memory_order_relaxed);
    out.elided = elided_.load(std::memory_order_relaxed);
    return out;
}

#ifdef REMEMBERR_SERVE_POSIX

void
Server::acceptLoop()
{
    const std::string busy =
        errorLine("server busy: connection limit reached") + "\n";
    for (;;) {
        pollfd waiter{listenFd_, POLLIN, 0};
        int ready = ::poll(&waiter, 1, 100);
        if (stop_.load(std::memory_order_acquire))
            break;
        if (ready <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Request/response lines are tiny; Nagle+delayed-ACK would
        // dominate per-request latency without this.
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        accepted_.fetch_add(1, std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->counter("serve.connections").add();
        if (openConnections_.load(std::memory_order_relaxed) >=
            options_.maxConnections) {
            // Count before replying: a client that has read the busy
            // line must find it in stats().
            rejected_.fetch_add(1, std::memory_order_relaxed);
            if (options_.metrics)
                options_.metrics->counter("serve.rejected").add();
            sendAll(fd, busy.data(), busy.size());
            ::close(fd);
            continue;
        }
        openConnections_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            pending_.push_back(fd);
        }
        queueReady_.notify_one();
    }
}

void
Server::workerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueReady_.wait(lock, [this] {
                return stop_.load(std::memory_order_acquire) ||
                       !pending_.empty();
            });
            if (pending_.empty()) {
                // stop_ is set and nothing is queued.
                return;
            }
            fd = pending_.front();
            pending_.pop_front();
        }
        // On shutdown this still answers whatever the connection
        // already sent (handleConnection's drain pass), so queued
        // connections are drained, not dropped.
        handleConnection(fd);
    }
}

void
Server::handleConnection(int fd)
{
    // Per-connection scratch, reused across requests: no allocation
    // churn on the pipelined fast path.
    std::string inbuf;
    std::string outbuf;
    char chunk[16384];
    bool alive = true;

    // Consume every complete line in `inbuf`, appending one response
    // line each to `outbuf`, and flush in one write (pipelining).
    auto processBuffered = [&]() -> bool {
        std::size_t start = 0;
        outbuf.clear();
        for (;;) {
            std::size_t newline = inbuf.find('\n', start);
            if (newline == std::string::npos)
                break;
            // A view into inbuf, which is not touched until every
            // buffered line is answered.
            std::string_view line(inbuf.data() + start,
                                  newline - start);
            start = newline + 1;
            if (!line.empty() && line.back() == '\r')
                line.remove_suffix(1);
            if (line.empty())
                continue;
            if (line.size() > options_.maxLineBytes) {
                countError();
                outbuf += errorLine("request line exceeds " +
                                    std::to_string(
                                        options_.maxLineBytes) +
                                    " bytes");
                outbuf += '\n';
                continue;
            }
            ShardedLruCache::Value response = handleLine(line);
            outbuf += *response;
            outbuf += '\n';
        }
        inbuf.erase(0, start);
        if (!outbuf.empty()) {
            if (!sendAll(fd, outbuf.data(), outbuf.size()))
                return false;
            bytesOut_.fetch_add(outbuf.size(),
                                std::memory_order_relaxed);
            if (options_.metrics)
                options_.metrics->counter("serve.bytes_out")
                    .add(outbuf.size());
        }
        if (inbuf.size() > options_.maxLineBytes) {
            // An unterminated line has outgrown the limit: answer
            // once, then drop the connection (the stream can never
            // resynchronize).
            countError();
            std::string refusal =
                errorLine("request line exceeds " +
                          std::to_string(options_.maxLineBytes) +
                          " bytes") +
                "\n";
            sendAll(fd, refusal.data(), refusal.size());
            return false;
        }
        return true;
    };

    while (alive) {
        if (!processBuffered())
            break;
        if (stop_.load(std::memory_order_acquire)) {
            // Graceful drain: answer the bytes the kernel already
            // has, then close.
            ssize_t got;
            while ((got = ::recv(fd, chunk, sizeof(chunk),
                                 MSG_DONTWAIT)) > 0) {
                inbuf.append(chunk, static_cast<std::size_t>(got));
                bytesIn_.fetch_add(static_cast<std::size_t>(got),
                                   std::memory_order_relaxed);
            }
            processBuffered();
            break;
        }
        pollfd waiter{fd, POLLIN, 0};
        int ready = ::poll(&waiter, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;
        ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got == 0)
            break; // client closed
        if (got < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        inbuf.append(chunk, static_cast<std::size_t>(got));
        bytesIn_.fetch_add(static_cast<std::size_t>(got),
                           std::memory_order_relaxed);
        if (options_.metrics)
            options_.metrics->counter("serve.bytes_in")
                .add(static_cast<std::uint64_t>(got));
    }
    ::close(fd);
    openConnections_.fetch_sub(1, std::memory_order_relaxed);
}

bool
Server::sendAll(int fd, const char *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        ssize_t wrote = ::send(fd, data + sent, size - sent,
                               MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(wrote);
    }
    return true;
}

#else // !REMEMBERR_SERVE_POSIX

void
Server::acceptLoop()
{
}
void
Server::workerLoop()
{
}
void
Server::handleConnection(int)
{
}
bool
Server::sendAll(int, const char *, std::size_t)
{
    return false;
}

#endif

void
Server::countError()
{
    errors_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics)
        options_.metrics->counter("serve.errors").add();
}

void
Server::countElided()
{
    elided_.fetch_add(1, std::memory_order_relaxed);
    if (options_.metrics)
        options_.metrics->counter("serve.query.elided").add();
}

ShardedLruCache::Value
Server::handleLine(std::string_view line)
{
    MetricsRegistry *metrics = options_.metrics;
    std::chrono::steady_clock::time_point begin;
    if (metrics)
        begin = std::chrono::steady_clock::now();
    ScopedSpan span(options_.trace, "serve.request");
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (metrics)
        metrics->counter("serve.requests").add();

    auto finish = [&](ShardedLruCache::Value response,
                      bool failed =
                          false) -> ShardedLruCache::Value {
        if (failed)
            countError();
        if (metrics) {
            auto elapsed =
                std::chrono::duration_cast<
                    std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
            metrics->quantile("serve.request_us")
                .observe(static_cast<double>(elapsed));
        }
        return response;
    };
    auto fail = [&](const std::string &message) {
        return finish(std::make_shared<const std::string>(
                          errorLine(message)),
                      true);
    };

    // A response is a pure function of the line's bytes (the
    // database is immutable), so a repeated line is answered before
    // it is parsed. Only count/run/group responses are ever cached.
    bool elided = false;
    if (ShardedLruCache::Value hit = cache_.get(line, &elided)) {
        if (elided)
            countElided();
        if (metrics)
            metrics->counter("serve.cache.hit").add();
        return finish(std::move(hit));
    }

    auto parsed = parseJson(std::string(line));
    if (!parsed)
        return fail("parse: " + parsed.error().message);
    const JsonValue &request = parsed.value();
    if (request.isObject() && request.contains("op") &&
        request.at("op").isString() &&
        request.at("op").asString() == "stats") {
        return finish(statsResponse());
    }

    auto spec = QuerySpec::fromJson(request);
    if (!spec)
        return fail(spec.error().message);

    const QuerySpec &query = spec.value();
    auto render = [&](std::string_view canonical) {
        std::string response;
        QueryPlan(query).render(columns_, canonical, response);
        return std::make_shared<const std::string>(
            std::move(response));
    };
    if (query.op == QuerySpec::Op::Ping)
        return finish(render({}));

    // Provably-empty filter conjunctions never touch the database:
    // the static lint proves the result set empty on *any* database,
    // and the plan renders the empty response without a scan.
    elided = query.emptyReason().has_value();
    if (elided)
        countElided();
    if (metrics && cache_.enabled())
        metrics->counter("serve.cache.miss").add();
    ShardedLruCache::Value response = render(query.canonical());
    cache_.put(line, response, elided);
    return finish(std::move(response));
}

ShardedLruCache::Value
Server::statsResponse() const
{
    ServerStats counts = stats();
    ShardedLruCache::Stats cacheStats = cache_.stats();
    JsonValue response = JsonValue::makeObject();
    response["ok"] = JsonValue(true);
    response["op"] = JsonValue("stats");
    response["entries"] = JsonValue(db_.entries().size());
    response["documents"] = JsonValue(db_.documentCount());
    response["requests"] =
        JsonValue(static_cast<std::size_t>(counts.requests));
    response["errors"] =
        JsonValue(static_cast<std::size_t>(counts.errors));
    response["rejected"] =
        JsonValue(static_cast<std::size_t>(counts.rejected));
    response["elided"] =
        JsonValue(static_cast<std::size_t>(counts.elided));
    JsonValue cacheJson = JsonValue::makeObject();
    cacheJson["capacity"] = JsonValue(cache_.capacity());
    cacheJson["size"] = JsonValue(cache_.size());
    cacheJson["hits"] =
        JsonValue(static_cast<std::size_t>(cacheStats.hits));
    cacheJson["misses"] =
        JsonValue(static_cast<std::size_t>(cacheStats.misses));
    cacheJson["evictions"] =
        JsonValue(static_cast<std::size_t>(cacheStats.evictions));
    response["cache"] = std::move(cacheJson);
    return std::make_shared<const std::string>(response.dump());
}

} // namespace serve
} // namespace rememberr
