/**
 * @file
 * The long-lived query daemon: `rememberr serve`.
 *
 * A `Server` listens on a TCP socket and answers the database query
 * operations over a line-delimited JSON protocol: every request is
 * one JSON object on one line, every response is one JSON object on
 * one line, in request order, so clients may pipeline freely.
 *
 * Protocol grammar (DESIGN.md §16):
 *
 *   request  := object "\n"
 *   object   := {"op": "ping" | "count" | "run" | "group" | "stats",
 *                <filter/parameter fields per QuerySpec>}
 *   response := {"ok": true, ...payload} "\n"
 *             | {"error": "...", "ok": false} "\n"
 *
 * Architecture: one shared immutable `Database` (typically
 * materialized from the mmap snapshot) flattened once into a
 * `ColumnBlock`, an accept thread feeding a bounded queue, and a
 * fixed pool of worker threads each owning one connection at a time
 * with per-connection scratch buffers — the read-mostly analogue of
 * `util/parallel`'s claim-by-atomic worker loop. A query compiles
 * into a `QueryPlan` that scans the block and renders its response
 * line directly. Responses to count/run/group lines are cached in a
 * sharded LRU keyed on the request line's bytes: a response is a
 * pure function of the line and the immutable database, so a
 * repeated line costs one hash lookup, before any JSON parsing.
 *
 * Shutdown is graceful: `stop()` (the CLI calls it on
 * SIGINT/SIGTERM) closes the listening socket, lets every worker
 * answer the requests already buffered on its connection, then
 * closes all connections and joins the threads.
 */

#ifndef REMEMBERR_SERVE_SERVER_HH
#define REMEMBERR_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "db/database.hh"
#include "db/query_plan.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/cache.hh"
#include "util/expected.hh"

namespace rememberr {
namespace serve {

/** Daemon configuration; instruments may be null. */
struct ServeOptions
{
    /** Bind address; the daemon is loopback-only by default. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see Server::port()). */
    int port = 0;
    /** Worker threads (0 = all hardware threads). */
    std::size_t workers = 0;
    /** Concurrent connections (active + queued) before rejecting. */
    std::size_t maxConnections = 64;
    /** Total cached responses across shards; 0 disables caching. */
    std::size_t cacheCapacity = 1024;
    /** Reject request lines longer than this (protocol abuse). */
    std::size_t maxLineBytes = 64 * 1024;
    MetricsRegistry *metrics = nullptr;
    TraceRecorder *trace = nullptr;
};

/** Aggregate daemon counters (also mirrored into `serve.*`). */
struct ServerStats
{
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    /** Queries answered from the static empty-result lint alone. */
    std::uint64_t elided = 0;
};

class Server
{
  public:
    /** The database must outlive the server. */
    Server(const Database &db, ServeOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen and spawn the accept/worker threads. */
    Expected<bool> start();

    /** The bound port (resolves port 0 after start()). */
    int port() const { return port_; }

    bool running() const
    {
        return started_ && !stop_.load(std::memory_order_acquire);
    }

    /**
     * Graceful shutdown: stop accepting, answer what is already
     * buffered, close every connection, join all threads.
     * Idempotent; also invoked by the destructor.
     */
    void stop();

    ServerStats stats() const;
    const ShardedLruCache &cache() const { return cache_; }

  private:
    void acceptLoop();
    void workerLoop();
    void handleConnection(int fd);

    /** Process one request line into one response line (no '\n'). */
    ShardedLruCache::Value handleLine(std::string_view line);
    /** Count one error reply in stats() and `serve.errors`. */
    void countError();
    /** Count one elided query in stats() and `serve.query.elided`. */
    void countElided();
    ShardedLruCache::Value statsResponse() const;

    bool sendAll(int fd, const char *data, std::size_t size);

    const Database &db_;
    /** db_'s columns, which every query plan runs over. */
    const ColumnBlock columns_;
    ServeOptions options_;
    ShardedLruCache cache_;

    int listenFd_ = -1;
    int port_ = 0;
    bool started_ = false;
    std::atomic<bool> stop_{false};

    std::thread acceptThread_;
    std::vector<std::thread> workers_;

    std::mutex queueMutex_;
    std::condition_variable queueReady_;
    std::deque<int> pending_;
    /** Connections accepted and not yet closed (active + queued). */
    std::atomic<std::size_t> openConnections_{0};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> bytesIn_{0};
    std::atomic<std::uint64_t> bytesOut_{0};
    std::atomic<std::uint64_t> elided_{0};
};

} // namespace serve
} // namespace rememberr

#endif // REMEMBERR_SERVE_SERVER_HH
