/**
 * @file
 * Sharded LRU result cache for the query daemon.
 *
 * Keys are canonical query strings (see `QuerySpec::canonical()`),
 * values are fully rendered response lines shared as
 * `std::shared_ptr<const std::string>` so a hit hands out the bytes
 * without copying and an eviction never invalidates a response a
 * connection is still writing.
 *
 * Concurrency model: the key's hash picks one of a small fixed set
 * of shards; each shard is an independent mutex + LRU list + index,
 * so concurrent lookups for different queries almost never contend
 * and a shard critical section is a few pointer moves. Capacity is
 * enforced per shard, which keeps eviction local: every shard holds
 * capacity / shards entries and the first capacity % shards hold
 * one more, so the shards together hold exactly `capacity` (with
 * fewer entries than shards, one shard holds them all). A key can
 * only use its own shard's slots, so a skewed key set may evict
 * before the cache as a whole is full.
 */

#ifndef REMEMBERR_SERVE_CACHE_HH
#define REMEMBERR_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace rememberr {
namespace serve {

class ShardedLruCache
{
  public:
    using Value = std::shared_ptr<const std::string>;

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    /**
     * @param capacity total cached responses across shards;
     *        0 disables the cache (get always misses, put drops).
     * @param shards number of independent LRU shards.
     */
    explicit ShardedLruCache(std::size_t capacity,
                             std::size_t shards = 8);

    /** Lookup; bumps the entry to most-recently-used on hit. */
    Value get(const std::string &key);

    /** Insert or refresh; evicts the shard's LRU tail as needed. */
    void put(const std::string &key, Value value);

    /** Aggregate hit/miss/eviction counts over all shards. */
    Stats stats() const;

    /** Entries currently cached (sum over shards). */
    std::size_t size() const;

    std::size_t capacity() const { return capacity_; }
    bool enabled() const { return capacity_ > 0; }

  private:
    struct Entry
    {
        std::string key;
        Value value;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** Front = most recently used. */
        std::list<Entry> order;
        std::unordered_map<std::string, std::list<Entry>::iterator>
            index;
        /** Entries this shard holds before evicting. */
        std::size_t capacity = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Shard &shardFor(const std::string &key);

    std::size_t capacity_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace serve
} // namespace rememberr

#endif // REMEMBERR_SERVE_CACHE_HH
