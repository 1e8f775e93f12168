/**
 * @file
 * Sharded LRU result cache for the query daemon.
 *
 * Keys are request lines, byte for byte (the daemon strips only the
 * line terminator), values are fully rendered response lines shared
 * as `std::shared_ptr<const std::string>` so a hit hands out the
 * bytes without copying and an eviction never invalidates a
 * response a connection is still writing. Each entry also keeps an
 * `elided` flag (the query was answered from the empty-result lint
 * alone), so a hit can be counted like the render it replaces.
 *
 * Lookups take a `std::string_view`: the index is keyed on views of
 * the keys its entries own, so a hit neither copies the key nor
 * allocates.
 *
 * Counting: `get` counts a hit and `put` counts a miss, so `stats()`
 * holds one hit or one miss per cached response handed out. A probe
 * for a key that is never put (a daemon line that turns out to be a
 * ping, a stats request or an error) counts nothing.
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
#include <string_view>
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

    /**
     * Lookup; on a hit, bumps the entry to most-recently-used,
     * counts the hit and stores the entry's flag through `elided`
     * when given. A miss counts nothing (see `put`).
     */
    Value get(std::string_view key, bool *elided = nullptr);

    /**
     * Insert or refresh the response rendered after a missed `get`,
     * counting that miss; evicts the shard's LRU tail as needed.
     */
    void put(std::string_view key, Value value, bool elided = false);

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
        bool elided = false;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        /** Front = most recently used. */
        std::list<Entry> order;
        /** Views of the keys `order` owns; list nodes never move. */
        std::unordered_map<std::string_view, std::list<Entry>::iterator>
            index;
        /** Entries this shard holds before evicting. */
        std::size_t capacity = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Shard &shardFor(std::string_view key);

    std::size_t capacity_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace serve
} // namespace rememberr

#endif // REMEMBERR_SERVE_CACHE_HH
