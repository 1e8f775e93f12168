#include "cache.hh"

namespace rememberr {
namespace serve {

ShardedLruCache::ShardedLruCache(std::size_t capacity,
                                 std::size_t shards)
    : capacity_(capacity)
{
    if (shards == 0)
        shards = 1;
    if (capacity_ == 0)
        return;
    // Fewer entries than shards: one shard, so no key maps to a
    // shard without slots.
    if (capacity_ < shards)
        shards = 1;
    shards_.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        shards_.push_back(std::make_unique<Shard>());
        shards_.back()->capacity =
            capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
    }
}

ShardedLruCache::Shard &
ShardedLruCache::shardFor(std::string_view key)
{
    return *shards_[std::hash<std::string_view>{}(key) %
                    shards_.size()];
}

ShardedLruCache::Value
ShardedLruCache::get(std::string_view key, bool *elided)
{
    if (!enabled())
        return nullptr;
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it == shard.index.end())
        return nullptr;
    ++shard.hits;
    // Bump to most-recently-used; splice relinks in place, so the
    // index iterator and its key view stay valid.
    shard.order.splice(shard.order.begin(), shard.order,
                       it->second);
    if (elided)
        *elided = it->second->elided;
    return it->second->value;
}

void
ShardedLruCache::put(std::string_view key, Value value, bool elided)
{
    if (!enabled())
        return;
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.misses;
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->value = std::move(value);
        it->second->elided = elided;
        shard.order.splice(shard.order.begin(), shard.order,
                           it->second);
        return;
    }
    shard.order.push_front(Entry{std::string(key), std::move(value),
                                 elided});
    shard.index.emplace(shard.order.front().key, shard.order.begin());
    while (shard.order.size() > shard.capacity) {
        shard.index.erase(shard.order.back().key);
        shard.order.pop_back();
        ++shard.evictions;
    }
}

ShardedLruCache::Stats
ShardedLruCache::stats() const
{
    Stats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.hits += shard->hits;
        total.misses += shard->misses;
        total.evictions += shard->evictions;
    }
    return total;
}

std::size_t
ShardedLruCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->order.size();
    }
    return total;
}

} // namespace serve
} // namespace rememberr
