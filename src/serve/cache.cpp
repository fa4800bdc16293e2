#include "serve/cache.hpp"

#include <algorithm>
#include <utility>

#include "serve/reqtrace.hpp"
#include "util/check.hpp"
#include "util/prof.hpp"

namespace capsp {

TileCache::TileCache(std::int64_t byte_budget)
    : shard_budget_(std::max<std::int64_t>(byte_budget / kShards, 1)),
      shards_(kShards) {
  CAPSP_CHECK_MSG(byte_budget > 0,
                  "cache byte_budget must be > 0, got " << byte_budget);
}

std::shared_ptr<const DistBlock> TileCache::get(std::int64_t tile_id,
                                                RequestTrace* trace) {
  // Opened pessimistically as a miss; renamed once the lookup lands.
  ProfScope prof("serve.cache.get");
  ScopedSpan span(trace, "tile.cache_miss");
  span.detail("tile", tile_id);
  Shard& shard = shard_for(tile_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(tile_id);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  span.rename("tile.cache_hit");
  return it->second->tile;
}

std::shared_ptr<const DistBlock> TileCache::put(std::int64_t tile_id,
                                                DistBlock tile) {
  ProfScope prof("serve.cache.put");
  Entry entry;
  entry.id = tile_id;
  entry.bytes = tile.size() * static_cast<std::int64_t>(sizeof(Dist)) +
                kEntryOverheadBytes;
  entry.tile = std::make_shared<const DistBlock>(std::move(tile));
  std::shared_ptr<const DistBlock> cached = entry.tile;

  Shard& shard = shard_for(tile_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (auto it = shard.index.find(tile_id); it != shard.index.end()) {
    // Concurrent loaders may race the same miss; keep the incumbent so
    // every earlier get() result stays the canonical tile.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->tile;
  }
  shard.lru.push_front(std::move(entry));
  shard.index[tile_id] = shard.lru.begin();
  shard.bytes += shard.lru.front().bytes;
  // An over-budget tile is admitted alone (the alternative — refusing to
  // cache it — would reload it on every touch).
  while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.index.erase(victim.id);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  return cached;
}

TileCache::Stats& TileCache::Stats::operator+=(const Stats& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  bytes += other.bytes;
  entries += other.entries;
  return *this;
}

std::vector<TileCache::Stats> TileCache::shard_stats() const {
  std::vector<Stats> stats(shards_.size());
  for (std::size_t j = 0; j < shards_.size(); ++j) {
    const Shard& shard = shards_[j];
    std::lock_guard<std::mutex> lock(shard.mutex);
    stats[j].hits = shard.hits;
    stats[j].misses = shard.misses;
    stats[j].evictions = shard.evictions;
    stats[j].bytes = shard.bytes;
    stats[j].entries = static_cast<std::int64_t>(shard.lru.size());
  }
  return stats;
}

TileCache::Stats TileCache::stats() const {
  Stats total;
  for (const Stats& shard : shard_stats()) total += shard;
  return total;
}

}  // namespace capsp
