// Sharded LRU tile cache with a byte budget (docs/serving.md).
//
// The DistanceService's working set is tiles, not entries: a hot query mix
// touches a few hundred tiles of a matrix that may not fit in RAM.  The
// cache is sharded by tile id so concurrent workers contend only when they
// touch the same shard (the same trick as util/metrics), each shard runs
// an exact LRU list, and the byte budget is split evenly across shards —
// so the whole cache never holds more than `byte_budget` bytes of tile
// payload (plus a fixed per-entry overhead charge).
//
// Tiles are handed out as shared_ptr<const DistBlock>: an evicted tile
// stays alive for any request still reading it, so eviction never races
// a lookup.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "semiring/block.hpp"

namespace capsp {

class RequestTrace;

class TileCache {
 public:
  /// Bookkeeping charge per cached tile on top of its payload bytes
  /// (list/map nodes, control block); keeps a budget of tiny tiles from
  /// admitting an unbounded entry count.
  static constexpr std::int64_t kEntryOverheadBytes = 64;
  /// Lock shards; tile `id` lives in shard `id % kShards`.
  static constexpr int kShards = 8;

  /// `byte_budget`: total payload budget across all shards.
  explicit TileCache(std::int64_t byte_budget);
  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Cached tile, or nullptr on miss.  A hit refreshes recency.  A
  /// non-null `trace` gets a tile.cache_hit / tile.cache_miss span.
  std::shared_ptr<const DistBlock> get(std::int64_t tile_id,
                                       RequestTrace* trace = nullptr);

  /// Insert (or refresh) a tile, evicting least-recently-used entries of
  /// the shard until it is back under its budget share.  Returns the
  /// cached pointer.
  std::shared_ptr<const DistBlock> put(std::int64_t tile_id, DistBlock tile);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
    std::int64_t bytes = 0;
    std::int64_t entries = 0;
    Stats& operator+=(const Stats& other);
  };
  /// Each shard's counts (index = tile_id % kShards), kept under the
  /// shard's own lock: the one place the cache counts its hits, misses
  /// and evictions.  The service folds them into its `serve.cache.*`
  /// metrics when they are read (DistanceService::metrics_snapshot).
  std::vector<Stats> shard_stats() const;
  /// The sum of shard_stats().
  Stats stats() const;

 private:
  struct Entry {
    std::int64_t id = 0;
    std::shared_ptr<const DistBlock> tile;
    std::int64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<std::int64_t, std::list<Entry>::iterator> index;
    std::int64_t bytes = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };

  Shard& shard_for(std::int64_t tile_id) {
    return shards_[static_cast<std::size_t>(tile_id) % shards_.size()];
  }

  std::int64_t shard_budget_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace capsp
