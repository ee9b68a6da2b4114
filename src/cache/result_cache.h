#ifndef PROMETHEUS_CACHE_RESULT_CACHE_H_
#define PROMETHEUS_CACHE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace prometheus::pool {
struct ResultSet;
}  // namespace prometheus::pool

namespace prometheus::cache {

/// (query text, database epoch) -> materialized ResultSet, sharded LRU.
///
/// Correctness contract — epoch validation, not explicit invalidation:
/// every entry is stamped with the epoch of the snapshot its result was
/// computed from (the ran-at epoch, never the epoch at insert time, which
/// a writer may already have moved). A lookup presents the *current*
/// `Database::epoch()` (a lock-free acquire load); the entry serves only
/// when the two are equal. The write guard's destructor publishes a
/// snapshot and bumps the epoch after every exclusive section — data
/// mutations, DDL, journal application on a replica, rebootstrap — so any
/// committed change implicitly invalidates every cached result at once,
/// with no bookkeeping on the write path. Equality means no write section
/// completed since that snapshot was published, so a hit is
/// indistinguishable from re-executing against a freshly pinned one.
///
/// Stale entries are erased lazily by the lookup that discovers them.
///
/// Shard layout: the key hashes to one of `Config::shards` shards, each
/// with its own mutex, map, LRU list and slice of the byte budget — a hot
/// fleet hammering different queries contends on different locks. Within
/// a shard, entries are evicted least-recently-used when its byte slice
/// overflows. Sizes are caller-supplied (see `ApproxResultBytes` in
/// result_size.h) so this layer stays independent of the query types.
class ResultCache {
 public:
  struct Config {
    /// Total byte budget across all shards. 0 disables insertion.
    std::size_t max_bytes = 8u << 20;
    /// Shard count; clamped to >= 1.
    std::size_t shards = 8;
    /// Results larger than this are never cached (one giant scan must not
    /// evict the whole hot set).
    std::size_t max_entry_bytes = 512u << 10;
    bool enabled = true;
  };

  explicit ResultCache(const Config& config);

  /// The cached rows for `text` valid at `epoch`, or null. A non-null
  /// return is a shared reference to an immutable ResultSet — copy it out
  /// or read it; never cast away const.
  std::shared_ptr<const pool::ResultSet> Lookup(const std::string& text,
                                                std::uint64_t epoch);

  /// Stores `rows` (`bytes` big) as computed at `epoch` — the epoch of the
  /// snapshot the query actually ran against, *not* the database's current
  /// epoch at insert time. A writer may have committed between execution
  /// and this call; stamping the current epoch then would launder stale
  /// rows as fresh. Stamped with the ran-at epoch, such an entry simply
  /// never serves (lookups compare against the current epoch) — correct,
  /// if unprofitable. `rows` must never be mutated afterwards.
  void Insert(const std::string& text, std::uint64_t epoch,
              std::shared_ptr<const pool::ResultSet> rows, std::size_t bytes);

  /// Drops everything (promotion, rebootstrap, `.cache clear`).
  void Clear();

  void set_enabled(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;      ///< LRU byte-budget drops
    std::uint64_t invalidations = 0;  ///< stale-epoch drops at lookup
    std::uint64_t oversize = 0;       ///< inserts refused by max_entry_bytes
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t shards = 0;
    std::size_t max_bytes = 0;
    /// hits / (hits + misses), in percent; 0 when idle.
    double hit_rate_percent = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const pool::ResultSet> rows;
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> entries;
    std::list<std::string> lru;  ///< front = most recently used
    std::size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& text);
  void RecordHitRate();

  const std::size_t max_bytes_;
  const std::size_t per_shard_bytes_;
  const std::size_t max_entry_bytes_;
  std::atomic<bool> enabled_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> oversize_{0};
};

}  // namespace prometheus::cache

#endif  // PROMETHEUS_CACHE_RESULT_CACHE_H_
