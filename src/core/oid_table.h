#ifndef PROMETHEUS_CORE_OID_TABLE_H_
#define PROMETHEUS_CORE_OID_TABLE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/oid.h"

namespace prometheus {

namespace mvcc {
namespace internal {
// Version/snapshot accounting. Deliberately *not* behind the
// `obs::MetricsEnabled()` kill switch: tests assert GC behaviour
// (superseded versions actually freed) with metrics off, and two relaxed
// counters cost nothing measurable. The same numbers are mirrored into the
// `mvcc_*` gauges for /debug/contention and /metrics.
extern std::atomic<std::uint64_t> g_retained_versions;
extern std::atomic<std::uint64_t> g_live_snapshots;

/// Allocator that books every record version it allocates; with
/// `allocate_shared` the version and its control block are one block.
template <typename T>
struct VersionAllocator {
  using value_type = T;
  VersionAllocator() = default;
  template <typename U>
  VersionAllocator(const VersionAllocator<U>&) {}  // NOLINT: rebinding
  T* allocate(std::size_t n) {
    g_retained_versions.fetch_add(1, std::memory_order_relaxed);
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    g_retained_versions.fetch_sub(1, std::memory_order_relaxed);
    std::allocator<T>().deallocate(p, n);
  }
  template <typename U>
  bool operator==(const VersionAllocator<U>&) const {
    return true;
  }
};
}  // namespace internal

/// Object/link versions currently alive: the database's own records plus
/// every superseded version that only a published or pinned snapshot still
/// reaches.
inline std::uint64_t RetainedVersions() {
  return internal::g_retained_versions.load(std::memory_order_relaxed);
}

/// DbSnapshot instances currently alive (the published one + pinned ones).
inline std::uint64_t LiveSnapshots() {
  return internal::g_live_snapshots.load(std::memory_order_relaxed);
}

/// Copies `src` into a counted record version. `RetainedVersions()` tracks
/// exactly the versions still reachable from the database or some snapshot
/// — the number snapshot release (dropping the last reference) must drive
/// back down.
template <typename T>
std::shared_ptr<T> MakeVersion(T src) {
  return std::allocate_shared<T>(internal::VersionAllocator<T>(),
                                 std::move(src));
}

/// The writer's copy-on-write gate for one shared structure: `p` stays
/// when this owner is its only one and is replaced by a private clone when
/// another owner (a published snapshot) still shares it; a null `p`
/// becomes a fresh `T`. Returns the structure to write.
///
/// Sound under concurrent readers because the published snapshot holds
/// every structure the writer's cut held at the last publish until the
/// next one: a count of 1 therefore names a structure created or cloned
/// since then, which no reader has seen. A reader dropping an older
/// snapshot can only lower a count that stays above 1 until that publish.
template <typename T>
T& Unshare(std::shared_ptr<T>& p) {
  if (p == nullptr) {
    p = std::make_shared<T>();
  } else if (p.use_count() > 1) {
    p = std::make_shared<T>(std::as_const(*p));
  }
  return *p;
}
}  // namespace mvcc

/// The database's record table: a paged array indexed directly by oid, and
/// persistent. Oids are allocated densely from 1, so a lookup is a shift,
/// two loads and no hashing; a page of `kPageSlots` slots is allocated the
/// first time an oid on it is stored. Objects and links share one oid
/// space, so each of the two tables is about half full.
///
/// Records are counted versions (`mvcc::MakeVersion`) and pages are shared:
/// copying a table copies its page directory, one pointer per page, and
/// shares every page and record with the copy. The writer's `Mutable`,
/// `Put` and `Take` pass each page and record they write through
/// `mvcc::Unshare`'s rule, so a copy (a published snapshot) never changes
/// — and a table no copy shares, as in embedded single-threaded use, is
/// updated in place with no cloning at all. A record keeps its address
/// from its first write after a copy for as long as no new copy is taken.
/// Iteration is in oid order. Not thread-safe for writing: the single
/// writer owns the table (see `Database`).
template <typename T>
class OidTable {
 public:
  static constexpr unsigned kPageBits = 10;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageBits;
  /// Oids at or above this are refused by `Database`'s raw restore, which
  /// bounds the page directory (one pointer per page) at 64 MiB.
  static constexpr Oid kOidLimit = Oid{1} << 32;

  using Version = std::shared_ptr<T>;

  /// The record stored under `oid`, or nullptr.
  const T* Find(Oid oid) const {
    const std::size_t page = static_cast<std::size_t>(oid >> kPageBits);
    if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
    return (*pages_[page])[oid & (kPageSlots - 1)].get();
  }

  /// The record under `oid` for writing (null when absent), cloned first
  /// when a copy of this table still shares it.
  T* Mutable(Oid oid) {
    if (Find(oid) == nullptr) return nullptr;
    Version& slot = Slot(oid);
    if (slot.use_count() > 1) slot = mvcc::MakeVersion(std::as_const(*slot));
    return slot.get();
  }

  /// Stores `record` under the free slot `oid` (< kOidLimit).
  void Put(Oid oid, Version record) {
    Slot(oid) = std::move(record);
    ++size_;
  }

  /// Removes and returns the record under `oid` (null when absent).
  Version Take(Oid oid) {
    if (Find(oid) == nullptr) return nullptr;
    --size_;
    return std::move(Slot(oid));
  }

  void Clear() {
    pages_.clear();
    size_ = 0;
  }

  std::size_t size() const { return size_; }

  /// Calls `fn(oid, const T&)` for every record, in ascending oid order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t p = 0; p < pages_.size(); ++p) {
      if (pages_[p] == nullptr) continue;
      for (std::size_t s = 0; s < kPageSlots; ++s) {
        if (const T* rec = (*pages_[p])[s].get()) {
          fn(static_cast<Oid>((p << kPageBits) | s), *rec);
        }
      }
    }
  }

 private:
  using Page = std::array<Version, kPageSlots>;

  /// The slot of `oid` on a page this table owns alone.
  Version& Slot(Oid oid) {
    const std::size_t page = static_cast<std::size_t>(oid >> kPageBits);
    if (page >= pages_.size()) pages_.resize(page + 1);
    return mvcc::Unshare(pages_[page])[oid & (kPageSlots - 1)];
  }

  std::vector<std::shared_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_OID_TABLE_H_
