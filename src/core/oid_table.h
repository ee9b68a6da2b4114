#ifndef PROMETHEUS_CORE_OID_TABLE_H_
#define PROMETHEUS_CORE_OID_TABLE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/oid.h"

namespace prometheus {

/// The live store's record table: a paged array indexed directly by oid.
/// Oids are allocated densely from 1, so a lookup is a shift, two loads
/// and no hashing; a page of `kPageSlots` slots is allocated the first time
/// an oid on it is stored and kept until `Clear()`. Objects and links share
/// one oid space, so each of the two tables is about half full.
///
/// Records are heap-owned so their addresses stay stable while the table
/// grows (callers hold `Object*`/`Link*` across mutations). Iteration is in
/// oid order. Not thread-safe: the single writer owns it (see `Database`).
template <typename T>
class OidTable {
 public:
  static constexpr unsigned kPageBits = 10;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageBits;
  /// Oids at or above this are refused by `Database`'s raw restore, which
  /// bounds the page directory (one pointer per page) at 32 MiB.
  static constexpr Oid kOidLimit = Oid{1} << 32;

  /// The record stored under `oid`, or nullptr.
  T* Find(Oid oid) const {
    const std::size_t page = static_cast<std::size_t>(oid >> kPageBits);
    if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
    return (*pages_[page])[oid & (kPageSlots - 1)].get();
  }

  /// Stores `record` under the free slot `oid` (< kOidLimit).
  void Put(Oid oid, std::unique_ptr<T> record) {
    const std::size_t page = static_cast<std::size_t>(oid >> kPageBits);
    if (page >= pages_.size()) pages_.resize(page + 1);
    if (pages_[page] == nullptr) pages_[page] = std::make_unique<Page>();
    (*pages_[page])[oid & (kPageSlots - 1)] = std::move(record);
    ++size_;
  }

  /// Removes and returns the record under `oid` (null when absent).
  std::unique_ptr<T> Take(Oid oid) {
    if (Find(oid) == nullptr) return nullptr;
    --size_;
    return std::move((*pages_[oid >> kPageBits])[oid & (kPageSlots - 1)]);
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
  using Page = std::array<std::unique_ptr<T>, kPageSlots>;
  std::vector<std::unique_ptr<Page>> pages_;
  std::size_t size_ = 0;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_OID_TABLE_H_
