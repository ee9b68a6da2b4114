#ifndef PROMETHEUS_CORE_SORTED_RUNS_H_
#define PROMETHEUS_CORE_SORTED_RUNS_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/oid_table.h"

namespace prometheus {

/// A persistent sorted set, the index layer's store: a directory of shared
/// sorted runs, each holding at most `kRunEntries` entries, ascending by
/// `T::operator<` across the whole directory.
///
/// Copying shares the directory, one pointer. The writer's `Insert` and
/// `Erase` pass the directory and the one run they touch through
/// `mvcc::Unshare`'s rule: a write after a copy (a published snapshot)
/// clones n/kRunEntries run pointers and one run, never the whole set, and
/// the copy never changes. A set no copy shares is updated in place.
/// Readers of a copy need no lock. Not thread-safe for writing: the single
/// writer owns it (see `Database`).
template <typename T>
class SortedRuns {
 public:
  static constexpr std::size_t kRunEntries = 256;

  SortedRuns() = default;

  /// Bulk build: sorts `entries` once and cuts them into full runs.
  explicit SortedRuns(std::vector<T> entries) : size_(entries.size()) {
    std::sort(entries.begin(), entries.end());
    auto first = std::make_move_iterator(entries.begin());
    for (std::size_t i = 0; i < size_; i += kRunEntries) {
      const auto n = std::min(kRunEntries, size_ - i);
      mvcc::Unshare(dir_).push_back(std::make_shared<Run>(first, first + n));
      first += n;
    }
  }

  std::size_t size() const { return size_; }

  /// Calls `fn(const T&)` in ascending order for every entry not less than
  /// `*from` (every entry when `from` is null) until `fn` returns false.
  template <typename Fn>
  void ScanFrom(const T* from, Fn&& fn) const {
    if (dir_ == nullptr) return;
    const Directory& dir = *dir_;
    std::size_t r = from == nullptr ? 0 : RunFor(*from);
    if (r == dir.size()) return;
    auto it = from == nullptr
                  ? dir[r]->begin()
                  : std::lower_bound(dir[r]->begin(), dir[r]->end(), *from);
    for (;;) {
      for (; it != dir[r]->end(); ++it) {
        if (!fn(*it)) return;
      }
      if (++r == dir.size()) return;
      it = dir[r]->begin();
    }
  }

  /// The entry equivalent to `x`, or nullptr.
  const T* Find(const T& x) const {
    const T* found = nullptr;
    ScanFrom(&x, [&](const T& e) {
      if (!(x < e)) found = &e;
      return false;
    });
    return found;
  }

  /// Adds `entry`; a run that grows past `kRunEntries` splits in halves.
  void Insert(T entry) {
    ++size_;
    Directory& dir = mvcc::Unshare(dir_);
    if (dir.empty()) {
      dir.push_back(std::make_shared<Run>(1, std::move(entry)));
      return;
    }
    const std::size_t r = std::min(RunFor(entry), dir.size() - 1);
    Run& run = mvcc::Unshare(dir[r]);
    run.insert(std::upper_bound(run.begin(), run.end(), entry),
               std::move(entry));
    if (run.size() > kRunEntries) {
      const auto half = run.begin() + kRunEntries / 2;
      auto upper = std::make_shared<Run>(std::make_move_iterator(half),
                                         std::make_move_iterator(run.end()));
      run.erase(half, run.end());
      dir.insert(dir.begin() + r + 1, std::move(upper));
    }
  }

  /// Removes the entry equivalent to `x`; false (and no clone) when absent.
  bool Erase(const T& x) {
    if (Find(x) == nullptr) return false;
    --size_;
    Directory& dir = mvcc::Unshare(dir_);
    const std::size_t r = RunFor(x);
    Run& run = mvcc::Unshare(dir[r]);
    run.erase(std::lower_bound(run.begin(), run.end(), x));
    if (run.empty()) dir.erase(dir.begin() + r);
    return true;
  }

 private:
  using Run = std::vector<T>;
  using Directory = std::vector<std::shared_ptr<Run>>;

  /// The first run whose last entry is not less than `x` (the directory's
  /// size when there is none). Runs are never empty.
  std::size_t RunFor(const T& x) const {
    return static_cast<std::size_t>(
        std::partition_point(dir_->begin(), dir_->end(),
                             [&x](const std::shared_ptr<Run>& run) {
                               return run->back() < x;
                             }) -
        dir_->begin());
  }

  std::shared_ptr<Directory> dir_;
  std::size_t size_ = 0;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_SORTED_RUNS_H_
