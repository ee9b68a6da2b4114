#ifndef PROMETHEUS_STORAGE_RECOVERY_H_
#define PROMETHEUS_STORAGE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "storage/fault.h"
#include "storage/journal.h"

namespace prometheus::storage {

/// Store-directory file naming, shared with the replication layer (which
/// mirrors a leader's directory file-by-file): `snapshot-%06llu.pdb` and
/// `journal-%06llu.log`.
std::string SnapshotFileName(std::uint64_t seq);
std::string JournalFileName(std::uint64_t seq);
bool ParseSnapshotFileName(const std::string& name, std::uint64_t* seq);
bool ParseJournalFileName(const std::string& name, std::uint64_t* seq);

/// Crash-safe persistence manager: owns a database directory holding
/// generation-numbered snapshots and journals,
///
///   snapshot-000002.pdb   full state as of generation 2
///   journal-000003.log    mutations since snapshot 2 (v2, checksummed)
///
/// and maintains the invariant that at every instant — including halfway
/// through any write — the directory recovers to a consistent prefix of the
/// committed history:
///
///  - `Open(dir)` loads the newest snapshot that validates, replays every
///    journal after it (recovering torn tails), truncates the live journal
///    to its last intact record and reopens it in append mode;
///  - `Checkpoint()` writes the next snapshot atomically (temp + fsync +
///    rename + directory fsync), rotates to a fresh continuation journal
///    and prunes generations that are no longer needed. A crash anywhere in
///    the protocol leaves the previous snapshot/journal pair authoritative.
///
/// Thread model: one store per directory. The journal *append path* is
/// thread-safe — mutations serialised by the database's write guard
/// (`Database::WriteGuard`) append safely while any thread calls `Flush`,
/// `Sync` or `status()` (the journal locks internally, so frames are never
/// torn). `Checkpoint` still requires exclusive access to the *database*
/// (take the write guard, or quiesce the server), but the store's own
/// bookkeeping — the live journal pointer, sequence numbers, the sticky
/// status — is guarded by an internal mutex, so `Flush`/`Sync`/`status`/
/// `stats`/`generation`/`journal_seq` from any thread (e.g. a replication
/// endpoint answering a fetch) never race the checkpoint's journal swap.
class DurableStore {
 public:
  struct Options {
    /// Filesystem to write through (default `Env::Default()`); tests pass a
    /// `FaultInjectionEnv` to crash the store at chosen byte counts.
    Env* env = nullptr;
    /// Run once on a brand-new (empty-directory) store, before the first
    /// journal is created: define the schema here so the journal's schema
    /// prologue captures it. Not run when recovering existing state.
    std::function<Status(Database*)> bootstrap;
  };

  /// How `Open` reassembled the state — for logging and tests.
  struct RecoveryInfo {
    /// Snapshot file the state was loaded from (empty when none existed).
    std::string snapshot_file;
    /// Snapshot files that failed to validate and were skipped.
    std::vector<std::string> skipped;
    /// Journal files replayed, in order.
    std::vector<std::string> replayed;
    /// Mutation records applied across all replayed journals.
    std::uint64_t replayed_records = 0;
    /// Records/bytes dropped from torn or uncommitted journal tails.
    std::uint64_t dropped_records = 0;
    std::uint64_t dropped_bytes = 0;
    /// True when any replayed journal had a torn tail.
    bool torn_tail = false;
  };

  /// Opens (creating if necessary) the store at `dir` and recovers its
  /// state. Never partial: on any error the directory is left untouched
  /// apart from deleted `*.tmp` staging files.
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir,
                                                    Options options);
  static Result<std::unique_ptr<DurableStore>> Open(const std::string& dir);

  /// Closes the journal cleanly (best effort).
  ~DurableStore();

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// The recovered database. Mutations are journalled automatically.
  Database& db() { return *db_; }
  const Database& db() const { return *db_; }

  const RecoveryInfo& recovery_info() const { return info_; }

  /// Current snapshot generation (0 until the first checkpoint).
  std::uint64_t generation() const;

  /// Sequence number of the live journal.
  std::uint64_t journal_seq() const;

  /// The directory this store owns and the filesystem it writes through —
  /// the replication endpoint reads journal/snapshot bytes from here.
  const std::string& dir() const { return dir_; }
  Env* env() const { return env_; }

  /// Installs a prune-floor hook consulted by `Checkpoint()`: files with
  /// sequence numbers >= the returned floor are never pruned. The
  /// replication endpoint returns the smallest generation an active
  /// follower still needs (or ~0 when none), so a checkpoint cannot yank a
  /// generation mid-download. Pass nullptr to uninstall.
  void SetPruneFloor(std::function<std::uint64_t()> floor);

  /// Point-in-time durability counters: the live journal's I/O totals plus
  /// this store's checkpoint/recovery history. Safe to call from any thread
  /// that may also be appending (journal counters are atomics).
  struct Stats {
    std::uint64_t journal_records = 0;  ///< live journal's mutation records
    std::uint64_t journal_bytes = 0;    ///< live journal's framed bytes
    std::uint64_t journal_syncs = 0;    ///< live journal's fsync barriers
    std::uint64_t generation = 0;       ///< loaded snapshot generation
    std::uint64_t journal_seq = 0;      ///< live journal sequence number
    std::uint64_t checkpoints = 0;      ///< successful Checkpoint() calls
    std::uint64_t replayed_records = 0; ///< records replayed by Open()
    std::uint64_t dropped_records = 0;  ///< records lost to torn tails
    bool torn_tail = false;             ///< recovery saw a torn tail
  };
  Stats stats() const;

  /// Writes an atomic snapshot of the current state, rotates the journal
  /// and prunes superseded generations. On failure the previous
  /// snapshot/journal pair remains authoritative and is reported intact by
  /// the next `Open`. On success any latched durability failure is cleared
  /// (`status()` returns Ok again): the snapshot supersedes whatever the
  /// broken journal failed to record — this is the operator's re-arm path
  /// out of the server's degraded read-only mode.
  Status Checkpoint();

  /// Journal flush / fsync; both return the sticky durability status.
  Status Flush();
  Status Sync();

  /// Sticky durability status: Ok while every mutation reached the journal.
  Status status() const;

 private:
  DurableStore(std::string dir, Env* env);

  Status OpenJournalFresh();

  std::string dir_;
  Env* env_;
  std::unique_ptr<Database> db_;
  /// Guards the fields a checkpoint swaps against concurrent observers
  /// (`journal_`, the sequence numbers, `checkpoints_`, `sticky_`,
  /// `prune_floor_`).
  mutable std::mutex mu_;
  std::unique_ptr<Journal> journal_;
  std::uint64_t snapshot_seq_ = 0;  ///< generation of the loaded snapshot
  std::uint64_t journal_seq_ = 0;   ///< generation of the live journal
  std::uint64_t checkpoints_ = 0;   ///< successful Checkpoint() calls
  std::function<std::uint64_t()> prune_floor_;
  RecoveryInfo info_;
  Status sticky_;  ///< store-level failures (e.g. journal rotation failed)
};

}  // namespace prometheus::storage

#endif  // PROMETHEUS_STORAGE_RECOVERY_H_
