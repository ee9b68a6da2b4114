#include "storage/recovery.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "obs/metrics.h"
#include "storage/snapshot.h"

namespace prometheus::storage {

namespace {

/// Process-wide store counters: how often stores opened/recovered and
/// checkpointed, and how much replay/damage recovery observed.
struct StoreMetrics {
  obs::Counter* recoveries;
  obs::Counter* torn_tails;
  obs::Counter* replayed_records;
  obs::Counter* checkpoints;
  obs::Histogram* checkpoint_micros;
  obs::Gauge* snapshot_bytes;

  static const StoreMetrics& Get() {
    static const StoreMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      StoreMetrics sm;
      sm.recoveries = reg.GetCounter("store_recoveries_total",
                                     "DurableStore::Open recoveries");
      sm.torn_tails = reg.GetCounter(
          "store_torn_tail_recoveries_total",
          "Recoveries that repaired a torn or corrupt journal tail");
      sm.replayed_records = reg.GetCounter(
          "store_replayed_records_total",
          "Journal records replayed during recovery");
      sm.checkpoints = reg.GetCounter("store_checkpoints_total",
                                      "Successful atomic checkpoints");
      sm.checkpoint_micros = reg.GetHistogram(
          "store_checkpoint_micros",
          "Latency of successful checkpoints (snapshot write to rotation)");
      sm.snapshot_bytes = reg.GetGauge(
          "store_snapshot_bytes", "Size of the newest checkpoint snapshot");
      return sm;
    }();
    return m;
  }
};

}  // namespace

namespace {

constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".pdb";
constexpr char kJournalPrefix[] = "journal-";
constexpr char kJournalSuffix[] = ".log";
constexpr char kTmpSuffix[] = ".tmp";

std::string SeqName(const char* prefix, std::uint64_t seq, const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(seq));
  return std::string(prefix) + buf + suffix;
}

bool ParseSeqName(const std::string& name, const char* prefix,
                  const char* suffix, std::uint64_t* seq) {
  std::string p(prefix), s(suffix);
  if (name.size() <= p.size() + s.size()) return false;
  if (name.compare(0, p.size(), p) != 0) return false;
  if (name.compare(name.size() - s.size(), s.size(), s) != 0) return false;
  std::uint64_t value = 0;
  for (std::size_t i = p.size(); i < name.size() - s.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

bool EndsWith(const std::string& name, const char* suffix) {
  std::string s(suffix);
  return name.size() >= s.size() &&
         name.compare(name.size() - s.size(), s.size(), s) == 0;
}

}  // namespace

std::string SnapshotFileName(std::uint64_t seq) {
  return SeqName(kSnapshotPrefix, seq, kSnapshotSuffix);
}

std::string JournalFileName(std::uint64_t seq) {
  return SeqName(kJournalPrefix, seq, kJournalSuffix);
}

bool ParseSnapshotFileName(const std::string& name, std::uint64_t* seq) {
  return ParseSeqName(name, kSnapshotPrefix, kSnapshotSuffix, seq);
}

bool ParseJournalFileName(const std::string& name, std::uint64_t* seq) {
  return ParseSeqName(name, kJournalPrefix, kJournalSuffix, seq);
}

DurableStore::DurableStore(std::string dir, Env* env)
    : dir_(std::move(dir)), env_(env) {}

DurableStore::~DurableStore() {
  if (journal_ != nullptr) (void)journal_->Close();
}

Status DurableStore::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok()) return sticky_;
  if (journal_ != nullptr) return journal_->status();
  return Status::Ok();
}

Status DurableStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok()) return sticky_;
  if (journal_ == nullptr) return Status::FailedPrecondition("no live journal");
  return journal_->Flush();
}

Status DurableStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!sticky_.ok()) return sticky_;
  if (journal_ == nullptr) return Status::FailedPrecondition("no live journal");
  return journal_->Sync();
}

std::uint64_t DurableStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_seq_;
}

std::uint64_t DurableStore::journal_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_seq_;
}

void DurableStore::SetPruneFloor(std::function<std::uint64_t()> floor) {
  std::lock_guard<std::mutex> lock(mu_);
  prune_floor_ = std::move(floor);
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir) {
  return Open(dir, Options());
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& dir, Options options) {
  Env* env = options.env != nullptr ? options.env : Env::Default();
  PROMETHEUS_RETURN_IF_ERROR(env->CreateDir(dir));
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<std::string> entries,
                              env->ListDir(dir));

  std::map<std::uint64_t, std::string> snapshots;
  std::map<std::uint64_t, std::string> journals;
  for (const std::string& name : entries) {
    std::uint64_t seq = 0;
    if (EndsWith(name, kTmpSuffix)) {
      // Staging leftovers from a crashed checkpoint: never authoritative.
      (void)env->RemoveFile(dir + "/" + name);
    } else if (ParseSeqName(name, kSnapshotPrefix, kSnapshotSuffix, &seq)) {
      snapshots[seq] = name;
    } else if (ParseSeqName(name, kJournalPrefix, kJournalSuffix, &seq)) {
      journals[seq] = name;
    }
  }

  std::unique_ptr<DurableStore> store(new DurableStore(dir, env));

  // Newest snapshot that validates wins; corrupt ones are skipped (an older
  // snapshot plus the journal chain reconstructs the same state).
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    auto fresh = std::make_unique<Database>();
    Status st = LoadSnapshot(fresh.get(), dir + "/" + it->second);
    if (st.ok()) {
      store->db_ = std::move(fresh);
      store->snapshot_seq_ = it->first;
      store->info_.snapshot_file = it->second;
      break;
    }
    store->info_.skipped.push_back(it->second + ": " + st.ToString());
  }
  if (store->db_ == nullptr) store->db_ = std::make_unique<Database>();

  // Replay every journal after the snapshot, oldest first. Each journal's
  // state at rotation equals the snapshot that superseded it, so when a
  // snapshot is skipped as corrupt the surviving journal chain still
  // reconstructs the full committed history.
  Journal::ReplayReport last_report;
  std::uint64_t last_journal_seq = 0;
  std::string last_journal_path;
  for (const auto& [seq, name] : journals) {
    if (seq <= store->snapshot_seq_) continue;
    Journal::ReplayReport report;
    std::string path = dir + "/" + name;
    PROMETHEUS_RETURN_IF_ERROR(
        Journal::ReplayTail(store->db_.get(), path, &report));
    store->info_.replayed.push_back(name);
    store->info_.replayed_records += report.applied_records;
    store->info_.dropped_records += report.dropped_records;
    store->info_.dropped_bytes += report.dropped_bytes;
    store->info_.torn_tail = store->info_.torn_tail || report.torn_tail;
    last_report = report;
    last_journal_seq = seq;
    last_journal_path = path;
  }

  if (last_journal_seq != 0 && last_report.resumable) {
    // Resume appending to the live journal after cutting its tail back to
    // the last intact record (drops torn bytes and the END marker).
    PROMETHEUS_RETURN_IF_ERROR(
        env->TruncateFile(last_journal_path, last_report.append_offset));
    PROMETHEUS_ASSIGN_OR_RETURN(
        store->journal_,
        Journal::Open(store->db_.get(), last_journal_path,
                      Journal::OpenMode::kAppend, env));
    store->journal_seq_ = last_journal_seq;
  } else {
    // No journal, or one whose header/prologue never hit the disk: a
    // prologue without its EOS marker cannot be followed by mutation
    // records, so nothing durable is lost by starting over — not even the
    // bootstrap records a torn prologue replayed. A brand-new store runs
    // the bootstrap first so the schema lands in the journal prologue.
    if (store->snapshot_seq_ == 0 && store->info_.replayed.size() <= 1) {
      store->db_ = std::make_unique<Database>();  // drop any partial prologue
      store->info_.replayed_records = 0;
      if (options.bootstrap) {
        PROMETHEUS_RETURN_IF_ERROR(options.bootstrap(store->db_.get()));
      }
    }
    store->journal_seq_ =
        std::max(last_journal_seq, store->snapshot_seq_ + 1);
    PROMETHEUS_RETURN_IF_ERROR(store->OpenJournalFresh());
  }

  // Janitor: keep the loaded snapshot plus one fallback generation (the
  // previous snapshot and the journals that, replayed on top of it,
  // reconstruct the loaded one — the escape hatch if the loaded snapshot
  // file is damaged later). Everything older is unreachable.
  std::uint64_t keep_floor = 0;
  for (const auto& [seq, name] : snapshots) {
    if (seq < store->snapshot_seq_ && seq > keep_floor) keep_floor = seq;
  }
  for (const auto& [seq, name] : snapshots) {
    if (seq < keep_floor) (void)env->RemoveFile(dir + "/" + name);
  }
  for (const auto& [seq, name] : journals) {
    if (seq <= keep_floor) (void)env->RemoveFile(dir + "/" + name);
  }

  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.recoveries->Increment();
  metrics.replayed_records->Increment(store->info_.replayed_records);
  if (store->info_.torn_tail) metrics.torn_tails->Increment();
  return store;
}

DurableStore::Stats DurableStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  if (journal_ != nullptr) {
    s.journal_records = journal_->record_count();
    s.journal_bytes = journal_->bytes_written();
    s.journal_syncs = journal_->sync_count();
  }
  s.generation = snapshot_seq_;
  s.journal_seq = journal_seq_;
  s.checkpoints = checkpoints_;
  s.replayed_records = info_.replayed_records;
  s.dropped_records = info_.dropped_records;
  s.torn_tail = info_.torn_tail;
  return s;
}

Status DurableStore::OpenJournalFresh() {
  std::string path = dir_ + "/" + JournalFileName(journal_seq_);
  if (snapshot_seq_ == 0 && info_.replayed_records == 0) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        journal_, Journal::Open(db_.get(), path, Journal::OpenMode::kTruncate,
                                env_));
  } else {
    PROMETHEUS_ASSIGN_OR_RETURN(
        journal_, Journal::OpenContinuation(db_.get(), path, env_));
  }
  return Status::Ok();
}

Status DurableStore::Checkpoint() {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t new_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    new_seq = journal_seq_ + 1;
  }
  const std::string snapshot_path = dir_ + "/" + SnapshotFileName(new_seq);
  // Atomic write: temp + fsync + rename + directory fsync. A crash at any
  // point leaves the previous snapshot untouched and the live journal
  // authoritative — SaveSnapshot's path overload stages in `.tmp`. The
  // caller holds exclusive database access, so journal_seq_ cannot move
  // while the snapshot is written (no other thread checkpoints or appends).
  PROMETHEUS_RETURN_IF_ERROR(SaveSnapshot(*db_, snapshot_path, env_));

  // The snapshot is durable: rotate to a fresh continuation journal. The
  // swap happens under mu_ so concurrent observers (stats, the replication
  // endpoint) never see a half-rotated store.
  std::uint64_t old_snapshot_seq = 0;
  std::function<std::uint64_t()> floor_fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_snapshot_seq = snapshot_seq_;
    if (journal_ != nullptr) {
      (void)journal_->Close();  // best effort; the snapshot supersedes it
      journal_.reset();
    }
    snapshot_seq_ = new_seq;
    journal_seq_ = new_seq + 1;
    Result<std::unique_ptr<Journal>> rotated = Journal::OpenContinuation(
        db_.get(), dir_ + "/" + JournalFileName(journal_seq_), env_);
    if (!rotated.ok()) {
      // State is safe on disk but new mutations would not be journalled:
      // latch the failure so status() screams until the store is reopened.
      sticky_ = rotated.status();
      return sticky_;
    }
    journal_ = std::move(rotated).value();
    // The snapshot persisted the full in-memory state and the rotation gave
    // mutations a healthy journal to land in — whatever failure was latched
    // (a dead journal, a failed earlier rotation) is superseded. This is the
    // operator's re-arm path out of degraded read-only mode.
    sticky_ = Status::Ok();
    ++checkpoints_;
    floor_fn = prune_floor_;
  }

  // Prune generations older than the fallback pair (previous snapshot +
  // the journal that supersedes it), but never at or above the replication
  // prune floor: a follower mid-download keeps its generation alive. The
  // hook runs outside mu_ (it takes the replication endpoint's own lock).
  // Crash-tolerant: recovery ignores leftovers.
  const std::uint64_t floor = floor_fn ? floor_fn() : ~0ull;
  for (std::uint64_t seq = 1; seq < old_snapshot_seq; ++seq) {
    if (seq >= floor) break;
    (void)env_->RemoveFile(dir_ + "/" + SnapshotFileName(seq));
  }
  for (std::uint64_t seq = 1; seq <= old_snapshot_seq; ++seq) {
    if (seq >= floor) break;
    (void)env_->RemoveFile(dir_ + "/" + JournalFileName(seq));
  }
  const StoreMetrics& metrics = StoreMetrics::Get();
  metrics.checkpoints->Increment();
  metrics.checkpoint_micros->Observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (Result<std::uint64_t> size = env_->FileSize(snapshot_path); size.ok()) {
    metrics.snapshot_bytes->Set(static_cast<std::int64_t>(size.value()));
  }
  return Status::Ok();
}

}  // namespace prometheus::storage
