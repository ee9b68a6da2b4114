// The load generator: HTTP reader connections and one in-process writer
// session, driven open-loop (requests due on a fixed schedule, timed from
// the due time) or closed-loop (next request when the previous answered).
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "flora_rig.h"
#include "net/http_client.h"

namespace perfbench {

/// Where each reader connection takes its next query from.
class QuerySource {
 public:
  virtual ~QuerySource() = default;
  /// The next query for connection `conn`; called only from that
  /// connection's thread.
  virtual const QueryText& Next(int conn) = 0;
};

/// `browse`: a fixed hot set drawn with Zipf(1) skew.
class ZipfSource : public QuerySource {
 public:
  ZipfSource(std::vector<QueryText> hot, int connections, unsigned seed);
  const QueryText& Next(int conn) override;
  const std::vector<QueryText>& texts() const { return hot_; }

 private:
  std::vector<QueryText> hot_;
  std::vector<double> cdf_;
  std::vector<std::mt19937> rngs_;
};

/// `revise`: per-connection pre-drawn streams with uniform parameters,
/// cycled.
class StreamSource : public QuerySource {
 public:
  StreamSource(std::vector<std::vector<QueryText>> streams);
  const QueryText& Next(int conn) override;
  const std::vector<std::vector<QueryText>>& streams() const {
    return streams_;
  }

 private:
  std::vector<std::vector<QueryText>> streams_;
  std::vector<std::size_t> pos_;
};

/// One phase of load, sized by work so every run does the same work: an
/// open-loop phase sends what falls due in `seconds`; a phase with a
/// closed-loop writer ends when the writer has committed `writer_txns`;
/// closed-loop readers without a writer stop after `reads` requests in
/// all. `seconds` caps every phase.
struct PhaseSpec {
  const char* name = "";
  double seconds = 1;
  int readers = 0;               ///< reader connections used (0 = none)
  double read_rate = 0;          ///< open loop: total reads/s; 0 = closed
  std::uint64_t reads = 0;       ///< closed-loop readers: requests in all
  enum Writer { kNone, kOpen, kClosed } writer = kNone;
  double write_rate = 0;         ///< open-loop writer: txns/s
  std::uint64_t writer_txns = 0; ///< closed-loop writer: txns to commit
  /// The operator checkpoints before every `checkpoint_every`-th revision
  /// of the phase (0 = never); a count, so every run checkpoints at the
  /// same points of the script.
  std::uint64_t checkpoint_every = 0;
};

struct ReadSample {
  double done_s = 0;      ///< completion, seconds since phase start
  double latency_ms = 0;  ///< from due time (open) or send (closed)
  double lag_ms = 0;      ///< generator lateness (open loop only)
  double roundtrip_us = 0;
  QClass cls = QClass::kLookup;
  std::uint32_t rows = 0;
  bool cache_hit = false;
};

struct WriteSample {
  double done_s = 0;
  double latency_ms = 0;
  double lag_ms = 0;
  double guard_us = 0, execute_us = 0, journal_us = 0;
  double body_us = 0;
};

struct PhaseResult {
  double seconds = 0;  ///< measured wall time
  std::vector<ReadSample> reads;    ///< completion order
  std::vector<WriteSample> writes;  ///< completion order
  std::vector<double> checkpoint_ms;
  std::uint64_t read_attempted = 0, read_failed = 0;
  std::uint64_t write_attempted = 0, write_failed = 0;
  std::uint64_t journal_bytes = 0, journal_syncs = 0;
  std::int64_t retained_versions_max = 0, live_snapshots_max = 0;
  std::vector<std::string> failures;
};

/// Reader connections and the writer session of one served rig.
class LoadGenerator {
 public:
  /// Opens `connections` keep-alive HTTP connections to the rig.
  static prometheus::Result<std::unique_ptr<LoadGenerator>> Open(
      FloraRig* rig, int connections, const Oracle* oracle,
      RevisionScript* script);

  /// Runs one phase. Responses whose text the oracle answers are compared
  /// with it byte for byte; others are checked for a well-formed OK
  /// answer. The oracle must hold only texts whose answers cannot change
  /// while the phase's writer runs.
  PhaseResult Run(const PhaseSpec& spec, QuerySource* source);

  prometheus::net::HttpConnection& connection(int i) { return *conns_[i]; }

 private:
  LoadGenerator() = default;
  void ReaderLoop(int conn, const PhaseSpec& spec, QuerySource* source,
                  Clock::time_point start, Clock::time_point end,
                  PhaseResult* out);
  void WriterLoop(const PhaseSpec& spec, Clock::time_point start,
                  Clock::time_point end, PhaseResult* out);

  FloraRig* rig_ = nullptr;
  const Oracle* oracle_ = nullptr;
  RevisionScript* script_ = nullptr;
  std::atomic<bool> writer_done_{false};
  std::atomic<std::uint64_t> reads_issued_{0};  ///< closed-loop tickets
  std::vector<std::unique_ptr<prometheus::net::HttpConnection>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
