#include "load.h"

#include <algorithm>
#include <thread>

#include "obs/metrics.h"
#include "server/client.h"
#include "trace.h"

namespace perfbench {

using prometheus::Database;
using prometheus::Status;
using prometheus::server::Client;
using prometheus::server::Request;
using prometheus::server::Response;

namespace {

struct Gauges {
  prometheus::obs::Gauge* retained;
  prometheus::obs::Gauge* live;
};

const Gauges& MvccGauges() {
  static const Gauges g{
      prometheus::obs::Registry().GetGauge("mvcc_retained_versions"),
      prometheus::obs::Registry().GetGauge("mvcc_live_snapshots")};
  return g;
}

void SampleGauges(PhaseResult* out) {
  const Gauges& g = MvccGauges();
  out->retained_versions_max =
      std::max<std::int64_t>(out->retained_versions_max, g.retained->value());
  out->live_snapshots_max =
      std::max<std::int64_t>(out->live_snapshots_max, g.live->value());
}

void AddFailure(PhaseResult* out, std::string why) {
  if (out->failures.size() < 10) out->failures.push_back(std::move(why));
}

/// Rows in a JSON array of arrays of strings.
std::uint32_t CountRows(const std::string& rows) {
  std::uint32_t n = 0;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const char c = rows[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '[' && ++depth == 2) ++n;
    else if (c == ']') --depth;
  }
  return n;
}

/// Checks one `POST /query` response against the expected rows (nullptr:
/// structural check only). Returns "" when good, else the reason; sets
/// `*rows` to the row count.
std::string CheckQueryResponse(const prometheus::net::HttpResponse& resp,
                               const std::string* expected,
                               std::uint32_t* rows) {
  *rows = 0;
  if (resp.status_code != 200) {
    return "HTTP " + std::to_string(resp.status_code) + ": " + resp.body;
  }
  const std::string& body = resp.body;
  if (body.find("\"ok\":true") == std::string::npos) return "not ok: " + body;
  const std::string key = ",\"rows\":";
  const std::size_t pos = body.find(key);
  if (pos == std::string::npos || body.back() != '}') {
    return "malformed body: " + body;
  }
  const std::size_t begin = pos + key.size();
  const std::string section = body.substr(begin, body.size() - begin - 1);
  *rows = CountRows(section);
  if (expected != nullptr && section != *expected) {
    return "rows differ from the oracle: got " + section.substr(0, 200) +
           " want " + expected->substr(0, 200);
  }
  return "";
}

}  // namespace

// --------------------------------------------------------------- sources

ZipfSource::ZipfSource(std::vector<QueryText> hot, int connections,
                       unsigned seed)
    : hot_(std::move(hot)) {
  double total = 0;
  for (std::size_t r = 0; r < hot_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  for (int c = 0; c < connections; ++c) {
    rngs_.emplace_back(seed * 7919u + static_cast<unsigned>(c));
  }
}

const QueryText& ZipfSource::Next(int conn) {
  const double u = std::uniform_real_distribution<double>(0, 1)(rngs_[conn]);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t r = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), hot_.size() - 1);
  return hot_[r];
}

StreamSource::StreamSource(std::vector<std::vector<QueryText>> streams)
    : streams_(std::move(streams)), pos_(streams_.size(), 0) {}

const QueryText& StreamSource::Next(int conn) {
  const auto& s = streams_[conn];
  const QueryText& q = s[pos_[conn]];
  pos_[conn] = (pos_[conn] + 1) % s.size();
  return q;
}

// --------------------------------------------------------------- generator

prometheus::Result<std::unique_ptr<LoadGenerator>> LoadGenerator::Open(
    FloraRig* rig, int connections, const Oracle* oracle,
    RevisionScript* script) {
  std::unique_ptr<LoadGenerator> d(new LoadGenerator());
  d->rig_ = rig;
  d->oracle_ = oracle;
  d->script_ = script;
  for (int i = 0; i < connections; ++i) {
    PROMETHEUS_ASSIGN_OR_RETURN(
        auto conn,
        prometheus::net::HttpConnection::Connect("127.0.0.1", rig->port()));
    d->conns_.push_back(std::move(conn));
  }
  return d;
}

PhaseResult LoadGenerator::Run(const PhaseSpec& spec, QuerySource* source) {
  PhaseResult result;
  const int readers = std::min<int>(spec.readers, static_cast<int>(conns_.size()));
  std::vector<PhaseResult> per_reader(static_cast<std::size_t>(readers));
  PhaseResult writer;
  // A short lead-in lets every thread reach its first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(spec.seconds * 1e6));
  writer_done_.store(false);
  reads_issued_.store(0);
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      ReaderLoop(i, spec, source, start, end, &per_reader[i]);
    });
  }
  if (spec.writer != PhaseSpec::kNone) {
    threads.emplace_back([&] { WriterLoop(spec, start, end, &writer); });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = SecondsBetween(start, Clock::now());

  auto merge = [&result](PhaseResult& part) {
    result.reads.insert(result.reads.end(), part.reads.begin(),
                        part.reads.end());
    result.read_attempted += part.read_attempted;
    result.read_failed += part.read_failed;
    result.retained_versions_max =
        std::max(result.retained_versions_max, part.retained_versions_max);
    result.live_snapshots_max =
        std::max(result.live_snapshots_max, part.live_snapshots_max);
    for (auto& f : part.failures) AddFailure(&result, std::move(f));
  };
  for (PhaseResult& part : per_reader) merge(part);
  merge(writer);
  result.writes = std::move(writer.writes);
  result.checkpoint_ms = std::move(writer.checkpoint_ms);
  result.write_attempted = writer.write_attempted;
  result.write_failed = writer.write_failed;
  result.journal_bytes = writer.journal_bytes;
  result.journal_syncs = writer.journal_syncs;
  std::sort(result.reads.begin(), result.reads.end(),
            [](const ReadSample& a, const ReadSample& b) {
              return a.done_s < b.done_s;
            });
  return result;
}

void LoadGenerator::ReaderLoop(int conn, const PhaseSpec& spec,
                            QuerySource* source, Clock::time_point start,
                            Clock::time_point end, PhaseResult* out) {
  prometheus::net::HttpConnection& http = *conns_[conn];
  const bool open = spec.read_rate > 0;
  const double per_conn_rate = open ? spec.read_rate / spec.readers : 0;
  const double offset_s = open ? conn / spec.read_rate : 0;
  Clock::time_point prev_done = start;
  const std::uint64_t id_base = (static_cast<std::uint64_t>(conn) + 1) << 40;
  for (std::uint64_t k = 0;; ++k) {
    Clock::time_point due;
    if (open) {
      due = start + std::chrono::microseconds(static_cast<std::int64_t>(
                        (offset_s + static_cast<double>(k) / per_conn_rate) *
                        1e6));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    } else {
      due = Clock::now();
      if (due >= end || writer_done_.load(std::memory_order_relaxed)) break;
      if (spec.reads > 0 && reads_issued_.fetch_add(1) >= spec.reads) break;
    }
    const QueryText& q = source->Next(conn);
    trace::Span request_span("gen", "read", id_base + k);
    const Clock::time_point send = Clock::now();
    auto resp = [&] {
      trace::Span span("net", "RoundTrip");
      return http.RoundTrip("POST", "/query", q.text);
    }();
    const Clock::time_point done = Clock::now();
    ++out->read_attempted;
    ReadSample s;
    s.done_s = SecondsBetween(start, done);
    s.latency_ms = MillisBetween(due, done);
    s.lag_ms = open ? MillisBetween(std::max(due, prev_done), send) : 0;
    s.roundtrip_us = MicrosBetween(send, done);
    s.cls = q.cls;
    prev_done = done;
    if (!resp.ok()) {
      ++out->read_failed;
      AddFailure(out, "transport: " + resp.status().ToString());
      continue;
    }
    const std::string* expected =
        oracle_ != nullptr ? oracle_->Expected(q.text) : nullptr;
    const std::string bad = CheckQueryResponse(resp.value(), expected, &s.rows);
    if (!bad.empty()) {
      ++out->read_failed;
      AddFailure(out, std::string(QClassName(q.cls)) + " `" + q.text +
                          "`: " + bad);
      continue;
    }
    const std::string* cache = resp.value().Header("x-cache");
    s.cache_hit = cache != nullptr && *cache == "hit";
    out->reads.push_back(s);
    if (conn == 0 && (k & 31) == 0) SampleGauges(out);
  }
}

void LoadGenerator::WriterLoop(const PhaseSpec& spec, Clock::time_point start,
                            Clock::time_point end, PhaseResult* out) {
  Client client(&rig_->server());
  prometheus::storage::DurableStore& store = rig_->store();
  auto base = store.stats();
  auto account_journal = [&] {
    const auto now = store.stats();
    out->journal_bytes += now.journal_bytes - base.journal_bytes;
    out->journal_syncs += now.journal_syncs - base.journal_syncs;
  };
  const bool open = spec.writer == PhaseSpec::kOpen;
  Clock::time_point prev_done = start;
  const std::uint64_t id_base = 1ull << 50;
  for (std::uint64_t k = 0;; ++k) {
    Clock::time_point due;
    if (open) {
      due = start + std::chrono::microseconds(static_cast<std::int64_t>(
                        static_cast<double>(k) / spec.write_rate * 1e6));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
    } else {
      due = Clock::now();
      if (due >= end || k >= spec.writer_txns) break;
    }
    if (spec.checkpoint_every > 0 && k > 0 && k % spec.checkpoint_every == 0) {
      // The operator's checkpoint shares the writer's session: it runs
      // between transactions, and the ones due meanwhile wait for it.
      account_journal();
      const Clock::time_point c0 = Clock::now();
      Status st;
      {
        trace::Span span("storage", "Checkpoint", id_base + k);
        st = client.Checkpoint();
      }
      out->checkpoint_ms.push_back(MillisBetween(c0, Clock::now()));
      if (!st.ok()) AddFailure(out, "checkpoint: " + st.ToString());
      base = store.stats();
      prev_done = std::max(prev_done, Clock::now());  // not generator lag
    }
    Revision rev = script_->Next();
    double body_us = 0;
    const Clock::time_point send = Clock::now();
    Response resp;
    {
      trace::Span span("server", "Call", id_base + k);
      resp = client.Call(Request::Custom([&](Database& db) {
        trace::Span txn("core", "txn", id_base + k);
        return script_->Apply(db, &rev, &body_us);
      }));
    }
    const Clock::time_point done = Clock::now();
    ++out->write_attempted;
    if (!resp.ok()) {
      ++out->write_failed;
      AddFailure(out, "revision: " + resp.status.ToString());
      continue;
    }
    script_->Acknowledge(rev);
    WriteSample s;
    s.done_s = SecondsBetween(start, done);
    s.latency_ms = MillisBetween(due, done);
    s.lag_ms = open ? MillisBetween(std::max(due, prev_done), send) : 0;
    s.guard_us = resp.waits.guard_wait_micros;
    s.execute_us = resp.waits.execute_micros;
    s.journal_us = resp.waits.journal_append_micros;
    s.body_us = body_us;
    prev_done = done;
    out->writes.push_back(s);
    SampleGauges(out);
  }
  account_journal();
  writer_done_.store(true, std::memory_order_relaxed);
}

}  // namespace perfbench
