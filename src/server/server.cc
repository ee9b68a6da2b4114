#include "server/server.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>

#include "cache/result_size.h"
#include "common/exec_context.h"
#include "common/stats.h"
#include "core/read_view.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/wait_profiler.h"
#include "query/system_catalog.h"

namespace prometheus::server {

namespace {

/// Per-request-type latency histograms plus the executed/error counters;
/// registered once, pointers cached.
struct ServerMetrics {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Counter* timed_out;
  obs::Counter* unavailable;
  obs::Gauge* degraded;
  obs::Histogram* ping_micros;
  obs::Histogram* query_micros;
  obs::Histogram* mutation_micros;
  obs::Histogram* health_micros;
  obs::Histogram* cache_micros;

  obs::Histogram* ForKind(RequestKind kind) const {
    switch (kind) {
      case RequestKind::kPing:
        return ping_micros;
      case RequestKind::kQuery:
        return query_micros;
      case RequestKind::kMutation:
        return mutation_micros;
      case RequestKind::kHealth:
        return health_micros;
      case RequestKind::kCacheControl:
        return cache_micros;
    }
    return ping_micros;
  }

  static const ServerMetrics& Get() {
    static const ServerMetrics m = [] {
      obs::MetricsRegistry& reg = obs::Registry();
      const char* help = "Request latency on the worker (microseconds)";
      ServerMetrics sm;
      sm.requests = reg.GetCounter("server_requests_total",
                                   "Requests executed by the server");
      sm.errors = reg.GetCounter(
          "server_request_errors_total",
          "Requests that executed with a non-OK status");
      sm.timed_out = reg.GetCounter(
          "server_requests_timed_out_total",
          "Requests resolved kTimedOut (at admission, at dequeue or "
          "mid-execution)");
      sm.unavailable = reg.GetCounter(
          "server_requests_unavailable_total",
          "Mutations refused while in degraded read-only mode");
      sm.degraded = reg.GetGauge(
          "server_degraded",
          "1 while in degraded read-only mode (store durability broken)");
      sm.ping_micros =
          reg.GetHistogram("server_request_micros{type=\"ping\"}", help);
      sm.query_micros =
          reg.GetHistogram("server_request_micros{type=\"query\"}", help);
      sm.mutation_micros =
          reg.GetHistogram("server_request_micros{type=\"mutation\"}", help);
      sm.health_micros =
          reg.GetHistogram("server_request_micros{type=\"health\"}", help);
      sm.cache_micros =
          reg.GetHistogram("server_request_micros{type=\"cache\"}", help);
      return sm;
    }();
    return m;
  }
};

/// Flattens a span tree into the {stage, micros, rows, detail} table a
/// PROFILE response carries: one row per node, nesting shown by indenting
/// the stage name.
void FlattenTrace(const obs::TraceNode& node, int depth,
                  pool::ResultSet* out) {
  std::vector<Value> row;
  row.push_back(
      Value::String(std::string(static_cast<std::size_t>(depth) * 2, ' ') +
                    node.name));
  row.push_back(Value::Double(node.micros));
  row.push_back(node.rows >= 0 ? Value::Int(node.rows) : Value::Null());
  row.push_back(Value::String(node.detail));
  out->rows.push_back(std::move(row));
  for (const obs::TraceNode& child : node.children) {
    FlattenTrace(child, depth + 1, out);
  }
}

pool::ResultSet ProfileTable(const obs::TraceNode& trace) {
  pool::ResultSet table;
  table.columns = {"stage", "micros", "rows", "detail"};
  FlattenTrace(trace, 0, &table);
  return table;
}

const char* KindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kQuery:
      return "query";
    case RequestKind::kMutation:
      return "mutation";
    case RequestKind::kHealth:
      return "health";
    case RequestKind::kCacheControl:
      return "cache";
  }
  return "unknown";
}

const char* CacheOpName(CacheOp op) {
  switch (op) {
    case CacheOp::kStats:
      return "stats";
    case CacheOp::kClear:
      return "clear";
    case CacheOp::kDisable:
      return "off";
    case CacheOp::kEnable:
      return "on";
  }
  return "unknown";
}

const char* PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kLow:
      return "low";
    case Priority::kNormal:
      return "normal";
    case Priority::kHigh:
      return "high";
  }
  return "unknown";
}

const char* CodeName(ResponseCode code) {
  switch (code) {
    case ResponseCode::kOk:
      return "ok";
    case ResponseCode::kRejected:
      return "rejected";
    case ResponseCode::kShutdown:
      return "shutdown";
    case ResponseCode::kTimedOut:
      return "timed_out";
    case ResponseCode::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

/// What the flight recorder stores as the "what ran" column: the (bounded)
/// query text, or the mutation kind.
std::string FlightDetail(const Request& req) {
  switch (req.kind) {
    case RequestKind::kQuery: {
      constexpr std::size_t kMaxDetail = 200;
      if (req.query.size() <= kMaxDetail) return req.query;
      return req.query.substr(0, kMaxDetail) + "…";
    }
    case RequestKind::kMutation:
      switch (req.mutation.kind) {
        case MutationOp::Kind::kCreateObject:
          return "create " + req.mutation.type_name;
        case MutationOp::Kind::kSetAttribute:
          return "set " + req.mutation.attribute;
        case MutationOp::Kind::kDeleteObject:
          return "delete object";
        case MutationOp::Kind::kCreateLink:
          return "link " + req.mutation.type_name;
        case MutationOp::Kind::kSetLinkAttribute:
          return "set link " + req.mutation.attribute;
        case MutationOp::Kind::kDeleteLink:
          return "delete link";
        case MutationOp::Kind::kCustom:
          return "custom";
        case MutationOp::Kind::kCheckpoint:
          return "checkpoint";
      }
      return "mutation";
    case RequestKind::kCacheControl:
      return std::string(".cache ") + CacheOpName(req.cache_op);
    default:
      return "";
  }
}

}  // namespace

std::string Server::Health::ToJson() const {
  stats::JsonWriter w;
  w.BeginObject();
  w.Key("server_epoch").Uint(server_epoch);
  w.Key("degraded").Bool(degraded);
  w.Key("read_only").Bool(read_only);
  if (!replication.empty()) w.Key("replication").Raw(replication);
  w.Key("store_status").String(store_status.ToString());
  w.Key("queue_depth").Uint(queue_depth);
  w.Key("queue_capacity").Uint(queue_capacity);
  w.Key("workers").Int(workers);
  w.Key("estimated_wait_micros")
      .Int(static_cast<long long>(estimated_wait_micros));
  w.Key("accepted").Uint(stats.accepted);
  w.Key("rejected").Uint(stats.rejected);
  w.Key("timed_out").Uint(stats.timed_out);
  w.Key("shed").Uint(stats.shed);
  w.Key("unavailable").Uint(stats.unavailable);
  w.Key("errors").Uint(stats.errors);
  w.Key("sessions_active").Uint(sessions_active);
  w.EndObject();
  return w.str();
}

Server::Server(Database* db, Options options)
    : db_(db),
      query_cache_(options.cache),
      engine_(db, options.indexes),
      catalog_engine_(db, options.indexes),
      slow_log_(options.slow_query_micros, options.slow_query_capacity),
      flight_recorder_(options.flight_recorder_capacity),
      executor_(ThreadPoolExecutor::Options{options.worker_threads,
                                            options.queue_capacity,
                                            options.admission}),
      sessions_(this),
      store_(options.store),
      read_only_(options.read_only),
      writer_wait_warn_micros_(options.writer_wait_warn_micros),
      replication_probe_(std::move(options.replication_probe)),
      replication_rows_(std::move(options.replication_rows)),
      server_epoch_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count())) {
  // Scrape targets need the restart-detection gauges from the first
  // exposition on; registering here keeps every embedding in sync.
  obs::RegisterProcessMetrics();
  // Construction is single-threaded: reading the store directly is safe
  // here (workers exist but have no jobs yet).
  if (store_ != nullptr) {
    store_status_ = store_->status();
    if (!store_status_.ok()) {
      degraded_.store(true, std::memory_order_release);
    }
  }
  ServerMetrics::Get().degraded->Set(degraded_.load() ? 1 : 0);
  // Cached plans embed schema analysis; any committed definition makes
  // them stale. Registration happens here while construction is still
  // single-threaded (EventBus registration is not thread-safe); the
  // listener body is one relaxed atomic add, safe to run under the write
  // guard. Result entries need no listener — epoch validation covers them.
  engine_.set_plan_cache(&query_cache_.plans());
  // The virtual system catalog: registration is single-threaded here; the
  // providers run on query workers against internally synchronized state.
  RegisterSystemCatalog();
  engine_.set_system_catalog(&catalog_);
  catalog_engine_.set_system_catalog(&catalog_);
  ddl_listener_ = db_->bus().Subscribe([this](const Event& e) {
    switch (e.kind) {
      case EventKind::kAfterDefineClass:
      case EventKind::kAfterDefineTemplate:
      case EventKind::kAfterDefineRelationship:
        query_cache_.OnSchemaChange();
        break;
      default:
        break;
    }
    return Status::Ok();
  });
  // Engage MVCC publication now, while construction is still
  // single-threaded: the first AcquireSnapshot takes the write mutex to
  // publish the first copy of the cut, so doing it here keeps any request
  // from waiting behind a writer for engagement.
  (void)db_->AcquireSnapshot();
}

namespace {

/// Rough in-memory footprint of one stored attribute value, for the
/// `sys.storage` approx_bytes column. An estimate, not an audit: strings
/// and collections dominate, fixed-size payloads count as one Value slot.
std::size_t ApproxValueBytes(const Value& v) {
  std::size_t n = sizeof(Value);
  switch (v.type()) {
    case ValueType::kString:
      n += v.AsString().size();
      break;
    case ValueType::kList:
      for (const Value& e : v.AsList()) n += ApproxValueBytes(e);
      break;
    case ValueType::kStruct:
      for (const auto& [name, field] : v.AsStruct()) {
        n += name.size() + ApproxValueBytes(field);
      }
      break;
    default:
      break;
  }
  return n;
}

/// The read view catalog providers resolve against: the thread's installed
/// view when a query pinned a snapshot, else the live database. Matches
/// QueryEngine::view() so `sys.classes` / `sys.storage` rows are computed
/// under the same MVCC cut as the query's other ranges.
const ReadView& ProviderView(const Database* db) {
  const ReadView* v = CurrentReadView();
  return v != nullptr ? *v : static_cast<const ReadView&>(*db);
}

Value StringList(const std::vector<std::string>& items) {
  Value::List out;
  out.reserve(items.size());
  for (const std::string& s : items) out.push_back(Value::String(s));
  return Value::MakeList(std::move(out));
}

/// `sys.contention` / `sys.contention_window` rows; see RegisterSystemCatalog.
std::vector<Value> ContentionRows(bool windowed) {
  std::vector<Value> rows;
  for (const obs::ContentionStat& st : obs::SnapshotContention(windowed)) {
    rows.push_back(Value::MakeStruct(
        {{"windowed", Value::Bool(windowed)},
         {"state", Value::String(st.state)},
         {"count", Value::Int(static_cast<std::int64_t>(st.count))},
         {"total_micros", Value::Double(st.total_micros)},
         {"mean_micros", Value::Double(st.mean_micros)},
         {"p50_micros", Value::Double(st.p50_micros)},
         {"p95_micros", Value::Double(st.p95_micros)},
         {"p99_micros", Value::Double(st.p99_micros)}}));
  }
  return rows;
}

}  // namespace

void Server::RegisterSystemCatalog() {
  using pool::SystemCatalog;
  // sys.catalog — the catalog's own listing (registered first so it can
  // describe itself; materialization runs after every Register call).
  catalog_.Register(
      "sys.catalog", "Every sys.* class: name, help, attributes",
      {"class", "help", "attributes"}, [this]() {
        std::vector<Value> rows;
        for (const SystemCatalog::ClassInfo& info : catalog_.ListClasses()) {
          rows.push_back(Value::MakeStruct({{"class", Value::String(info.name)},
                                            {"help", Value::String(info.help)},
                                            {"attributes",
                                             StringList(info.attributes)}}));
        }
        return rows;
      });

  // sys.metrics — the registry flattened to one row per instrument. Every
  // row carries every field; inapplicable ones are null (counters have no
  // percentiles, histograms no single value).
  catalog_.Register(
      "sys.metrics",
      "Every registered metric: counters, gauges and histogram summaries",
      {"name", "kind", "value", "count", "sum", "p50", "p95", "p99", "help"},
      [this]() {
        obs::UpdateProcessUptime();
        const obs::MetricsSnapshot snap = obs::Registry().Snapshot();
        std::vector<Value> rows;
        rows.reserve(snap.counters.size() + snap.gauges.size() +
                     snap.histograms.size() + 1);
        auto add = [&rows](const std::string& name, const char* kind,
                           Value value, Value count, Value sum, Value p50,
                           Value p95, Value p99, const std::string& help) {
          rows.push_back(Value::MakeStruct(
              {{"name", Value::String(name)},
               {"kind", Value::String(kind)},
               {"value", std::move(value)},
               {"count", std::move(count)},
               {"sum", std::move(sum)},
               {"p50", std::move(p50)},
               {"p95", std::move(p95)},
               {"p99", std::move(p99)},
               {"help", Value::String(help)}}));
        };
        const Value null = Value::Null();
        for (const auto& c : snap.counters) {
          add(c.name, "counter", Value::Int(static_cast<std::int64_t>(c.value)),
              null, null, null, null, null, c.help);
        }
        for (const auto& g : snap.gauges) {
          add(g.name, "gauge", Value::Int(g.value), null, null, null, null,
              null, g.help);
        }
        // This server's restart-detection epoch. A row of this provider,
        // not a registry gauge: servers sharing a process (a leader and
        // its followers) share one registry but not one epoch.
        add("server_epoch", "gauge",
            Value::Int(static_cast<std::int64_t>(server_epoch_)), null, null,
            null, null, null,
            "Wall-clock microseconds at server construction; changes on "
            "restart");
        for (const auto& h : snap.histograms) {
          add(h.name, "histogram", null,
              Value::Int(static_cast<std::int64_t>(h.hist.count)),
              Value::Double(h.hist.sum), Value::Double(h.hist.Percentile(50)),
              Value::Double(h.hist.Percentile(95)),
              Value::Double(h.hist.Percentile(99)), h.help);
        }
        return rows;
      });

  // sys.requests — the flight recorder, oldest first.
  catalog_.Register(
      "sys.requests",
      "The flight recorder: the last N completed requests, oldest first",
      {"seq", "request_id", "trace_id", "type", "priority", "code", "ok",
       "executed", "epoch", "queue_wait_micros", "total_micros",
       "guard_wait_micros", "execute_micros", "journal_micros", "detail",
       "stages"},
      [this]() {
        std::vector<Value> rows;
        for (const obs::FlightRecorder::Entry& e :
             flight_recorder_.Snapshot()) {
          rows.push_back(Value::MakeStruct(
              {{"seq", Value::Int(static_cast<std::int64_t>(e.seq))},
               {"request_id",
                Value::Int(static_cast<std::int64_t>(e.request_id))},
               {"trace_id", Value::String(e.trace_id)},
               {"type", Value::String(e.type)},
               {"priority", Value::String(e.priority)},
               {"code", Value::String(e.code)},
               {"ok", Value::Bool(e.ok)},
               {"executed", Value::Bool(e.executed)},
               {"epoch", Value::Int(static_cast<std::int64_t>(e.epoch))},
               {"queue_wait_micros", Value::Double(e.queue_wait_micros)},
               {"total_micros", Value::Double(e.total_micros)},
               {"guard_wait_micros", Value::Double(e.guard_wait_micros)},
               {"execute_micros", Value::Double(e.execute_micros)},
               {"journal_micros", Value::Double(e.journal_micros)},
               {"detail", Value::String(e.detail)},
               {"stages", Value::String(e.stages)}}));
        }
        return rows;
      });

  // sys.slowlog — the slow-query log ring, oldest first.
  catalog_.Register(
      "sys.slowlog",
      "Queries over the slow-query threshold, oldest first (empty when the "
      "log is disabled)",
      {"request_id", "trace_id", "query", "micros", "queue_micros",
       "guard_wait_micros", "execute_micros", "profile"},
      [this]() {
        std::vector<Value> rows;
        for (const obs::SlowQueryLog::Entry& e : slow_log_.entries()) {
          rows.push_back(Value::MakeStruct(
              {{"request_id",
                Value::Int(static_cast<std::int64_t>(e.request_id))},
               {"trace_id", Value::String(e.trace_id)},
               {"query", Value::String(e.query)},
               {"micros", Value::Double(e.micros)},
               {"queue_micros", Value::Double(e.queue_micros)},
               {"guard_wait_micros", Value::Double(e.guard_wait_micros)},
               {"execute_micros", Value::Double(e.execute_micros)},
               {"profile", Value::String(e.profile)}}));
        }
        return rows;
      });

  // sys.contention — cumulative wait-state statistics; sys.contention_window
  // — the same states since the previous windowed read. Materializing the
  // window advances the process-wide window store, so every windowed reader
  // (route, shell, ad-hoc query) shares one window.
  const std::vector<std::string> contention_attributes = {
      "windowed",    "state",      "count",      "total_micros",
      "mean_micros", "p50_micros", "p95_micros", "p99_micros"};
  catalog_.Register(
      "sys.contention",
      "Cumulative wait-state statistics (the contention report)",
      contention_attributes, [] { return ContentionRows(false); });
  catalog_.Register(
      "sys.contention_window",
      "Wait-state statistics since the previous read of this class",
      contention_attributes, [] { return ContentionRows(true); });

  // sys.cache — the canonical QueryCacheStats::Fields() rows, shared with
  // `.cache stats` so the two surfaces can never drift.
  catalog_.Register(
      "sys.cache", "Query-cache statistics (both tiers), field/value rows",
      {"field", "value"}, [this]() {
        std::vector<Value> rows;
        for (auto& [field, value] : query_cache_.Stats().Fields()) {
          rows.push_back(
              Value::MakeStruct({{"field", Value::String(field)},
                                 {"value", Value::String(std::move(value))}}));
        }
        return rows;
      });

  // sys.replication — structured lag rows; empty on a leader/standalone.
  catalog_.Register(
      "sys.replication",
      "Replication link state (one row per link; empty when not replicating)",
      {"role", "connected", "caught_up", "generation", "journal_seq", "offset",
       "records_applied", "lag_records", "lag_bytes", "reconnects",
       "rebootstraps", "corrupt_frames", "polls"},
      [this]() {
        return replication_rows_ ? replication_rows_()
                                 : std::vector<Value>{};
      });

  // sys.snapshots — MVCC retention/pinning, one row.
  catalog_.Register(
      "sys.snapshots",
      "MVCC snapshot state: retained versions, live/pinned snapshots",
      {"retained_versions", "live_snapshots", "pinned_snapshots",
       "oldest_pinned_epoch", "epoch"},
      [this]() {
        std::vector<Value> rows;
        rows.push_back(Value::MakeStruct(
            {{"retained_versions",
              Value::Int(static_cast<std::int64_t>(mvcc::RetainedVersions()))},
             {"live_snapshots",
              Value::Int(static_cast<std::int64_t>(mvcc::LiveSnapshots()))},
             {"pinned_snapshots",
              Value::Int(static_cast<std::int64_t>(db_->pinned_snapshots()))},
             {"oldest_pinned_epoch",
              Value::Int(
                  static_cast<std::int64_t>(db_->oldest_pinned_epoch()))},
             {"epoch", Value::Int(static_cast<std::int64_t>(
                           ProviderView(db_).epoch()))}}));
        return rows;
      });

  // sys.classes — the schema, through the query's read view (a catalog
  // query joining sys.classes against real extents sees one MVCC cut).
  catalog_.Register(
      "sys.classes", "Every class definition in the schema",
      {"name", "abstract", "supers", "subclasses", "attributes"}, [this]() {
        const ReadView& view = ProviderView(db_);
        std::vector<Value> rows;
        for (const ClassDef* cls : view.classes()) {
          std::vector<std::string> supers, subs, attrs;
          for (const ClassDef* s : cls->supers()) supers.push_back(s->name());
          for (const ClassDef* s : view.Subclasses(cls)) {
            subs.push_back(s->name());
          }
          for (const AttributeDef& a : cls->attributes()) {
            attrs.push_back(a.name);
          }
          rows.push_back(
              Value::MakeStruct({{"name", Value::String(cls->name())},
                                 {"abstract", Value::Bool(cls->is_abstract())},
                                 {"supers", StringList(supers)},
                                 {"subclasses", StringList(subs)},
                                 {"attributes", StringList(attrs)}}));
        }
        return rows;
      });

  // sys.storage — per-class extent statistics: deep cardinality, rough
  // bytes, index coverage, and the engine's lock-free heat counters. The
  // evidence base the ROADMAP's partitioned-extents planner will consume.
  catalog_.Register(
      "sys.storage",
      "Per-class extent statistics: cardinality, approx bytes, index "
      "coverage, scan/index heat",
      {"class", "rows", "approx_bytes", "indexes", "scans", "index_hits",
       "rows_scanned"},
      [this]() {
        const ReadView& view = ProviderView(db_);
        std::vector<pool::ExtentHeat::Counters> heat =
            pool::ExtentHeat::Instance().Snapshot();
        auto heat_for = [&heat](const std::string& name) {
          for (const pool::ExtentHeat::Counters& c : heat) {
            if (c.class_name == name) return c;
          }
          return pool::ExtentHeat::Counters{};
        };
        std::vector<Value> rows;
        for (const ClassDef* cls : view.classes()) {
          const std::vector<Oid> extent = view.Extent(cls->name());
          std::size_t bytes = 0;
          for (Oid oid : extent) {
            const Object* obj = view.GetObject(oid);
            if (obj == nullptr) continue;
            bytes += sizeof(Object) +
                     (obj->out_links.size() + obj->in_links.size()) *
                         sizeof(Oid);
            ForEachAttribute(*obj, [&bytes](const std::string& name,
                                            const Value& value) {
              bytes += name.size() + ApproxValueBytes(value);
            });
          }
          const pool::ExtentHeat::Counters c = heat_for(cls->name());
          const std::vector<std::string> indexed =
              view.IndexedAttributes(cls->name());
          rows.push_back(Value::MakeStruct(
              {{"class", Value::String(cls->name())},
               {"rows", Value::Int(static_cast<std::int64_t>(extent.size()))},
               {"approx_bytes",
                Value::Int(static_cast<std::int64_t>(bytes))},
               {"indexes", StringList(indexed)},
               {"scans", Value::Int(static_cast<std::int64_t>(c.scans))},
               {"index_hits",
                Value::Int(static_cast<std::int64_t>(c.index_hits))},
               {"rows_scanned",
                Value::Int(static_cast<std::int64_t>(c.rows_scanned))}}));
        }
        return rows;
      });
}

Server::~Server() { Shutdown(/*drain=*/true); }

void Server::Shutdown(bool drain) {
  // Stop admission first so sessions racing Shutdown resolve as kShutdown
  // or kRejected, never hang.
  stopped_.store(true, std::memory_order_release);
  sessions_.CloseAll();
  executor_.Shutdown(drain);
  // Workers are joined; bus registration is single-threaded again. This
  // must happen here, not in the destructor: callers may tear down the
  // database between an explicit Shutdown() and ~Server, so the first
  // shutdown is the last point the bus is guaranteed alive.
  if (ddl_listener_ != 0) {
    db_->bus().Unsubscribe(ddl_listener_);
    ddl_listener_ = 0;
  }
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = executor_.rejected();
  s.queries = queries_.load(std::memory_order_relaxed);
  s.mutations = mutations_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.shed = executor_.shed();
  s.unavailable = unavailable_.load(std::memory_order_relaxed);
  return s;
}

Server::Health Server::health() const {
  Health h;
  h.server_epoch = server_epoch_;
  h.degraded = degraded_.load(std::memory_order_acquire);
  h.read_only = read_only_;
  if (replication_probe_) h.replication = replication_probe_();
  {
    std::lock_guard<std::mutex> lock(store_status_mu_);
    h.store_status = store_status_;
  }
  h.queue_depth = executor_.queue_depth();
  h.queue_capacity = executor_.queue_capacity();
  h.workers = executor_.threads();
  h.estimated_wait_micros = executor_.admission().EstimatedQueueWaitMicros(
      h.queue_depth, h.workers);
  h.stats = stats();
  h.sessions_active = sessions_.active();
  return h;
}

void Server::ObserveStoreStatus() {
  if (store_ == nullptr) return;
  Status st = store_->status();
  {
    std::lock_guard<std::mutex> lock(store_status_mu_);
    store_status_ = st;
  }
  if (!st.ok() && !degraded_.exchange(true, std::memory_order_acq_rel)) {
    ServerMetrics::Get().degraded->Set(1);
  }
}

std::future<Response> Server::Enqueue(Request req) {
  const RequestId id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // Trace context: accept the caller's id or assign one. The epoch prefix
  // keeps ids unique across restarts (and across the servers of a fleet),
  // so `/debug/requests?id=` lookups never alias.
  if (req.trace_id.empty()) {
    req.trace_id = std::to_string(server_epoch_) + "-" + std::to_string(id);
  }
  const bool timing = obs::MetricsEnabled() || flight_recorder_.enabled();
  std::chrono::steady_clock::time_point admit_start;
  if (timing) admit_start = std::chrono::steady_clock::now();
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();

  auto respond_unrun = [promise, id, trace_id = req.trace_id](
                           ResponseCode code, Status status) {
    Response resp;
    resp.id = id;
    resp.trace_id = trace_id;
    resp.code = code;
    resp.status = std::move(status);
    promise->set_value(std::move(resp));
  };

  if (stopped_.load(std::memory_order_acquire)) {
    respond_unrun(ResponseCode::kShutdown,
                  Status::FailedPrecondition("server is shut down"));
    return future;
  }

  // Deadline already in the past: fail before touching the queue.
  if (req.deadline != kNoDeadline && DeadlineClock::now() >= req.deadline) {
    timed_out_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().timed_out->Increment();
    respond_unrun(
        ResponseCode::kTimedOut,
        Status::DeadlineExceeded("deadline expired before admission"));
    return future;
  }

  // Result-cache fast path: a hit resolves right here on the submitting
  // thread — no queue, no worker, no snapshot pin. Placed after the
  // deadline check (an expired request stays expired) and before the
  // read-only / degraded refusals, which only concern mutations: cached
  // reads keep serving on a follower and in degraded mode.
  if (req.kind == RequestKind::kQuery) {
    Response hit;
    if (TryServeFromCache(id, req, &hit)) {
      promise->set_value(std::move(hit));
      return future;
    }
  }

  // Follower role: every mutation is refused — including kCheckpoint,
  // which on a follower would race the replication applier's own file
  // management. There is no re-arm path; promotion replaces the server.
  if (read_only_ && req.kind == RequestKind::kMutation) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().unavailable->Increment();
    respond_unrun(ResponseCode::kUnavailable,
                  Status::Unavailable(
                      "read-only replica: mutations must go to the leader"));
    return future;
  }

  // Degraded read-only mode: fail mutations fast — except the checkpoint
  // that re-arms the store.
  if (req.kind == RequestKind::kMutation &&
      req.mutation.kind != MutationOp::Kind::kCheckpoint &&
      degraded_.load(std::memory_order_acquire)) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().unavailable->Increment();
    Status store_status;
    {
      std::lock_guard<std::mutex> lock(store_status_mu_);
      store_status = store_status_;
    }
    respond_unrun(ResponseCode::kUnavailable,
                  Status::Unavailable(
                      "degraded read-only mode (durability failure: " +
                      store_status.ToString() +
                      "); mutations refused until a checkpoint re-arms "
                      "the store"));
    return future;
  }

  // The request moves into the job via shared_ptr: std::function requires
  // copyable targets, and a Request (its closure, its inits) should not be
  // deep-copied per hop.
  auto boxed = std::make_shared<Request>(std::move(req));
  const auto enqueued_at = std::chrono::steady_clock::now();
  ThreadPoolExecutor::Job job =
      [this, id, promise, boxed,
       enqueued_at](ThreadPoolExecutor::Disposition d) {
        // With timing fully disabled the job path pays one branch, not a
        // clock read.
        const bool job_timing =
            obs::MetricsEnabled() || flight_recorder_.enabled();
        const double queue_wait_micros =
            job_timing ? std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - enqueued_at)
                             .count()
                       : 0;
        switch (d) {
          case ThreadPoolExecutor::Disposition::kRun:
            obs::WaitInstruments::Get().queue->Observe(queue_wait_micros);
            promise->set_value(Execute(id, *boxed, queue_wait_micros));
            return;
          case ThreadPoolExecutor::Disposition::kShutdown: {
            Response resp;
            resp.id = id;
            resp.trace_id = boxed->trace_id;
            resp.code = ResponseCode::kShutdown;
            resp.status =
                Status::FailedPrecondition("server shut down before execution");
            RecordFlight(id, *boxed, resp, queue_wait_micros, 0);
            promise->set_value(std::move(resp));
            return;
          }
          case ThreadPoolExecutor::Disposition::kExpired: {
            timed_out_.fetch_add(1, std::memory_order_relaxed);
            ServerMetrics::Get().timed_out->Increment();
            Response resp;
            resp.id = id;
            resp.trace_id = boxed->trace_id;
            resp.code = ResponseCode::kTimedOut;
            resp.status = Status::DeadlineExceeded(
                "deadline expired while queued (shed at dequeue)");
            RecordFlight(id, *boxed, resp, queue_wait_micros, 0);
            promise->set_value(std::move(resp));
            return;
          }
          case ThreadPoolExecutor::Disposition::kShed: {
            Response resp;
            resp.id = id;
            resp.trace_id = boxed->trace_id;
            resp.code = ResponseCode::kRejected;
            resp.status = Status::FailedPrecondition(
                "evicted from the work queue by higher-priority work");
            RecordFlight(id, *boxed, resp, queue_wait_micros, 0);
            promise->set_value(std::move(resp));
            return;
          }
        }
      };

  ThreadPoolExecutor::JobInfo info;
  info.priority = boxed->priority;
  info.deadline = boxed->deadline;
  switch (executor_.Submit(std::move(job), info)) {
    case ThreadPoolExecutor::Admission::kAccepted:
      break;
    case ThreadPoolExecutor::Admission::kQueueFull:
      respond_unrun(
          ResponseCode::kRejected,
          Status::FailedPrecondition("work queue full (backpressure)"));
      return future;
    case ThreadPoolExecutor::Admission::kWouldExpire:
      respond_unrun(ResponseCode::kRejected,
                    Status::FailedPrecondition(
                        "estimated queue wait exceeds the request deadline"));
      return future;
    case ThreadPoolExecutor::Admission::kShutdown:
      respond_unrun(ResponseCode::kShutdown,
                    Status::FailedPrecondition("server is shut down"));
      return future;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (timing && obs::MetricsEnabled()) {
    // Admission cost: deadline check, cache probe, mode refusal checks and
    // the executor's admission decision — everything before the queue.
    obs::WaitInstruments::Get().admission->Observe(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - admit_start)
            .count());
  }
  return future;
}

Response Server::Execute(RequestId id, const Request& req,
                         double queue_wait_micros) {
  const ServerMetrics& metrics = ServerMetrics::Get();
  metrics.requests->Increment();
  // One explicit clock pair instead of a ScopedTimer: the elapsed value
  // feeds both the latency histogram and the flight recorder.
  const bool timing =
      obs::MetricsEnabled() || flight_recorder_.enabled();
  std::chrono::steady_clock::time_point start;
  // Per-request journal attribution: the journal adds its append/fsync
  // time into this thread-local slot while the request runs (the whole
  // request executes on this one worker thread), and the breakdown below
  // reads it back out — no context threading through the event bus.
  obs::ThreadWaitAccumulator& tw = obs::ThreadWait();
  if (timing) {
    start = std::chrono::steady_clock::now();
    tw.Reset();
  }
  Response resp;
  switch (req.kind) {
    case RequestKind::kPing:
      resp.id = id;
      resp.epoch = db_->epoch();
      break;
    case RequestKind::kQuery:
      resp = ExecuteQuery(id, req, queue_wait_micros);
      queries_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestKind::kMutation:
      resp = ExecuteMutation(id, req);
      mutations_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RequestKind::kHealth:
      resp = ExecuteHealth(id, req);
      break;
    case RequestKind::kCacheControl:
      resp = ExecuteCacheControl(id, req);
      break;
  }
  resp.executed = true;
  resp.trace_id = req.trace_id;
  if (!resp.status.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    metrics.errors->Increment();
  }
  if (timing) {
    const double micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    metrics.ForKind(req.kind)->Observe(micros);
    resp.waits.queue_micros = queue_wait_micros;
    resp.waits.journal_append_micros = tw.journal_append_micros;
    resp.waits.journal_sync_micros = tw.journal_sync_micros;
    // Pure execution = worker time minus the waits attributed elsewhere;
    // clamped because the guard/journal clocks are read independently of
    // the outer pair.
    double pure = micros - resp.waits.guard_wait_micros -
                  resp.waits.journal_append_micros -
                  resp.waits.journal_sync_micros;
    if (pure < 0) pure = 0;
    resp.waits.execute_micros = pure;
    obs::WaitInstruments::Get().execute->Observe(pure);
    RecordFlight(id, req, resp, queue_wait_micros, micros);
  }
  return resp;
}

void Server::RecordFlight(RequestId id, const Request& req,
                          const Response& resp, double queue_wait_micros,
                          double total_micros) {
  if (!flight_recorder_.enabled()) return;
  obs::FlightRecorder::Entry entry;
  entry.request_id = id;
  entry.trace_id = req.trace_id;
  entry.type = KindName(req.kind);
  entry.priority = PriorityName(req.priority);
  entry.code = CodeName(resp.code);
  entry.ok = resp.code == ResponseCode::kOk && resp.status.ok();
  entry.executed = resp.executed;
  entry.epoch = resp.epoch;
  entry.queue_wait_micros = queue_wait_micros;
  entry.total_micros = total_micros;
  entry.guard_wait_micros = resp.waits.guard_wait_micros;
  entry.execute_micros = resp.waits.execute_micros;
  entry.journal_micros =
      resp.waits.journal_append_micros + resp.waits.journal_sync_micros;
  entry.detail = resp.cache_hit ? "[cache hit] " + FlightDetail(req)
                                : FlightDetail(req);
  // PROFILE queries already rendered their span tree into the response;
  // keep it so sys.requests shows per-stage structure.
  if (req.kind == RequestKind::kQuery && pool::IsProfileQuery(req.query)) {
    entry.stages = resp.text;
  }
  flight_recorder_.Record(std::move(entry));
}

bool Server::TryServeFromCache(RequestId id, const Request& req,
                               Response* out) {
  if (!query_cache_.results().enabled()) return false;
  // Catalog queries describe live server internals, not an epoch-stable
  // database state: a cached sys.* result would validate as fresh while
  // the metrics/requests/heat it rendered moved on. Bypass lookup (and,
  // symmetrically, insert in ExecuteQuery). A false positive here only
  // costs the bypass.
  if (pool::QueryTouchesCatalog(req.query)) return false;
  const bool profiled = pool::IsProfileQuery(req.query);
  // PROFILE and plain runs of the same select share one entry: the rows
  // are identical, only the rendering differs.
  const std::string key =
      profiled ? pool::StripProfileKeyword(req.query) : req.query;
  const bool timing = obs::MetricsEnabled() || flight_recorder_.enabled();
  std::chrono::steady_clock::time_point start;
  if (timing) start = std::chrono::steady_clock::now();
  // Lock-free validation: the entry serves only if its materialization
  // epoch is *still* the database's current epoch — every committed write
  // (local or replicated) bumps it, so a hit is indistinguishable from
  // re-executing under a fresh read guard.
  const std::uint64_t epoch = db_->epoch();
  std::shared_ptr<const pool::ResultSet> rows =
      query_cache_.results().Lookup(key, epoch);
  if (rows == nullptr) return false;

  Response resp;
  resp.id = id;
  resp.trace_id = req.trace_id;
  resp.epoch = epoch;
  resp.executed = true;
  resp.cache_checked = true;
  resp.cache_hit = true;
  double micros = 0;
  if (timing) {
    micros = std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - start)
                 .count();
  }
  if (profiled) {
    // Synthesize the span tree a cached PROFILE run has: the whole query
    // collapses into one cache stage.
    obs::TraceNode trace("query");
    trace.detail = key;
    trace.micros = micros;
    trace.rows = static_cast<std::int64_t>(rows->rows.size());
    obs::TraceNode* span = trace.AddChild("cache");
    span->detail = "result hit (epoch " + std::to_string(epoch) +
                   "; parse, plan and execute skipped)";
    span->micros = micros;
    span->rows = trace.rows;
    resp.result = ProfileTable(trace);
    resp.text = obs::RenderTree(trace);
  } else {
    resp.result = *rows;
  }

  // A hit is an accepted, executed query — the books must not distinguish
  // it from one that took the worker path.
  accepted_.fetch_add(1, std::memory_order_relaxed);
  queries_.fetch_add(1, std::memory_order_relaxed);
  const ServerMetrics& metrics = ServerMetrics::Get();
  metrics.requests->Increment();
  if (timing) {
    metrics.ForKind(RequestKind::kQuery)->Observe(micros);
    RecordFlight(id, req, resp, /*queue_wait_micros=*/0, micros);
  }
  *out = std::move(resp);
  return true;
}

Response Server::QueryCatalog(const std::string& pool_text) {
  Response resp;
  if (!pool::QueryTouchesCatalog(pool_text)) {
    resp.status = Status::InvalidArgument(
        "QueryCatalog serves sys.* queries only; submit other queries "
        "through a session");
    return resp;
  }
  // The same MVCC read path as ExecuteQuery, minus the queue: the pinned
  // snapshot is the thread's read view, so sys.classes / sys.storage never
  // touch the live database and a writer holding the guard cannot block
  // this. Catalog rows are never cached, so the result cache is skipped,
  // and catalog_engine_ has no plan cache: introspection must not take
  // entries from, or move the counters of, the plan cache users query.
  SnapshotHandle snap = db_->AcquireSnapshot();
  resp.epoch = snap->epoch();
  resp.executed = true;
  Result<pool::ResultSet> result = catalog_engine_.Execute(pool_text, *snap);
  if (result.ok()) {
    resp.result = std::move(result).value();
  } else {
    resp.status = result.status();
  }
  return resp;
}

Response Server::ExecuteCacheControl(RequestId id, const Request& req) {
  Response resp;
  resp.id = id;
  // Touches only the server-side cache — no database lock, so it stays
  // answerable on a follower, in degraded mode, and under write pressure.
  resp.epoch = db_->epoch();
  switch (req.cache_op) {
    case CacheOp::kStats:
      break;
    case CacheOp::kClear:
      query_cache_.Clear();
      break;
    case CacheOp::kDisable:
      query_cache_.SetEnabled(false);
      break;
    case CacheOp::kEnable:
      query_cache_.SetEnabled(true);
      break;
  }
  // Every op reports the post-op state, so `.cache clear` shows the
  // emptied cache it produced.
  // One canonical rendering shared with `sys.cache`: the rows here are
  // exactly QueryCacheStats::Fields(), so the two surfaces cannot drift.
  resp.result.columns = {"field", "value"};
  for (auto& [field, value] : query_cache_.Stats().Fields()) {
    resp.result.rows.push_back(
        {Value::String(field), Value::String(std::move(value))});
  }
  return resp;
}

Response Server::ExecuteQuery(RequestId id, const Request& req,
                              double queue_wait_micros) {
  Response resp;
  resp.id = id;
  // MVCC read path: pin the latest published snapshot and execute against
  // it with no shared lock at all. Writers proceed concurrently; this
  // query sees one consistent cut for its whole evaluation, and a writer
  // stalled mid-commit (e.g. in journal_sync) cannot delay it.
  SnapshotHandle snap = db_->AcquireSnapshot();
  resp.epoch = snap->epoch();
  // The Enqueue-side lookup already missed (or the cache is off). Catalog
  // queries are never cached at all — their rows track live internals, so
  // both the lookup (TryServeFromCache) and the inserts below skip them.
  resp.cache_checked = query_cache_.results().enabled() &&
                       !pool::QueryTouchesCatalog(req.query);

  // Cooperative deadline: the engine checks this context per enumerated
  // binding, so a query that outlives its budget aborts instead of holding
  // the shared lock indefinitely.
  ExecutionContext ctx(req.deadline);
  const ExecutionContext* ctx_ptr = req.deadline != kNoDeadline ? &ctx : nullptr;

  auto finish_status = [this, &resp](const Status& st) {
    if (st.code() == Status::Code::kDeadlineExceeded) {
      resp.code = ResponseCode::kTimedOut;
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().timed_out->Increment();
    }
    resp.status = st;
  };

  if (pool::IsProfileQuery(req.query)) {
    Result<pool::QueryProfile> result =
        engine_.ExecuteProfiled(req.query, *snap, ctx_ptr);
    if (!result.ok()) {
      finish_status(result.status());
      return resp;
    }
    pool::QueryProfile& profile = result.value();
    resp.result = ProfileTable(profile.trace);
    resp.text = obs::RenderTree(profile.trace);
    if (slow_log_.ShouldRecord(profile.trace.micros)) {
      obs::SlowQueryLog::Entry slow;
      slow.request_id = id;
      slow.trace_id = req.trace_id;
      slow.query = pool::StripProfileKeyword(req.query);
      slow.micros = profile.trace.micros;
      slow.profile = resp.text;
      slow.queue_micros = queue_wait_micros;
      slow.execute_micros = profile.trace.micros;
      slow_log_.Record(std::move(slow));
    }
    if (resp.cache_checked) {
      // Cache under the stripped key so the next plain run of the same
      // select hits too. The entry carries the epoch the query actually
      // ran against — the snapshot's, NOT the database's current epoch,
      // which a concurrent writer may have advanced since this query
      // pinned its snapshot. Stamping the current epoch here would launder
      // stale rows as fresh; stamping the snapshot epoch means a
      // committed-since write makes the entry validate as stale, exactly
      // as if the query re-ran.
      auto rows = std::make_shared<const pool::ResultSet>(
          std::move(profile.rows));
      query_cache_.results().Insert(pool::StripProfileKeyword(req.query),
                                    snap->epoch(), rows,
                                    cache::ApproxResultBytes(*rows));
    }
    return resp;
  }

  // The clock is only read when the slow-query log wants it.
  std::chrono::steady_clock::time_point start;
  if (slow_log_.enabled()) start = std::chrono::steady_clock::now();
  Result<pool::ResultSet> result = engine_.Execute(req.query, *snap, ctx_ptr);
  if (result.ok()) {
    resp.result = std::move(result).value();
    if (resp.cache_checked) {
      // Insert stamped with the snapshot epoch the rows were computed at
      // (see the profiled branch above for why the *current* epoch would
      // be wrong here). Failed or timed-out queries are never cached.
      auto rows = std::make_shared<const pool::ResultSet>(resp.result);
      query_cache_.results().Insert(req.query, snap->epoch(), rows,
                                    cache::ApproxResultBytes(*rows));
    }
  } else {
    finish_status(result.status());
  }
  if (slow_log_.enabled()) {
    const double micros =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (slow_log_.ShouldRecord(micros)) {
      // Re-plan for the log entry: the slow path has already paid far more
      // than an Explain costs, and the plan is the diagnostic that matters.
      // Explained against the same pinned snapshot so the logged plan
      // reflects the schema the query actually saw.
      Result<std::string> plan = [&] {
        ScopedReadView scope(snap.get());
        return engine_.Explain(req.query);
      }();
      obs::SlowQueryLog::Entry slow;
      slow.request_id = id;
      slow.trace_id = req.trace_id;
      slow.query = req.query;
      slow.micros = micros;
      slow.profile =
          plan.ok() ? std::move(plan).value() : plan.status().ToString();
      slow.queue_micros = queue_wait_micros;
      slow.execute_micros = micros;
      slow_log_.Record(std::move(slow));
    }
  }
  return resp;
}

Response Server::ExecuteHealth(RequestId id, const Request&) {
  Response resp;
  resp.id = id;
  resp.epoch = db_->epoch();
  // Reads only server-cached state (atomics + the cached store status) —
  // it never queues behind a writer's lock, so it stays answerable
  // exactly when things go wrong.
  Health h = health();
  resp.text = h.ToJson();
  resp.result.columns = {"field", "value"};
  auto row = [&resp](const char* k, std::string v) {
    resp.result.rows.push_back(
        {Value::String(k), Value::String(std::move(v))});
  };
  row("server_epoch", std::to_string(h.server_epoch));
  row("degraded", h.degraded ? "true" : "false");
  row("read_only", h.read_only ? "true" : "false");
  if (!h.replication.empty()) row("replication", h.replication);
  row("store_status", h.store_status.ToString());
  row("queue_depth", std::to_string(h.queue_depth) + "/" +
                         std::to_string(h.queue_capacity));
  row("estimated_wait_micros",
      std::to_string(static_cast<std::int64_t>(h.estimated_wait_micros)));
  row("accepted", std::to_string(h.stats.accepted));
  row("rejected", std::to_string(h.stats.rejected));
  row("timed_out", std::to_string(h.stats.timed_out));
  row("shed", std::to_string(h.stats.shed));
  row("unavailable", std::to_string(h.stats.unavailable));
  row("sessions_active", std::to_string(h.sessions_active));
  return resp;
}

Response Server::ExecuteMutation(RequestId id, const Request& req) {
  Response resp;
  resp.id = id;
  Database::WriteGuard guard(*db_);
  resp.waits.guard_wait_micros = guard.wait_micros();
  resp.epoch = db_->epoch();
  // Writer-starvation watchdog: under MVCC readers never hold the guard,
  // so a long exclusive wait means a *writer* ahead of this one stalled
  // (journal sync, giant transaction). Surface it in the slow-query log —
  // where an operator is already looking when latency spikes — alongside
  // the guard_writer_longest_wait_micros gauge the guard keeps.
  if (writer_wait_warn_micros_ >= 0 &&
      guard.wait_micros() >= writer_wait_warn_micros_) {
    obs::SlowQueryLog::Entry slow;
    slow.request_id = id;
    slow.trace_id = req.trace_id;
    slow.query = "[writer-wait] " + FlightDetail(req);
    slow.micros = guard.wait_micros();
    slow.guard_wait_micros = guard.wait_micros();
    slow_log_.Record(std::move(slow));
  }
  const MutationOp& op = req.mutation;
  switch (op.kind) {
    case MutationOp::Kind::kCreateObject: {
      Result<Oid> r = db_->CreateObject(op.type_name, op.inits);
      if (r.ok()) {
        resp.oid = r.value();
      } else {
        resp.status = r.status();
      }
      break;
    }
    case MutationOp::Kind::kSetAttribute:
      resp.status = db_->SetAttribute(op.target, op.attribute, op.value);
      break;
    case MutationOp::Kind::kDeleteObject:
      resp.status = db_->DeleteObject(op.target);
      break;
    case MutationOp::Kind::kCreateLink: {
      Result<Oid> r = db_->CreateLink(op.type_name, op.source, op.dest,
                                      op.context, op.inits);
      if (r.ok()) {
        resp.oid = r.value();
      } else {
        resp.status = r.status();
      }
      break;
    }
    case MutationOp::Kind::kSetLinkAttribute:
      resp.status = db_->SetLinkAttribute(op.target, op.attribute, op.value);
      break;
    case MutationOp::Kind::kDeleteLink:
      resp.status = db_->DeleteLink(op.target);
      break;
    case MutationOp::Kind::kCustom:
      if (op.custom == nullptr) {
        resp.status =
            Status::InvalidArgument("custom mutation without a body");
      } else {
        resp.status = op.custom(*db_);
        // A transaction must not outlive its request: the write guard is
        // released when this response is produced, and a dangling open
        // transaction would poison every later writer.
        if (db_->in_transaction()) {
          (void)db_->Abort();
          if (resp.status.ok()) {
            resp.status = Status::FailedPrecondition(
                "custom mutation left a transaction open (rolled back)");
          }
        }
      }
      break;
    case MutationOp::Kind::kCheckpoint:
      if (store_ == nullptr) {
        resp.status = Status::FailedPrecondition(
            "no durable store attached to this server");
      } else {
        // Checkpoint requires exclusive access — the write guard held here
        // provides it. A success supersedes any broken journal with a full
        // snapshot and a fresh journal, so it also lifts degraded mode.
        resp.status = store_->Checkpoint();
        if (resp.status.ok() &&
            degraded_.exchange(false, std::memory_order_acq_rel)) {
          ServerMetrics::Get().degraded->Set(0);
        }
      }
      break;
  }
  ObserveStoreStatus();
  return resp;
}

}  // namespace prometheus::server
