#ifndef PROMETHEUS_SERVER_REQUEST_H_
#define PROMETHEUS_SERVER_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/status.h"
#include "common/value.h"
#include "core/database.h"
#include "query/query_engine.h"
#include "server/admission.h"

namespace prometheus::server {

/// Server-assigned, strictly increasing id of an admitted request.
using RequestId = std::uint64_t;

/// Id of a logical client session (see session.h).
using SessionId = std::uint64_t;

/// What a request asks the database to do.
enum class RequestKind : std::uint8_t {
  kPing,      ///< liveness probe; touches nothing, reports the epoch
  kQuery,     ///< POOL text, evaluated under a shared (read) lock
  kMutation,  ///< structured mutation, applied under an exclusive lock
  kHealth,    ///< overload/degradation summary; takes no database lock
  /// Query-cache administration (stats / clear / off / on); touches only
  /// the server's cache, never the database — serves on followers and in
  /// degraded mode alike.
  kCacheControl,
};

/// What a kCacheControl request does. Every op returns the cache stats
/// after it applied, so `.cache clear` shows the emptied state it made.
enum class CacheOp : std::uint8_t {
  kStats,    ///< report both tiers' counters; changes nothing
  kClear,    ///< drop every cached plan and result
  kDisable,  ///< stop lookups and inserts (entries stay resident)
  kEnable,   ///< re-enable both tiers
};

/// A structured mutation command — the wire-friendly subset of the
/// `Database` API a remote protocol can carry verbatim. `kCustom` wraps a
/// host-side closure for multi-step writes the envelope does not model yet
/// (tests, examples and the load generator use it for transactional
/// updates); a future wire protocol simply won't offer it.
struct MutationOp {
  enum class Kind : std::uint8_t {
    kCreateObject,
    kSetAttribute,
    kDeleteObject,
    kCreateLink,
    kSetLinkAttribute,
    kDeleteLink,
    kCustom,
    /// Operator action: `DurableStore::Checkpoint()` under the exclusive
    /// lock. The one mutation still admitted in degraded read-only mode —
    /// a successful checkpoint re-arms the store.
    kCheckpoint,
  };

  Kind kind = Kind::kCustom;
  std::string type_name;        ///< class / relationship name (kCreate*)
  Oid target = kNullOid;        ///< the object / link being touched
  Oid source = kNullOid;        ///< link source (kCreateLink)
  Oid dest = kNullOid;          ///< link target (kCreateLink)
  Oid context = kNullOid;       ///< classification context (kCreateLink)
  std::string attribute;        ///< attribute name (kSet*)
  Value value;                  ///< new attribute value (kSet*)
  std::vector<AttrInit> inits;  ///< initial attributes (kCreate*)
  /// kCustom body. Runs on a worker under the exclusive lock; its status
  /// becomes the response status. May open transactions.
  std::function<Status(Database&)> custom;
};

/// The uniform request envelope every session submits.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string query;    ///< POOL text (kQuery)
  MutationOp mutation;  ///< (kMutation)
  CacheOp cache_op = CacheOp::kStats;  ///< (kCacheControl)

  /// Trace-context id. Empty means "assign one at admission": the server
  /// stamps `<server_epoch>-<request id>` so every request is retrievable
  /// by id from the flight recorder (`/debug/requests?id=...`). Callers —
  /// the HTTP plane's `X-Trace-Id` header, `Client::CallWithRetry`, a
  /// follower's fetch loop — set it to stitch one logical operation's
  /// hops (retries, replica fetches) under a single id.
  std::string trace_id;

  /// Absolute deadline. Expired requests are refused at admission, shed at
  /// dequeue (`ResponseCode::kTimedOut`), and queries abort cooperatively
  /// mid-execution. The default (`kNoDeadline`) costs one branch.
  DeadlineClock::time_point deadline = kNoDeadline;
  /// Scheduling class: under pressure lower classes are shed first and
  /// higher classes dequeue first.
  Priority priority = Priority::kNormal;

  // Fluent qualifiers, chainable off a builder:
  //   Request::Query("...").WithTimeout(std::chrono::milliseconds(50))
  Request& WithDeadline(DeadlineClock::time_point d) {
    deadline = d;
    return *this;
  }
  Request& WithTimeout(std::chrono::microseconds budget) {
    deadline = DeadlineClock::now() + budget;
    return *this;
  }
  Request& WithPriority(Priority p) {
    priority = p;
    return *this;
  }
  Request& WithTraceId(std::string id) {
    trace_id = std::move(id);
    return *this;
  }

  // Builders — the only intended way to make a Request.
  static Request Ping() { return {}; }
  static Request Query(std::string pool_text);
  static Request Health();
  static Request CreateObject(std::string class_name,
                              std::vector<AttrInit> inits = {});
  static Request SetAttribute(Oid oid, std::string attribute, Value value);
  static Request DeleteObject(Oid oid);
  static Request CreateLink(std::string rel_name, Oid source, Oid dest,
                            Oid context = kNullOid,
                            std::vector<AttrInit> inits = {});
  static Request SetLinkAttribute(Oid oid, std::string attribute, Value value);
  static Request DeleteLink(Oid oid);
  static Request Custom(std::function<Status(Database&)> fn);
  static Request Checkpoint();
  static Request CacheControl(CacheOp op = CacheOp::kStats);
};

/// Per-request wait-state attribution in microseconds (see
/// obs/wait_profiler.h for the state definitions). Filled by the server
/// when timing is on (metrics enabled or the flight recorder recording);
/// all zeros otherwise. `execute_micros` is *pure* execution — guard
/// acquisition and journal time are subtracted out, so the fields sum to
/// (roughly) the worker-side total and a slow request's time is
/// attributable at a glance.
struct WaitBreakdown {
  double queue_micros = 0;        ///< admission -> worker pickup
  double guard_wait_micros = 0;   ///< write-guard acquisition (mutations)
  double execute_micros = 0;      ///< execution with named waits subtracted
  double journal_append_micros = 0;  ///< journal file appends
  double journal_sync_micros = 0;    ///< journal fsync barriers
};

/// Transport-level disposition of a request — distinct from the
/// database-level `Status` of executing it. Only `kOk` responses carry an
/// execution outcome; for the other codes `executed` tells whether any
/// side effect can have happened (`kTimedOut` covers both a request shed
/// unexecuted from the queue and a query aborted mid-execution).
enum class ResponseCode : std::uint8_t {
  kOk,          ///< executed; `status` holds the database outcome
  kRejected,    ///< admission refused it (backpressure / shed), never ran
  kShutdown,    ///< the server stopped before the request could run
  kTimedOut,    ///< deadline expired — before execution unless `executed`
  kUnavailable, ///< degraded read-only mode refused a mutation, never ran
};

/// The uniform response envelope. Every *accepted* request produces exactly
/// one Response; rejected and shutdown-dropped requests produce exactly one
/// too (with the corresponding code), so a client can always account for
/// every submission.
struct Response {
  RequestId id = 0;
  ResponseCode code = ResponseCode::kOk;
  Status status;            ///< database-level outcome (kOk responses)
  pool::ResultSet result;   ///< rows (kQuery); stage table (PROFILE)
  Oid oid = kNullOid;       ///< created oid (kCreateObject / kCreateLink)
  std::uint64_t epoch = 0;  ///< database epoch the request executed at
  /// Rendered text payload: the health summary (kHealth) or the span tree
  /// of a PROFILE query.
  std::string text;
  /// True when the request began executing on a worker. The retry policy
  /// keys off this: a request that never executed is always safe to
  /// resubmit; an executed mutation never is.
  bool executed = false;
  /// kQuery only: true when the server's result cache was consulted for
  /// this request (the HTTP plane then reports `X-Cache`), and whether it
  /// hit. A hit resolved on the submitting thread — no queue, no worker,
  /// no snapshot pin — with `epoch` carrying the entry's still-current
  /// materialization epoch.
  bool cache_checked = false;
  bool cache_hit = false;
  /// The request's trace id, echoed back (server-assigned when the caller
  /// left it empty). The HTTP plane returns it as `X-Trace-Id`.
  std::string trace_id;
  /// Wait-state attribution for this request (zeros when timing was off).
  WaitBreakdown waits;

  /// Accepted, executed, and the database reported success.
  bool ok() const { return code == ResponseCode::kOk && status.ok(); }
};

}  // namespace prometheus::server

#endif  // PROMETHEUS_SERVER_REQUEST_H_
