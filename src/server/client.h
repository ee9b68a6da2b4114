#ifndef PROMETHEUS_SERVER_CLIENT_H_
#define PROMETHEUS_SERVER_CLIENT_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/server.h"

namespace prometheus::server {

/// Client-side retry policy: exponential backoff with full jitter and a
/// per-call retry budget. `CallWithRetry` applies it to the *transport*
/// outcomes that are provably safe to resubmit:
///
///  - `kRejected` — admission refused the request; it never ran.
///  - `kTimedOut` with `executed == false` — shed from the queue; never ran.
///
/// Everything else is final: an executed request (even one that timed out
/// mid-execution) may have had effects, `kUnavailable` needs an operator
/// action (checkpoint) rather than patience, and `kShutdown` means the
/// server is gone. Mutations are therefore never retried after execution
/// began — the policy cannot double-apply a write.
struct RetryPolicy {
  /// Total tries (first call + retries). 1 disables retrying.
  int max_attempts = 4;
  /// Backoff before retry k (1-based): jitter(initial * multiplier^(k-1)),
  /// capped at `max_backoff`. "Full jitter": uniform in [0, that].
  std::chrono::microseconds initial_backoff{1000};
  std::chrono::microseconds max_backoff{100000};
  double multiplier = 2.0;
  /// Upper bound on time spent across all attempts and backoffs. The
  /// request's own deadline (when set) also bounds retrying — whichever is
  /// tighter wins.
  std::chrono::microseconds budget{1000000};
};

/// In-process client: the convenience face tests, examples and the load
/// generator program against — and the exact surface a future wire
/// protocol will serve remotely. Owns one session; the typed methods are
/// blocking RPCs that fold the transport envelope back into the library's
/// `Status`/`Result` vocabulary (a rejected or shutdown request surfaces
/// as `kFailedPrecondition` with the transport detail in the message).
///
/// Thread-safe: one Client may be shared by several threads, or each
/// thread can connect its own (each Client is one logical session).
///
/// Under overload the transport codes surface distinctly: `kRejected` and
/// queue-shed `kTimedOut` are retryable (see `CallWithRetry`), while
/// `kUnavailable` (degraded read-only mode) calls for `Checkpoint()`.
class Client {
 public:
  /// Connects a new session. `server` must outlive the client.
  explicit Client(Server* server);

  /// Closes the session.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Blocking typed RPCs.
  Result<pool::ResultSet> Query(const std::string& pool_text);
  Result<Oid> CreateObject(std::string class_name,
                           std::vector<AttrInit> inits = {});
  Status SetAttribute(Oid oid, std::string attribute, Value value);
  Status DeleteObject(Oid oid);
  Result<Oid> CreateLink(std::string rel_name, Oid source, Oid dest,
                         Oid context = kNullOid,
                         std::vector<AttrInit> inits = {});
  Status SetLinkAttribute(Oid oid, std::string attribute, Value value);
  Status DeleteLink(Oid oid);

  /// Multi-step write executed atomically on the server (exclusive lock).
  Status Mutate(std::function<Status(Database&)> fn);

  /// Liveness probe; returns the database epoch at execution.
  Result<std::uint64_t> Ping();

  /// Overload/degradation summary (see Server::Health), as rendered JSON.
  /// Executes at high priority and takes no database lock, so it answers
  /// even when the server is overloaded or degraded.
  Result<std::string> Health();

  /// Typed variant of `Health()`. In-process convenience: reads the
  /// server's health snapshot directly (no queueing), so it cannot be
  /// starved by the very overload it reports on.
  Server::Health HealthInfo();

  /// Operator action: checkpoint the attached DurableStore (snapshot +
  /// journal rotation under the exclusive lock). A success re-arms a
  /// degraded server. Fails kFailedPrecondition without a store.
  Status Checkpoint();

  /// A query executed with span tracing (a `profile` prefix is optional).
  struct ProfiledQuery {
    pool::ResultSet stages;  ///< {stage, micros, rows, detail} table
    std::string tree;        ///< the same trace rendered as an indented tree
  };
  Result<ProfiledQuery> Profile(const std::string& pool_text);

  // Envelope-level access for callers that need the full Response.
  Response Call(Request req);
  std::future<Response> Submit(Request req);

  /// `Call` with the retry policy applied (see RetryPolicy for what is
  /// retryable). The request is copied per attempt; an absolute deadline
  /// on it naturally bounds the retrying.
  Response CallWithRetry(Request req, const RetryPolicy& policy = {});

  /// Blocking query with retries folded in — the convenience most load
  /// generators want under overload.
  Result<pool::ResultSet> QueryWithRetry(const std::string& pool_text,
                                         const RetryPolicy& policy = {});

  /// True when `resp` is an outcome `CallWithRetry` would resubmit.
  static bool Retryable(const Response& resp);

  Session& session() { return *session_; }

 private:
  /// Folds a non-executed transport outcome into a Status.
  static Status TransportStatus(const Response& resp);

  Server* server_;
  std::shared_ptr<Session> session_;
};

}  // namespace prometheus::server

#endif  // PROMETHEUS_SERVER_CLIENT_H_
