#ifndef PROMETHEUS_NET_HTTP_SERVER_H_
#define PROMETHEUS_NET_HTTP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/http.h"
#include "server/server.h"

namespace prometheus::net {

/// The remote telemetry plane: a dependency-free HTTP/1.1 front-end over
/// POSIX sockets that mounts a `server::Server` as routes — the service
/// layer the thesis describes but never shipped (§6.1.7), reduced to the
/// part an outside observer needs.
///
/// Routes:
///   GET  /metrics         Prometheus text exposition. Served directly on
///                         the handler thread from the metrics registry —
///                         no work queue, no database lock — so a scrape
///                         completes even while a writer holds the
///                         exclusive guard or the queue is saturated.
///   GET  /health          overload/degradation summary; lock-free. 200
///                         when healthy, 503 while degraded (so probes can
///                         alert on the status code alone).
///   GET  /stats           `sys.metrics` (includes a `server_epoch` row).
///   GET  /slowlog         `sys.slowlog`.
///   GET  /debug/requests  `sys.requests`, newest first; `?id=<trace id>`
///                         filters by exact trace id, `?limit=N` keeps the
///                         N most recent.
///   GET  /debug/contention  `sys.contention`; `?window=1` serves
///                         `sys.contention_window` instead.
///                         These four are fixed POOL queries run through
///                         `Server::QueryCatalog` on the handler thread and
///                         answered in the POST /query JSON envelope.
///   POST /query           POOL text in the body; result set (and, for
///                         PROFILE queries, the rendered span tree) as
///                         JSON. Travels through the server's admission
///                         queue like any client request — `X-Deadline-
///                         Micros` (relative budget) and `X-Priority`
///                         (low|normal|high) headers apply, so remote
///                         callers are shed and deadline-checked exactly
///                         like in-process ones.
///   POST /profile         same, with profiling forced on.
///
/// Threading: one blocking accept loop plus a small handler pool. Accepted
/// connections wait in a bounded hand-off queue; when it is full the
/// connection is closed immediately (overload shedding at the door —
/// consistent with the executor's backpressure-not-buffering stance).
/// Keep-alive is honoured per HTTP semantics, bounded by an idle timeout.
class HttpFrontEnd {
 public:
  struct Options {
    /// Bind address. The default only answers local scrapers; widen
    /// deliberately.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (see `port()`).
    int port = 0;
    /// Threads serving accepted connections.
    int handler_threads = 2;
    /// Accepted connections waiting for a handler; beyond this they are
    /// closed unserved.
    std::size_t pending_connections = 64;
    /// Keep-alive connections idle longer than this are closed.
    int idle_timeout_ms = 5000;
    /// Master switch for keep-alive (off forces Connection: close).
    bool keep_alive = true;
    /// Request size caps.
    HttpLimits limits;
    /// Auxiliary route hook, consulted before the built-in routes: return
    /// true with `*out` holding a fully serialized response to claim the
    /// request, false to fall through. Runs on a handler thread and must be
    /// thread-safe. The replication endpoint mounts `/repl/*` here.
    std::function<bool(const HttpRequest&, bool keep_alive, std::string* out)>
        aux_handler;
  };

  /// `server` must outlive the front-end. Does not listen yet.
  HttpFrontEnd(server::Server* server, Options options);
  explicit HttpFrontEnd(server::Server* server)
      : HttpFrontEnd(server, Options{}) {}

  /// Stops (if running).
  ~HttpFrontEnd();

  HttpFrontEnd(const HttpFrontEnd&) = delete;
  HttpFrontEnd& operator=(const HttpFrontEnd&) = delete;

  /// Binds, listens and starts the accept + handler threads.
  Status Start();

  /// Closes the listener, drains the handlers and joins. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound TCP port (resolved after Start() when Options::port == 0).
  int port() const { return port_; }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_dropped = 0;  ///< hand-off queue full
    std::uint64_t requests_served = 0;
    std::uint64_t bad_requests = 0;
  };
  Stats stats() const;

 private:
  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);
  /// Routes one parsed request; returns the serialized response.
  std::string Handle(const HttpRequest& req, server::Session& session,
                     bool keep_alive);

  server::Server* server_;
  const Options options_;
  /// Atomic: Stop() closes and clears it while the accept loop reads it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> handlers_;

  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<int> pending_;  ///< accepted fds awaiting a handler

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> bad_{0};
};

}  // namespace prometheus::net

#endif  // PROMETHEUS_NET_HTTP_SERVER_H_
