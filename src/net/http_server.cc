#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/wait_profiler.h"
#include "query/query_engine.h"

namespace prometheus::net {

namespace {

constexpr const char* kJsonType = "application/json";
constexpr const char* kTextType = "text/plain; charset=utf-8";
/// The content type Prometheus scrapers expect for the text format.
constexpr const char* kPromType = "text/plain; version=0.0.4; charset=utf-8";

/// Receive timeout per recv() call — short so handler threads notice the
/// stop flag promptly without busy-waiting.
constexpr int kRecvPollMs = 250;

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Writes the whole buffer; false on peer reset. MSG_NOSIGNAL keeps a
/// disconnected peer from raising SIGPIPE at the process.
bool SendAll(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Maps a request's transport disposition + database status to HTTP.
int HttpStatusFor(const server::Response& resp) {
  switch (resp.code) {
    case server::ResponseCode::kOk:
      return resp.status.ok() ? 200 : 400;
    case server::ResponseCode::kRejected:
      return 429;  // backpressure: retry with less load
    case server::ResponseCode::kTimedOut:
      return 504;  // deadline expired before/inside execution
    case server::ResponseCode::kUnavailable:
      return 503;  // degraded read-only mode
    case server::ResponseCode::kShutdown:
      return 503;
  }
  return 500;
}

const char* CodeLabel(server::ResponseCode code) {
  switch (code) {
    case server::ResponseCode::kOk: return "ok";
    case server::ResponseCode::kRejected: return "rejected";
    case server::ResponseCode::kShutdown: return "shutdown";
    case server::ResponseCode::kTimedOut: return "timed_out";
    case server::ResponseCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

/// Renders a query response the way the shell prints it, as JSON: the
/// envelope (id, code, status, epoch), the result set, and the profile
/// text when present.
std::string RenderQueryJson(const server::Response& resp) {
  stats::JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.Uint(resp.id);
  w.Key("code");
  w.String(CodeLabel(resp.code));
  w.Key("ok");
  w.Bool(resp.ok());
  w.Key("status");
  w.String(resp.status.ToString());
  w.Key("epoch");
  w.Uint(resp.epoch);
  if (resp.cache_checked) {
    w.Key("cache");
    w.String(resp.cache_hit ? "hit" : "miss");
  }
  w.Key("columns");
  w.BeginArray();
  for (const auto& c : resp.result.columns) w.String(c);
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  for (const auto& row : resp.result.rows) {
    w.BeginArray();
    for (const auto& cell : row) w.String(cell.ToString());
    w.EndArray();
  }
  w.EndArray();
  if (!resp.text.empty()) {
    w.Key("text");
    w.String(resp.text);
  }
  w.EndObject();
  return w.str();
}

/// Trace ids travel in headers, URLs and log lines, so the accepted
/// alphabet is deliberately narrow: 1-128 chars of [A-Za-z0-9._:-].
bool ValidTraceId(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

/// Parses the X-Deadline-Micros / X-Priority request headers into the
/// envelope. Returns false (with *error set) on a malformed value — the
/// caller answers 400 rather than silently running without the caller's
/// intended budget.
bool ApplyRequestHeaders(const HttpRequest& http, server::Request* req,
                         std::string* error) {
  if (const std::string* v = http.Header("x-deadline-micros")) {
    if (v->empty() ||
        v->find_first_not_of("0123456789") != std::string::npos) {
      *error = "malformed X-Deadline-Micros (want a relative microsecond "
               "budget)";
      return false;
    }
    // strtoull + an explicit range check: std::stoll would throw
    // out_of_range on a 20-digit header, and an uncaught exception on the
    // handler thread takes the whole server down.
    errno = 0;
    char* end = nullptr;
    const unsigned long long micros = std::strtoull(v->c_str(), &end, 10);
    if (errno == ERANGE ||
        micros > static_cast<unsigned long long>(
                     std::numeric_limits<std::int64_t>::max())) {
      *error = "X-Deadline-Micros out of range";
      return false;
    }
    req->WithTimeout(
        std::chrono::microseconds(static_cast<std::int64_t>(micros)));
  }
  if (const std::string* v = http.Header("x-priority")) {
    if (*v == "low") {
      req->WithPriority(server::Priority::kLow);
    } else if (*v == "normal") {
      req->WithPriority(server::Priority::kNormal);
    } else if (*v == "high") {
      req->WithPriority(server::Priority::kHigh);
    } else {
      *error = "malformed X-Priority (want low|normal|high)";
      return false;
    }
  }
  if (const std::string* v = http.Header("x-trace-id")) {
    if (!ValidTraceId(*v)) {
      *error = "malformed X-Trace-Id (want 1-128 chars of [A-Za-z0-9._:-])";
      return false;
    }
    req->WithTraceId(*v);
  }
  return true;
}

std::string ErrorBody(const std::string& message) {
  stats::JsonWriter w;
  w.BeginObject();
  w.Key("error");
  w.String(message);
  w.EndObject();
  return w.str();
}

}  // namespace

HttpFrontEnd::HttpFrontEnd(server::Server* server, Options options)
    : server_(server), options_(std::move(options)) {}

HttpFrontEnd::~HttpFrontEnd() { Stop(); }

Status HttpFrontEnd::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("front-end already running");
  }
  stopping_.store(false, std::memory_order_release);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind(" + options_.bind_address + ":" +
                            std::to_string(options_.port) + "): " + err);
  }
  if (::listen(fd, static_cast<int>(options_.pending_connections)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen(): " + err);
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  const int threads = options_.handler_threads < 1 ? 1
                                                   : options_.handler_threads;
  handlers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    handlers_.emplace_back([this] { HandlerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpFrontEnd::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Publish the stop flag under mu_: a handler that evaluated the wait
  // predicate just before the store would otherwise miss the notify and
  // block forever (lost wakeup), hanging the joins below.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true, std::memory_order_release);
  }
  ready_.notify_all();
  // Closing the listener unblocks accept(); shutdown() first covers
  // platforms where close() alone does not wake a blocked accept.
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& t : handlers_) {
    if (t.joinable()) t.join();
  }
  handlers_.clear();
  // Connections still waiting for a handler are closed unserved.
  std::lock_guard<std::mutex> lock(mu_);
  for (int fd : pending_) ::close(fd);
  pending_.clear();
}

HttpFrontEnd::Stats HttpFrontEnd::stats() const {
  Stats s;
  s.connections_accepted = accepted_.load(std::memory_order_relaxed);
  s.connections_dropped = dropped_.load(std::memory_order_relaxed);
  s.requests_served = served_.load(std::memory_order_relaxed);
  s.bad_requests = bad_.load(std::memory_order_relaxed);
  return s;
}

void HttpFrontEnd::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EBADF / EINVAL after Stop() closed the listener — exit quietly.
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (pending_.size() < options_.pending_connections) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      ready_.notify_one();
    } else {
      // Hand-off queue full: shed at the door instead of buffering an
      // unbounded backlog of idle sockets.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
    }
  }
}

void HttpFrontEnd::HandlerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (pending_.empty()) return;  // stopping, queue drained
      fd = pending_.front();
      pending_.pop_front();
    }
    ServeConnection(fd);
  }
}

void HttpFrontEnd::ServeConnection(int fd) {
  SetRecvTimeout(fd, kRecvPollMs);
  const int nodelay = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));

  // One logical session per connection: remote requests flow through the
  // same admission control as in-process clients.
  std::shared_ptr<server::Session> session = server_->Connect();

  std::string buffer;
  char chunk[8192];
  auto last_activity = std::chrono::steady_clock::now();
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    // Drain every complete pipelined request already buffered.
    while (open) {
      HttpRequest req;
      std::size_t consumed = 0;
      std::string error;
      const ParseResult pr =
          ParseHttpRequest(buffer, &consumed, &req, &error, options_.limits);
      if (pr == ParseResult::kIncomplete) break;
      if (pr == ParseResult::kBad || pr == ParseResult::kTooLarge) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        const int code = pr == ParseResult::kBad ? 400 : 413;
        SendAll(fd, SerializeHttpResponse(code, kJsonType, ErrorBody(error),
                                          /*keep_alive=*/false));
        open = false;
        break;
      }
      buffer.erase(0, consumed);
      const bool keep =
          options_.keep_alive && req.KeepAlive() &&
          !stopping_.load(std::memory_order_acquire);
      const std::string out = Handle(req, *session, keep);
      served_.fetch_add(1, std::memory_order_relaxed);
      if (!SendAll(fd, out) || !keep) {
        open = false;
        break;
      }
      last_activity = std::chrono::steady_clock::now();
    }
    if (!open) break;

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
      last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) break;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      const auto idle = std::chrono::steady_clock::now() - last_activity;
      if (idle >= std::chrono::milliseconds(options_.idle_timeout_ms)) {
        break;  // idle keep-alive connection: reclaim the handler
      }
      continue;
    }
    break;  // hard socket error
  }

  server_->sessions().Close(session->id());
  ::close(fd);
}

std::string HttpFrontEnd::Handle(const HttpRequest& req,
                                 server::Session& session, bool keep_alive) {
  // Trace context first: an id on *any* request — including the /repl/*
  // fetches the aux handler serves — lands in this server's flight
  // recorder, so one id stitches a request's path across the fleet
  // (follower fetch -> leader serve). Malformed ids are refused up front.
  const std::string* trace_hdr = req.Header("x-trace-id");
  if (trace_hdr != nullptr && !ValidTraceId(*trace_hdr)) {
    bad_.fetch_add(1, std::memory_order_relaxed);
    return SerializeHttpResponse(
        400, kJsonType,
        ErrorBody("malformed X-Trace-Id (want 1-128 chars of "
                  "[A-Za-z0-9._:-])"),
        keep_alive);
  }
  // Records a handler-thread-served (non-worker) request under its trace
  // id: /repl/* fetches and traced telemetry GETs never reach the server
  // core, so the transport writes the recorder entry itself.
  auto record_traced = [this, trace_hdr, &req](const char* type,
                                               double micros) {
    if (trace_hdr == nullptr || !server_->flight_recorder().enabled()) return;
    obs::FlightRecorder::Entry entry;
    entry.trace_id = *trace_hdr;
    entry.type = type;
    entry.code = "ok";
    entry.ok = true;
    entry.executed = true;
    entry.total_micros = micros;
    entry.detail = req.method + " " + req.target;
    server_->flight_recorder().Record(std::move(entry));
  };

  if (options_.aux_handler) {
    std::string out;
    const auto aux_start = std::chrono::steady_clock::now();
    if (options_.aux_handler(req, keep_alive, &out)) {
      record_traced("aux", std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - aux_start)
                               .count());
      return out;
    }
  }
  std::string_view path_view;
  std::string_view query_view;
  SplitTarget(req.target, &path_view, &query_view);
  const std::string path(path_view);

  // Telemetry routes are answered directly on the handler thread. The
  // introspection routes are fixed POOL queries over the sys.* catalog,
  // run through Server::QueryCatalog and rendered in the /query envelope:
  // no work queue, no admission control, no database guard, so they
  // answer while a writer holds the exclusive lock or the queue is full.
  if (req.method == "GET" || req.method == "HEAD") {
    const auto get_start = std::chrono::steady_clock::now();
    auto bad_param = [&](const std::string& message) {
      return SerializeHttpResponse(400, kJsonType, ErrorBody(message),
                                   keep_alive);
    };
    // Non-empty for the catalog routes: the class to select from and the
    // clauses after its range.
    std::string catalog_class;
    std::string catalog_tail;
    std::string body;
    std::string content_type = kJsonType;
    int status = 200;
    if (path == "/metrics") {
      obs::UpdateProcessUptime();
      obs::MetricsSnapshot snap = obs::Registry().Snapshot();
      body = obs::RenderPrometheusText(snap) +
             "# HELP server_epoch Wall-clock microseconds at server "
             "construction; changes on restart\n"
             "# TYPE server_epoch gauge\n"
             "server_epoch " +
             std::to_string(server_->server_epoch()) + "\n";
      content_type = kPromType;
    } else if (path == "/health") {
      const server::Server::Health h = server_->health();
      body = h.ToJson();
      if (h.degraded) status = 503;  // probes alert on the code alone
    } else if (path == "/stats") {
      catalog_class = "sys.metrics";
    } else if (path == "/slowlog") {
      catalog_class = "sys.slowlog";
    } else if (path == "/debug/requests") {
      // Newest first. ?id= is an exact trace-id match — the lookup a
      // distributed trace needs ("what did request t-123 do on this
      // node") — and lands in a POOL string literal, so it must be a
      // valid trace id. ?limit=N keeps the N most recent. Both are
      // validated strictly: a malformed value is a client error, not a
      // silent full dump.
      catalog_class = "sys.requests";
      std::string id;
      if (QueryParam(query_view, "id", &id)) {
        if (!ValidTraceId(id)) {
          return bad_param(
              "id must be a trace id (1-128 chars of [A-Za-z0-9._:-])");
        }
        catalog_tail = " where r.trace_id = '" + id + "'";
      }
      catalog_tail += " order by r.seq desc";
      std::string limit;
      if (QueryParam(query_view, "limit", &limit)) {
        const bool digits =
            !limit.empty() && limit.size() <= 7 &&
            limit.find_first_not_of("0123456789") == std::string::npos;
        const std::uint64_t n =
            digits ? std::strtoull(limit.c_str(), nullptr, 10) : 0;
        if (n < 1 || n > 1000000) {
          return bad_param("limit must be an integer in [1, 1000000], got '" +
                           limit + "'");
        }
        catalog_tail += " limit " + std::to_string(n);
      }
    } else if (path == "/debug/contention") {
      // ?window=1 selects sys.contention_window: only what accumulated
      // since the previous windowed read — the "what is blocking right
      // now" view. A typo'd ?window=yes must not silently fall back to
      // the cumulative view an operator wasn't asking for.
      catalog_class = "sys.contention";
      std::string window;
      if (QueryParam(query_view, "window", &window)) {
        if (window.empty() || window == "1" || window == "true") {
          catalog_class = "sys.contention_window";
        } else if (window != "0" && window != "false") {
          return bad_param("window must be one of 1/0/true/false, got '" +
                           window + "'");
        }
      }
    } else if (path == "/query" || path == "/profile") {
      return SerializeHttpResponse(
          405, kJsonType, ErrorBody("use POST with a POOL query body"),
          keep_alive, {{"Allow", "POST"}});
    } else {
      return SerializeHttpResponse(404, kJsonType,
                                   ErrorBody("no route for " + path),
                                   keep_alive);
    }
    if (!catalog_class.empty()) {
      const server::Response resp = server_->QueryCatalog(
          server_->system_catalog().SelectAll(catalog_class, catalog_tail));
      body = RenderQueryJson(resp);
      status = HttpStatusFor(resp);
    }
    if (req.method == "HEAD") body.clear();
    record_traced("http_get", std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - get_start)
                                  .count());
    std::vector<std::pair<std::string, std::string>> extra;
    if (trace_hdr != nullptr) extra.emplace_back("X-Trace-Id", *trace_hdr);
    return SerializeHttpResponse(status, content_type, body, keep_alive,
                                 extra);
  }

  if (req.method == "POST" && (path == "/query" || path == "/profile")) {
    std::string text = req.body;
    if (text.empty()) {
      return SerializeHttpResponse(400, kJsonType,
                                   ErrorBody("empty query body"), keep_alive);
    }
    if (path == "/profile" && !pool::IsProfileQuery(text)) {
      text = "profile " + text;
    }
    server::Request query = server::Request::Query(std::move(text));
    std::string header_error;
    if (!ApplyRequestHeaders(req, &query, &header_error)) {
      return SerializeHttpResponse(400, kJsonType, ErrorBody(header_error),
                                   keep_alive);
    }
    const server::Response resp = session.Call(std::move(query));
    // X-Cache reports the result-cache disposition when the cache was
    // consulted; an uncached server (cache.enabled=false) omits it.
    std::vector<std::pair<std::string, std::string>> extra;
    if (resp.cache_checked) {
      extra.emplace_back("X-Cache", resp.cache_hit ? "hit" : "miss");
    }
    // Echo the trace id (caller-supplied or server-assigned) so a client
    // can follow up with /debug/requests?id=<it> on any node it touched.
    if (!resp.trace_id.empty()) {
      extra.emplace_back("X-Trace-Id", resp.trace_id);
    }
    // Serialization is the last wait state a request passes through; time
    // it like the others so a response-rendering regression shows up in
    // the same breakdown.
    const bool time_serialize = obs::MetricsEnabled();
    const auto ser_start = time_serialize ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
    std::string body = RenderQueryJson(resp);
    if (time_serialize) {
      obs::WaitInstruments::Get().serialize->Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - ser_start)
              .count());
    }
    return SerializeHttpResponse(HttpStatusFor(resp), kJsonType, body,
                                 keep_alive, extra);
  }

  // Known telemetry path with the wrong verb?
  if (path == "/metrics" || path == "/stats" || path == "/health" ||
      path == "/slowlog" || path == "/debug/requests" ||
      path == "/debug/contention") {
    return SerializeHttpResponse(405, kJsonType,
                                 ErrorBody("use GET for " + path), keep_alive,
                                 {{"Allow", "GET"}});
  }
  return SerializeHttpResponse(404, kJsonType,
                               ErrorBody("no route for " + path), keep_alive);
}

}  // namespace prometheus::net
