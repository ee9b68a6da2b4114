#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

struct ThreadBuffer {
  std::vector<SpanRecord> done;
  std::vector<const SpanRecord*> open;  ///< innermost last
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;  // guarded

ThreadBuffer& Local() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(b);
    return b;
  }();
  return *buf;
}

double NowMicros() { return MicrosBetween(g_epoch, Clock::now()); }

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* layer, const char* name, std::uint64_t request)
    : on_(Enabled()) {
  if (!on_) return;
  ThreadBuffer& buf = Local();
  rec_.layer = layer;
  rec_.name = name;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (!buf.open.empty()) {
    rec_.parent = buf.open.back()->id;
    rec_.request = buf.open.back()->request;
  }
  if (request != 0) rec_.request = request;
  buf.open.push_back(&rec_);
  rec_.start_us = NowMicros();
}

Span::~Span() {
  if (!on_) return;
  rec_.end_us = NowMicros();
  ThreadBuffer& buf = Local();
  buf.open.pop_back();
  buf.done.push_back(rec_);
}

std::vector<SpanRecord> Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->done.begin(), b->done.end());
  }
  return all;
}

std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& layer,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (layer == s.layer && name == s.name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    double d = s.end_us - s.start_us;
    auto it = child_time.find(s.id);
    if (it != child_time.end()) d -= it->second;
    self[s.layer] += std::max(0.0, d);
  }
  return self;
}

bool WriteJsonLines(const std::vector<SpanRecord>& spans,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"layer\":\"%s\",\"name\":\"%s\",\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"start_us\":%.3f,"
                 "\"end_us\":%.3f}\n",
                 s.layer, s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
