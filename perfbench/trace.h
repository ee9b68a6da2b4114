// Spans recorded by the benchmark around its own calls into each engine
// layer. Off unless enabled (the untraced run pays one relaxed load per
// span); when on, each thread appends to its own buffer and nothing is
// written until the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench::trace {

struct SpanRecord {
  const char* layer = "";
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a root span
  std::uint64_t request = 0;  ///< spans of one request share it
  double start_us = 0;        ///< since the trace epoch
  double end_us = 0;
};

void SetEnabled(bool on);
bool Enabled();

/// RAII span. `layer` and `name` must be string literals. The parent is
/// the innermost span open on the same thread; the request id is
/// inherited from it unless given.
class Span {
 public:
  Span(const char* layer, const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  SpanRecord rec_;
};

/// Every span recorded so far, across threads (call when no span is open).
std::vector<SpanRecord> Collect();

/// Durations in microseconds of the spans named `layer`/`name`.
std::vector<double> Durations(const std::vector<SpanRecord>& spans,
                              const std::string& layer,
                              const std::string& name);

/// Self time per layer, in microseconds: each span's duration minus the
/// part of it its child spans cover.
std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span, one per line. Returns false on I/O
/// failure.
bool WriteJsonLines(const std::vector<SpanRecord>& spans,
                    const std::string& path);

}  // namespace perfbench::trace

#endif  // PERFBENCH_TRACE_H_
