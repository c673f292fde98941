// Copyright (c) prefrep contributors.
// In-memory span recorder for the end-to-end benchmark.  Spans are
// recorded around the public library calls the benchmark makes, never
// inside the library: a span names the layer it times ("io.parse_op",
// "repair.count", ...), and every op the benchmark issues is one
// "request" root span whose children are those layer spans.
//
// A disabled tracer records nothing (each span costs one branch), which
// is how the untraced runs that produce the end-to-end numbers are
// made.  Spans stay in memory until the run ends; Analyze() then folds
// them into per-layer self times and WriteSpans() dumps them.

#ifndef PREFREP_E2EBENCH_TRACE_H_
#define PREFREP_E2EBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// The name of every root span.
inline constexpr char kRequestSpan[] = "request";

struct SpanRecord {
  const char* name = kRequestSpan;  ///< static string: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span; -1 for a root
  uint32_t request = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction.  A span
  /// opened with no enclosing span starts a new request.
  class Span {
   public:
    Span(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.enabled_ ? tracer.Open(name) : -1) {}
    ~Span() {
      if (index_ >= 0) {
        tracer_.Close(index_);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int32_t index_;
  };

  const std::deque<SpanRecord>& spans() const { return spans_; }

 private:
  int32_t Open(const char* name);
  void Close(int32_t index);

  bool enabled_;
  // A deque: growing it never copies recorded spans, so no request pays
  // for relocating the whole trace.
  std::deque<SpanRecord> spans_;
  std::vector<int32_t> open_;
  uint32_t requests_ = 0;
};

/// Self-time breakdown of a traced run.
struct LayerProfile {
  /// Layer ("io", "repair", ...) → summed self time of its spans.
  std::map<std::string, double> self_us;
  /// Span name → (summed duration, call count).
  std::map<std::string, std::pair<double, uint64_t>> calls;
  /// Summed duration of all request roots.
  double request_us = 0;
  /// Share of request time that layer spans cover, over all requests.
  double coverage = 0;
  /// The lowest such share over the kinds of request (a kind is the
  /// sequence of layer spans a request made), and that kind.
  double min_kind_coverage = 1;
  std::string min_kind;

  /// Mean duration of one `name` span; 0 when it never ran.
  double MeanUs(const std::string& name) const;
  /// self_us[layer] / request_us.
  double Share(const std::string& layer) const;
};

/// Folds spans into self times.  A span's self time is its duration
/// minus the durations of its direct children; its layer is the part of
/// its name before the first '.'.
LayerProfile Analyze(const std::deque<SpanRecord>& spans);

/// Writes one CSV line per span (request,name,parent,start_ns,end_ns).
bool WriteSpans(const std::deque<SpanRecord>& spans, const std::string& path);

}  // namespace e2ebench

#endif  // PREFREP_E2EBENCH_TRACE_H_
