// Benchmark-side host-time spans.
//
// The traced run wraps its calls into each simulator layer in spans kept
// in memory and written out when the benchmark ends. A span has a name,
// host start and end (steady_clock nanoseconds since the log was made),
// the index of the span that caused it, and the number of layer
// operations it covers. A span may cover a run of consecutive calls into
// one layer: a clock read per call would cost as much as the cheapest
// calls themselves (an RNG draw is a few nanoseconds).

#ifndef HOSTBENCH_SPAN_LOG_H_
#define HOSTBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace hostbench {

class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = kNoParent;
    uint64_t ops = 0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its index.
  int64_t Begin(std::string name, int64_t parent);
  // Closes span `index`, recording the operations it covered.
  void End(int64_t index, uint64_t ops = 0);

  const std::vector<Span>& spans() const { return spans_; }

  // Duration of span `index` in seconds.
  double Seconds(int64_t index) const {
    const Span& span = spans_[static_cast<size_t>(index)];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }

  // Sum of (end - start) over the spans named `name` at index `from` or
  // later, and of their ops.
  uint64_t TotalNs(const std::string& name, size_t from = 0) const;
  uint64_t TotalOps(const std::string& name, size_t from = 0) const;

  // Self time of span `index`: its duration minus what its children cover.
  uint64_t SelfNs(int64_t index) const;

  // {"spans": [{"name", "start_ns", "end_ns", "parent", "ops"}, ...]}.
  lightrw::Status WriteJson(const std::string& path) const;

 private:
  uint64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

// Times `fn` inside a span named `name` under `parent`, returning the
// span's duration in seconds. `ops` is recorded on the span.
template <typename Fn>
double Timed(SpanLog* log, const char* name, int64_t parent, uint64_t ops,
             Fn&& fn) {
  const int64_t id = log->Begin(name, parent);
  fn();
  log->End(id, ops);
  return log->Seconds(id);
}

}  // namespace hostbench

#endif  // HOSTBENCH_SPAN_LOG_H_
