#include "span_log.h"

#include <utility>

#include "obs/json.h"
#include "obs/trace.h"

namespace hostbench {

int64_t SpanLog::Begin(std::string name, int64_t parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t index, uint64_t ops) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.ops = ops;
}

uint64_t SpanLog::TotalNs(const std::string& name, size_t from) const {
  uint64_t total = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return total;
}

uint64_t SpanLog::TotalOps(const std::string& name, size_t from) const {
  uint64_t total = 0;
  for (size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total += spans_[i].ops;
    }
  }
  return total;
}

uint64_t SpanLog::SelfNs(int64_t index) const {
  const Span& span = spans_[static_cast<size_t>(index)];
  uint64_t children = 0;
  for (const Span& child : spans_) {
    if (child.parent == index) {
      children += child.end_ns - child.start_ns;
    }
  }
  const uint64_t duration = span.end_ns - span.start_ns;
  return children >= duration ? 0 : duration - children;
}

lightrw::Status SpanLog::WriteJson(const std::string& path) const {
  using lightrw::obs::Json;
  Json list = Json::MakeArray();
  for (const Span& span : spans_) {
    Json entry = Json::MakeObject();
    entry.Set("name", span.name);
    entry.Set("start_ns", span.start_ns);
    entry.Set("end_ns", span.end_ns);
    entry.Set("parent", span.parent);
    entry.Set("ops", span.ops);
    list.Append(std::move(entry));
  }
  Json doc = Json::MakeObject();
  doc.Set("spans", std::move(list));
  return lightrw::obs::WriteTextFile(doc.Dump() + "\n", path);
}

uint64_t SpanLog::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

}  // namespace hostbench
