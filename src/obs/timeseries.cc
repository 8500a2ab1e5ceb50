#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/check.h"

namespace lightrw::obs {

namespace {

// Residual scale floor: keeps flat series (MAD == 0) from dividing by
// zero while still letting a burst register as a large finite z.
double RobustScale(double mad, double level) {
  return std::max(1.4826 * mad, 0.05 * std::max(std::abs(level), 1.0));
}

double MedianOf(std::deque<double> values) {
  LIGHTRW_CHECK(!values.empty());
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  if (n % 2 == 1) {
    return sorted[n / 2];
  }
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

std::string FormatAnnotation(const TsAnnotation& note) {
  std::string out = note.kind + "@" + std::to_string(note.cycle);
  if (!note.detail.empty()) {
    out += ' ';
    out += note.detail;
  }
  return out;
}

}  // namespace

std::vector<Incident> DetectSeriesIncidents(const std::string& series,
                                            const std::vector<double>& values,
                                            const TimeSeriesConfig& config) {
  std::vector<Incident> incidents;
  double level = 0.0;
  std::deque<double> residuals;
  bool open = false;
  Incident current;
  uint32_t calm = 0;
  for (size_t w = 0; w < values.size(); ++w) {
    const double x = values[w];
    const double residual = std::abs(x - level);
    double z = 0.0;
    if (w >= config.anomaly_warmup && !residuals.empty()) {
      z = (x - level) / RobustScale(MedianOf(residuals), level);
    }
    // Judge window w against the state built from windows < w, then
    // fold it in.
    if (!open) {
      if (std::abs(z) >= config.anomaly_z_open) {
        open = true;
        current = Incident{};
        current.series = series;
        current.open_window = w;
        current.close_window = w;
        current.severity = std::abs(z);
        calm = 0;
      }
    } else {
      current.severity = std::max(current.severity, std::abs(z));
      if (std::abs(z) < config.anomaly_z_close) {
        ++calm;
        if (calm >= kAnomalyCloseAfter) {
          current.close_window = w;
          current.closed = true;
          incidents.push_back(current);
          open = false;
        }
      } else {
        calm = 0;
      }
    }
    level += config.anomaly_alpha * (x - level);
    residuals.push_back(residual);
    while (residuals.size() > kAnomalyMadWindow) {
      residuals.pop_front();
    }
  }
  if (open) {
    current.close_window = values.empty() ? 0 : values.size() - 1;
    current.closed = false;
    incidents.push_back(current);
  }
  return incidents;
}

TimeSeriesRecorder::TimeSeriesRecorder(const TimeSeriesConfig& config)
    : config_(config) {
  LIGHTRW_CHECK(config_.scrape_interval > 0);
}

void TimeSeriesRecorder::Annotate(const std::string& kind, uint64_t cycle,
                                  const std::string& detail) {
  annotations_.push_back(TsAnnotation{kind, cycle, detail});
}

void TimeSeriesRecorder::CloseWindow(uint64_t end_cycle) {
  const size_t closed = window_end_.size();
  live_.Visit([&](const MetricsRegistry::InstrumentRef& ref) {
    auto it = series_.find(*ref.key);
    if (it == series_.end()) {
      Series fresh;
      fresh.name = *ref.name;
      fresh.labels = *ref.labels;
      fresh.kind = ref.kind;
      // Instruments created mid-run backfill zero/empty windows so every
      // series stays dense over the retained window range.
      switch (ref.kind) {
        case 0:
          fresh.counter_delta.assign(closed, 0);
          break;
        case 1:
          fresh.gauge_last.assign(closed, 0.0);
          break;
        default:
          fresh.hist_window.assign(closed, SampleStats());
          fresh.exemplars.assign(closed, WindowExemplar());
          break;
      }
      it = series_.emplace(*ref.key, std::move(fresh)).first;
    }
    Series& series = it->second;
    switch (ref.kind) {
      case 0: {
        const uint64_t value = ref.counter->value();
        series.counter_delta.push_back(value - series.last_counter);
        series.last_counter = value;
        break;
      }
      case 1:
        series.gauge_last.push_back(ref.gauge->value());
        break;
      default: {
        std::vector<double> values;
        std::vector<Exemplar> ids;
        series.hist_cursor =
            ref.histogram->ReadSince(series.hist_cursor, &values, &ids);
        SampleStats window;
        WindowExemplar worst;
        for (size_t i = 0; i < values.size(); ++i) {
          window.Add(values[i]);
          const bool better =
              !worst.valid || values[i] > worst.value ||
              (values[i] == worst.value &&
               (ids[i].trace < worst.trace ||
                (ids[i].trace == worst.trace && ids[i].span < worst.span)));
          if (better) {
            worst.valid = true;
            worst.value = values[i];
            worst.trace = ids[i].trace;
            worst.span = ids[i].span;
          }
        }
        series.hist_window.push_back(std::move(window));
        series.exemplars.push_back(worst);
        break;
      }
    }
  });
  window_end_.push_back(end_cycle);
  final_cycle_ = std::max(final_cycle_, end_cycle);
  TrimToRing();
}

void TimeSeriesRecorder::TrimToRing() {
  while (window_end_.size() > kMaxTimeSeriesWindows) {
    window_end_.erase(window_end_.begin());
    for (auto& [key, series] : series_) {
      switch (series.kind) {
        case 0:
          series.counter_delta.erase(series.counter_delta.begin());
          break;
        case 1:
          series.gauge_last.erase(series.gauge_last.begin());
          break;
        default:
          series.hist_window.erase(series.hist_window.begin());
          series.exemplars.erase(series.exemplars.begin());
          break;
      }
    }
    ++first_window_;
  }
}

void TimeSeriesRecorder::AdvanceTo(uint64_t cycle) {
  if (finished_) {
    return;
  }
  const uint64_t interval = config_.scrape_interval;
  while ((first_window_ + window_end_.size() + 1) * interval <= cycle) {
    CloseWindow((first_window_ + window_end_.size() + 1) * interval);
  }
}

void TimeSeriesRecorder::Finish(uint64_t cycle) {
  if (finished_) {
    return;
  }
  AdvanceTo(cycle);
  // Always close one final window so updates at or after the last full
  // boundary (events processed at exactly the boundary cycle belong to
  // the next window) are captured. It may be partial or even empty.
  const uint64_t start =
      (first_window_ + window_end_.size()) * config_.scrape_interval;
  CloseWindow(std::max(cycle, start));
  finished_ = true;
}

void TimeSeriesRecorder::MergeFrom(const TimeSeriesRecorder* shard) {
  LIGHTRW_CHECK(shard != nullptr);
  LIGHTRW_CHECK(shard->config_.scrape_interval == config_.scrape_interval);
  // Ring eviction with per-shard recorders would need offset alignment;
  // kMaxTimeSeriesWindows is sized generously instead (checked, not
  // silently wrong).
  LIGHTRW_CHECK(shard->first_window_ == first_window_);
  const size_t target = std::max(window_end_.size(), shard->window_end_.size());
  // Grow the window index first, taking the later end per slot.
  for (size_t w = 0; w < shard->window_end_.size(); ++w) {
    if (w < window_end_.size()) {
      window_end_[w] = std::max(window_end_[w], shard->window_end_[w]);
    } else {
      window_end_.push_back(shard->window_end_[w]);
    }
  }
  // Pad every local series to the merged window count; shards that
  // closed fewer windows contribute zero deltas / empty histograms.
  auto pad = [target](Series* series) {
    series->counter_delta.resize(
        series->kind == 0 ? target : series->counter_delta.size(), 0);
    series->gauge_last.resize(
        series->kind == 1 ? target : series->gauge_last.size(), 0.0);
    if (series->kind == 2) {
      series->hist_window.resize(target);
      series->exemplars.resize(target);
    }
  };
  for (auto& [key, series] : series_) {
    pad(&series);
  }
  for (const auto& [key, other] : shard->series_) {
    auto it = series_.find(key);
    if (it == series_.end()) {
      Series fresh;
      fresh.name = other.name;
      fresh.labels = other.labels;
      fresh.kind = other.kind;
      it = series_.emplace(key, std::move(fresh)).first;
      pad(&it->second);
    }
    Series& series = it->second;
    LIGHTRW_CHECK(series.kind == other.kind);
    switch (other.kind) {
      case 0:
        for (size_t w = 0; w < other.counter_delta.size(); ++w) {
          series.counter_delta[w] += other.counter_delta[w];
        }
        break;
      case 1:
        // Shards cover disjoint replicas; the merged gauge is the sum
        // (e.g. per-shard inflight adds up to cluster inflight).
        for (size_t w = 0; w < other.gauge_last.size(); ++w) {
          series.gauge_last[w] += other.gauge_last[w];
        }
        break;
      default:
        for (size_t w = 0; w < other.hist_window.size(); ++w) {
          series.hist_window[w].Merge(other.hist_window[w]);
          const WindowExemplar& cand = other.exemplars[w];
          WindowExemplar& worst = series.exemplars[w];
          if (!cand.valid) {
            continue;
          }
          const bool better =
              !worst.valid || cand.value > worst.value ||
              (cand.value == worst.value &&
               (cand.trace < worst.trace ||
                (cand.trace == worst.trace && cand.span < worst.span)));
          if (better) {
            worst = cand;
          }
        }
        break;
    }
  }
  annotations_.insert(annotations_.end(), shard->annotations_.begin(),
                      shard->annotations_.end());
  final_cycle_ = std::max(final_cycle_, shard->final_cycle_);
  finished_ = finished_ || shard->finished_;
}

std::string TimeSeriesRecorder::RenderSeriesId(const Series& series) {
  std::string out = series.name;
  if (!series.labels.empty()) {
    out += '{';
    for (size_t i = 0; i < series.labels.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += series.labels[i].first;
      out += '=';
      out += series.labels[i].second;
    }
    out += '}';
  }
  return out;
}

double TimeSeriesRecorder::DetectorValue(const Series& series, size_t w) {
  switch (series.kind) {
    case 0:
      return static_cast<double>(series.counter_delta[w]);
    case 1:
      return series.gauge_last[w];
    default:
      return series.hist_window[w].count() == 0
                 ? 0.0
                 : series.hist_window[w].Quantile(0.99);
  }
}

std::vector<TsAnnotation> TimeSeriesRecorder::SortedAnnotations() const {
  std::vector<TsAnnotation> sorted = annotations_;
  std::sort(sorted.begin(), sorted.end(),
            [](const TsAnnotation& a, const TsAnnotation& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.detail < b.detail;
            });
  return sorted;
}

std::vector<Incident> TimeSeriesRecorder::DetectIncidents() const {
  std::vector<Incident> incidents;
  const std::vector<TsAnnotation> notes = SortedAnnotations();
  for (const auto& [key, series] : series_) {
    std::vector<double> values(window_end_.size());
    for (size_t w = 0; w < values.size(); ++w) {
      values[w] = DetectorValue(series, w);
    }
    std::vector<Incident> found =
        DetectSeriesIncidents(RenderSeriesId(series), values, config_);
    for (Incident& incident : found) {
      incident.open_window += first_window_;
      incident.close_window += first_window_;
      // Cross-annotate: every fault/membership/slo_burn event whose
      // cycle falls inside the incident's covered cycle range.
      const uint64_t open_cycle =
          incident.open_window * config_.scrape_interval;
      const uint64_t close_cycle =
          window_end_[incident.close_window - first_window_];
      for (const TsAnnotation& note : notes) {
        if (note.cycle >= open_cycle && note.cycle <= close_cycle) {
          incident.annotations.push_back(FormatAnnotation(note));
        }
      }
      incidents.push_back(std::move(incident));
    }
  }
  std::sort(incidents.begin(), incidents.end(),
            [](const Incident& a, const Incident& b) {
              if (a.open_window != b.open_window) {
                return a.open_window < b.open_window;
              }
              return a.series < b.series;
            });
  return incidents;
}

Json TimeSeriesRecorder::ToJson() const {
  Json doc = Json::MakeObject();
  doc.Set("schema", "timeseries.v1");
  doc.Set("scrape_interval", config_.scrape_interval);
  doc.Set("first_window", first_window_);
  doc.Set("windows", static_cast<uint64_t>(window_end_.size()));
  doc.Set("final_cycle", final_cycle_);
  Json ends = Json::MakeArray();
  for (const uint64_t end : window_end_) {
    ends.Append(end);
  }
  doc.Set("window_end", std::move(ends));

  Json series_array = Json::MakeArray();
  for (const auto& [key, series] : series_) {
    Json entry = Json::MakeObject();
    entry.Set("name", series.name);
    if (!series.labels.empty()) {
      Json labels = Json::MakeObject();
      for (const auto& [k, v] : series.labels) {
        labels.Set(k, v);
      }
      entry.Set("labels", std::move(labels));
    }
    entry.Set("kind", series.kind == 0   ? "counter"
                      : series.kind == 1 ? "gauge"
                                         : "histogram");
    Json points = Json::MakeArray();
    for (size_t w = 0; w < window_end_.size(); ++w) {
      Json point = Json::MakeObject();
      point.Set("w", first_window_ + w);
      switch (series.kind) {
        case 0: {
          point.Set("delta", series.counter_delta[w]);
          const uint64_t start =
              (first_window_ + w) * config_.scrape_interval;
          const double span =
              static_cast<double>(window_end_[w]) - static_cast<double>(start);
          point.Set("rate_per_kcycle",
                    span > 0.0 ? series.counter_delta[w] * 1000.0 / span
                               : 0.0);
          break;
        }
        case 1:
          point.Set("value", series.gauge_last[w]);
          break;
        default: {
          const SampleStats& stats = series.hist_window[w];
          point.Set("count", static_cast<uint64_t>(stats.count()));
          if (stats.count() > 0) {
            point.Set("sum", stats.sum());
            point.Set("p50", stats.Quantile(0.5));
            point.Set("p99", stats.Quantile(0.99));
          }
          const WindowExemplar& exemplar = series.exemplars[w];
          if (exemplar.valid) {
            Json ex = Json::MakeObject();
            ex.Set("trace", exemplar.trace);
            ex.Set("span", exemplar.span);
            ex.Set("value", exemplar.value);
            point.Set("exemplar", std::move(ex));
          }
          break;
        }
      }
      points.Append(std::move(point));
    }
    entry.Set("points", std::move(points));
    series_array.Append(std::move(entry));
  }
  doc.Set("series", std::move(series_array));

  Json notes = Json::MakeArray();
  for (const TsAnnotation& note : SortedAnnotations()) {
    Json entry = Json::MakeObject();
    entry.Set("kind", note.kind);
    entry.Set("cycle", note.cycle);
    if (!note.detail.empty()) {
      entry.Set("detail", note.detail);
    }
    notes.Append(std::move(entry));
  }
  doc.Set("annotations", std::move(notes));

  Json incidents_array = Json::MakeArray();
  for (const Incident& incident : DetectIncidents()) {
    Json entry = Json::MakeObject();
    entry.Set("series", incident.series);
    entry.Set("open_window", incident.open_window);
    entry.Set("close_window", incident.close_window);
    entry.Set("closed", incident.closed);
    entry.Set("severity", incident.severity);
    if (!incident.annotations.empty()) {
      Json anns = Json::MakeArray();
      for (const std::string& a : incident.annotations) {
        anns.Append(a);
      }
      entry.Set("annotations", std::move(anns));
    }
    incidents_array.Append(std::move(entry));
  }
  doc.Set("incidents", std::move(incidents_array));
  return doc;
}

std::string TimeSeriesRecorder::ToJsonString(int indent) const {
  std::string out = ToJson().Dump(indent);
  out += '\n';
  return out;
}

std::string TimeSeriesRecorder::ToOpenMetricsText() const {
  std::string out;
  auto append_value = [&out](double value) { out += Json(value).Dump(); };
  for (const auto& [key, series] : series_) {
    const std::string pname = PrometheusMetricName(series.name);
    const std::string labels = PrometheusLabelBlock(series.labels);
    switch (series.kind) {
      case 0: {
        out += "# TYPE " + pname + " counter\n";
        uint64_t cumulative = 0;
        for (size_t w = 0; w < window_end_.size(); ++w) {
          cumulative += series.counter_delta[w];
          out += pname + "_total" + labels + ' ' +
                 std::to_string(cumulative) + ' ' +
                 std::to_string(window_end_[w]) + '\n';
        }
        break;
      }
      case 1: {
        out += "# TYPE " + pname + " gauge\n";
        for (size_t w = 0; w < window_end_.size(); ++w) {
          out += pname + labels + ' ';
          append_value(series.gauge_last[w]);
          out += ' ' + std::to_string(window_end_[w]) + '\n';
        }
        break;
      }
      default: {
        // OpenMetrics allows exemplars on counters (not gauges or
        // summaries), so the windowed count is exposed as a counter
        // carrying the window's worst-sample exemplar, and the windowed
        // quantiles as plain gauges.
        out += "# TYPE " + pname + "_count counter\n";
        uint64_t cumulative = 0;
        for (size_t w = 0; w < window_end_.size(); ++w) {
          cumulative += series.hist_window[w].count();
          out += pname + "_count_total" + labels + ' ' +
                 std::to_string(cumulative) + ' ' +
                 std::to_string(window_end_[w]);
          const WindowExemplar& exemplar = series.exemplars[w];
          if (exemplar.valid) {
            out += " # {trace_id=\"" + std::to_string(exemplar.trace) +
                   "\",span_id=\"" + std::to_string(exemplar.span) + "\"} ";
            append_value(exemplar.value);
            out += ' ' + std::to_string(window_end_[w]);
          }
          out += '\n';
        }
        for (const double q : {0.5, 0.99}) {
          const std::string suffix = q == 0.5 ? "_p50" : "_p99";
          out += "# TYPE " + pname + suffix + " gauge\n";
          for (size_t w = 0; w < window_end_.size(); ++w) {
            if (series.hist_window[w].count() == 0) {
              continue;
            }
            out += pname + suffix + labels + ' ';
            append_value(series.hist_window[w].Quantile(q));
            out += ' ' + std::to_string(window_end_[w]) + '\n';
          }
        }
        break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string TimeSeriesRecorder::FormatTimelineSection() const {
  if (window_end_.empty()) {
    return "";
  }
  // Headline columns: the three most active counter series by total
  // delta (ties break by name so the layout is deterministic).
  std::vector<std::pair<uint64_t, const Series*>> counters;
  for (const auto& [key, series] : series_) {
    if (series.kind != 0) {
      continue;
    }
    uint64_t total = 0;
    for (const uint64_t d : series.counter_delta) {
      total += d;
    }
    counters.emplace_back(total, &series);
  }
  std::sort(counters.begin(), counters.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->name < b.second->name;
            });
  if (counters.size() > 3) {
    counters.resize(3);
  }

  const std::vector<Incident> incidents = DetectIncidents();
  const std::vector<TsAnnotation> notes = SortedAnnotations();

  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "telemetry timeline: %zu windows of %llu cycles, "
                "%zu incident(s)\n",
                window_end_.size(),
                static_cast<unsigned long long>(config_.scrape_interval),
                incidents.size());
  out += line;
  std::string header = "      w  cycle-range         ";
  for (const auto& [total, series] : counters) {
    std::snprintf(line, sizeof(line), " %18s",
                  RenderSeriesId(*series).substr(0, 18).c_str());
    header += line;
  }
  header += "  events\n";
  out += header;

  const size_t n = window_end_.size();
  const bool elide = n > 36;
  for (size_t w = 0; w < n; ++w) {
    if (elide && w == 16) {
      std::snprintf(line, sizeof(line), "    ... (%zu windows elided) ...\n",
                    n - 32);
      out += line;
      w = n - 16 - 1;
      continue;
    }
    const uint64_t global = first_window_ + w;
    const uint64_t start = global * config_.scrape_interval;
    std::snprintf(line, sizeof(line), "  %5llu  [%llu,%llu]",
                  static_cast<unsigned long long>(global),
                  static_cast<unsigned long long>(start),
                  static_cast<unsigned long long>(window_end_[w]));
    std::string row = line;
    row.resize(std::max<size_t>(row.size(), 29), ' ');
    for (const auto& [total, series] : counters) {
      std::snprintf(line, sizeof(line), " %18llu",
                    static_cast<unsigned long long>(
                        series->counter_delta[w]));
      row += line;
    }
    std::string events;
    for (const TsAnnotation& note : notes) {
      if (note.cycle >= start && note.cycle <= window_end_[w]) {
        if (!events.empty()) {
          events += "; ";
        }
        events += FormatAnnotation(note);
      }
    }
    for (const Incident& incident : incidents) {
      if (incident.open_window == global) {
        if (!events.empty()) {
          events += "; ";
        }
        std::snprintf(line, sizeof(line), "incident open %s (z=%.1f)",
                      incident.series.c_str(), incident.severity);
        events += line;
      }
      if (incident.closed && incident.close_window == global) {
        if (!events.empty()) {
          events += "; ";
        }
        events += "incident close " + incident.series;
      }
    }
    if (!events.empty()) {
      row += "  ";
      row += events;
    }
    row += '\n';
    out += row;
  }
  return out;
}

}  // namespace lightrw::obs
