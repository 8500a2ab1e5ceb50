// Simulated-time telemetry: windowed time series, histogram exemplars,
// and incident detection.
//
// Every other observability surface describes a run at its end (metrics
// snapshots) or per query (spans); this module shows how throughput,
// queue depth, and fault pressure evolve over *simulated* time. A
// TimeSeriesRecorder owns a live MetricsRegistry that engines update on
// their hot paths through cached instrument handles, and scrapes it at
// every multiple of a configurable cycle interval:
//
//   window k covers simulated cycles [k*W, (k+1)*W)
//   counter   -> delta (and rate) per window
//   gauge     -> last value at the window boundary
//   histogram -> windowed count/sum/p50/p99 from the samples observed
//                inside the window, plus an exemplar: the (trace_id,
//                span_id, value) of the worst sample in the window, so
//                a latency spike links directly to its span tree
//
// Scraping is driven by the engines' own event loops: before an event
// at cycle c is processed, AdvanceTo(c) closes every window boundary
// <= c (between events nothing changes, so the boundary state is
// captured exactly); Finish(c) closes the final, possibly partial,
// window. The result is a pure function of the configuration.
//
// Sharded engines record per shard and merge in shard order
// (core::ShardSinks): per-window counter deltas and gauge values add,
// histogram windows merge their samples, exemplars keep the worst (ties
// break toward the lower trace id, then the lower span id).
//
// On top of the series, an AnomalyDetector computes a per-series robust
// z-score (EWMA level, MAD-scaled residuals, warmup-gated) and emits
// deterministic Incident{series, window, severity, open/close} records,
// cross-annotated against fault/membership/slo_burn events the engines
// reported via Annotate(). Exports: deterministic JSON (schema
// "timeseries.v1"), OpenMetrics text with exemplars, and a plain-text
// timeline section for FormatRunReport.

#ifndef LIGHTRW_OBS_TIMESERIES_H_
#define LIGHTRW_OBS_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lightrw::obs {

struct TimeSeriesConfig {
  // Simulated cycles per window. Must be > 0.
  uint64_t scrape_interval = 4096;

  // Anomaly detection (see DetectSeriesIncidents below).
  double anomaly_alpha = 0.3;      // EWMA smoothing factor in (0, 1]
  double anomaly_z_open = 6.0;     // |z| at or above this opens an incident
  double anomaly_z_close = 3.0;    // |z| below this counts as a calm window
  uint32_t anomaly_warmup = 4;     // windows before detection is armed
};

// Ring-buffer capacity: when more windows close, the oldest are dropped
// and the first retained window index advances.
inline constexpr uint64_t kMaxTimeSeriesWindows = 4096;
// Consecutive calm windows that close an incident.
inline constexpr uint32_t kAnomalyCloseAfter = 2;
// Trailing residuals kept for the detector's MAD.
inline constexpr size_t kAnomalyMadWindow = 16;

// One fault/membership/slo_burn event reported by an engine (or the
// tool) for cross-annotation against incidents.
struct TsAnnotation {
  std::string kind;  // e.g. "board_death", "rebuild_complete", "slo_burn"
  uint64_t cycle = 0;
  std::string detail;
};

// A contiguous anomalous stretch of one series.
struct Incident {
  std::string series;  // rendered "name{k=v,...}" identity
  uint64_t open_window = 0;
  uint64_t close_window = 0;  // last window of the incident (see closed)
  bool closed = false;        // false: still open at end of run
  double severity = 0.0;      // max |z| observed while open
  std::vector<std::string> annotations;  // "kind@cycle detail" overlaps
};

// Robust per-series detector, usable standalone for tests: EWMA level,
// residual scale = max(1.4826 * MAD, 0.05 * max(|level|, 1)) — the
// floor keeps quiet series (fault counters that sit at zero) from
// dividing by zero while still letting a burst register as a large,
// finite z. Values at window w are judged against the state built from
// windows < w, then folded in; detection is armed after `warmup`
// windows and an incident closes after kAnomalyCloseAfter consecutive
// calm windows.
std::vector<Incident> DetectSeriesIncidents(const std::string& series,
                                            const std::vector<double>& values,
                                            const TimeSeriesConfig& config);

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(const TimeSeriesConfig& config = {});

  const TimeSeriesConfig& config() const { return config_; }

  // The live registry engines update through cached handles. Separate
  // from any --metrics-out registry: end-of-run snapshots are unchanged
  // by scraping.
  MetricsRegistry* live() { return &live_; }

  // Close every window whose boundary is <= cycle. Engines call this
  // from their event loops before processing an event at `cycle`.
  void AdvanceTo(uint64_t cycle);
  // Close the final (possibly partial) window ending at `cycle`.
  void Finish(uint64_t cycle);

  // Report a fault/membership/slo_burn event for incident annotation.
  void Annotate(const std::string& kind, uint64_t cycle,
                const std::string& detail);

  // Fold a shard recorder into this one. Window counts may differ
  // between shards; missing windows contribute zero deltas / empty
  // histograms.
  void MergeFrom(const TimeSeriesRecorder* shard);

  uint64_t num_windows() const { return window_end_.size(); }
  uint64_t final_cycle() const { return final_cycle_; }

  // Deterministic incident sweep over every series (counter -> delta,
  // gauge -> last value, histogram -> windowed p99).
  std::vector<Incident> DetectIncidents() const;

  // Exports. ToJson emits schema "timeseries.v1"; ToOpenMetricsText
  // emits OpenMetrics-style text whose timestamps are simulated window
  // end cycles and whose exemplars use trace_id/span_id labels, ending
  // with "# EOF".
  Json ToJson() const;
  std::string ToJsonString(int indent = 2) const;
  std::string ToOpenMetricsText() const;
  // Plain-text "telemetry timeline" section for FormatRunReport: per
  // window, the rates of the most active counter series plus incident
  // and annotation markers. Empty when no window was ever closed.
  std::string FormatTimelineSection() const;

 private:
  struct WindowExemplar {
    bool valid = false;
    double value = 0.0;
    uint64_t trace = 0;
    uint64_t span = 0;
  };

  struct Series {
    std::string name;
    Labels labels;
    int kind = 0;  // 0 counter, 1 gauge, 2 histogram
    // Dense per closed window (ring offset first_window_):
    std::vector<uint64_t> counter_delta;     // kind 0
    std::vector<double> gauge_last;          // kind 1
    std::vector<SampleStats> hist_window;    // kind 2
    std::vector<WindowExemplar> exemplars;   // kind 2
    // Scrape cursors into the live instruments.
    uint64_t last_counter = 0;
    size_t hist_cursor = 0;
  };

  static std::string RenderSeriesId(const Series& series);
  // Per-window scalar fed to the anomaly detector.
  static double DetectorValue(const Series& series, size_t w);
  void CloseWindow(uint64_t end_cycle);
  void TrimToRing();
  std::vector<TsAnnotation> SortedAnnotations() const;

  TimeSeriesConfig config_;
  MetricsRegistry live_;
  // Keyed like MetricsRegistry instruments (name + labels) so shard
  // merges and exports iterate in one deterministic order.
  std::map<std::string, Series> series_;
  // End cycle of each retained window; window w (global index
  // first_window_ + i) covers [start, window_end_[i]] where start is
  // w * scrape_interval.
  std::vector<uint64_t> window_end_;
  uint64_t first_window_ = 0;
  uint64_t final_cycle_ = 0;
  bool finished_ = false;
  std::vector<TsAnnotation> annotations_;
};

}  // namespace lightrw::obs

#endif  // LIGHTRW_OBS_TIMESERIES_H_
