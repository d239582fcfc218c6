// Windowed metrics time-series (DESIGN.md Sec 11). Point-in-time counter
// reads are what the control-plane apps acted on before this layer; a
// TimeSeries turns repeated observations of one metric into the two
// derived signals the apps actually want: a windowed rate (for monotonic
// counters) and an exponentially weighted moving average (for gauges like
// queue depth), so one noisy sample can no longer trigger a scale-up or a
// rebalance on its own.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace typhoon::trace {

struct TimeSeriesConfig {
  // Samples older than this fall out of the rate window.
  std::int64_t window_us = 5'000'000;
  // EWMA weight of each new observation (0 < alpha <= 1); 1 reproduces
  // the raw signal exactly.
  double alpha = 0.5;
  // Cap on retained samples regardless of window.
  std::size_t max_samples = 256;
};

class TimeSeries {
 public:
  explicit TimeSeries(TimeSeriesConfig cfg = {}) : cfg_(cfg) {}

  // Record one observation at monotonic time `t_us` (common::NowMicros()).
  // Out-of-order observations (t_us older than the newest sample) are
  // folded into the EWMA but skipped by the rate window.
  void observe(std::int64_t t_us, double value);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double last() const { return last_; }
  [[nodiscard]] double ewma() const { return ewma_; }

  // (newest - oldest) / dt over the retained window; the per-second growth
  // of a monotonic counter. 0 until two in-order samples exist.
  [[nodiscard]] double rate_per_sec() const;

  void reset();

 private:
  struct Sample {
    std::int64_t t_us;
    double value;
  };

  TimeSeriesConfig cfg_;
  std::deque<Sample> window_;
  double last_ = 0.0;
  double ewma_ = 0.0;
  std::uint64_t count_ = 0;
};

// A bag of named series — typically one per (worker, metric) pair, fed
// from MetricsRegistry snapshots. Not thread-safe; owned by whoever polls.
class SeriesSet {
 public:
  explicit SeriesSet(TimeSeriesConfig cfg = {}) : cfg_(cfg) {}

  TimeSeries& series(const std::string& name);
  [[nodiscard]] const TimeSeries* find(const std::string& name) const;

  // Fold one metrics snapshot (as produced by MetricsRegistry::snapshot())
  // observed at `t_us`, prefixing each metric name with `prefix` + ".".
  void observe_snapshot(
      const std::string& prefix, std::int64_t t_us,
      const std::vector<std::pair<std::string, std::int64_t>>& snapshot);

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const { return series_.size(); }

 private:
  TimeSeriesConfig cfg_;
  std::map<std::string, TimeSeries> series_;
};

}  // namespace typhoon::trace
