#include "trace/time_series.h"

namespace typhoon::trace {

void TimeSeries::observe(std::int64_t t_us, double value) {
  last_ = value;
  ewma_ = count_ == 0 ? value : cfg_.alpha * value + (1.0 - cfg_.alpha) * ewma_;
  ++count_;
  if (!window_.empty() && t_us < window_.back().t_us) return;
  window_.push_back({t_us, value});
  while (window_.size() > cfg_.max_samples ||
         (window_.size() > 1 &&
          window_.back().t_us - window_.front().t_us > cfg_.window_us)) {
    window_.pop_front();
  }
}

double TimeSeries::rate_per_sec() const {
  if (window_.size() < 2) return 0.0;
  const std::int64_t dt = window_.back().t_us - window_.front().t_us;
  if (dt <= 0) return 0.0;
  return (window_.back().value - window_.front().value) * 1e6 /
         static_cast<double>(dt);
}

void TimeSeries::reset() {
  window_.clear();
  last_ = 0.0;
  ewma_ = 0.0;
  count_ = 0;
}

TimeSeries& SeriesSet::series(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeries(cfg_)).first;
  }
  return it->second;
}

const TimeSeries* SeriesSet::find(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void SeriesSet::observe_snapshot(
    const std::string& prefix, std::int64_t t_us,
    const std::vector<std::pair<std::string, std::int64_t>>& snapshot) {
  for (const auto& [name, value] : snapshot) {
    series(prefix + "." + name).observe(t_us, static_cast<double>(value));
  }
}

std::vector<std::string> SeriesSet::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

}  // namespace typhoon::trace
