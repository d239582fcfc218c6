#include "common/latency_recorder.h"

#include <algorithm>
#include <cmath>

namespace typhoon::common {

namespace {
constexpr double kGrowth = 1.07;
const double kLogGrowth = std::log(kGrowth);
}  // namespace

std::size_t LatencyRecorder::BucketFor(std::int64_t micros) {
  if (micros <= 1) return 0;
  const auto b = static_cast<std::size_t>(
      std::log(static_cast<double>(micros)) / kLogGrowth);
  return std::min(b, kBuckets - 1);
}

double LatencyRecorder::BucketUpperMicros(std::size_t bucket) {
  return std::pow(kGrowth, static_cast<double>(bucket + 1));
}

void LatencyRecorder::record(std::int64_t micros) {
  counts_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

void LatencyRecorder::Batch::record(std::int64_t micros) {
  ++counts_[BucketFor(micros)];
  sum_micros_ += micros;
  ++pending_;
}

void LatencyRecorder::Batch::flush() {
  if (pending_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] != 0) {
      target_->counts_[b].fetch_add(counts_[b], std::memory_order_relaxed);
      counts_[b] = 0;
    }
  }
  target_->sum_micros_.fetch_add(sum_micros_, std::memory_order_relaxed);
  sum_micros_ = 0;
  pending_ = 0;
}

std::int64_t LatencyRecorder::Snapshot(
    std::array<std::int64_t, kBuckets>& out) const {
  std::int64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    out[b] = counts_[b].load(std::memory_order_relaxed);
    total += out[b];
  }
  return total;
}

std::vector<LatencyRecorder::CdfPoint> LatencyRecorder::cdf() const {
  std::array<std::int64_t, kBuckets> snap{};
  const std::int64_t total = Snapshot(snap);
  std::vector<CdfPoint> out;
  if (total == 0) return out;
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (snap[b] == 0) continue;
    cum += snap[b];
    out.push_back({BucketUpperMicros(b) / 1000.0,
                   static_cast<double>(cum) / static_cast<double>(total)});
  }
  return out;
}

double LatencyRecorder::percentile_ms(double q) const {
  std::array<std::int64_t, kBuckets> snap{};
  const std::int64_t total = Snapshot(snap);
  if (total == 0) return 0.0;
  const auto target =
      static_cast<std::int64_t>(std::ceil(q * static_cast<double>(total)));
  std::int64_t cum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cum += snap[b];
    if (cum >= target) return BucketUpperMicros(b) / 1000.0;
  }
  return BucketUpperMicros(kBuckets - 1) / 1000.0;
}

std::int64_t LatencyRecorder::count() const {
  std::int64_t total = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    total += counts_[b].load(std::memory_order_relaxed);
  }
  return total;
}

double LatencyRecorder::mean_ms() const {
  std::array<std::int64_t, kBuckets> snap{};
  const std::int64_t total = Snapshot(snap);
  if (total == 0) return 0.0;
  // sum_micros_ is read after the count snapshot; with a concurrent writer
  // the two may be off by a few in-flight samples, which shifts the mean
  // by at most those samples' contribution — acceptable for a statistic.
  const auto sum = sum_micros_.load(std::memory_order_relaxed);
  return static_cast<double>(sum) / static_cast<double>(total) / 1000.0;
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  std::array<std::int64_t, kBuckets> snap{};
  other.Snapshot(snap);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (snap[b] != 0) counts_[b].fetch_add(snap[b], std::memory_order_relaxed);
  }
  sum_micros_.fetch_add(other.sum_micros_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
}

void LatencyRecorder::reset() {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts_[b].store(0, std::memory_order_relaxed);
  }
  sum_micros_.store(0, std::memory_order_relaxed);
}

}  // namespace typhoon::common
