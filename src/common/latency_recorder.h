// Latency histogram with CDF extraction, used by Fig 8(c,d) harnesses and
// the trace collector's per-stage tables. Log-bucketed (multiplicative
// buckets) so that microsecond-to-second latencies fit in a fixed-size
// table with bounded relative error.
//
// The recording hot path is lock-free: each bucket is a relaxed atomic
// counter, so concurrent record() calls from instrumented threads never
// serialize on a mutex. Readers (cdf/percentile/mean) take one coherent
// snapshot of the bucket array and derive the total from it, so a
// percentile is always consistent with the counts it was computed from,
// even while writers keep recording.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace typhoon::common {

class LatencyRecorder {
 public:
  // ~1.07x geometric buckets covering [1us, ~100s] in a few hundred slots.
  static constexpr std::size_t kBuckets = 400;

  LatencyRecorder() = default;

  // Record one sample, in microseconds. Wait-free; safe from any thread.
  void record(std::int64_t micros);

  // Accumulates samples locally and publishes them to the recorder on
  // flush() (or destruction): each non-empty bucket with a single
  // fetch_add, so a tight loop pays at most `distinct buckets` atomic RMWs
  // instead of N. Single-threaded use; the flush itself is safe against
  // concurrent recorders and readers.
  class Batch {
   public:
    explicit Batch(LatencyRecorder* target) : target_(target) {}
    ~Batch() { flush(); }
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    void record(std::int64_t micros);
    void flush();
    [[nodiscard]] std::int64_t pending() const { return pending_; }

   private:
    LatencyRecorder* target_;
    std::array<std::int64_t, kBuckets> counts_{};
    std::int64_t sum_micros_ = 0;
    std::int64_t pending_ = 0;
  };

  struct CdfPoint {
    double latency_ms;
    double fraction;  // P(latency <= latency_ms)
  };

  // CDF sampled at each non-empty bucket boundary.
  [[nodiscard]] std::vector<CdfPoint> cdf() const;

  // Percentile in milliseconds (q in [0,1]).
  [[nodiscard]] double percentile_ms(double q) const;
  [[nodiscard]] std::int64_t count() const;
  [[nodiscard]] double mean_ms() const;

  void merge(const LatencyRecorder& other);
  void reset();

 private:
  static std::size_t BucketFor(std::int64_t micros);
  static double BucketUpperMicros(std::size_t bucket);

  // Copy the bucket array (relaxed loads) and return the summed total.
  std::int64_t Snapshot(std::array<std::int64_t, kBuckets>& out) const;

  std::array<std::atomic<std::int64_t>, kBuckets> counts_{};
  std::atomic<std::int64_t> sum_micros_{0};
};

}  // namespace typhoon::common
