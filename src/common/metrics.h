// Process-wide metrics registry. Workers expose application-layer counters
// (tuples emitted / received / processed, queue depth) which the SDN
// controller retrieves via METRIC_REQ/METRIC_RESP control tuples; switches
// expose port and flow counters retrieved via OpenFlow stats requests.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace typhoon::common {

class Counter {
 public:
  void add(std::int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  // Increment for a counter only one thread ever writes (a worker's
  // per-tuple counters): a relaxed load and store instead of a locked
  // read-modify-write. Readers on other threads still see whole values.
  void inc_owned() {
    v_.store(v_.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// A registry keyed by flat metric name. Counter/gauge objects are owned by
// the registry and stable for its lifetime (callers cache the pointers).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  // Snapshot of every metric value, sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::int64_t>> snapshot()
      const;
  [[nodiscard]] std::int64_t value(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace typhoon::common
