// Shared measurement machinery for the repo benchmark: a lock-free
// log-linear histogram, an in-memory span recorder, process resource
// probes and a tiny JSON object writer.
#pragma once

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepMs(double ms);

// ---- histogram ---------------------------------------------------------

// Counts of one histogram at one instant; windows are differences of two
// snapshots, and several writers merge by summing.
struct HistSnap {
  std::vector<std::uint64_t> counts;

  [[nodiscard]] std::uint64_t total() const;
  // Value at quantile q in [0, 1] (bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  HistSnap& operator+=(const HistSnap& o);
  HistSnap& operator-=(const HistSnap& o);
};

// Log-linear histogram of non-negative integers with ~3% relative bucket
// width. One writer per instance (relaxed load+store, no RMW); any thread
// may snapshot concurrently.
class Histogram {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = 60 * kSub;

  void record(std::int64_t v) {
    auto& c = counts_[Bucket(v)];
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  [[nodiscard]] HistSnap snapshot() const;

  static int Bucket(std::int64_t v);
  static double Midpoint(int bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

// A set of histograms written by different threads and read as one.
class HistGroup {
 public:
  // Thread-safe; the returned histogram lives as long as the group.
  Histogram* add();
  [[nodiscard]] HistSnap snapshot() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Histogram>> hists_;
};

// ---- spans ---------------------------------------------------------------

// One timed call into a layer. `id` is the tuple's generator sequence
// number (or the pump batch number), shared by every span of that tuple.
struct Span {
  const char* name = nullptr;
  const char* parent = nullptr;  // the span kind that caused this one
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// In-memory span store: one bounded buffer per recording thread, written
// out as JSON lines when the run ends. Recording is off unless enabled.
class Tracer {
 public:
  static constexpr std::size_t kPerThreadCap = 65536;

  class Buffer {
   public:
    void add(const Span& s) {
      if (spans_.size() < kPerThreadCap) {
        spans_.push_back(s);
      } else {
        ++dropped_;
      }
    }

   private:
    friend class Tracer;
    std::string thread_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
  };

  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v, std::memory_order_relaxed); }
  // Spans are kept for one tuple in `sample_every` (by id), so every layer
  // records the same tuples.
  [[nodiscard]] bool sampled(std::uint64_t id) const {
    return on() && id % kSampleEvery == 0;
  }
  Buffer* buffer(const std::string& thread);
  // Writes every span as one JSON object per line; returns spans written.
  std::size_t write(const std::string& path) const;

  static constexpr std::uint64_t kSampleEvery = 64;

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& GlobalTracer();

// Records a span on scope exit when the id is sampled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buf, const char* name, const char* parent,
             std::uint64_t id)
      : buf_(buf != nullptr && GlobalTracer().sampled(id) ? buf : nullptr),
        s_{name, parent, id, buf_ != nullptr ? NowNs() : 0, 0} {}
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      s_.end_ns = NowNs();
      buf_->add(s_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buf_;
  Span s_;
};

// ---- process probes -------------------------------------------------------

// CPU time (user + system) of this process, in ms.
double ProcessCpuMs();
// CPU time of another process from /proc/<pid>/stat, in ms (0 if gone).
double PidCpuMs(int pid);
// Peak resident set (VmHWM) of this process, in MB.
double PeakRssMb();
// Voluntary + involuntary context switches summed over every thread of a
// process (pid 0 = this process).
std::int64_t ContextSwitches(int pid = 0);
unsigned HardwareThreads();
// Machine-wide CPU ticks from /proc/stat: {steal, total}. The stolen share
// over a run shows when the host, not the program, set the pace.
std::pair<std::uint64_t, std::uint64_t> StealTicks();

// ---- output ---------------------------------------------------------------

// Flat JSON object builder preserving insertion order.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v);
  JsonObj& integer(const std::string& k, std::int64_t v);
  JsonObj& boolean(const std::string& k, bool v);
  JsonObj& str(const std::string& k, const std::string& v);
  JsonObj& raw(const std::string& k, const std::string& json);
  [[nodiscard]] std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

std::string JsonNumArray(const std::vector<double>& v);

// One measured metric: value plus unit, as the result line reports it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Median of a sample (0 when empty).
double Median(std::vector<double> v);
// Quantile q in [0, 1] with linear interpolation (0 when empty).
double Quantile(std::vector<double> v, double q);

}  // namespace perfbench
