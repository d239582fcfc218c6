// Online QoS bandwidth allocation under congestion (DESIGN.md Sec 16): a
// latency-sensitive "prio" topology shares a 4 MB/s fabric with two
// best-effort saturators. Three phases — uncongested (prio alone),
// congested (the QosApp senses the saturators and shapes their ingress
// ports, protecting prio's latency), recovered (best-effort killed, every
// shaper cleared). End-to-end latency is measured per tuple: the spout
// stamps NowMicros into the tuple, the sink records the age on execute.
//
// Writes BENCH_qos.json. CI guards two mechanism-quality scalars that are
// load-independent ratios, robust on noisy shared runners:
//   slo_hold_ratio     — fraction of congested-phase prio tuples within the
//                        SLO (1.0 when shaping isolates prio);
//   be_fairness_index  — Jain index over the two equal-weight best-effort
//                        programmed rates (1.0 when the water-fill is fair).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "controller/qos_app.h"
#include "stream/topology.h"
#include "util/components.h"
#include "util/harness.h"

namespace typhoon::bench {
namespace {

using namespace std::chrono_literals;

constexpr double kCapacityBps = 4e6;
constexpr double kSloMs = 25.0;

enum Phase { kUncongested = 0, kCongested = 1, kRecovered = 2, kPhases = 3 };

// Phase-tagged end-to-end latency samples (sink side).
struct LatencyLog {
  std::atomic<int> phase{kUncongested};
  std::atomic<bool> record{true};
  std::mutex mu;
  std::vector<double> samples_ms[kPhases];
};

// Trickle source stamping emission time into field 1.
class StampingSpout : public stream::Spout {
 public:
  explicit StampingSpout(double rate_per_sec, int payload_len)
      : payload_(payload_len, 'p'),
        rate_(rate_per_sec, common::kTupleBurstFloor) {}

  bool next(stream::Emitter& out) override {
    if (!rate_.try_acquire(4)) return false;
    for (int i = 0; i < 4; ++i) {
      out.emit(stream::Tuple{seq_++, common::NowMicros(), payload_});
    }
    return true;
  }

 private:
  std::string payload_;
  common::TokenBucket rate_;
  std::int64_t seq_ = 0;
};

class LatencySink : public stream::Bolt {
 public:
  explicit LatencySink(std::shared_ptr<LatencyLog> log)
      : log_(std::move(log)) {}

  void execute(const stream::Tuple& in, const stream::TupleMeta&,
               stream::Emitter&) override {
    if (in.size() < 2 || !log_->record.load(std::memory_order_relaxed)) return;
    const double age_ms =
        static_cast<double>(common::NowMicros() - in.i64(1)) / 1000.0;
    const int phase = log_->phase.load(std::memory_order_relaxed);
    std::lock_guard lk(log_->mu);
    log_->samples_ms[phase].push_back(age_ms);
  }

 private:
  std::shared_ptr<LatencyLog> log_;
};

double P99(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx =
      std::min(samples.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(
                                                   samples.size())));
  return samples[idx];
}

double Jain(const std::vector<double>& rates) {
  if (rates.empty()) return 0.0;
  double sum = 0.0;
  double sq = 0.0;
  for (double r : rates) {
    sum += r;
    sq += r * r;
  }
  return sq <= 0.0 ? 0.0
                   : (sum * sum) / (static_cast<double>(rates.size()) * sq);
}

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(10);
  }
  return pred();
}

}  // namespace
}  // namespace typhoon::bench

int main() {
  using namespace typhoon;
  using namespace typhoon::bench;
  using namespace std::chrono_literals;
  PrintBanner("Online QoS allocation: SLO hold under best-effort congestion",
              "DESIGN.md Sec 16 — sense / allocate / delta-actuate loop");

  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.controller_tick = std::chrono::milliseconds(10);
  Cluster cluster(cfg);

  controller::QosPolicy policy;
  policy.capacity_bps = kCapacityBps;
  policy.epoch = std::chrono::milliseconds(25);
  policy.window_us = 500'000;
  policy.classes["prio"] = controller::QosClass{.priority = 1, .weight = 1.0};
  cluster.enable_qos(policy);
  cluster.start();

  auto log = std::make_shared<LatencyLog>();
  {
    stream::TopologyBuilder b("prio");
    const NodeId src = b.add_spout(
        "src", [] { return std::make_unique<StampingSpout>(400.0, 256); }, 1);
    const NodeId out = b.add_bolt(
        "sink", [log] { return std::make_unique<LatencySink>(log); }, 1);
    b.shuffle(src, out);
    if (!cluster.submit(b.build().value()).ok()) {
      std::fprintf(stderr, "submit prio failed\n");
      return 1;
    }
  }

  controller::QosApp* app = cluster.qos_app();
  if (app == nullptr) {
    std::fprintf(stderr, "qos app missing\n");
    return 1;
  }

  // ---- phase 1: uncongested baseline ----
  common::SleepMillis(500);  // warmup, not recorded
  {
    std::lock_guard lk(log->mu);
    log->samples_ms[kUncongested].clear();
  }
  common::SleepMillis(2000);

  // ---- phase 2: two best-effort saturators join ----
  auto sink = std::make_shared<testutil::SinkState>();
  for (const char* name : {"be-a", "be-b"}) {
    stream::TopologyBuilder b(name);
    const NodeId src = b.add_spout(
        "src",
        [] {
          return std::make_unique<testutil::SequenceSpout>(0, 16, 512, 6000.0);
        },
        1);
    const NodeId out = b.add_bolt(
        "sink",
        [sink] { return std::make_unique<testutil::CollectingSink>(sink); },
        1);
    b.shuffle(src, out);
    if (!cluster.submit(b.build().value()).ok()) {
      std::fprintf(stderr, "submit %s failed\n", name);
      return 1;
    }
  }
  const bool shaped = WaitFor(
      [&] { return app->programmed_rates().size() >= 2; }, 20s);
  log->phase.store(kCongested);
  common::SleepMillis(3000);

  std::vector<double> be_rates;
  for (const auto& [key, rate] : app->programmed_rates()) {
    auto ref = cluster.controller()->worker_by_port(key.first, key.second);
    if (!ref) continue;
    auto spec = cluster.controller()->spec(ref->topology);
    if (spec && spec->name != "prio") be_rates.push_back(rate);
  }
  const std::int64_t congested_updates = app->rate_updates();
  const std::uint64_t congested_epochs = app->epochs();

  // ---- phase 3: best-effort killed, shapers clear ----
  (void)cluster.kill("be-a");
  (void)cluster.kill("be-b");
  const bool cleared = WaitFor(
      [&] { return app->programmed_rates().empty(); }, 10s);
  log->phase.store(kRecovered);
  common::SleepMillis(1500);
  log->record.store(false);

  std::vector<double> uncongested;
  std::vector<double> congested;
  std::vector<double> recovered;
  {
    std::lock_guard lk(log->mu);
    uncongested = log->samples_ms[kUncongested];
    congested = log->samples_ms[kCongested];
    recovered = log->samples_ms[kRecovered];
  }
  cluster.stop();

  const double p99_uncongested = P99(uncongested);
  const double p99_congested = P99(congested);
  const double p99_recovered = P99(recovered);
  std::size_t within = 0;
  for (double s : congested) within += s <= kSloMs ? 1 : 0;
  const double slo_hold =
      congested.empty()
          ? 0.0
          : static_cast<double>(within) / static_cast<double>(congested.size());
  const double fairness = Jain(be_rates);

  std::printf("\n  %-28s %8zu samples  p99 %8.2f ms\n", "uncongested",
              uncongested.size(), p99_uncongested);
  std::printf("  %-28s %8zu samples  p99 %8.2f ms\n", "congested (QoS shaping)",
              congested.size(), p99_congested);
  std::printf("  %-28s %8zu samples  p99 %8.2f ms\n", "recovered",
              recovered.size(), p99_recovered);
  std::printf("\n  SLO (%.0f ms) hold ratio under congestion: %.3f\n", kSloMs,
              slo_hold);
  std::printf("  best-effort Jain fairness over %zu shaped rates: %.4f\n",
              be_rates.size(), fairness);
  std::printf("  shapers engaged: %s; cleared after kill: %s\n",
              shaped ? "yes" : "NO", cleared ? "yes" : "NO");
  std::printf("  rate updates %lld over %llu epochs\n",
              static_cast<long long>(congested_updates),
              static_cast<unsigned long long>(congested_epochs));

  std::FILE* f = std::fopen("BENCH_qos.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_qos.json");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"p99_uncongested_ms\": %.3f,\n"
               "  \"p99_congested_ms\": %.3f,\n"
               "  \"p99_recovered_ms\": %.3f,\n"
               "  \"slo_ms\": %.1f,\n"
               "  \"slo_hold_ratio\": %.4f,\n"
               "  \"be_fairness_index\": %.4f,\n"
               "  \"be_rates_bps\": [",
               p99_uncongested, p99_congested, p99_recovered, kSloMs, slo_hold,
               fairness);
  for (std::size_t i = 0; i < be_rates.size(); ++i) {
    std::fprintf(f, "%s%.0f", i ? ", " : "", be_rates[i]);
  }
  std::fprintf(f,
               "],\n"
               "  \"shapers_engaged\": %s,\n"
               "  \"shapers_cleared\": %s,\n"
               "  \"rate_updates\": %lld,\n"
               "  \"epochs\": %llu\n"
               "}\n",
               shaped ? "true" : "false", cleared ? "true" : "false",
               static_cast<long long>(congested_updates),
               static_cast<unsigned long long>(congested_epochs));
  std::fclose(f);
  std::printf("  wrote BENCH_qos.json\n");
  return (shaped && cleared) ? 0 : 1;
}
