// Chaos test: a reliable word-count topology driven through a scripted
// FaultPlan — 10% tunnel loss from the start, a split-worker crash at a
// known emission point, and a 200 ms controller partition — must still
// converge to exactly correct word counts. Exactly-once counting comes from
// occurrence-id dedup in shared count state (the external-storage stand-in
// of Sec 8); delivery under faults is at-least-once via ack/replay.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "typhoon/fault_runner.h"
#include "util/components.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using testutil::ChaosSentences;
using testutil::DedupCountBolt;
using testutil::DedupCountState;
using testutil::DedupSplitBolt;
using testutil::ReplayableSentenceSpout;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(10);
  }
  return pred();
}

// Ground truth: word counts for sentences [0, limit).
std::map<std::string, std::int64_t> ExpectedCounts(std::int64_t limit) {
  std::map<std::string, std::int64_t> expected;
  const auto& sentences = ChaosSentences();
  for (std::int64_t seq = 0; seq < limit; ++seq) {
    std::istringstream is(sentences[seq % sentences.size()]);
    std::string word;
    while (is >> word) ++expected[word];
  }
  return expected;
}

std::int64_t TotalOccurrences(std::int64_t limit) {
  std::int64_t total = 0;
  for (const auto& [w, c] : ExpectedCounts(limit)) total += c;
  return total;
}

TEST(Chaos, WordCountConvergesUnderScriptedFaults) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  constexpr std::int64_t kSentenceLimit = 3000;
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  auto counts = std::make_shared<DedupCountState>();

  stream::TopologyBuilder b("chaos");
  const NodeId src = b.add_spout(
      "src",
      [progress, kSentenceLimit] {
        return std::make_unique<ReplayableSentenceSpout>(
            kSentenceLimit, progress, 8, 15000.0);
      },
      1);
  const NodeId split = b.add_bolt(
      "split", [] { return std::make_unique<DedupSplitBolt>(); }, 2);
  const NodeId count = b.add_bolt(
      "count", [counts] { return std::make_unique<DedupCountBolt>(counts); },
      2);
  b.shuffle(src, split);
  b.fields(split, count, {0});

  stream::SubmitOptions sopts;
  sopts.reliable = true;
  sopts.pending_timeout_ms = 800;  // fast replay of tuples lost to the wire
  ASSERT_TRUE(cluster.submit(b.build().value(), sopts).ok());

  // The scripted schedule: lossy wire almost immediately, a split-worker
  // crash once 1500 sentences have been emitted, and a controller partition
  // of host 2 that heals itself after 200 ms.
  auto plan = faultinject::FaultPlan::Parse(
      "at_ms=10     fault=impair_tunnel hosts=1-2 drop=0.10 seed=99\n"
      "at_tuples=1500 fault=crash worker=chaos/split/0\n"
      "at_ms=2500   fault=partition host=2 duration_ms=200\n");
  ASSERT_TRUE(plan.ok()) << plan.status().str();
  ASSERT_EQ(plan.value().events.size(), 3u);

  FaultPlanRunner faults(&cluster, std::move(plan.value()));
  faults.set_tuple_probe([progress] { return progress->load(); });
  faults.start();

  // Convergence: every word occurrence of every sentence counted exactly
  // once, within the deadline, despite loss + crash + partition.
  const std::int64_t expected_total = TotalOccurrences(kSentenceLimit);
  ASSERT_TRUE(WaitFor(
      [&] { return counts->unique.load() >= expected_total; }, 90s))
      << "counted " << counts->unique.load() << "/" << expected_total;
  // Convergence can beat the partition's scheduled auto-heal; let the
  // runner drain its remaining events before stopping it.
  EXPECT_TRUE(WaitFor([&] { return faults.done(); }, 10s));
  faults.stop();

  {
    std::lock_guard lk(counts->mu);
    EXPECT_EQ(counts->counts, ExpectedCounts(kSentenceLimit));
  }

  // The faults genuinely happened: all three events fired (plus the
  // partition's auto-heal), the wire dropped frames, the crashed split was
  // locally restarted, and the SDN fault detector saw its port vanish.
  EXPECT_GE(faults.fired(), 4);
  EXPECT_EQ(faults.misses(), 0);
  std::uint64_t wire_drops = 0;
  for (const faultinject::Impairment* imp : faults.impairments()) {
    wire_drops += imp->drops();
  }
  EXPECT_GT(wire_drops, 0u);
  EXPECT_GE(cluster.agent_restarts(), 1);
  ASSERT_NE(cluster.fault_detector(), nullptr);
  EXPECT_GE(cluster.fault_detector()->faults_detected(), 1);
  cluster.stop();
}

TEST(Chaos, ReplayIdenticalPlansFireIdentically) {
  // Two runs of the same plan text over idle clusters produce the same
  // impairment schedule — the determinism contract end to end.
  auto run = [](std::uint64_t* fingerprint) {
    ClusterConfig cfg;
    cfg.num_hosts = 2;
    Cluster cluster(cfg);
    cluster.start();
    auto plan = faultinject::FaultPlan::Parse(
        "at_ms=5 fault=impair_tunnel hosts=1-2 drop=0.5 seed=31\n");
    ASSERT_TRUE(plan.ok());
    FaultPlanRunner faults(&cluster, std::move(plan.value()));
    faults.start();
    ASSERT_TRUE(WaitFor([&] { return faults.fired() >= 1; }, 5s));

    auto [a, b] = cluster.tunnel_between(1, 2);
    ASSERT_NE(a, nullptr);
    net::Packet p;
    p.src = WorkerAddress{1, 1};
    p.dst = WorkerAddress{2, 2};
    p.payload = {42};
    for (int i = 0; i < 500; ++i) a->send(net::MakePacket(p));
    ASSERT_EQ(faults.impairments().size(), 2u);
    *fingerprint = faults.impairments()[0]->fingerprint();
    faults.stop();
    cluster.stop();
  };

  std::uint64_t fp1 = 0;
  std::uint64_t fp2 = 0;
  run(&fp1);
  run(&fp2);
  ASSERT_NE(fp1, 0u);
  EXPECT_EQ(fp1, fp2);
}

TEST(Chaos, QosAllocationSurvivesControllerCrashMidCongestion) {
  // The QoS-owning leader dies at the worst moment — mid-congestion,
  // shapers engaged. The standby's restored app must (a) re-assert the
  // checkpointed rates, (b) reconverge to a bit-identical allocation
  // (fingerprint equality), and (c) emit ZERO delta updates doing so: the
  // latent-demand probe rebuilds the exact same saturated fixed point from
  // the restored rate ledger, so nothing gets reprogrammed.
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.controller_standbys = 1;  // a takeover target for the crash
  cfg.controller_tick = std::chrono::milliseconds(10);
  Cluster cluster(cfg);

  controller::QosPolicy policy;
  policy.capacity_bps = 4e6;
  policy.epoch = std::chrono::milliseconds(25);
  policy.window_us = 500'000;
  policy.classes["gold"] = controller::QosClass{.priority = 0, .weight = 2.0};
  cluster.enable_qos(policy);
  cluster.start();

  // Three saturating spout->sink topologies (~3 MB/s offered each against
  // a 4 MB/s fabric): everyone shaped, the fixed point demand-independent.
  auto sink = std::make_shared<testutil::SinkState>();
  for (const std::string name : {"gold", "silver-a", "silver-b"}) {
    stream::TopologyBuilder b(name);
    const NodeId src = b.add_spout(
        "src",
        [] { return std::make_unique<testutil::SequenceSpout>(0, 16, 512,
                                                              6000.0); },
        1);
    const NodeId out = b.add_bolt(
        "sink",
        [sink] { return std::make_unique<testutil::CollectingSink>(sink); },
        1);
    b.shuffle(src, out);
    ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  }

  controller::QosApp* app = cluster.qos_app();
  ASSERT_NE(app, nullptr);

  // Congestion engaged: all three topologies shaped, fingerprint stable
  // across epochs.
  ASSERT_TRUE(WaitFor([&] { return app->programmed_rates().size() == 3; },
                      20s));
  std::uint64_t fp_before = 0;
  ASSERT_TRUE(WaitFor(
      [&] {
        const std::uint64_t fp = app->alloc_fingerprint();
        if (fp == common::kFnvOffset || fp != fp_before) {
          fp_before = fp;
          return false;
        }
        return true;  // two consecutive reads agree
      },
      20s));

  // Kill the leader through the scripted fault plan.
  auto plan = faultinject::FaultPlan::Parse("at_ms=5 fault=controller_crash\n");
  ASSERT_TRUE(plan.ok()) << plan.status().str();
  FaultPlanRunner faults(&cluster, std::move(plan.value()));
  faults.start();
  ASSERT_TRUE(WaitFor([&] { return faults.fired() >= 1; }, 5s));
  faults.stop();
  EXPECT_EQ(faults.misses(), 0);
  ASSERT_GE(cluster.control_plane()->failovers(), 1);

  // The takeover winner re-created the app from the factory and restored
  // the checkpoint.
  controller::QosApp* restored = nullptr;
  ASSERT_TRUE(WaitFor(
      [&] {
        restored = cluster.qos_app();
        return restored != nullptr && restored != app;
      },
      10s));

  // Reconvergence: the restored allocation is bit-identical — checked well
  // past the post-restore hold-down (window_us / epoch = 20 epochs), so the
  // allocator has genuinely re-run from live measurements by then.
  const std::uint64_t epoch0 = restored->epochs();
  ASSERT_TRUE(WaitFor(
      [&] {
        return restored->epochs() >= epoch0 + 25 &&
               restored->alloc_fingerprint() == fp_before;
      },
      20s))
      << "restored fingerprint " << restored->alloc_fingerprint()
      << " != " << fp_before << " after " << restored->epochs() << " epochs";
  // ...and reaching it reprogrammed nothing: the restored rate ledger
  // already matched what the fixed point demands.
  EXPECT_EQ(restored->rate_updates(), 0)
      << "failover caused shaper churn despite an identical allocation";
  EXPECT_EQ(restored->programmed_rates().size(), 3u);

  // Traffic kept flowing through the whole failover.
  const std::int64_t received0 = sink->received.load();
  EXPECT_TRUE(
      WaitFor([&] { return sink->received.load() > received0 + 500; }, 10s));

  cluster.stop();
}

}  // namespace
}  // namespace typhoon
