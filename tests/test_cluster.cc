// End-to-end cluster tests: deploy real topologies over both transports and
// check delivery, loss-freedom, guaranteed processing, and teardown.
#include <gtest/gtest.h>

#include <set>

#include "common/clock.h"
#include "stream/topology.h"
#include "stream/windows.h"
#include "typhoon/cluster.h"
#include "util/components.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using stream::LogicalTopology;
using stream::TopologyBuilder;
using testutil::CollectingSink;
using testutil::SequenceSpout;
using testutil::SentenceSpout;
using testutil::SinkState;
using testutil::SplitBolt;

LogicalTopology ChainTopology(std::shared_ptr<SinkState> state,
                              std::int64_t limit) {
  TopologyBuilder b("chain");
  const NodeId src = b.add_spout(
      "src", [limit] { return std::make_unique<SequenceSpout>(limit); }, 1);
  const NodeId sink = b.add_bolt(
      "sink",
      [state] { return std::make_unique<CollectingSink>(state, true); }, 1);
  b.shuffle(src, sink);
  auto r = b.build();
  EXPECT_TRUE(r.ok());
  return r.value();
}

// Wait until a predicate holds or the deadline passes.
template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(5);
  }
  return pred();
}

class ClusterTest : public ::testing::TestWithParam<TransportMode> {};

TEST_P(ClusterTest, DeliversAllTuplesThroughChain) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 20000;
  auto r = cluster.submit(ChainTopology(state, kLimit));
  ASSERT_TRUE(r.ok()) << r.status().str();

  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 15s))
      << "received " << state->received.load() << " of " << kLimit;
  EXPECT_EQ(state->duplicates.load(), 0);
  EXPECT_EQ(state->max_seq.load(), kLimit - 1);
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }
  cluster.stop();
}

TEST_P(ClusterTest, WordCountFigure2Topology) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto flags = std::make_shared<testutil::SharedFlags>();
  flags->spout_limit.store(2000);  // 2000 sentences

  TopologyBuilder b("wordcount");
  const NodeId input = b.add_spout(
      "input", [flags] { return std::make_unique<SentenceSpout>(flags, 8); },
      1);
  const NodeId split = b.add_bolt(
      "split", [flags] { return std::make_unique<SplitBolt>(flags); }, 2);
  const NodeId count = b.add_bolt(
      "count", [] { return std::make_unique<testutil::CountBolt>(); }, 4,
      /*stateful=*/true);
  b.shuffle(input, split);
  b.fields(split, count, {0});
  auto topo = b.build();
  ASSERT_TRUE(topo.ok());

  auto r = cluster.submit(topo.value());
  ASSERT_TRUE(r.ok()) << r.status().str();

  // 2000 sentences, each splitting to >= 7 words.
  auto count_received = [&] {
    std::int64_t total = 0;
    for (stream::Worker* w : cluster.workers_of_node("wordcount", "count")) {
      total += w->received();
    }
    return total;
  };
  ASSERT_TRUE(WaitFor([&] { return count_received() >= 2000 * 7; }, 15s))
      << "counted " << count_received();
  cluster.stop();
}

TEST_P(ClusterTest, GuaranteedProcessingAcksEveryTuple) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 5000;

  TopologyBuilder b("reliable");
  auto probe = std::make_shared<std::atomic<SequenceSpout*>>(nullptr);
  const NodeId src = b.add_spout(
      "src",
      [probe, kLimit]() -> std::unique_ptr<stream::Spout> {
        auto s = std::make_unique<SequenceSpout>(kLimit);
        probe->store(s.get());
        return s;
      },
      1);
  const NodeId sink = b.add_bolt(
      "sink",
      [state] { return std::make_unique<CollectingSink>(state, true); }, 1);
  b.shuffle(src, sink);
  auto topo = b.build();
  ASSERT_TRUE(topo.ok());

  stream::SubmitOptions opts;
  opts.reliable = true;
  auto r = cluster.submit(topo.value(), opts);
  ASSERT_TRUE(r.ok()) << r.status().str();

  ASSERT_TRUE(WaitFor(
      [&] {
        SequenceSpout* s = probe->load();
        return s != nullptr && s->acked() >= kLimit;
      },
      20s))
      << "acked " << (probe->load() ? probe->load()->acked() : -1);
  EXPECT_EQ(probe->load()->failed(), 0);
  EXPECT_GE(state->received.load(), kLimit);
  cluster.stop();
}

TEST_P(ClusterTest, BroadcastReachesAllSinks) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 3000;
  constexpr int kSinks = 4;

  TopologyBuilder b("bcast");
  const NodeId src = b.add_spout(
      "src", [kLimit] { return std::make_unique<SequenceSpout>(kLimit); },
      1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      kSinks);
  b.all(src, sink);
  auto topo = b.build();
  ASSERT_TRUE(topo.ok());
  ASSERT_TRUE(cluster.submit(topo.value()).ok());

  ASSERT_TRUE(WaitFor(
      [&] { return state->received.load() >= kLimit * kSinks; }, 15s))
      << "received " << state->received.load();
  EXPECT_EQ(state->received.load(), kLimit * kSinks);
  cluster.stop();
}

TEST_P(ClusterTest, ReliableBroadcastAcksDespiteIdenticalPayloads) {
  // The ack-algebra stress case: an all-grouping edge delivers identical
  // payloads (same edge id) to several sinks; mix(edge, dst) keeps the XOR
  // tree sound (plain per-edge XOR would cancel for even fanout).
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  constexpr std::int64_t kLimit = 2000;
  auto probe = std::make_shared<std::atomic<SequenceSpout*>>(nullptr);
  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("rbcast");
  const NodeId src = b.add_spout(
      "src",
      [probe, kLimit]() -> std::unique_ptr<stream::Spout> {
        auto s = std::make_unique<SequenceSpout>(kLimit, 4);
        probe->store(s.get());
        return s;
      },
      1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      4);  // even fanout: XOR-cancellation trap
  b.all(src, sink);
  stream::SubmitOptions opts;
  opts.reliable = true;
  ASSERT_TRUE(cluster.submit(b.build().value(), opts).ok());

  ASSERT_TRUE(WaitFor(
      [&] {
        SequenceSpout* s = probe->load();
        return s != nullptr && s->acked() >= kLimit;
      },
      20s))
      << "acked " << (probe->load() ? probe->load()->acked() : -1);
  EXPECT_EQ(probe->load()->failed(), 0);
  EXPECT_EQ(state->received.load(), kLimit * 4);
  cluster.stop();
}

TEST_P(ClusterTest, KillRemovesTopology) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ChainTopology(state, 0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 1000; }, 10s));

  ASSERT_TRUE(cluster.kill("chain").ok());
  EXPECT_FALSE(cluster.manager().physical("chain").ok());
  EXPECT_EQ(cluster.find_worker("chain", "src", 0), nullptr);

  if (GetParam() == TransportMode::kTyphoon) {
    // All flow rules swept by cookie.
    for (HostId h : cluster.hosts()) {
      EXPECT_EQ(cluster.switch_at(h)->flow_count(), 0u);
    }
  }
  // Re-submission under the same name works.
  auto state2 = std::make_shared<SinkState>();
  EXPECT_TRUE(cluster.submit(ChainTopology(state2, 500)).ok());
  EXPECT_TRUE(WaitFor([&] { return state2->received.load() >= 500; }, 10s));
  cluster.stop();
}

TEST(ClusterTyphoon, LocalitySchedulerRunsEndToEnd) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.locality_scheduler = true;
  Cluster cluster(cfg);
  cluster.start();

  // Six-stage chain: the locality scheduler co-locates adjacent stages
  // (two per host), so only two of the five hops cross hosts.
  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 10000;
  TopologyBuilder b("chain6");
  NodeId prev = b.add_spout(
      "n0", [kLimit] { return std::make_unique<SequenceSpout>(kLimit); }, 1);
  for (int i = 1; i < 6; ++i) {
    const bool last = i == 5;
    NodeId next = b.add_bolt(
        "n" + std::to_string(i),
        [state, last]() -> std::unique_ptr<stream::Bolt> {
          if (last) return std::make_unique<CollectingSink>(state, true);
          return std::make_unique<testutil::ForwardBolt>();
        },
        1);
    b.shuffle(prev, next);
    prev = next;
  }
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 15s))
      << state->received.load();
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }

  // Count cross-host hops along the chain.
  auto phys = cluster.manager().physical("chain6").value();
  auto spec = cluster.manager().spec("chain6").value();
  int remote_hops = 0;
  for (const auto& e : spec.edges) {
    const auto a = phys.workers_of(e.from);
    const auto c = phys.workers_of(e.to);
    if (!a.empty() && !c.empty() && a[0].host != c[0].host) ++remote_hops;
  }
  EXPECT_EQ(remote_hops, 2);
  cluster.stop();
}

TEST(ClusterTyphoon, ActivateDeactivateGateTopology) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ChainTopology(state, 0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  ASSERT_TRUE(cluster.manager().deactivate("chain").ok());
  common::SleepMillis(100);
  const std::int64_t frozen = state->received.load();
  common::SleepMillis(200);
  EXPECT_LE(state->received.load(), frozen + 200);

  ASSERT_TRUE(cluster.manager().activate("chain").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return state->received.load() > frozen + 2000; }, 10s));
  EXPECT_EQ(cluster.manager().activate("ghost").code(),
            common::ErrorCode::kNotFound);
  cluster.stop();
}

TEST(ClusterTyphoon, WindowedCountPipelineWithControllerSignals) {
  // KeyedCountWindowBolt over a cluster, flushed by SIGNAL control tuples
  // from the SDN controller — the full Listing 2 pattern end to end.
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto flags = std::make_shared<testutil::SharedFlags>();
  flags->spout_limit.store(900);  // 900 sentences, then idle
  auto state = std::make_shared<SinkState>();

  TopologyBuilder b("windowed");
  const NodeId src = b.add_spout(
      "src", [flags] { return std::make_unique<SentenceSpout>(flags, 4); },
      1);
  const NodeId count = b.add_bolt(
      "count",
      [] {
        return std::make_unique<stream::KeyedCountWindowBolt>(
            0, std::chrono::hours(1));  // flushed by SIGNAL only
      },
      2, /*stateful=*/true);
  const NodeId report = b.add_bolt(
      "report",
      [state] { return std::make_unique<CollectingSink>(state); }, 1);
  b.fields(src, count, {0});
  b.global(count, report);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());

  // Let all sentences flow, then flush the windows via the controller.
  auto counts_received = [&] {
    std::int64_t n = 0;
    for (stream::Worker* w : cluster.workers_of_node("windowed", "count")) {
      n += w->received();
    }
    return n;
  };
  ASSERT_TRUE(WaitFor([&] { return counts_received() >= 900; }, 15s));
  EXPECT_EQ(state->received.load(), 0) << "window leaked before SIGNAL";

  for (stream::Worker* w : cluster.workers_of_node("windowed", "count")) {
    stream::ControlTuple sig;
    sig.type = stream::ControlType::kSignal;
    sig.signal_tag = "window";
    ASSERT_TRUE(
        cluster.controller()->send_control(tid.value(), w->id(), sig).ok());
  }
  // The four distinct sentences, counted as keys and flushed downstream.
  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= 4; }, 10s))
      << state->received.load();
  cluster.stop();
}

TEST_P(ClusterTest, TwoTopologiesCoexist) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = GetParam();
  Cluster cluster(cfg);
  cluster.start();

  auto s1 = std::make_shared<SinkState>();
  auto s2 = std::make_shared<SinkState>();

  TopologyBuilder b1("alpha");
  auto src1 = b1.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(4000); }, 1);
  auto sink1 = b1.add_bolt(
      "sink", [s1] { return std::make_unique<CollectingSink>(s1); }, 1);
  b1.shuffle(src1, sink1);

  TopologyBuilder b2("beta");
  auto src2 = b2.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(4000); }, 1);
  auto sink2 = b2.add_bolt(
      "sink", [s2] { return std::make_unique<CollectingSink>(s2); }, 2);
  b2.shuffle(src2, sink2);

  ASSERT_TRUE(cluster.submit(b1.build().value()).ok());
  ASSERT_TRUE(cluster.submit(b2.build().value()).ok());

  EXPECT_TRUE(WaitFor(
      [&] {
        return s1->received.load() >= 4000 && s2->received.load() >= 4000;
      },
      15s))
      << s1->received.load() << " / " << s2->received.load();
  cluster.stop();
}

INSTANTIATE_TEST_SUITE_P(Modes, ClusterTest,
                         ::testing::Values(TransportMode::kTyphoon,
                                           TransportMode::kStormTcp),
                         [](const auto& info) {
                           return info.param == TransportMode::kTyphoon
                                      ? "Typhoon"
                                      : "Storm";
                         });

}  // namespace
}  // namespace typhoon
