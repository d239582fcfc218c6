// Topology builder/validation, physical expansion by the schedulers, and
// the spec/physical codecs stored in the coordinator.
#include <gtest/gtest.h>

#include <algorithm>

#include "stream/liveness.h"
#include "stream/physical.h"
#include "stream/scheduler.h"
#include "stream/topology.h"
#include "util/components.h"

namespace typhoon::stream {
namespace {

using testutil::ForwardBolt;
using testutil::SequenceSpout;

LogicalTopology Pipeline(int spouts = 1, int mids = 2, int sinks = 4) {
  TopologyBuilder b("pipe");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(); }, spouts);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, mids);
  const NodeId sink = b.add_bolt(
      "sink", [] { return std::make_unique<ForwardBolt>(); }, sinks);
  b.shuffle(src, mid);
  b.fields(mid, sink, {0});
  return b.build().value();
}

TEST(TopologyBuilder, BuildsValidWordCount) {
  LogicalTopology t = Pipeline();
  EXPECT_EQ(t.nodes().size(), 3u);
  EXPECT_EQ(t.edges().size(), 2u);
  EXPECT_TRUE(t.validate().ok());
  EXPECT_NE(t.node_by_name("mid"), nullptr);
  EXPECT_EQ(t.node_by_name("nope"), nullptr);
  EXPECT_EQ(t.out_edges(t.node_by_name("src")->id).size(), 1u);
  EXPECT_EQ(t.in_edges(t.node_by_name("sink")->id).size(), 1u);
}

TEST(TopologyBuilder, RejectsZeroParallelism) {
  TopologyBuilder b("bad");
  b.add_spout("s", [] { return std::make_unique<SequenceSpout>(); }, 0);
  EXPECT_FALSE(b.build().ok());
}

TEST(TopologyBuilder, RejectsDuplicateNames) {
  TopologyBuilder b("bad");
  b.add_spout("x", [] { return std::make_unique<SequenceSpout>(); });
  b.add_bolt("x", [] { return std::make_unique<ForwardBolt>(); });
  EXPECT_FALSE(b.build().ok());
}

TEST(TopologyBuilder, RejectsEdgeIntoSpout) {
  TopologyBuilder b("bad");
  auto s = b.add_spout("s", [] { return std::make_unique<SequenceSpout>(); });
  auto m = b.add_bolt("m", [] { return std::make_unique<ForwardBolt>(); });
  b.shuffle(s, m);
  b.shuffle(m, s);
  EXPECT_FALSE(b.build().ok());
}

TEST(TopologyBuilder, RejectsCycles) {
  TopologyBuilder b("bad");
  auto s = b.add_spout("s", [] { return std::make_unique<SequenceSpout>(); });
  auto m1 = b.add_bolt("m1", [] { return std::make_unique<ForwardBolt>(); });
  auto m2 = b.add_bolt("m2", [] { return std::make_unique<ForwardBolt>(); });
  b.shuffle(s, m1);
  b.shuffle(m1, m2);
  b.shuffle(m2, m1);
  EXPECT_FALSE(b.build().ok());
}

TEST(TopologyBuilder, RejectsMissingFactory) {
  LogicalTopology t("raw");
  LogicalNode n;
  n.name = "x";
  n.is_spout = false;  // bolt without factory
  t.add_node(std::move(n));
  EXPECT_FALSE(t.validate().ok());
}

TEST(TopologyBuilder, FieldsByNameResolvesDeclaredSchema) {
  TopologyBuilder b("named");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(); }, 1);
  b.declare_fields(src, {"word", "count", "ts"});
  const NodeId sink = b.add_bolt(
      "sink", [] { return std::make_unique<ForwardBolt>(); }, 2);
  b.fields_by_name(src, sink, {"ts", "word"});
  auto topo = b.build();
  ASSERT_TRUE(topo.ok()) << topo.status().str();
  const auto edges = topo.value().edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].grouping.type, GroupingType::kFields);
  EXPECT_EQ(edges[0].grouping.key_indices,
            (std::vector<std::uint32_t>{2, 0}));
}

TEST(TopologyBuilder, FieldsByNameRejectsUnknownField) {
  TopologyBuilder b("named");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(); }, 1);
  b.declare_fields(src, {"word"});
  const NodeId sink = b.add_bolt(
      "sink", [] { return std::make_unique<ForwardBolt>(); }, 1);
  b.fields_by_name(src, sink, {"nope"});
  auto topo = b.build();
  ASSERT_FALSE(topo.ok());
  EXPECT_NE(topo.status().message().find("nope"), std::string::npos);
}

TEST(TopologyBuilder, FieldsByNameRequiresDeclaredSchema) {
  TopologyBuilder b("named");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [] { return std::make_unique<ForwardBolt>(); }, 1);
  b.fields_by_name(src, sink, {"word"});
  EXPECT_FALSE(b.build().ok());
}

TEST(Scheduler, RoundRobinSpreadsAcrossHosts) {
  LogicalTopology t = Pipeline(1, 2, 4);  // 7 workers
  IdAllocator ids;
  RoundRobinScheduler sched;
  const std::vector<HostId> hosts{1, 2, 3};
  PhysicalTopology p = sched.schedule(t, 1, hosts, ids);
  ASSERT_EQ(p.workers.size(), 7u);

  std::map<HostId, int> load;
  for (const auto& w : p.workers) ++load[w.host];
  EXPECT_EQ(load.size(), 3u);
  for (const auto& [h, c] : load) {
    EXPECT_GE(c, 2);
    EXPECT_LE(c, 3);
  }
  // Worker ids unique, ports derived.
  std::set<WorkerId> seen;
  for (const auto& w : p.workers) {
    EXPECT_TRUE(seen.insert(w.id).second);
    EXPECT_EQ(w.port, IdAllocator::port_for(w.id));
  }
}

TEST(Scheduler, WorkersOfNodeOrderedByTaskIndex) {
  LogicalTopology t = Pipeline(1, 1, 5);
  IdAllocator ids;
  RoundRobinScheduler sched;
  const std::vector<HostId> hosts{1, 2};
  PhysicalTopology p = sched.schedule(t, 1, hosts, ids);
  const NodeId sink = t.node_by_name("sink")->id;
  auto ws = p.workers_of(sink);
  ASSERT_EQ(ws.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ws[i].task_index, i);
}

TEST(Scheduler, LocalityReducesRemoteEdges) {
  // A six-stage linear chain: adjacent-stage co-location is decisive here
  // (round-robin makes every hop remote).
  TopologyBuilder b("chain6");
  NodeId prev = b.add_spout(
      "n0", [] { return std::make_unique<SequenceSpout>(); }, 1);
  for (int i = 1; i < 6; ++i) {
    NodeId next = b.add_bolt(
        "n" + std::to_string(i),
        [] { return std::make_unique<ForwardBolt>(); }, 1);
    b.shuffle(prev, next);
    prev = next;
  }
  LogicalTopology t = b.build().value();
  const std::vector<HostId> hosts{1, 2, 3};
  IdAllocator ids1;
  IdAllocator ids2;
  RoundRobinScheduler rr;
  LocalityScheduler loc;
  const std::size_t rr_remote =
      RemoteEdgeCount(t, rr.schedule(t, 1, hosts, ids1));
  const std::size_t loc_remote =
      RemoteEdgeCount(t, loc.schedule(t, 1, hosts, ids2));
  EXPECT_LT(loc_remote, rr_remote);
}

TEST(Scheduler, PlaceAdditionalBalancesAndExtendsTaskIndices) {
  LogicalTopology t = Pipeline(1, 2, 2);
  IdAllocator ids;
  RoundRobinScheduler sched;
  const std::vector<HostId> hosts{1, 2};
  PhysicalTopology p = sched.schedule(t, 1, hosts, ids);
  const NodeId mid = t.node_by_name("mid")->id;

  auto added = sched.place_additional(p, mid, 2, hosts, ids);
  ASSERT_EQ(added.size(), 2u);
  auto ws = p.workers_of(mid);
  ASSERT_EQ(ws.size(), 4u);
  EXPECT_EQ(ws[2].task_index, 2);
  EXPECT_EQ(ws[3].task_index, 3);
}

TEST(Scheduler, RescheduleMovesToDifferentHost) {
  LogicalTopology t = Pipeline();
  IdAllocator ids;
  RoundRobinScheduler sched;
  const std::vector<HostId> hosts{1, 2, 3};
  PhysicalTopology p = sched.schedule(t, 1, hosts, ids);
  const WorkerId victim = p.workers[0].id;
  const HostId before = p.workers[0].host;
  sched.reschedule_worker(p, victim, hosts);
  EXPECT_NE(p.worker(victim)->host, before);
}

TEST(Codec, PhysicalRoundTrips) {
  PhysicalTopology p;
  p.id = 3;
  p.name = "topo";
  p.version = 9;
  p.workers = {{1, 10, 0, 1, 101}, {2, 10, 1, 2, 102}, {3, 11, 0, 1, 103}};
  PhysicalTopology out;
  ASSERT_TRUE(DecodePhysical(EncodePhysical(p), out));
  EXPECT_EQ(out.id, 3);
  EXPECT_EQ(out.name, "topo");
  EXPECT_EQ(out.version, 9u);
  ASSERT_EQ(out.workers.size(), 3u);
  EXPECT_EQ(out.workers[1], p.workers[1]);
  EXPECT_EQ(out.worker_ids_of(10), (std::vector<WorkerId>{1, 2}));
  EXPECT_EQ(std::count_if(out.workers.begin(), out.workers.end(),
                          [](const PhysicalWorker& w) { return w.host == 1; }),
            2);
}

TEST(Codec, SpecRoundTrips) {
  TopologySpec s;
  s.id = 2;
  s.name = "spec";
  s.version = 4;
  s.reliable = true;
  s.batch_size = 250;
  s.nodes = {{1, "src", 1, true, false}, {2, "sink", 3, false, true}};
  s.edges = {{1, 2, GroupingType::kFields, {0, 1}, kDefaultStream}};

  TopologySpec out;
  ASSERT_TRUE(DecodeSpec(EncodeSpec(s), out));
  EXPECT_EQ(out.name, "spec");
  EXPECT_TRUE(out.reliable);
  EXPECT_EQ(out.batch_size, 250u);
  ASSERT_EQ(out.nodes.size(), 2u);
  EXPECT_TRUE(out.nodes[1].stateful);
  ASSERT_EQ(out.edges.size(), 1u);
  EXPECT_EQ(out.edges[0].grouping, GroupingType::kFields);
  EXPECT_EQ(out.edges[0].key_indices, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(out.node_by_name("sink")->id, 2u);
  EXPECT_EQ(out.out_edges(1).size(), 1u);
  EXPECT_EQ(out.in_edges(2).size(), 1u);
}

TEST(Codec, PathsAreWellFormed) {
  EXPECT_EQ(SpecPath("t"), "/topologies/t/spec");
  EXPECT_EQ(PhysicalPath("t"), "/topologies/t/physical");
  EXPECT_EQ(AssignmentPath(3, 12), "/assignments/host3/w12");
  EXPECT_EQ(WorkerStatePath("t", 5), "/workers/t/w5/state");
  EXPECT_EQ(WorkerHeartbeatPath("t", 5), "/workers/t/w5/heartbeat");
}

TEST(Codec, HeartbeatRecordRoundTrips) {
  EXPECT_EQ(EncodeHeartbeat({1700000000123456, 42}), "1700000000123456 42");
  const Heartbeat hb = ParseHeartbeat("1700000000123456 42");
  EXPECT_EQ(hb.t_us, 1700000000123456);
  EXPECT_EQ(hb.queue_depth, 42);
  EXPECT_EQ(ParseHeartbeat(EncodeHeartbeat({7, 0})).queue_depth, 0);
}

TEST(Codec, HeartbeatSeedParsesWithDepthUnknown) {
  EXPECT_EQ(EncodeHeartbeat({1234, std::nullopt}), "1234");
  const Heartbeat hb = ParseHeartbeat("1234");
  EXPECT_EQ(hb.t_us, 1234);
  EXPECT_FALSE(hb.queue_depth.has_value());
}

TEST(Codec, MalformedHeartbeatReadsAsStaleWithDepthUnknown) {
  for (const char* bad : {"", "abc", " 5", "12x", "12 ", "12 x", "12 3 4",
                          "12  3", "12\t3"}) {
    const Heartbeat hb = ParseHeartbeat(bad);
    EXPECT_EQ(hb.t_us, 0) << '"' << bad << '"';
    EXPECT_FALSE(hb.queue_depth.has_value()) << '"' << bad << '"';
  }
}

// The shared slow-vs-dead rule over scripted heartbeat ages, for both
// monitors' thresholds: the manager (1500 ms, no slow report, dead at 3) and
// the FaultDetector (800 ms, slow at 4, dead at 8).
struct MissRule {
  std::chrono::milliseconds stale_after;
  int slow_at;
  int dead_at;
};

class MissCounterTest : public ::testing::TestWithParam<MissRule> {
 protected:
  using Verdict = MissCounter::Verdict;
  MissCounter counter_{GetParam().stale_after, GetParam().slow_at,
                       GetParam().dead_at};
  const std::int64_t stale_us_ =
      std::chrono::duration_cast<std::chrono::microseconds>(
          GetParam().stale_after)
          .count();
  const MissCounter::Key key_{"t", 5};
};

TEST_P(MissCounterTest, FreshObservationsGiveNoVerdict) {
  for (std::int64_t age : {std::int64_t{0}, stale_us_ / 2, stale_us_ - 1}) {
    for (int i = 0; i < 3 * GetParam().dead_at; ++i) {
      EXPECT_EQ(counter_.observe(key_, age), Verdict::kFresh);
    }
  }
  EXPECT_EQ(counter_.misses(key_), 0);
}

TEST_P(MissCounterTest, SlowIsReportedExactlyOnceAtItsThreshold) {
  int slow = 0;
  for (int miss = 1; miss < GetParam().dead_at; ++miss) {
    const Verdict v = counter_.observe(key_, stale_us_);
    EXPECT_EQ(counter_.misses(key_), miss);
    if (miss == GetParam().slow_at) {
      EXPECT_EQ(v, Verdict::kSlow) << "miss " << miss;
    } else {
      EXPECT_EQ(v, Verdict::kMissed) << "miss " << miss;
    }
    slow += v == Verdict::kSlow ? 1 : 0;
  }
  EXPECT_EQ(slow, GetParam().slow_at > 0 ? 1 : 0);
}

TEST_P(MissCounterTest, DeadIsReportedOnceThenTheCountResets) {
  for (int round = 0; round < 2; ++round) {
    int dead = 0;
    for (int miss = 1; miss <= GetParam().dead_at; ++miss) {
      dead += counter_.observe(key_, stale_us_ * 10) == Verdict::kDead;
    }
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(counter_.misses(key_), 0);
  }
  // A worker that stays silent starts a new count: one more miss is no
  // second death.
  EXPECT_NE(counter_.observe(key_, stale_us_), Verdict::kDead);
  EXPECT_EQ(counter_.misses(key_), 1);
}

TEST_P(MissCounterTest, OneFreshObservationRestartsTheCount) {
  for (int miss = 1; miss < GetParam().dead_at; ++miss) {
    EXPECT_NE(counter_.observe(key_, stale_us_), Verdict::kDead);
  }
  EXPECT_EQ(counter_.observe(key_, 0), Verdict::kFresh);
  EXPECT_EQ(counter_.misses(key_), 0);
  for (int miss = 1; miss < GetParam().dead_at; ++miss) {
    EXPECT_NE(counter_.observe(key_, stale_us_), Verdict::kDead);
  }
  EXPECT_EQ(counter_.observe(key_, stale_us_), Verdict::kDead);
}

TEST_P(MissCounterTest, KeysAreIndependent) {
  const MissCounter::Key other_worker{"t", 6};
  const MissCounter::Key other_topology{"u", 5};
  for (int miss = 1; miss < GetParam().dead_at; ++miss) {
    counter_.observe(key_, stale_us_);
    EXPECT_EQ(counter_.observe(other_worker, 0), Verdict::kFresh);
  }
  EXPECT_EQ(counter_.observe(other_topology, stale_us_), Verdict::kMissed);
  EXPECT_EQ(counter_.misses(other_worker), 0);
  EXPECT_EQ(counter_.misses(other_topology), 1);
  EXPECT_EQ(counter_.observe(key_, stale_us_), Verdict::kDead);
  EXPECT_EQ(counter_.misses(other_topology), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Monitors, MissCounterTest,
    ::testing::Values(MissRule{std::chrono::milliseconds(1500), 0, 3},
                      MissRule{std::chrono::milliseconds(800), 4, 8}),
    [](const ::testing::TestParamInfo<MissRule>& info) {
      return info.index == 0 ? std::string("Manager")
                             : std::string("FaultDetector");
    });

// The drain rule over scripted heartbeat ages (no sleeps): only a fresh
// record that reports depth 0 counts as drained.
class DrainedTest : public ::testing::Test {
 protected:
  static constexpr std::int64_t kNow = 1'000'000'000;
  const std::int64_t fresh_us_ = kDrainProbeFreshness.count();
};

TEST_F(DrainedTest, FreshZeroDepthIsDrained) {
  EXPECT_TRUE(Drained({kNow, 0}, kNow));
  EXPECT_TRUE(Drained({kNow - fresh_us_ / 2, 0}, kNow));
}

TEST_F(DrainedTest, StaleZeroDepthIsNotDrained) {
  EXPECT_FALSE(Drained({kNow - 2 * fresh_us_, 0}, kNow));
  EXPECT_FALSE(Drained(ParseHeartbeat("garbage"), kNow));
}

TEST_F(DrainedTest, FreshManagerSeedWithUnknownDepthIsNotDrained) {
  const Heartbeat seed = ParseHeartbeat(std::to_string(kNow));
  ASSERT_FALSE(seed.queue_depth.has_value());
  EXPECT_FALSE(Drained(seed, kNow));
}

TEST_F(DrainedTest, FreshNonZeroDepthIsNotDrained) {
  EXPECT_FALSE(Drained({kNow, 1}, kNow));
  EXPECT_FALSE(Drained({kNow, 4096}, kNow));
}

TEST_F(DrainedTest, FreshnessBoundaryIsExclusive) {
  EXPECT_TRUE(Drained({kNow - fresh_us_ + 1, 0}, kNow));
  EXPECT_FALSE(Drained({kNow - fresh_us_, 0}, kNow));
}

}  // namespace
}  // namespace typhoon::stream
