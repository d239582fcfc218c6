// SDN control-plane applications (Sec 4): fault detector rerouting on port
// events, auto-scaler threshold behaviour, SDN-offloaded load balancing,
// live-debugger mirroring, and worker metric queries via control tuples.
#include <gtest/gtest.h>

#include "controller/rule_compiler.h"
#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "util/components.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using stream::TopologyBuilder;
using testutil::CollectingSink;
using testutil::SequenceSpout;
using testutil::SentenceSpout;
using testutil::SharedFlags;
using testutil::SinkState;
using testutil::SplitBolt;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(5);
  }
  return pred();
}

TEST(FaultDetectorApp, ReroutesOnPortRemoval) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.heartbeat_timeout = 60s;  // keep the manager's slow path out of this
  Cluster cluster(cfg);
  cluster.start();

  auto flags = std::make_shared<SharedFlags>();
  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("fault");
  const NodeId src = b.add_spout(
      "src", [flags] { return std::make_unique<SentenceSpout>(flags, 8); },
      1);
  const NodeId split = b.add_bolt(
      "split", [flags] { return std::make_unique<SplitBolt>(flags); }, 2);
  const NodeId count = b.add_bolt(
      "count", [state] { return std::make_unique<CollectingSink>(state); },
      4);
  b.shuffle(src, split);
  b.fields(split, count, {0});
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 5000; }, 10s));

  // Kill split task 0: it throws on the next tuple.
  flags->crash_split.store(true);
  flags->crash_task_index.store(0);

  auto* fd = cluster.fault_detector();
  ASSERT_NE(fd, nullptr);
  ASSERT_TRUE(WaitFor([&] { return fd->faults_detected() >= 1; }, 10s));

  // Traffic keeps flowing through the surviving split worker.
  const std::int64_t at_detect = state->received.load();
  ASSERT_TRUE(WaitFor(
      [&] { return state->received.load() > at_detect + 20000; }, 10s))
      << "sinks stalled after fault";
  cluster.stop();
}

TEST(AutoScalerApp, ScalesUpOnSustainedQueueDepth) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.controller_tick = 20ms;
  Cluster cluster(cfg);
  cluster.start();

  // A deliberately slow mid stage so the queue builds.
  class SlowBolt : public stream::Bolt {
   public:
    void execute(const stream::Tuple& in, const stream::TupleMeta&,
                 stream::Emitter& out) override {
      common::SpinFor(std::chrono::microseconds(30));
      out.emit(stream::Tuple{in});
    }
  };
  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("auto");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 16); }, 1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<SlowBolt>(); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());

  controller::AutoScalerPolicy policy;
  policy.topology = "auto";
  policy.node = "mid";
  policy.queue_high = 500;
  policy.consecutive = 2;
  policy.max_parallelism = 3;
  policy.cooldown = 300ms;
  auto* scaler = cluster.add_auto_scaler(policy);
  ASSERT_NE(scaler, nullptr);

  ASSERT_TRUE(WaitFor([&] { return scaler->scale_ups() >= 1; }, 20s))
      << "avg queue " << scaler->last_avg_queue();
  EXPECT_TRUE(WaitFor(
      [&] { return cluster.workers_of_node("auto", "mid").size() >= 2; },
      5s));
  cluster.stop();
}

TEST(LoadBalancerApp, GroupRulesRedirectTraffic) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("lb");
  // Paced well below sink capacity: an unpaced spout fills the tunnel with
  // tuples routed under the old even weights and delivers 5000 tuples in a
  // few milliseconds, so the window would measure that backlog and thread
  // scheduling instead of the weighted split.
  const NodeId src = b.add_spout(
      "src",
      [] { return std::make_unique<SequenceSpout>(0, 8, 0, 20'000.0); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      3);
  b.direct(src, sink);  // worker picks random dst; SDN rewrites
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 1000; }, 10s));

  auto* lb = cluster.load_balancer();
  ASSERT_NE(lb, nullptr);
  auto st = lb->enable(tid.value(), "src", "sink");
  ASSERT_TRUE(st.ok()) << st.str();

  // Heavily skew the weights toward sink task 0 and verify distribution
  // follows.
  auto phys = cluster.manager().physical("lb").value();
  auto spec = cluster.manager().spec("lb").value();
  auto sinks = phys.workers_of(spec.node_by_name("sink")->id);
  ASSERT_EQ(sinks.size(), 3u);
  std::map<WorkerId, std::uint32_t> weights{
      {sinks[0].id, 10}, {sinks[1].id, 1}, {sinks[2].id, 1}};
  ASSERT_TRUE(lb->set_weights(tid.value(), "src", "sink", weights).ok());

  std::vector<stream::Worker*> sink_workers =
      cluster.workers_of_node("lb", "sink");
  ASSERT_EQ(sink_workers.size(), 3u);
  const std::int64_t base0 = sink_workers[0]->received();
  const std::int64_t base1 = sink_workers[1]->received();
  ASSERT_TRUE(WaitFor(
      [&] { return sink_workers[0]->received() - base0 > 5000; }, 10s));
  const std::int64_t d0 = sink_workers[0]->received() - base0;
  const std::int64_t d1 = sink_workers[1]->received() - base1;
  EXPECT_GT(d0, d1 * 3) << "weighted WRR should favor task 0";

  EXPECT_TRUE(lb->disable(tid.value(), "src", "sink").ok());
  cluster.stop();
}

// src -> mid (3) -> sink on two hosts, paced; the load balancer's tests
// offload src -> mid.
class LoadBalancerEdge : public ::testing::Test {
 protected:
  static constexpr const char* kTopo = "lbedge";

  void SetUp() override {
    cluster_.start();
    TopologyBuilder b(kTopo);
    const NodeId src = b.add_spout(
        "src",
        [] { return std::make_unique<SequenceSpout>(0, 8, 0, 2'000.0); }, 1);
    const NodeId mid = b.add_bolt(
        "mid", [] { return std::make_unique<testutil::ForwardBolt>(); }, 3);
    const NodeId sink = b.add_bolt(
        "sink",
        [state = state_] { return std::make_unique<CollectingSink>(state); },
        1);
    b.shuffle(src, mid);
    b.shuffle(mid, sink);
    auto tid = cluster_.submit(b.build().value());
    ASSERT_TRUE(tid.ok());
    tid_ = tid.value();
    ASSERT_TRUE(WaitFor([&] { return state_->received.load() > 100; }, 10s));
  }
  void TearDown() override { cluster_.stop(); }

  // Installed rules at `priority` whose match names `addr`, on all hosts.
  int RulesNaming(std::uint64_t addr, std::uint16_t priority) {
    int n = 0;
    for (HostId h : cluster_.hosts()) {
      for (const openflow::FlowRule& r : cluster_.switch_at(h)->flow_rules()) {
        if (r.priority == priority &&
            (r.match.dl_src == addr || r.match.dl_dst == addr)) {
          ++n;
        }
      }
    }
    return n;
  }

  static ClusterConfig Config() {
    ClusterConfig cfg;
    cfg.num_hosts = 2;
    return cfg;
  }

  Cluster cluster_{Config()};
  std::shared_ptr<SinkState> state_ = std::make_shared<SinkState>();
  TopologyId tid_ = 0;
};

// Scaling the balanced node down deletes the redirects that name the
// retired worker, on every host.
TEST_F(LoadBalancerEdge, ScaleDownDropsRedirectsOfRemovedWorker) {
  ASSERT_TRUE(cluster_.load_balancer()->enable(tid_, "src", "mid").ok());
  const stream::TopologySpec spec = cluster_.manager().spec(kTopo).value();
  const std::vector<stream::PhysicalWorker> mids =
      cluster_.manager().physical(kTopo).value().workers_of(
          spec.node_by_name("mid")->id);
  ASSERT_EQ(mids.size(), 3u);
  // Scale-down retires the highest task index.
  const std::uint64_t victim =
      WorkerAddress{tid_, mids.back().id}.packed();
  ASSERT_GT(RulesNaming(victim, controller::kPrioLoadBalance), 0);

  stream::ReconfigRequest req;
  req.topology = kTopo;
  req.kind = stream::ReconfigRequest::Kind::kScaleDown;
  req.node = "mid";
  req.count = 1;
  const common::Status st = cluster_.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ(RulesNaming(victim, controller::kPrioLoadBalance), 0);
}

// Disabling the balancer deletes its redirects and nothing else: the
// compiled data rule with the same match as each redirect stays, so the
// edge keeps carrying traffic.
TEST_F(LoadBalancerEdge, DisableKeepsCompiledDataRules) {
  auto* lb = cluster_.load_balancer();
  ASSERT_TRUE(lb->enable(tid_, "src", "mid").ok());
  ASSERT_TRUE(lb->disable(tid_, "src", "mid").ok());

  const controller::RulesByHost compiled = controller::RuleCompiler().compile(
      cluster_.manager().spec(kTopo).value(),
      cluster_.manager().physical(kTopo).value());
  for (HostId h : cluster_.hosts()) {
    controller::RulesByHost installed;
    for (const openflow::FlowRule& r : cluster_.switch_at(h)->flow_rules()) {
      if (r.cookie == tid_) installed[h].push_back(r);
    }
    controller::RulesByHost wanted;
    if (auto it = compiled.find(h); it != compiled.end()) {
      wanted[h] = it->second;
    }
    EXPECT_TRUE(controller::RuleCompiler::Diff(
                    controller::RuleCompiler::Keyed(std::move(installed)),
                    controller::RuleCompiler::Keyed(std::move(wanted)))
                    .empty())
        << "host " << h << " rules differ from the compiled set";
  }
  const std::int64_t before = state_->received.load();
  EXPECT_TRUE(
      WaitFor([&] { return state_->received.load() > before + 200; }, 10s));
}

TEST(LiveDebuggerApp, MirrorsSelectedPathWithoutDisruption) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("dbg");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 10s));

  auto phys = cluster.manager().physical("dbg").value();
  auto spec = cluster.manager().spec("dbg").value();
  const WorkerId src_w =
      phys.worker_ids_of(spec.node_by_name("src")->id)[0];
  const WorkerId sink_w =
      phys.worker_ids_of(spec.node_by_name("sink")->id)[0];

  auto* dbg = cluster.live_debugger();
  ASSERT_NE(dbg, nullptr);
  auto tap = dbg->attach(tid.value(), src_w, sink_w);
  ASSERT_TRUE(tap.ok()) << tap.status().str();
  EXPECT_EQ(dbg->active_sessions(), 1u);

  ASSERT_TRUE(WaitFor([&] { return tap.value()->tuples() > 100; }, 10s));
  EXPECT_GT(tap.value()->packets(), 0);
  EXPECT_FALSE(tap.value()->samples().empty());

  // Primary path unaffected while mirroring.
  const std::int64_t before = state->received.load();
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > before + 1000; },
                      10s));

  ASSERT_TRUE(dbg->detach(tid.value(), src_w, sink_w).ok());
  EXPECT_EQ(dbg->active_sessions(), 0u);
  const std::int64_t tuples_at_detach = tap.value()->tuples();
  common::SleepMillis(50);
  EXPECT_LE(tap.value()->tuples(), tuples_at_detach + 5);
  EXPECT_EQ(dbg->detach(tid.value(), src_w, sink_w).code(),
            common::ErrorCode::kNotFound);
  cluster.stop();
}

TEST(LiveDebuggerApp, FilterNarrowsCapture) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("dbgf");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());

  auto phys = cluster.manager().physical("dbgf").value();
  auto spec = cluster.manager().spec("dbgf").value();
  const WorkerId src_w = phys.worker_ids_of(spec.node_by_name("src")->id)[0];
  const WorkerId sink_w =
      phys.worker_ids_of(spec.node_by_name("sink")->id)[0];

  auto tap = cluster.live_debugger()->attach(tid.value(), src_w, sink_w,
                                             /*keep_last=*/16);
  ASSERT_TRUE(tap.ok());
  // Custom filtering logic (Table 5): only multiples of 1000. Tuples
  // decoded between attach and set_filter are unfiltered, so wait for the
  // sample ring to cycle fully before inspecting it.
  tap.value()->set_filter([](const stream::Tuple& t) {
    return t.size() >= 1 && t.i64(0) % 1000 == 0;
  });
  const std::int64_t baseline = tap.value()->tuples();
  ASSERT_TRUE(
      WaitFor([&] { return tap.value()->tuples() >= baseline + 40; }, 20s));
  for (const std::string& s : tap.value()->samples()) {
    EXPECT_NE(s.find("000"), std::string::npos) << s;
  }
  cluster.stop();
}

TEST(FaultDetectorApp, ReincludesWorkerAfterRecovery) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.heartbeat_timeout = 60s;  // isolate the fast path
  cfg.agent_restart_delay = 100ms;
  cfg.agent_max_local_restarts = 10;
  Cluster cluster(cfg);
  cluster.start();

  auto flags = std::make_shared<SharedFlags>();
  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("recover");
  const NodeId src = b.add_spout(
      "src",
      [flags] { return std::make_unique<SentenceSpout>(flags, 8, 30000.0); },
      1);
  const NodeId split = b.add_bolt(
      "split", [flags] { return std::make_unique<SplitBolt>(flags); }, 2);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, split);
  b.shuffle(split, sink);
  ASSERT_TRUE(cluster.submit(b.build().value()).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 5000; }, 10s));

  auto* fd = cluster.fault_detector();
  ASSERT_NE(fd, nullptr);

  // Transient fault: crash split[0] once, then heal the flag so the local
  // restart succeeds.
  flags->crash_split.store(true);
  flags->crash_task_index.store(0);
  ASSERT_TRUE(WaitFor([&] { return fd->faults_detected() >= 1; }, 10s));
  flags->crash_split.store(false);

  // The supervisor restarts it; the detector sees the port return and
  // re-includes it in the predecessors' routing.
  ASSERT_TRUE(WaitFor([&] { return fd->recoveries() >= 1; }, 10s));
  ASSERT_TRUE(WaitFor(
      [&] {
        // probe_worker, not find_worker: the agent monitor may still be
        // restarting the worker, freeing the raw pointer mid-poll.
        bool healthy = false;
        cluster.probe_worker("recover", "split", 0, [&](stream::Worker& w) {
          healthy = !w.crashed() && w.received() > 100;
        });
        return healthy;
      },
      10s))
      << "restarted split never received traffic again";
  cluster.stop();
}

TEST(LoadBalancerApp, AutoRebalanceAdjustsWeightsFromQueueDepths) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.controller_tick = 25ms;
  Cluster cluster(cfg);
  cluster.start();

  // One fast and one deliberately slow sink; direct grouping + LB offload.
  class SlowSink : public stream::Bolt {
   public:
    explicit SlowSink(std::shared_ptr<SinkState> s, bool slow)
        : state_(std::move(s)), slow_(slow) {}
    void execute(const stream::Tuple&, const stream::TupleMeta&,
                 stream::Emitter&) override {
      state_->received.fetch_add(1);
      if (slow_) common::SleepFor(std::chrono::microseconds(300));
    }
    std::shared_ptr<SinkState> state_;
    bool slow_;
  };
  auto fast_state = std::make_shared<SinkState>();
  auto slow_state = std::make_shared<SinkState>();
  auto states = std::make_shared<std::atomic<int>>(0);

  TopologyBuilder b("lbauto");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8, 0, 20000.0); },
      1);
  const NodeId sink = b.add_bolt(
      "sink",
      [fast_state, slow_state, states]() -> std::unique_ptr<stream::Bolt> {
        const int idx = states->fetch_add(1);
        // task 0 = fast, task 1 = slow (factories run in task order).
        if (idx == 0) return std::make_unique<SlowSink>(fast_state, false);
        return std::make_unique<SlowSink>(slow_state, true);
      },
      2);
  b.direct(src, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());

  auto* lb = cluster.load_balancer();
  ASSERT_TRUE(lb->enable(tid.value(), "src", "sink").ok());
  lb->set_auto_rebalance(true);

  // Auto-rebalance must shift weight away from the slow sink: its share
  // should end well below half.
  ASSERT_TRUE(WaitFor(
      [&] {
        return fast_state->received.load() + slow_state->received.load() >
               40000;
      },
      20s));
  ASSERT_TRUE(WaitFor([&] { return lb->rebalances() > 3; }, 10s));
  const double slow_share =
      static_cast<double>(slow_state->received.load()) /
      static_cast<double>(fast_state->received.load() +
                          slow_state->received.load());
  EXPECT_LT(slow_share, 0.45) << "slow sink share " << slow_share;
  cluster.stop();
}

TEST(Controller, MetricQueryRoundTrip) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("mq");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 100; }, 10s));

  auto phys = cluster.manager().physical("mq").value();
  auto spec = cluster.manager().spec("mq").value();
  const WorkerId sink_w =
      phys.worker_ids_of(spec.node_by_name("sink")->id)[0];
  auto report = cluster.controller()->query_worker_metrics(tid.value(),
                                                           sink_w, 2s);
  ASSERT_TRUE(report.ok()) << report.status().str();
  EXPECT_EQ(report.value().worker, sink_w);
  std::int64_t received = -1;
  for (const auto& [name, value] : report.value().metrics) {
    if (name == "received") received = value;
  }
  EXPECT_GT(received, 0);
  cluster.stop();
}

TEST(Controller, ControlTuplesAdjustRateAndBatch) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("ctl");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 1); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  auto phys = cluster.manager().physical("ctl").value();
  auto spec = cluster.manager().spec("ctl").value();
  const WorkerId src_w = phys.worker_ids_of(spec.node_by_name("src")->id)[0];

  // DEACTIVATE halts the source.
  stream::ControlTuple off;
  off.type = stream::ControlType::kDeactivate;
  ASSERT_TRUE(cluster.controller()->send_control(tid.value(), src_w, off).ok());
  common::SleepMillis(100);
  const std::int64_t frozen = state->received.load();
  common::SleepMillis(150);
  EXPECT_LE(state->received.load(), frozen + 50);

  // ACTIVATE resumes it.
  stream::ControlTuple on;
  on.type = stream::ControlType::kActivate;
  ASSERT_TRUE(cluster.controller()->send_control(tid.value(), src_w, on).ok());
  ASSERT_TRUE(
      WaitFor([&] { return state->received.load() > frozen + 1000; }, 10s));

  // INPUT_RATE throttles emission to ~1k/s.
  stream::ControlTuple rate;
  rate.type = stream::ControlType::kInputRate;
  rate.input_rate = 1000.0;
  ASSERT_TRUE(
      cluster.controller()->send_control(tid.value(), src_w, rate).ok());
  common::SleepMillis(150);  // let the limiter engage
  const std::int64_t t0 = state->received.load();
  common::SleepMillis(400);
  const std::int64_t delta = state->received.load() - t0;
  EXPECT_LT(delta, 1500) << "rate limiter not applied";
  cluster.stop();
}

}  // namespace
}  // namespace typhoon
