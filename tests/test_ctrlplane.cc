// Failover-capable control plane (DESIGN.md Sec 15): incremental (delta)
// rule compilation bounded by worker degree rather than topology size,
// orphan-free removal of permanent rules, one leader owning every topology,
// and leader-crash failover (FaultPlan `controller_crash`) that loses no
// sequenced control tuples mid-run.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "controller/control_plane.h"
#include "controller/rule_compiler.h"
#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "typhoon/fault_runner.h"
#include "util/components.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using controller::ControlPlane;
using controller::RuleCompiler;
using controller::RuleDelta;
using controller::RulesByHost;
using stream::ReconfigRequest;
using stream::TopologyBuilder;
using testutil::ChaosSentences;
using testutil::CollectingSink;
using testutil::DedupCountBolt;
using testutil::DedupCountState;
using testutil::DedupSplitBolt;
using testutil::ForwardBolt;
using testutil::ReplayableSentenceSpout;
using testutil::SequenceSpout;
using testutil::SinkState;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(10);
  }
  return pred();
}

std::size_t CountRules(const RulesByHost& rules) {
  std::size_t n = 0;
  for (const auto& [h, rs] : rules) n += rs.size();
  return n;
}

// src (kSrcPar workers) -> dst (`dst_par` workers), shuffle, spread over
// `hosts` hosts round-robin. Worker ids/ports are deterministic so two
// calls with different dst_par produce supersets of each other.
constexpr int kSrcPar = 4;

void BigTopology(int dst_par, int hosts, stream::TopologySpec& spec,
                 stream::PhysicalTopology& phys) {
  spec = {};
  phys = {};
  spec.id = 7;
  spec.name = "big";
  spec.nodes = {{1, "src", kSrcPar, true, false},
                {2, "dst", dst_par, false, false}};
  spec.edges = {{1, 2, stream::GroupingType::kShuffle, {},
                 stream::kDefaultStream}};
  phys.id = 7;
  phys.name = "big";
  for (int i = 0; i < kSrcPar; ++i) {
    phys.workers.push_back({static_cast<WorkerId>(100 + i), 1, i,
                            static_cast<HostId>(1 + i % hosts),
                            static_cast<PortId>(1100 + i)});
  }
  for (int i = 0; i < dst_par; ++i) {
    phys.workers.push_back({static_cast<WorkerId>(1000 + i), 2, i,
                            static_cast<HostId>(1 + i % hosts),
                            static_cast<PortId>(2000 + i)});
  }
}

// Tentpole acceptance: on a 512-worker topology, adding or removing one
// worker recompiles O(worker-degree) FlowMods, not O(topology size).
TEST(CtrlPlane, DeltaCompileIsWorkerDegreeBoundedAt512Workers) {
  stream::TopologySpec spec512;
  stream::PhysicalTopology phys512;
  BigTopology(512, 8, spec512, phys512);

  RuleCompiler c;
  const std::size_t full_rules = c.compile_delta(spec512, phys512).total();
  // 4x512 unicast pairs (1 or 2 rules each) + 2 control rules per worker.
  ASSERT_GT(full_rules, 3000u);

  // Grow dst by one worker. The new worker's degree: kSrcPar incoming
  // pairs (at most sender+receiver each) + its 2 control rules.
  stream::TopologySpec spec513;
  stream::PhysicalTopology phys513;
  BigTopology(513, 8, spec513, phys513);
  const RuleDelta grow = c.compile_delta(spec513, phys513);
  const std::size_t degree_bound = 2 * kSrcPar + 2;
  EXPECT_LE(grow.total(), degree_bound) << "rebalance recompiled the world";
  EXPECT_EQ(CountRules(grow.dels), 0u);
  EXPECT_EQ(CountRules(grow.mods), 0u);
  // The O() claim, concretely: the delta is >100x smaller than the table.
  EXPECT_LT(grow.total() * 100, full_rules);

  // Shrink back. Same bound, now as explicit deletes — including the
  // worker->controller rule, whose match carries only the dead worker's
  // in_port (an address sweep alone would leak it; satellite regression).
  const RuleDelta shrink = c.compile_delta(spec512, phys512);
  EXPECT_LE(shrink.total(), degree_bound);
  EXPECT_EQ(CountRules(shrink.adds), 0u);
  const PortId removed_port = 2000 + 512;
  bool to_controller_deleted = false;
  for (const auto& [host, rs] : shrink.dels) {
    for (const openflow::FlowRule& r : rs) {
      if (r.match.in_port == removed_port &&
          r.priority == controller::kPrioControl) {
        to_controller_deleted = true;
      }
    }
  }
  EXPECT_TRUE(to_controller_deleted)
      << "removed worker's to-controller rule not explicitly deleted";

  // The cache converged back to the 512-worker set: replaying the same
  // physical plan is a no-op delta.
  EXPECT_TRUE(c.compile_delta(spec512, phys512).empty());
}

TEST(CtrlPlane, DeltaFallsBackToFullAddsWithoutCachedState) {
  stream::TopologySpec spec;
  stream::PhysicalTopology phys;
  BigTopology(8, 2, spec, phys);
  RuleCompiler c;
  // No cached state: everything is an add (deploy / takeover-repair path).
  const RuleDelta d = c.compile_delta(spec, phys);
  EXPECT_EQ(d.total(), CountRules(c.compile(spec, phys)));
  EXPECT_EQ(CountRules(d.dels), 0u);
}

// Regression: rules are permanent, so a scale-down must leave no rule on
// any switch that references a removed worker's port or address — the
// leak was rules whose match does not mention the worker's address
// (to-controller, emptied broadcast legs).
TEST(CtrlPlane, ScaleDownLeavesNoOrphanRulesOnAnySwitch) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("orph");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8, 0, 30000.0); },
      1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, 3);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); }, 1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  auto tid = cluster.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleDown;
  req.topology = "orph";
  req.node = "mid";
  req.count = 2;
  ASSERT_TRUE(cluster.reconfigure(req).ok());

  // Live worker ports/addresses after the scale-down.
  const auto phys = cluster.manager().physical("orph");
  ASSERT_TRUE(phys.ok());
  std::set<PortId> live_ports;
  std::set<std::uint64_t> live_addrs;
  for (const stream::PhysicalWorker& w : phys.value().workers) {
    live_ports.insert(w.port);
    live_addrs.insert(WorkerAddress{tid.value(), w.id}.packed());
  }
  live_addrs.insert(WorkerAddress{tid.value(), kControllerWorker}.packed());
  live_addrs.insert(BroadcastAddress(tid.value()).packed());
  const auto port_ok = [&](std::optional<PortId> p) {
    return !p.has_value() || *p == switchd::SoftSwitch::kTunnelPort ||
           *p == kPortController || live_ports.count(*p) > 0;
  };
  const auto addr_ok = [&](std::optional<std::uint64_t> a) {
    return !a.has_value() || live_addrs.count(*a) > 0;
  };

  for (HostId h : cluster.hosts()) {
    for (const openflow::FlowRule& r : cluster.switch_at(h)->flow_rules()) {
      if (r.cookie != tid.value()) continue;
      EXPECT_TRUE(port_ok(r.match.in_port))
          << "orphan: host " << h << " rule matches dead port "
          << *r.match.in_port;
      EXPECT_TRUE(addr_ok(r.match.dl_src) && addr_ok(r.match.dl_dst))
          << "orphan: host " << h << " rule references dead worker address";
    }
  }

  // The rebalance went through the incremental path.
  ASSERT_NE(cluster.controller(), nullptr);
  EXPECT_GT(cluster.controller()->flowmods_delta(), 0);
  cluster.stop();
}

// Rule tables stay exact across every stable update (DESIGN.md Sec 6): after
// each step every switch holds, for the topology's cookie at the compiler's
// priorities, exactly RuleCompiler().compile(spec, phys) for that host, and
// the control plane emitted exactly as many FlowMods as the diff between
// the rule sets before and after the step.
enum class Update {
  kScaleUp,
  kScaleDown,
  kChangeGrouping,
  kSwap,
  kRelocate,
  kAttach,
  kDetach,
  kReschedule,
};

std::string UpdateName(const ::testing::TestParamInfo<Update>& info) {
  switch (info.param) {
    case Update::kScaleUp: return "ScaleUp";
    case Update::kScaleDown: return "ScaleDown";
    case Update::kChangeGrouping: return "ChangeGrouping";
    case Update::kSwap: return "Swap";
    case Update::kRelocate: return "Relocate";
    case Update::kAttach: return "Attach";
    case Update::kDetach: return "Detach";
    case Update::kReschedule: return "Reschedule";
  }
  return "Unknown";
}

class RuleTablesExact : public ::testing::TestWithParam<Update> {
 protected:
  static constexpr const char* kTopo = "exact";

  // Table 3 set of the manager's current (spec, physical).
  controller::CompiledRuleState Expected() {
    return RuleCompiler::Keyed(
        RuleCompiler().compile(cluster_.manager().spec(kTopo).value(),
                               cluster_.manager().physical(kTopo).value()));
  }

  std::int64_t FlowMods() {
    return cluster_.control_plane()->flowmods_delta() +
           cluster_.control_plane()->flowmods_full();
  }

  std::map<HostId, std::uint64_t> Epochs() {
    std::map<HostId, std::uint64_t> out;
    for (HostId h : cluster_.hosts()) {
      out[h] = cluster_.switch_at(h)->table_epoch();
    }
    return out;
  }

  // Compare every switch's compiler-owned rules of the topology with
  // `expected`, and the FlowMods emitted since `flowmods_before` with the
  // diff from `before` to `expected`. Each switch takes the update as one
  // bundle per phase it has rules in (adds, mods, dels), so its table epoch
  // moves at most that many times since `epochs_before`.
  void ExpectExact(const controller::CompiledRuleState& before,
                   std::int64_t flowmods_before,
                   const std::map<HostId, std::uint64_t>& epochs_before,
                   const std::string& step) {
    SCOPED_TRACE(step);
    const controller::CompiledRuleState expected = Expected();
    const controller::RuleDelta diff = RuleCompiler::Diff(before, expected);
    for (HostId h : cluster_.hosts()) {
      std::uint64_t phases = 0;
      for (const RulesByHost* part : {&diff.adds, &diff.mods, &diff.dels}) {
        auto it = part->find(h);
        if (it != part->end() && !it->second.empty()) ++phases;
      }
      EXPECT_LE(cluster_.switch_at(h)->table_epoch() - epochs_before.at(h),
                phases)
          << "host " << h << " table epoch";
    }
    for (HostId h : cluster_.hosts()) {
      RulesByHost installed;
      for (const openflow::FlowRule& r : cluster_.switch_at(h)->flow_rules()) {
        if (r.cookie == tid_ && (r.priority == controller::kPrioData ||
                                 r.priority == controller::kPrioControl)) {
          installed[h].push_back(r);
        }
      }
      RulesByHost wanted;
      for (const auto& [key, rule] : expected) {
        if (key.host == h) wanted[h].push_back(rule);
      }
      // Exact iff neither side has a rule the other lacks or differs on.
      EXPECT_TRUE(RuleCompiler::Diff(RuleCompiler::Keyed(std::move(installed)),
                                     RuleCompiler::Keyed(std::move(wanted)))
                      .empty())
          << "host " << h << " rules differ from the compiled set";
    }
    EXPECT_EQ(FlowMods() - flowmods_before,
              static_cast<std::int64_t>(
                  RuleCompiler::Diff(before, expected).total()));
  }

  // Run one reconfiguration and check the tables it leaves.
  void Reconfigure(ReconfigRequest req, const std::string& step) {
    req.topology = kTopo;
    const controller::CompiledRuleState before = Expected();
    const std::int64_t flowmods = FlowMods();
    const std::map<HostId, std::uint64_t> epochs = Epochs();
    const common::Status st = cluster_.reconfigure(req);
    ASSERT_TRUE(st.ok()) << step << ": " << st.str();
    ExpectExact(before, flowmods, epochs, step);
  }

  void Attach() {
    cluster_.registry().add_bolt(kTopo, "query", [state = query_] {
      return std::make_unique<CollectingSink>(state);
    });
    ReconfigRequest req;
    req.kind = ReconfigRequest::Kind::kAttachQuery;
    req.from_node = "mid";
    req.node = "query";
    req.count = 2;
    Reconfigure(req, "attach");
  }

  static ClusterConfig Config() {
    ClusterConfig cfg;
    cfg.num_hosts = 3;
    if (GetParam() == Update::kReschedule) {
      // Fast death verdict for the failed host's worker.
      cfg.heartbeat_timeout = 500ms;
      cfg.manager_monitor_interval = 50ms;
    }
    return cfg;
  }

  Cluster cluster_{Config()};
  std::shared_ptr<SinkState> sink_ = std::make_shared<SinkState>();
  std::shared_ptr<SinkState> query_ = std::make_shared<SinkState>();
  TopologyId tid_ = 0;
};

TEST_P(RuleTablesExact, AfterEveryStableUpdate) {
  cluster_.start();
  TopologyBuilder b(kTopo);
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 8, 0, 5000.0); },
      1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, 2);
  const NodeId sink = b.add_bolt(
      "sink", [state = sink_] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  const std::int64_t deploy_flowmods = FlowMods();
  const std::map<HostId, std::uint64_t> deploy_epochs = Epochs();
  auto tid = cluster_.submit(b.build().value());
  ASSERT_TRUE(tid.ok());
  tid_ = tid.value();
  ExpectExact({}, deploy_flowmods, deploy_epochs, "deploy");
  ASSERT_TRUE(WaitFor([&] { return sink_->received.load() > 500; }, 10s));

  ReconfigRequest req;
  req.node = "mid";
  switch (GetParam()) {
    case Update::kScaleUp:
      req.kind = ReconfigRequest::Kind::kScaleUp;
      req.count = 2;
      Reconfigure(req, "scale-up");
      break;
    case Update::kScaleDown:
      req.kind = ReconfigRequest::Kind::kScaleDown;
      req.count = 1;
      Reconfigure(req, "scale-down");
      break;
    case Update::kChangeGrouping:
      req.kind = ReconfigRequest::Kind::kChangeGrouping;
      req.from_node = "src";
      // To all-grouping: the switches must gain the broadcast rules.
      req.new_grouping = {stream::GroupingType::kAll, {}};
      Reconfigure(req, "change-grouping");
      break;
    case Update::kSwap:
      req.kind = ReconfigRequest::Kind::kSwapLogic;
      Reconfigure(req, "swap");
      break;
    case Update::kRelocate: {
      const auto phys = cluster_.manager().physical(kTopo).value();
      const auto mids = phys.workers_of(
          cluster_.manager().spec(kTopo).value().node_by_name("mid")->id);
      req.kind = ReconfigRequest::Kind::kRelocate;
      req.task_index = mids.front().task_index;
      for (HostId h : cluster_.hosts()) {
        if (h != mids.front().host) req.target_host = h;
      }
      Reconfigure(req, "relocate");
      break;
    }
    case Update::kAttach:
      Attach();
      break;
    case Update::kDetach:
      Attach();
      req.kind = ReconfigRequest::Kind::kDetachQuery;
      req.node = "query";
      Reconfigure(req, "detach");
      break;
    case Update::kReschedule: {
      // Fail a host that runs exactly one worker: the manager reschedules
      // it alone, in one rule update.
      const stream::PhysicalTopology placed =
          cluster_.manager().physical(kTopo).value();
      std::map<HostId, int> per_host;
      for (const stream::PhysicalWorker& w : placed.workers) ++per_host[w.host];
      HostId victim = 0;
      for (const auto& [h, n] : per_host) {
        if (n == 1) victim = h;
      }
      ASSERT_NE(victim, 0u) << "no host runs exactly one worker";
      const controller::CompiledRuleState before = Expected();
      const std::int64_t flowmods = FlowMods();
      const std::map<HostId, std::uint64_t> epochs = Epochs();
      cluster_.fail_host(victim);
      ASSERT_TRUE(
          WaitFor([&] { return cluster_.manager().reschedules() >= 1; }, 10s));
      EXPECT_EQ(cluster_.manager().reschedules(), 1);
      const stream::PhysicalTopology after =
          cluster_.manager().physical(kTopo).value();
      for (const stream::PhysicalWorker& w : after.workers) {
        EXPECT_NE(w.host, victim);
      }
      ExpectExact(before, flowmods, epochs, "reschedule");
      break;
    }
  }
  cluster_.stop();
}

INSTANTIATE_TEST_SUITE_P(
    CtrlPlane, RuleTablesExact,
    ::testing::Values(Update::kScaleUp, Update::kScaleDown,
                      Update::kChangeGrouping, Update::kSwap,
                      Update::kRelocate, Update::kAttach, Update::kDetach,
                      Update::kReschedule),
    UpdateName);

// One leader owns every topology: hooks from three topologies all reach
// the same controller, and data still flows end to end on every topology.
TEST(CtrlPlane, OneLeaderOwnsEveryTopologyAndAllCarryTraffic) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  ControlPlane* cp = cluster.control_plane();
  ASSERT_NE(cp, nullptr);
  controller::TyphoonController* leader = cp->leader();
  ASSERT_NE(leader, nullptr);

  std::vector<std::shared_ptr<SinkState>> states;
  std::vector<TopologyId> tids;
  for (int i = 0; i < 3; ++i) {
    auto state = std::make_shared<SinkState>();
    TopologyBuilder b("multi" + std::to_string(i));
    const NodeId src = b.add_spout(
        "src",
        [] { return std::make_unique<SequenceSpout>(0, 8, 0, 10000.0); }, 1);
    const NodeId sink = b.add_bolt(
        "sink", [state] { return std::make_unique<CollectingSink>(state); },
        2);
    b.shuffle(src, sink);
    auto tid = cluster.submit(b.build().value());
    ASSERT_TRUE(tid.ok());
    states.push_back(state);
    tids.push_back(tid.value());
  }

  const auto owned = leader->topology_ids();
  EXPECT_EQ(owned.size(), tids.size());
  for (TopologyId tid : tids) {
    EXPECT_NE(std::find(owned.begin(), owned.end(), tid), owned.end());
  }

  for (std::size_t i = 0; i < states.size(); ++i) {
    EXPECT_TRUE(WaitFor([&] { return states[i]->received.load() > 1000; },
                        10s))
        << "topology " << tids[i] << " starved";
  }
  cluster.stop();
}

// Ground truth for the failover chaos run.
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

// Failover chaos (tentpole acceptance): the leader is killed by a
// scripted `controller_crash` fault while a reliable word count is running
// and a scale-up rebalance is issued around the crash window. The standby
// takes over from the coordinator checkpoint; every word occurrence is
// still counted exactly once and the reconfigure completes under the new
// leader — zero lost sequenced control tuples.
TEST(CtrlPlane, LeaderCrashMidRunFailsOverWithExactCounts) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.controller_standbys = 1;
  Cluster cluster(cfg);
  cluster.start();

  controller::TyphoonController* old_leader = cluster.controller();
  ASSERT_NE(old_leader, nullptr);

  constexpr std::int64_t kSentenceLimit = 2000;
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  auto counts = std::make_shared<DedupCountState>();

  TopologyBuilder b("failover");
  const NodeId src = b.add_spout(
      "src",
      [progress, kSentenceLimit] {
        return std::make_unique<ReplayableSentenceSpout>(kSentenceLimit,
                                                         progress, 8, 12000.0);
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
  sopts.pending_timeout_ms = 800;
  ASSERT_TRUE(cluster.submit(b.build().value(), sopts).ok());

  auto plan = faultinject::FaultPlan::Parse(
      "at_tuples=700 fault=controller_crash\n");
  ASSERT_TRUE(plan.ok()) << plan.status().str();
  FaultPlanRunner faults(&cluster, std::move(plan.value()));
  faults.set_tuple_probe([progress] { return progress->load(); });
  faults.start();

  // A rebalance issued in the crash window: either the dying leader or the
  // incoming one (via deferred-hook replay) must carry its control tuples.
  ASSERT_TRUE(WaitFor([&] { return progress->load() >= 650; }, 30s));
  ReconfigRequest req;
  req.kind = ReconfigRequest::Kind::kScaleUp;
  req.topology = "failover";
  req.node = "split";
  req.count = 1;
  ASSERT_TRUE(cluster.reconfigure(req).ok());

  std::int64_t expected_total = 0;
  for (const auto& [w, c] : ExpectedCounts(kSentenceLimit)) {
    expected_total += c;
  }
  ASSERT_TRUE(WaitFor(
      [&] { return counts->unique.load() >= expected_total; }, 90s))
      << "counted " << counts->unique.load() << "/" << expected_total;
  ASSERT_TRUE(WaitFor([&] { return faults.done(); }, 10s));
  faults.stop();

  {
    std::lock_guard lk(counts->mu);
    EXPECT_EQ(counts->counts, ExpectedCounts(kSentenceLimit));
  }

  // The crash genuinely happened and the standby genuinely took over.
  EXPECT_EQ(faults.misses(), 0);
  EXPECT_GE(faults.fired(), 1);
  ASSERT_NE(cluster.control_plane(), nullptr);
  EXPECT_EQ(cluster.control_plane()->failovers(), 1);
  controller::TyphoonController* new_leader = cluster.controller();
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader, old_leader);
  EXPECT_TRUE(old_leader->crashed());
  // The new leader drained every restored/replayed control tuple.
  EXPECT_TRUE(WaitFor([&] { return new_leader->control_in_flight() == 0; },
                      10s));
  EXPECT_EQ(cluster.workers_of_node("failover", "split").size(), 3u);
  cluster.stop();
}

// Crashing the only replica (no standby) is still a clean, reported state:
// the control plane goes leaderless, the facade says so, and a second crash
// call reports false.
TEST(CtrlPlane, CrashWithoutStandbyLeavesControllerLeaderless) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();
  ASSERT_NE(cluster.controller(), nullptr);
  EXPECT_TRUE(cluster.crash_controller());
  EXPECT_EQ(cluster.controller(), nullptr);
  EXPECT_EQ(cluster.control_plane()->failovers(), 0);
  EXPECT_FALSE(cluster.crash_controller());
  cluster.stop();
}

}  // namespace
}  // namespace typhoon
