// RuleCompiler: verifies the compiled rule set matches Table 3 for local,
// remote, one-to-many, and control paths.
#include <gtest/gtest.h>

#include "controller/rule_compiler.h"
#include "stream/tuple.h"
#include "switchd/soft_switch.h"

namespace typhoon::controller {
namespace {

using openflow::ActionOutput;
using openflow::ActionOutputController;
using openflow::ActionSetTunDst;
using openflow::FlowRule;
using stream::EdgeSpec;
using stream::GroupingType;
using stream::NodeSpec;
using stream::PhysicalTopology;
using stream::PhysicalWorker;
using stream::TopologySpec;

constexpr PortId kTun = switchd::SoftSwitch::kTunnelPort;

// src node 1 (1 worker on host 1) -> dst node 2 (2 workers: host 1, host 2).
struct Fixture {
  TopologySpec spec;
  PhysicalTopology phys;

  explicit Fixture(GroupingType g = GroupingType::kShuffle) {
    spec.id = 5;
    spec.name = "t";
    spec.nodes = {{1, "src", 1, true, false}, {2, "dst", 2, false, false}};
    spec.edges = {{1, 2, g, {}, stream::kDefaultStream}};
    phys.id = 5;
    phys.name = "t";
    phys.workers = {
        {10, 1, 0, /*host=*/1, /*port=*/110},
        {20, 2, 0, /*host=*/1, /*port=*/120},
        {21, 2, 1, /*host=*/2, /*port=*/121},
    };
  }
};

std::uint64_t A(WorkerId w) { return WorkerAddress{5, w}.packed(); }

const FlowRule* FindRule(const std::vector<FlowRule>& rules,
                         const openflow::FlowMatch& m) {
  for (const FlowRule& r : rules) {
    if (r.match == m) return &r;
  }
  return nullptr;
}

TEST(RuleCompiler, LocalTransferRule) {
  Fixture f;
  RuleCompiler c;
  auto rules = c.compile(f.spec, f.phys);

  openflow::FlowMatch m;
  m.in_port = 110;
  m.dl_src = A(10);
  m.dl_dst = A(20);
  m.ether_type = net::kTyphoonEtherType;
  const FlowRule* r = FindRule(rules[1], m);
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->actions.size(), 1u);
  EXPECT_EQ(std::get<ActionOutput>(r->actions[0]).port, 120u);
  EXPECT_EQ(r->cookie, 5u);
}

TEST(RuleCompiler, RemoteTransferSenderAndReceiverRules) {
  Fixture f;
  RuleCompiler c;
  auto rules = c.compile(f.spec, f.phys);

  openflow::FlowMatch sender;
  sender.in_port = 110;
  sender.dl_src = A(10);
  sender.dl_dst = A(21);
  sender.ether_type = net::kTyphoonEtherType;
  const FlowRule* s = FindRule(rules[1], sender);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->actions.size(), 2u);
  EXPECT_EQ(std::get<ActionSetTunDst>(s->actions[0]).host, 2u);
  EXPECT_EQ(std::get<ActionOutput>(s->actions[1]).port, kTun);

  openflow::FlowMatch receiver;
  receiver.in_port = kTun;
  receiver.dl_src = A(10);
  receiver.dl_dst = A(21);
  receiver.ether_type = net::kTyphoonEtherType;
  const FlowRule* r = FindRule(rules[2], receiver);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(r->actions[0]).port, 121u);
}

TEST(RuleCompiler, OneToManyBroadcastRules) {
  Fixture f(GroupingType::kAll);
  RuleCompiler c;
  auto rules = c.compile(f.spec, f.phys);

  openflow::FlowMatch sender;
  sender.in_port = 110;
  sender.dl_dst = BroadcastAddress(5).packed();
  sender.ether_type = net::kTyphoonEtherType;
  const FlowRule* s = FindRule(rules[1], sender);
  ASSERT_NE(s, nullptr);
  // Local output + (set_tun_dst, output tunnel) for the remote host.
  ASSERT_EQ(s->actions.size(), 3u);
  EXPECT_EQ(std::get<ActionOutput>(s->actions[0]).port, 120u);
  EXPECT_EQ(std::get<ActionSetTunDst>(s->actions[1]).host, 2u);
  EXPECT_EQ(std::get<ActionOutput>(s->actions[2]).port, kTun);

  openflow::FlowMatch receiver;
  receiver.in_port = kTun;
  receiver.dl_src = A(10);
  receiver.dl_dst = BroadcastAddress(5).packed();
  receiver.ether_type = net::kTyphoonEtherType;
  const FlowRule* r = FindRule(rules[2], receiver);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<ActionOutput>(r->actions[0]).port, 121u);
}

TEST(RuleCompiler, ControlRulesForEveryWorker) {
  Fixture f;
  RuleCompiler c;
  auto rules = c.compile(f.spec, f.phys);

  for (const PhysicalWorker& w : f.phys.workers) {
    openflow::FlowMatch to_worker;
    to_worker.in_port = kPortController;
    to_worker.dl_dst = A(w.id);
    to_worker.ether_type = net::kTyphoonEtherType;
    const FlowRule* tw = FindRule(rules[w.host], to_worker);
    ASSERT_NE(tw, nullptr) << "w" << w.id;
    EXPECT_EQ(std::get<ActionOutput>(tw->actions[0]).port, w.port);
    EXPECT_EQ(tw->priority, kPrioControl);

    openflow::FlowMatch to_ctl;
    to_ctl.in_port = w.port;
    to_ctl.dl_dst = WorkerAddress{5, kControllerWorker}.packed();
    to_ctl.ether_type = net::kTyphoonEtherType;
    const FlowRule* tc = FindRule(rules[w.host], to_ctl);
    ASSERT_NE(tc, nullptr);
    EXPECT_TRUE(
        std::holds_alternative<ActionOutputController>(tc->actions[0]));
  }
}

TEST(RuleCompiler, RuleCountMatchesTopologyShape) {
  Fixture f;
  RuleCompiler c;
  auto rules = c.compile(f.spec, f.phys);
  std::size_t total = 0;
  for (const auto& [h, rs] : rules) total += rs.size();
  // Data: 1 local + 2 remote (sender+receiver) = 3; control: 2 per worker
  // x 3 workers = 6.
  EXPECT_EQ(total, 9u);
}

TEST(RuleCompiler, NoDataRulesForNodeWithoutEdges) {
  TopologySpec spec;
  spec.id = 1;
  spec.nodes = {{1, "only", 1, true, false}};
  PhysicalTopology phys;
  phys.id = 1;
  phys.workers = {{10, 1, 0, 1, 110}};
  RuleCompiler c;
  auto rules = c.compile(spec, phys);
  ASSERT_EQ(rules[1].size(), 2u);  // just the two control rules
}

}  // namespace
}  // namespace typhoon::controller
