// SoftSwitch integration: forwarding through flow rules, broadcast
// replication, PacketOut/PacketIn, port status events, tunnels between two
// switches, groups with destination rewrite, and drop accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "net/tunnel.h"
#include "switchd/soft_switch.h"

namespace typhoon::switchd {
namespace {

using namespace std::chrono_literals;
using openflow::ActionGroup;
using openflow::ActionOutput;
using openflow::ActionOutputController;
using openflow::ActionSetDlDst;
using openflow::ActionSetTunDst;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowRule;

net::PacketPtr Pkt(WorkerId src, WorkerId dst, common::Bytes payload = {1}) {
  net::Packet p;
  p.src = WorkerAddress{1, src};
  p.dst = WorkerAddress{1, dst};
  p.payload = std::move(payload);
  return net::MakePacket(std::move(p));
}

std::uint64_t A(WorkerId w) { return WorkerAddress{1, w}.packed(); }

// Poll a port until a packet arrives or timeout.
std::optional<net::PacketPtr> RecvFor(PortHandle& port,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (auto p = port.recv()) return p;
    std::this_thread::sleep_for(100us);
  }
  return std::nullopt;
}

class SwitchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SoftSwitchConfig cfg;
    cfg.host = 1;
    sw_ = std::make_unique<SoftSwitch>(cfg);
    sw_->start();
  }
  void TearDown() override { sw_->stop(); }

  void AddRule(FlowRule r) { sw_->handle_flow_mod({FlowModCommand::kAdd, r}); }

  std::unique_ptr<SoftSwitch> sw_;
};

TEST_F(SwitchTest, ForwardsByExactMatch) {
  auto p1 = sw_->attach_port();
  auto p2 = sw_->attach_port();
  FlowRule r;
  r.match.in_port = p1->id();
  r.match.dl_src = A(1);
  r.match.dl_dst = A(2);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionOutput{p2->id()}};
  AddRule(r);

  ASSERT_TRUE(p1->send(Pkt(1, 2)));
  auto got = RecvFor(*p2, 1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)->src.worker, 1u);
  EXPECT_EQ(sw_->packets_forwarded(), 1u);
}

TEST_F(SwitchTest, TableMissDrops) {
  auto p1 = sw_->attach_port();
  auto p2 = sw_->attach_port();
  ASSERT_TRUE(p1->send(Pkt(1, 2)));
  EXPECT_FALSE(RecvFor(*p2, 50ms).has_value());
}

TEST_F(SwitchTest, BroadcastReplicatesToAllOutputs) {
  auto src = sw_->attach_port();
  std::vector<std::shared_ptr<PortHandle>> sinks;
  FlowRule r;
  r.match.in_port = src->id();
  r.match.dl_dst = BroadcastAddress(1).packed();
  for (int i = 0; i < 4; ++i) {
    sinks.push_back(sw_->attach_port());
    r.actions.push_back(ActionOutput{sinks.back()->id()});
  }
  AddRule(r);

  auto sent = Pkt(1, kBroadcastWorker, common::Bytes(64, 0xaa));
  ASSERT_TRUE(src->send(sent));
  for (auto& sink : sinks) {
    auto got = RecvFor(*sink, 1s);
    ASSERT_TRUE(got.has_value());
    // Zero-copy replication: every sink sees the same packet object.
    EXPECT_EQ(got->get(), sent.get());
  }
}

TEST_F(SwitchTest, PacketOutInjectsViaControllerPort) {
  auto p = sw_->attach_port();
  FlowRule r;
  r.match.in_port = kPortController;
  r.match.dl_dst = A(7);
  r.actions = {ActionOutput{p->id()}};
  AddRule(r);

  sw_->handle_packet_out({Pkt(99, 7), kPortController});
  EXPECT_TRUE(RecvFor(*p, 1s).has_value());
}

TEST_F(SwitchTest, PacketInReachesEventSink) {
  std::mutex mu;
  std::condition_variable cv;
  std::optional<openflow::PacketIn> seen;
  sw_->set_event_sink([&](HostId, SwitchEvent ev) {
    if (auto* pin = std::get_if<openflow::PacketIn>(&ev)) {
      std::lock_guard lk(mu);
      seen = *pin;
      cv.notify_all();
    }
  });
  auto p = sw_->attach_port();
  FlowRule r;
  r.match.in_port = p->id();
  r.actions = {ActionOutputController{}};
  AddRule(r);
  ASSERT_TRUE(p->send(Pkt(1, kControllerWorker)));

  std::unique_lock lk(mu);
  ASSERT_TRUE(cv.wait_for(lk, 1s, [&] { return seen.has_value(); }));
  EXPECT_EQ(seen->in_port, p->id());
  EXPECT_EQ(seen->packet->src.worker, 1u);
}

TEST_F(SwitchTest, PortStatusEventsOnAttachDetach) {
  std::mutex mu;
  std::vector<std::pair<PortId, openflow::PortReason>> events;
  sw_->set_event_sink([&](HostId, SwitchEvent ev) {
    if (auto* ps = std::get_if<openflow::PortStatus>(&ev)) {
      std::lock_guard lk(mu);
      events.emplace_back(ps->port, ps->reason);
    }
  });
  auto p = sw_->attach_port();
  const PortId id = p->id();
  sw_->detach_port(id);
  std::lock_guard lk(mu);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(id, openflow::PortReason::kAdd));
  EXPECT_EQ(events[1], std::make_pair(id, openflow::PortReason::kDelete));
}

TEST_F(SwitchTest, RequestedPortNumbersAreExclusive) {
  auto a = sw_->attach_port(500);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->id(), 500u);
  EXPECT_EQ(sw_->attach_port(500), nullptr);
  sw_->detach_port(500);
  EXPECT_NE(sw_->attach_port(500), nullptr);
}

TEST_F(SwitchTest, GroupRewritesDestination) {
  auto src = sw_->attach_port();
  auto d1 = sw_->attach_port();
  auto d2 = sw_->attach_port();

  openflow::GroupMod gm;
  gm.group_id = 1;
  gm.type = openflow::GroupType::kSelect;
  gm.buckets = {
      {1, {ActionSetDlDst{A(21)}, ActionOutput{d1->id()}}},
      {1, {ActionSetDlDst{A(22)}, ActionOutput{d2->id()}}},
  };
  sw_->apply({.groups = {gm}});

  FlowRule r;
  r.match.in_port = src->id();
  r.actions = {ActionGroup{1}};
  AddRule(r);

  for (int i = 0; i < 4; ++i) ASSERT_TRUE(src->send(Pkt(1, 99)));
  int d1_count = 0;
  int d2_count = 0;
  for (int i = 0; i < 2; ++i) {
    auto g1 = RecvFor(*d1, 1s);
    auto g2 = RecvFor(*d2, 1s);
    ASSERT_TRUE(g1.has_value());
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ((*g1)->dst.worker, 21u);  // header rewritten
    EXPECT_EQ((*g2)->dst.worker, 22u);
    ++d1_count;
    ++d2_count;
  }
  EXPECT_EQ(d1_count + d2_count, 4);
}

TEST_F(SwitchTest, PortStatsCountTraffic) {
  auto p1 = sw_->attach_port();
  auto p2 = sw_->attach_port();
  FlowRule r;
  r.match.in_port = p1->id();
  r.actions = {ActionOutput{p2->id()}};
  AddRule(r);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(p1->send(Pkt(1, 2)));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(RecvFor(*p2, 1s).has_value());

  auto stats = sw_->port_stats();
  ASSERT_EQ(stats.size(), 2u);
  const auto& s1 = stats[0].port == p1->id() ? stats[0] : stats[1];
  const auto& s2 = stats[0].port == p2->id() ? stats[0] : stats[1];
  EXPECT_EQ(s1.rx_packets, 10u);
  EXPECT_EQ(s2.tx_packets, 10u);
  EXPECT_GT(s2.tx_bytes, 0u);
}

TEST_F(SwitchTest, RingOverflowCountsTxDrops) {
  SoftSwitchConfig cfg;
  cfg.host = 2;
  cfg.ring_capacity = 8;
  SoftSwitch small(cfg);
  small.start();
  auto src = small.attach_port();
  auto dst = small.attach_port();  // never drained
  FlowRule r;
  r.match.in_port = src->id();
  r.actions = {ActionOutput{dst->id()}};
  small.handle_flow_mod({FlowModCommand::kAdd, r});

  for (int i = 0; i < 100; ++i) {
    src->send(Pkt(1, 2));
    std::this_thread::sleep_for(50us);
  }
  std::this_thread::sleep_for(20ms);
  std::uint64_t drops = 0;
  for (const auto& s : small.port_stats()) drops += s.tx_dropped;
  EXPECT_GT(drops, 0u);
  small.stop();
}

TEST_F(SwitchTest, SetDlDstRewriteIsCopyOnWrite) {
  auto src = sw_->attach_port();
  auto d1 = sw_->attach_port();
  auto d2 = sw_->attach_port();
  // Mirror the original to d1 AND send a rewritten copy to d2.
  FlowRule r;
  r.match.in_port = src->id();
  r.actions = {ActionOutput{d1->id()}, ActionSetDlDst{A(42)},
               ActionOutput{d2->id()}};
  AddRule(r);

  auto sent = Pkt(1, 2);
  ASSERT_TRUE(src->send(sent));
  auto got1 = RecvFor(*d1, 1s);
  auto got2 = RecvFor(*d2, 1s);
  ASSERT_TRUE(got1.has_value());
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ((*got1)->dst.worker, 2u);   // original untouched
  EXPECT_EQ((*got2)->dst.worker, 42u);  // rewritten copy
  EXPECT_EQ(got1->get(), sent.get());
  EXPECT_NE(got2->get(), sent.get());
}

TEST_F(SwitchTest, ConcurrentFlowModsDuringTrafficAreSafe) {
  auto src = sw_->attach_port();
  auto dst = sw_->attach_port();
  FlowRule base;
  base.match.in_port = src->id();
  base.match.dl_src = A(1);
  base.match.dl_dst = A(2);
  base.actions = {ActionOutput{dst->id()}};
  AddRule(base);

  std::atomic<bool> stop{false};
  // Control-plane churn: add/remove unrelated rules as fast as possible.
  std::thread churner([&] {
    int i = 0;
    while (!stop.load()) {
      FlowRule r;
      r.match.dl_dst = A(1000 + (i % 32));
      r.cookie = 777;
      r.actions = {ActionOutput{dst->id()}};
      sw_->handle_flow_mod({FlowModCommand::kAdd, r});
      if (i % 3 == 0) {
        sw_->handle_flow_mod({FlowModCommand::kDelete, r});
      }
      ++i;
    }
  });

  // Data plane keeps flowing throughout.
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    while (!src->send(Pkt(1, 2))) {
      std::this_thread::sleep_for(10us);
    }
    if (auto got = RecvFor(*dst, 1s)) ++delivered;
  }
  stop.store(true);
  churner.join();
  EXPECT_EQ(delivered, 2000);
  sw_->apply({.delete_cookies = {777}});
  EXPECT_EQ(sw_->flow_count(), 1u);
}

TEST(SwitchPair, TunnelForwardsAcrossHosts) {
  SoftSwitchConfig c1;
  c1.host = 1;
  SoftSwitchConfig c2;
  c2.host = 2;
  SoftSwitch sw1(c1);
  SoftSwitch sw2(c2);
  auto [e1, e2] = net::CreateTunnel();
  sw1.add_tunnel(2, e1);
  sw2.add_tunnel(1, e2);
  sw1.start();
  sw2.start();

  auto src = sw1.attach_port();
  auto dst = sw2.attach_port();

  // Sender-side remote rule on sw1 (Table 3).
  FlowRule send_rule;
  send_rule.match.in_port = src->id();
  send_rule.match.dl_src = A(1);
  send_rule.match.dl_dst = A(2);
  send_rule.actions = {ActionSetTunDst{2},
                       ActionOutput{SoftSwitch::kTunnelPort}};
  sw1.handle_flow_mod({FlowModCommand::kAdd, send_rule});

  // Receiver-side rule on sw2.
  FlowRule recv_rule;
  recv_rule.match.in_port = SoftSwitch::kTunnelPort;
  recv_rule.match.dl_src = A(1);
  recv_rule.match.dl_dst = A(2);
  recv_rule.actions = {ActionOutput{dst->id()}};
  sw2.handle_flow_mod({FlowModCommand::kAdd, recv_rule});

  ASSERT_TRUE(src->send(Pkt(1, 2, common::Bytes{9, 8, 7})));
  auto got = RecvFor(*dst, 1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)->payload, (common::Bytes{9, 8, 7}));
  sw1.stop();
  sw2.stop();
}

}  // namespace
}  // namespace typhoon::switchd
