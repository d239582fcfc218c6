// Microflow-cache correctness under churn: every bundle that changes a
// table (flow add/replace/delete, group mod, cookie delete) must invalidate
// warm cache entries — a stale entry may cost a re-scan but must never
// forward a packet with the old actions — and a bundle that changes
// nothing must leave them warm. Plus a multithreaded churn stress that is
// expected to stay clean under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/tunnel.h"
#include "switchd/soft_switch.h"

namespace typhoon::switchd {
namespace {

using namespace std::chrono_literals;
using openflow::ActionGroup;
using openflow::ActionOutput;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowRule;
using openflow::GroupMod;

net::PacketPtr Pkt(WorkerId src, WorkerId dst) {
  net::Packet p;
  p.src = WorkerAddress{1, src};
  p.dst = WorkerAddress{1, dst};
  p.payload = {1, 2, 3};
  return net::MakePacket(std::move(p));
}

std::uint64_t A(WorkerId w) { return WorkerAddress{1, w}.packed(); }

std::optional<net::PacketPtr> RecvFor(PortHandle& port,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (auto p = port.recv()) return p;
    std::this_thread::sleep_for(100us);
  }
  return std::nullopt;
}

void Drain(PortHandle& port) {
  while (port.recv().has_value()) {
  }
}

class FastPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SoftSwitchConfig cfg;
    cfg.host = 1;
    sw_ = std::make_unique<SoftSwitch>(cfg);
    sw_->start();
    src_ = sw_->attach_port();
    out_ = sw_->attach_port();
  }
  void TearDown() override { sw_->stop(); }

  FlowRule ExactRule(WorkerId s, WorkerId d,
                     std::vector<openflow::FlowAction> actions) {
    FlowRule r;
    r.match.in_port = src_->id();
    r.match.dl_src = A(s);
    r.match.dl_dst = A(d);
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = openflow::SharedActions(std::move(actions));
    return r;
  }

  // Push `n` packets of flow (1 -> 2) and wait until `port` received them,
  // warming the microflow cache.
  void Warm(PortHandle& port, int n = 32) {
    for (int i = 0; i < n; ++i) ASSERT_TRUE(src_->send(Pkt(1, 2)));
    for (int i = 0; i < n; ++i) ASSERT_TRUE(RecvFor(port, 1s).has_value());
  }

  std::unique_ptr<SoftSwitch> sw_;
  std::shared_ptr<PortHandle> src_;
  std::shared_ptr<PortHandle> out_;
};

TEST_F(FastPathTest, RepeatTrafficHitsCache) {
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  Warm(*out_, 64);
  EXPECT_GT(sw_->cache_hits(), 32u);
  // One compulsory miss per (flow, generation); far fewer misses than hits.
  EXPECT_LT(sw_->cache_misses(), sw_->cache_hits());
}

TEST_F(FastPathTest, FlowModDeleteInvalidatesWarmEntry) {
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  Warm(*out_);

  const std::uint64_t epoch = sw_->table_epoch();
  sw_->handle_flow_mod({FlowModCommand::kDelete, ExactRule(1, 2, {})});
  EXPECT_GT(sw_->table_epoch(), epoch);

  ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_FALSE(RecvFor(*out_, 100ms).has_value());
}

TEST_F(FastPathTest, FlowReplaceRedirectsWarmFlow) {
  auto other = sw_->attach_port();
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  Warm(*out_);

  // Same (match, priority): the bundle's kAdd replaces the rule in place.
  sw_->apply({.flows = {{FlowModCommand::kAdd,
                         ExactRule(1, 2, {ActionOutput{other->id()}})}}});
  ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_TRUE(RecvFor(*other, 1s).has_value());
  Drain(*out_);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(src_->send(Pkt(1, 2)));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(RecvFor(*other, 1s).has_value());
  }
  // Nothing slipped through the stale path to the old port.
  EXPECT_FALSE(out_->recv().has_value());
}

TEST_F(FastPathTest, GroupModRewriteChangesWarmPath) {
  auto other = sw_->attach_port();
  GroupMod g;
  g.group_id = 9;
  g.type = openflow::GroupType::kAll;
  g.buckets = {{1, {ActionOutput{out_->id()}}}};
  sw_->apply({.flows = {{FlowModCommand::kAdd,
                         ExactRule(1, 2, {ActionGroup{9}})}},
              .groups = {g}});
  Warm(*out_);

  g.command = GroupMod::Command::kModify;
  g.buckets = {{1, {ActionOutput{other->id()}}}};
  sw_->apply({.groups = {g}});

  ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_TRUE(RecvFor(*other, 1s).has_value());
  Drain(*out_);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(src_->send(Pkt(1, 2)));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(RecvFor(*other, 1s).has_value());
  }
  EXPECT_FALSE(out_->recv().has_value());
}

TEST_F(FastPathTest, CookieDeleteBundleInvalidatesWarmEntry) {
  FlowRule r = ExactRule(1, 2, {ActionOutput{out_->id()}});
  r.cookie = 5;
  sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  Warm(*out_);

  sw_->apply({.delete_cookies = {5}});
  EXPECT_EQ(sw_->flow_count(), 0u);
  ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_FALSE(RecvFor(*out_, 100ms).has_value());
}

// A table change that changes nothing — deleting an absent rule, adding a
// rule exactly as installed — publishes nothing: the epoch stays and warm
// entries keep hitting.
TEST_F(FastPathTest, NoOpBundleKeepsWarmEntries) {
  const FlowRule r = ExactRule(1, 2, {ActionOutput{out_->id()}});
  sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  Warm(*out_);
  const std::uint64_t misses = sw_->cache_misses();
  const std::uint64_t epoch = sw_->table_epoch();

  sw_->handle_flow_mod({FlowModCommand::kDelete, ExactRule(3, 4, {})});
  sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  EXPECT_EQ(sw_->table_epoch(), epoch);

  Warm(*out_, 16);
  EXPECT_EQ(sw_->cache_misses(), misses);
}

// Only flow and group changes advance the table epoch: attaching a port,
// adding a tunnel, impairing a port or capping its rate publishes a new
// switch view but must leave warm microflow entries warm.
TEST_F(FastPathTest, NonTableChangesKeepWarmEntries) {
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  Warm(*out_);
  const std::uint64_t misses = sw_->cache_misses();
  const std::uint64_t epoch = sw_->table_epoch();

  auto other = sw_->attach_port();
  auto [near, far] = net::CreateTunnel();
  sw_->add_tunnel(2, near);
  sw_->set_port_ingress_impairment(other->id(), {});
  sw_->clear_port_impairments(other->id());
  sw_->set_port_ingress_rate(other->id(), 1e9);
  sw_->set_port_ingress_rate(other->id(), 0.0);
  EXPECT_EQ(sw_->table_epoch(), epoch);

  Warm(*out_, 16);
  EXPECT_EQ(sw_->cache_misses(), misses);
}

TEST_F(FastPathTest, CachedDropIsInvalidatedByRuleAdd) {
  // Unmatched flow: the miss (drop) decision gets cached too.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_FALSE(RecvFor(*out_, 100ms).has_value());

  // Installing a rule must invalidate the negative entry.
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  ASSERT_TRUE(src_->send(Pkt(1, 2)));
  EXPECT_TRUE(RecvFor(*out_, 1s).has_value());
}

TEST_F(FastPathTest, RuleStatsSurviveCachedForwarding) {
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});
  Warm(*out_, 50);
  const auto stats = sw_->flow_stats();
  ASSERT_EQ(stats.size(), 1u);
  // Cache-hit forwarding must keep accounting per-rule packet counts.
  EXPECT_EQ(stats[0].packets, 50u);
  EXPECT_GT(stats[0].bytes, 0u);
}

// Concurrent control-plane churn while traffic flows on an untouched rule:
// every sent packet must arrive (cache misses re-scan a snapshot that always
// contains the stable rule), and no delivery may use stale actions. Run
// under TSan to check the snapshot/generation protocol.
TEST_F(FastPathTest, ConcurrentChurnLosesNothingOnStableFlow) {
  auto churn_out = sw_->attach_port();
  sw_->handle_flow_mod(
      {FlowModCommand::kAdd, ExactRule(1, 2, {ActionOutput{out_->id()}})});

  std::atomic<bool> stop{false};
  std::thread flow_churn([&] {
    int i = 0;
    while (!stop.load()) {
      FlowRule r = ExactRule(7, 8, {ActionOutput{churn_out->id()}});
      sw_->handle_flow_mod({i % 2 == 0 ? FlowModCommand::kAdd
                                       : FlowModCommand::kDelete,
                            r});
      ++i;
      std::this_thread::sleep_for(100us);
    }
  });
  std::thread group_churn([&] {
    GroupMod g;
    g.group_id = 42;
    g.buckets = {{1, {ActionOutput{churn_out->id()}}}};
    while (!stop.load()) {
      g.command = GroupMod::Command::kAdd;
      sw_->apply({.groups = {g}});
      g.command = GroupMod::Command::kDelete;
      sw_->apply({.groups = {g}});
      std::this_thread::sleep_for(100us);
    }
  });

  constexpr int kPackets = 2000;
  int delivered = 0;
  for (int i = 0; i < kPackets; ++i) {
    while (!src_->send(Pkt(1, 2))) std::this_thread::sleep_for(10us);
    if (RecvFor(*out_, 2s).has_value()) ++delivered;
  }
  stop.store(true);
  flow_churn.join();
  group_churn.join();
  EXPECT_EQ(delivered, kPackets);
  // The churn forced invalidations: misses > compulsory 1, hits still won.
  EXPECT_GT(sw_->cache_misses(), 1u);
}

}  // namespace
}  // namespace typhoon::switchd
