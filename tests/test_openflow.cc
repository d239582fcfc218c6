// Flow table semantics: wildcard matching, priority and specificity
// ordering (as the switch's classifier, FlowSnapshot::lookup_batch, sees
// them), cookie sweeps, and group-table weighted round-robin.
#include <gtest/gtest.h>

#include <thread>

#include "net/packet.h"
#include "openflow/flow.h"
#include "openflow/flow_table.h"
#include "openflow/group_table.h"

namespace typhoon::openflow {
namespace {

net::Packet MakePkt(WorkerId src, WorkerId dst,
                    std::uint16_t ether = net::kTyphoonEtherType) {
  net::Packet p;
  p.src = WorkerAddress{1, src};
  p.dst = WorkerAddress{1, dst};
  p.ether_type = ether;
  return p;
}

std::uint64_t A(WorkerId w) { return WorkerAddress{1, w}.packed(); }

// The entry the switch's classifier picks for one packet, or nullptr on a
// table miss. `snap` must outlive the returned pointer.
const FlowSnapshotEntry* Classify(const FlowSnapshot& snap,
                                  const net::Packet& p, PortId in_port) {
  const net::Packet* pkts[] = {&p};
  const FlowSnapshotEntry* out[] = {nullptr};
  snap.lookup_batch(pkts, in_port, out);
  return out[0];
}

PortId OutPort(const FlowSnapshotEntry& e, std::size_t i = 0) {
  return std::get<ActionOutput>((*e.actions)[i]).port;
}

TEST(FlowMatch, WildcardsMatchEverything) {
  FlowMatch m;  // all wildcard
  EXPECT_TRUE(m.matches(MakePkt(1, 2), 5));
  EXPECT_EQ(m.specificity(), 0);
}

TEST(FlowMatch, EachFieldFilters) {
  FlowMatch m;
  m.in_port = 3;
  m.dl_src = A(1);
  m.dl_dst = A(2);
  m.ether_type = net::kTyphoonEtherType;
  EXPECT_EQ(m.specificity(), 4);
  EXPECT_TRUE(m.matches(MakePkt(1, 2), 3));
  EXPECT_FALSE(m.matches(MakePkt(1, 2), 4));       // wrong in_port
  EXPECT_FALSE(m.matches(MakePkt(9, 2), 3));       // wrong src
  EXPECT_FALSE(m.matches(MakePkt(1, 9), 3));       // wrong dst
  EXPECT_FALSE(m.matches(MakePkt(1, 2, 0x0800), 3));  // wrong ether type
}

TEST(FlowTable, HighestPriorityWins) {
  FlowTable t;
  FlowRule low;
  low.priority = 10;
  low.actions = {ActionOutput{1}};
  FlowRule high;
  high.priority = 20;
  high.match.dl_dst = A(2);
  high.actions = {ActionOutput{2}};
  t.add(low);
  t.add(high);
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* r = Classify(*snap, MakePkt(1, 2), 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(OutPort(*r), 2u);  // the priority-20 rule
}

TEST(FlowTable, SpecificityBreaksPriorityTies) {
  FlowTable t;
  FlowRule generic;
  generic.priority = 10;
  generic.match.ether_type = net::kTyphoonEtherType;
  generic.actions = {ActionOutput{1}};
  FlowRule specific;
  specific.priority = 10;
  specific.match.ether_type = net::kTyphoonEtherType;
  specific.match.dl_dst = A(2);
  specific.actions = {ActionOutput{2}};
  t.add(generic);
  t.add(specific);
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* r = Classify(*snap, MakePkt(1, 2), 0);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(OutPort(*r), 2u);
}

TEST(FlowTable, AddReplacesSameMatchAndPriority) {
  FlowTable t;
  FlowRule r;
  r.match.dl_dst = A(2);
  r.actions = {ActionOutput{1}};
  t.add(r);
  r.actions = {ActionOutput{9}};
  t.add(r);
  EXPECT_EQ(t.size(), 1u);
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* hit = Classify(*snap, MakePkt(1, 2), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(OutPort(*hit), 9u);
}

TEST(FlowTable, MissReturnsNull) {
  FlowTable t;
  FlowRule r;
  r.match.dl_dst = A(2);
  t.add(r);
  EXPECT_EQ(Classify(*t.snapshot(), MakePkt(1, 3), 0), nullptr);
}

TEST(FlowTable, EraseByMatchAndCookie) {
  FlowTable t;
  FlowRule a;
  a.match.dl_dst = A(2);
  a.cookie = 7;
  FlowRule b;
  b.match.dl_dst = A(3);
  b.cookie = 7;
  FlowRule c;
  c.match.dl_dst = A(4);
  c.cookie = 8;
  t.add(a);
  t.add(b);
  t.add(c);
  EXPECT_EQ(t.erase(a.match), 1u);
  EXPECT_EQ(t.erase_by_cookie(7), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.erase_by_cookie(8), 1u);
}

TEST(FlowTable, EraseMentioningSweepsSrcAndDst) {
  FlowTable t;
  FlowRule as_src;
  as_src.match.dl_src = A(5);
  FlowRule as_dst;
  as_dst.match.dl_dst = A(5);
  FlowRule other;
  other.match.dl_dst = A(6);
  t.add(as_src);
  t.add(as_dst);
  t.add(other);
  EXPECT_EQ(t.erase_mentioning(A(5)), 2u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, ModifySwapsActions) {
  FlowTable t;
  FlowRule r;
  r.match.dl_dst = A(2);
  r.actions = {ActionOutput{1}};
  t.add(r);
  EXPECT_TRUE(t.modify(r.match, {ActionOutput{1}, ActionOutput{2}}));
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* hit = Classify(*snap, MakePkt(1, 2), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actions->size(), 2u);
  EXPECT_EQ(OutPort(*hit, 1), 2u);
  FlowMatch other;
  other.dl_dst = A(9);
  EXPECT_FALSE(t.modify(other, {}));
}

TEST(FlowRule, StrRendersReadably) {
  FlowRule r;
  r.priority = 100;
  r.match.in_port = 3;
  r.match.dl_dst = A(2);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionSetTunDst{4}, ActionOutput{0xfffe}};
  const std::string s = r.str();
  EXPECT_NE(s.find("in_port=3"), std::string::npos);
  EXPECT_NE(s.find("set_tun_dst:host4"), std::string::npos);
  EXPECT_NE(s.find("eth_type=0xffff"), std::string::npos);
}

TEST(GroupTable, SelectRespectsWeights) {
  GroupTable g;
  GroupMod mod;
  mod.group_id = 1;
  mod.type = GroupType::kSelect;
  mod.buckets = {{3, {ActionOutput{10}}}, {1, {ActionOutput{11}}}};
  g.apply(mod);

  int port10 = 0;
  int port11 = 0;
  for (int i = 0; i < 400; ++i) {
    const GroupBucket* b = g.select(1);
    ASSERT_NE(b, nullptr);
    const auto port = std::get<ActionOutput>(b->actions[0]).port;
    (port == 10 ? port10 : port11)++;
  }
  EXPECT_EQ(port10, 300);
  EXPECT_EQ(port11, 100);
}

TEST(GroupTable, SmoothWrrInterleaves) {
  GroupTable g;
  GroupMod mod;
  mod.group_id = 1;
  mod.buckets = {{1, {ActionOutput{1}}}, {1, {ActionOutput{2}}}};
  g.apply(mod);
  // Equal weights alternate rather than bursting.
  std::vector<PortId> seq;
  for (int i = 0; i < 6; ++i) {
    seq.push_back(std::get<ActionOutput>(g.select(1)->actions[0]).port);
  }
  for (int i = 2; i < 6; ++i) EXPECT_NE(seq[i], seq[i - 1]);
}

TEST(GroupTable, ModifyAndDelete) {
  GroupTable g;
  GroupMod mod;
  mod.group_id = 5;
  mod.buckets = {{1, {ActionOutput{1}}}};
  g.apply(mod);
  EXPECT_TRUE(g.contains(5));

  mod.command = GroupMod::Command::kModify;
  mod.buckets = {{1, {ActionOutput{9}}}};
  g.apply(mod);
  EXPECT_EQ(std::get<ActionOutput>(g.select(5)->actions[0]).port, 9u);

  mod.command = GroupMod::Command::kDelete;
  g.apply(mod);
  EXPECT_FALSE(g.contains(5));
  EXPECT_EQ(g.select(5), nullptr);
}

TEST(GroupTable, AllTypeExposesEveryBucket) {
  GroupTable g;
  GroupMod mod;
  mod.group_id = 2;
  mod.type = GroupType::kAll;
  mod.buckets = {{1, {ActionOutput{1}}}, {1, {ActionOutput{2}}}};
  g.apply(mod);
  EXPECT_EQ(g.type(2), GroupType::kAll);
  ASSERT_NE(g.buckets(2), nullptr);
  EXPECT_EQ(g.buckets(2)->size(), 2u);
}

}  // namespace
}  // namespace typhoon::openflow
