// Flow table semantics: wildcard matching, priority and specificity
// ordering (as the switch's classifier, FlowSnapshot::lookup_batch, sees
// them), bundle deletes by key and by cookie, group-table weighted
// round-robin, and the bundle's wire codec.
#include <gtest/gtest.h>

#include <thread>

#include "net/packet.h"
#include "openflow/flow.h"
#include "openflow/flow_table.h"
#include "openflow/group_table.h"
#include "openflow/wire.h"

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
  EXPECT_EQ(t.apply({.flows = {{FlowModCommand::kDelete, a}}}), 1u);
  EXPECT_EQ(t.apply({.delete_cookies = {7}}), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.apply({.delete_cookies = {8}}), 1u);
}

// A kDelete names one rule: its (match, priority) key, and its cookie when
// nonzero. A rule with the same match at another priority stays.
TEST(FlowTable, DeleteNamesOneKey) {
  FlowTable t;
  FlowRule low;
  low.match.dl_dst = A(2);
  low.priority = 100;
  low.cookie = 7;
  low.actions = {ActionOutput{1}};
  FlowRule high = low;
  high.priority = 300;
  high.actions = {ActionOutput{9}};
  t.add(low);
  t.add(high);

  FlowRule other_cookie = high;
  other_cookie.cookie = 8;
  EXPECT_EQ(t.apply({.flows = {{FlowModCommand::kDelete, other_cookie}}}),
            0u);
  EXPECT_EQ(t.apply({.flows = {{FlowModCommand::kDelete, high}}}), 1u);
  ASSERT_EQ(t.size(), 1u);
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* hit = Classify(*snap, MakePkt(1, 2), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(OutPort(*hit), 1u);
}

// One bundle: the cookie deletes run first, then the FlowMods in order;
// the return counts rules added, changed or removed, not FlowMods.
TEST(FlowTable, BundleAppliesInOrderAndCountsChanges) {
  FlowTable t;
  FlowRule a;
  a.match.dl_dst = A(2);
  a.cookie = 7;
  a.actions = {ActionOutput{1}};
  t.add(a);
  FlowRule b = a;
  b.match.dl_dst = A(3);

  // Re-adds a after its cookie went; b is added, then replaced, then kept.
  FlowRule b2 = b;
  b2.actions = {ActionOutput{2}};
  EXPECT_EQ(t.apply({.flows = {{FlowModCommand::kAdd, a},
                               {FlowModCommand::kAdd, b},
                               {FlowModCommand::kAdd, b2},
                               {FlowModCommand::kAdd, b2}},
                     .delete_cookies = {7}}),
            4u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.apply({.flows = {{FlowModCommand::kAdd, a}}}), 0u);
  const auto snap = t.snapshot();
  const FlowSnapshotEntry* hit = Classify(*snap, MakePkt(1, 3), 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(OutPort(*hit), 2u);
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

// hostd parses a bundle from the control channel: every field survives the
// round trip, and no truncation of a valid encoding parses.
TEST(OpenflowWire, BundleRoundTripsAndRejectsTruncation) {
  Bundle b;
  FlowRule add;
  add.match.in_port = 3;
  add.match.dl_src = A(1);
  add.match.dl_dst = A(2);
  add.match.ether_type = net::kTyphoonEtherType;
  add.priority = 300;
  add.cookie = 9;
  add.actions = {ActionGroup{4}, ActionSetDlDst{A(5)}, ActionSetTunDst{2},
                 ActionOutput{0xfffe}, ActionOutputController{}};
  FlowRule del;
  del.match.dl_dst = A(6);
  b.flows = {{FlowModCommand::kAdd, add}, {FlowModCommand::kDelete, del}};
  b.groups = {{GroupMod::Command::kAdd, 4, GroupType::kSelect,
               {{3, {ActionSetDlDst{A(5)}, ActionOutput{7}}},
                {1, {ActionOutput{8}}}}},
              {GroupMod::Command::kDelete, 5}};
  b.delete_cookies = {11, 12};

  common::Bytes bytes;
  common::BufWriter w(bytes);
  WriteBundle(w, b);

  Bundle got;
  common::BufReader r(bytes);
  ASSERT_TRUE(ReadBundle(r, got));
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(got.flows.size(), 2u);
  EXPECT_EQ(got.flows[0].command, FlowModCommand::kAdd);
  EXPECT_EQ(got.flows[0].rule.match, add.match);
  EXPECT_EQ(got.flows[0].rule.actions, add.actions);
  EXPECT_EQ(got.flows[0].rule.priority, 300u);
  EXPECT_EQ(got.flows[0].rule.cookie, 9u);
  EXPECT_EQ(got.flows[1].command, FlowModCommand::kDelete);
  EXPECT_EQ(got.flows[1].rule.match, del.match);
  ASSERT_EQ(got.groups.size(), 2u);
  EXPECT_EQ(got.groups[0].group_id, 4u);
  ASSERT_EQ(got.groups[0].buckets.size(), 2u);
  EXPECT_EQ(got.groups[0].buckets[0].weight, 3u);
  EXPECT_EQ(got.groups[0].buckets[0].actions, b.groups[0].buckets[0].actions);
  EXPECT_EQ(got.groups[1].command, GroupMod::Command::kDelete);
  EXPECT_EQ(got.delete_cookies, b.delete_cookies);
  // Encoding the decoded bundle gives the same bytes.
  common::Bytes again;
  common::BufWriter w2(again);
  WriteBundle(w2, got);
  EXPECT_EQ(again, bytes);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const common::Bytes cut(bytes.begin(), bytes.begin() + len);
    common::BufReader rc(cut);
    Bundle partial;
    EXPECT_FALSE(ReadBundle(rc, partial)) << "prefix of " << len << " bytes";
  }
}

// Command values past kDelete do not parse.
TEST(OpenflowWire, FlowModRejectsUnknownCommand) {
  common::Bytes bytes;
  common::BufWriter w(bytes);
  WriteFlowMod(w, {FlowModCommand::kDelete, FlowRule{}});
  bytes[0] = 2;
  common::BufReader r(bytes);
  FlowMod mod;
  EXPECT_FALSE(ReadFlowMod(r, mod));
}

}  // namespace
}  // namespace typhoon::openflow
