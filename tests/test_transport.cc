// Transport-layer tests: TyphoonTransport over a live switch (single
// serialization, broadcast via switch replication, control tuples) and the
// Storm baseline fabric (per-destination serialization, remote framing,
// dead-destination loss).
#include <gtest/gtest.h>

#include "openflow/flow.h"
#include "stream/transport_storm.h"
#include "stream/transport_typhoon.h"
#include "switchd/soft_switch.h"

namespace typhoon::stream {
namespace {

using namespace std::chrono_literals;
using openflow::ActionOutput;
using openflow::FlowModCommand;
using openflow::FlowRule;

constexpr TopologyId kTopo = 1;
// Destination lists for Transport::send, which takes a span.
constexpr WorkerId kToW2[] = {2};
constexpr WorkerId kToW2W3[] = {2, 3};
constexpr WorkerId kToW2W3W4[] = {2, 3, 4};

std::uint64_t A(WorkerId w) { return WorkerAddress{kTopo, w}.packed(); }

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(200us);
  }
  return pred();
}

class TyphoonTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    switchd::SoftSwitchConfig cfg;
    cfg.host = 1;
    sw_ = std::make_unique<switchd::SoftSwitch>(cfg);
    sw_->start();
  }
  void TearDown() override { sw_->stop(); }

  std::unique_ptr<TyphoonTransport> MakeTransport(WorkerId w,
                                                  std::size_t batch = 1) {
    auto port = sw_->attach_port(100 + w);
    ports_[w] = port;
    net::PacketizerConfig cfg;
    cfg.batch_tuples = batch;
    return std::make_unique<TyphoonTransport>(WorkerAddress{kTopo, w}, port,
                                              cfg);
  }

  void Wire(WorkerId src, WorkerId dst) {
    FlowRule r;
    r.match.in_port = 100 + src;
    r.match.dl_src = A(src);
    r.match.dl_dst = A(dst);
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = {ActionOutput{static_cast<PortId>(100 + dst)}};
    sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  }

  void WireBroadcast(WorkerId src, const std::vector<WorkerId>& dsts) {
    FlowRule r;
    r.match.in_port = 100 + src;
    r.match.dl_dst = BroadcastAddress(kTopo).packed();
    for (WorkerId d : dsts) {
      r.actions.push_back(ActionOutput{static_cast<PortId>(100 + d)});
    }
    sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  }

  std::size_t PollUntil(Transport& t, std::vector<ReceivedItem>& out,
                        std::size_t want,
                        std::chrono::milliseconds timeout = 2s) {
    WaitFor(
        [&] {
          t.poll(out, 64);
          return out.size() >= want;
        },
        timeout);
    return out.size();
  }

  std::unique_ptr<switchd::SoftSwitch> sw_;
  std::map<WorkerId, std::shared_ptr<switchd::PortHandle>> ports_;
};

TEST_F(TyphoonTransportTest, UnicastDeliversTupleWithMeta) {
  auto t1 = MakeTransport(1);
  auto t2 = MakeTransport(2);
  Wire(1, 2);

  t1->send(Tuple{std::int64_t{5}, std::string("x")}, kDefaultStream, 11, 22,
           kToW2, false);
  t1->flush();

  std::vector<ReceivedItem> got;
  ASSERT_EQ(PollUntil(*t2, got, 1), 1u);
  EXPECT_FALSE(got[0].is_control);
  EXPECT_EQ(got[0].tuple.i64(0), 5);
  EXPECT_EQ(got[0].meta.src_worker, 1u);
  EXPECT_EQ(got[0].meta.stream, kDefaultStream);
  EXPECT_EQ(got[0].meta.root_id, 11u);
  EXPECT_EQ(got[0].meta.edge_id, 22u);
}

TEST_F(TyphoonTransportTest, BroadcastEmitsOnePacketForAllSinks) {
  auto src = MakeTransport(1);
  auto s2 = MakeTransport(2);
  auto s3 = MakeTransport(3);
  auto s4 = MakeTransport(4);
  WireBroadcast(1, {2, 3, 4});

  const std::uint64_t before = sw_->packets_forwarded();
  src->send(Tuple{std::string("hello")}, kDefaultStream, 0, 0, kToW2W3W4,
            /*broadcast=*/true);
  src->flush();

  std::vector<ReceivedItem> g2;
  std::vector<ReceivedItem> g3;
  std::vector<ReceivedItem> g4;
  EXPECT_EQ(PollUntil(*s2, g2, 1), 1u);
  EXPECT_EQ(PollUntil(*s3, g3, 1), 1u);
  EXPECT_EQ(PollUntil(*s4, g4, 1), 1u);
  // A single packet traversed the pipeline (replication is in the output
  // action, not re-serialization).
  EXPECT_EQ(sw_->packets_forwarded() - before, 1u);
}

TEST_F(TyphoonTransportTest, BatchingHoldsTuplesUntilThreshold) {
  auto t1 = MakeTransport(1, /*batch=*/10);
  auto t2 = MakeTransport(2);
  Wire(1, 2);

  for (int i = 0; i < 9; ++i) {
    t1->send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW2, false);
  }
  std::vector<ReceivedItem> got;
  t2->poll(got, 64);
  EXPECT_TRUE(got.empty());  // below batch threshold, nothing sent

  t1->send(Tuple{std::int64_t{9}}, kDefaultStream, 0, 0, kToW2, false);
  ASSERT_EQ(PollUntil(*t2, got, 10), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i].tuple.i64(0), i);
}

TEST_F(TyphoonTransportTest, SetBatchSizeTakesEffect) {
  auto t1 = MakeTransport(1, 100);
  EXPECT_EQ(t1->batch_size(), 100u);
  t1->set_batch_size(5);
  EXPECT_EQ(t1->batch_size(), 5u);
}

TEST_F(TyphoonTransportTest, ControlTupleToControllerRaisesPacketIn) {
  std::atomic<int> packet_ins{0};
  sw_->set_event_sink([&](HostId, switchd::SwitchEvent ev) {
    if (std::holds_alternative<openflow::PacketIn>(ev)) ++packet_ins;
  });
  auto t1 = MakeTransport(1);
  FlowRule r;
  r.match.in_port = 101;
  r.match.dl_dst = WorkerAddress{kTopo, kControllerWorker}.packed();
  r.actions = {openflow::ActionOutputController{}};
  sw_->handle_flow_mod({FlowModCommand::kAdd, r});

  ControlTuple ct;
  ct.type = ControlType::kMetricResp;
  ct.report = MetricReport{1, 9, {{"emitted", 10}}};
  t1->send_to_controller(ct);
  EXPECT_TRUE(WaitFor([&] { return packet_ins.load() == 1; }, 2s));
}

TEST_F(TyphoonTransportTest, InjectedControlTupleDecodes) {
  auto t1 = MakeTransport(1);
  ControlTuple ct;
  ct.type = ControlType::kBatchSize;
  ct.batch_size = 77;
  t1->inject_control(ct);

  std::vector<ReceivedItem> got;
  t1->poll(got, 8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].is_control);
  EXPECT_EQ(got[0].control->type, ControlType::kBatchSize);
  EXPECT_EQ(got[0].control->batch_size, 77u);
}

TEST_F(TyphoonTransportTest, MultipleDestinationsReuseSerializedBytes) {
  auto t1 = MakeTransport(1);
  auto t2 = MakeTransport(2);
  auto t3 = MakeTransport(3);
  Wire(1, 2);
  Wire(1, 3);
  // Non-broadcast multi-destination send still roundtrips per destination.
  t1->send(Tuple{std::string("dup")}, kDefaultStream, 0, 0, kToW2W3, false);
  t1->flush();
  std::vector<ReceivedItem> g2;
  std::vector<ReceivedItem> g3;
  EXPECT_EQ(PollUntil(*t2, g2, 1), 1u);
  EXPECT_EQ(PollUntil(*t3, g3, 1), 1u);
}

// A packet holding more tuples than the poll budget: the tail arrives on
// the following polls in wire order, an injected control tuple queues
// behind it, and the next packet follows the control tuple.
TEST_F(TyphoonTransportTest, PacketTailBeyondBudgetKeepsFifoOrder) {
  auto t1 = MakeTransport(1, /*batch=*/10);
  auto t2 = MakeTransport(2);
  Wire(1, 2);
  for (int i = 0; i < 10; ++i) {  // exactly one packet
    t1->send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW2, false);
  }
  std::vector<ReceivedItem> got;
  ASSERT_TRUE(WaitFor([&] { return t2->poll(got, 4) != 0; }, 2s));
  ASSERT_EQ(got.size(), 4u);  // budget 4; six tuples staged

  ControlTuple ct;
  ct.type = ControlType::kBatchSize;
  ct.batch_size = 5;
  t2->inject_control(ct);
  for (int i = 10; i < 15; ++i) {
    t1->send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW2, false);
  }
  t1->flush();
  ASSERT_TRUE(WaitFor(
      [&] {
        EXPECT_LE(t2->poll(got, 4), 4u);
        return got.size() >= 16;
      },
      2s));
  ASSERT_EQ(got.size(), 16u);
  std::vector<std::int64_t> order;
  for (const ReceivedItem& item : got) {
    order.push_back(item.is_control ? -1 : item.tuple.i64(0));
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                              -1, 10, 11, 12, 13, 14}));
  EXPECT_EQ(got[10].control->batch_size, 5u);
}

// Packets a transport drains from its RX ring while its own send is
// blocked on a full TX ring are staged, then delivered in FIFO order.
TEST(TyphoonTransportBlockedSend, DrainedRecordsArriveInFifoOrder) {
  switchd::SoftSwitchConfig cfg;
  cfg.host = 1;
  cfg.ring_capacity = 16;
  switchd::SoftSwitch sw(cfg);
  sw.start();
  auto port_a = sw.attach_port(101);
  auto port_b = sw.attach_port(102);
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = 4;
  TyphoonTransport a(WorkerAddress{kTopo, 1}, port_a, pcfg);
  TyphoonTransport b(WorkerAddress{kTopo, 2}, port_b, pcfg);
  FlowRule r;
  r.match.in_port = 102;
  r.match.dl_src = A(2);
  r.match.dl_dst = A(1);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionOutput{static_cast<PortId>(101)}};
  sw.handle_flow_mod({FlowModCommand::kAdd, r});

  // b -> a: 20 tuples in five packets, parked in a's RX ring.
  constexpr WorkerId kToW1[] = {1};
  for (int i = 0; i < 20; ++i) {
    b.send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW1, false);
  }
  ASSERT_TRUE(WaitFor([&] { return port_a->rx_queue_depth() == 5; }, 2s));
  // With the switch stopped, a's TX ring fills and its next send blocks;
  // while blocked it drains its RX ring into staging, then gives up.
  sw.stop();
  a.set_batch_size(1);
  for (int i = 0; i < 64 && a.send_drops() == 0; ++i) {
    a.send(Tuple{std::int64_t{-1}}, kDefaultStream, 0, 0, kToW2, false);
  }
  ASSERT_EQ(a.send_drops(), 1u);
  EXPECT_EQ(port_a->rx_queue_depth(), 0u);
  EXPECT_EQ(a.input_queue_depth(), 20u);

  std::vector<ReceivedItem> got;
  while (a.poll(got, 7) != 0) {
  }
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i].tuple.i64(0), i);
}

// ---- Storm baseline ----

TEST(StormTransport, DeliversWithEnvelope) {
  StormFabric fabric;
  StormTransport a(kTopo, 1, /*host=*/1, &fabric, /*batch=*/1);
  StormTransport b(kTopo, 2, /*host=*/1, &fabric, 1);

  a.send(Tuple{std::int64_t{3}}, kDefaultStream, 5, 6, kToW2, false);
  a.flush();
  std::vector<ReceivedItem> got;
  b.poll(got, 8);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].tuple.i64(0), 3);
  EXPECT_EQ(got[0].meta.src_worker, 1u);
  EXPECT_EQ(got[0].meta.root_id, 5u);
}

TEST(StormTransport, RemoteHostsGoThroughFraming) {
  StormFabric fabric;
  StormTransport a(kTopo, 1, /*host=*/1, &fabric, 4);
  StormTransport b(kTopo, 2, /*host=*/2, &fabric, 4);

  for (int i = 0; i < 8; ++i) {
    a.send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW2, false);
  }
  a.flush();
  std::vector<ReceivedItem> got;
  b.poll(got, 64);
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[i].tuple.i64(0), i);
}

TEST(StormTransport, BatchFlushesAtThreshold) {
  StormFabric fabric;
  StormTransport a(kTopo, 1, 1, &fabric, /*batch=*/3);
  StormTransport b(kTopo, 2, 1, &fabric, 3);

  a.send(Tuple{std::int64_t{0}}, kDefaultStream, 0, 0, kToW2, false);
  a.send(Tuple{std::int64_t{1}}, kDefaultStream, 0, 0, kToW2, false);
  std::vector<ReceivedItem> got;
  b.poll(got, 8);
  EXPECT_TRUE(got.empty());
  a.send(Tuple{std::int64_t{2}}, kDefaultStream, 0, 0, kToW2, false);
  b.poll(got, 8);
  EXPECT_EQ(got.size(), 3u);
}

TEST(StormTransport, SendToDeadWorkerDropsMessages) {
  StormFabric fabric;
  StormTransport a(kTopo, 1, 1, &fabric, 1);
  {
    StormTransport dead(kTopo, 2, 1, &fabric, 1);
  }  // unregistered on destruction
  a.send(Tuple{std::int64_t{1}}, kDefaultStream, 0, 0, kToW2, false);
  a.flush();
  EXPECT_GT(a.send_drops(), 0u);
}

TEST(StormTransport, BroadcastLoopsPerDestination) {
  StormFabric fabric;
  StormTransport src(kTopo, 1, 1, &fabric, 1);
  StormTransport d2(kTopo, 2, 1, &fabric, 1);
  StormTransport d3(kTopo, 3, 1, &fabric, 1);

  src.send(Tuple{std::string("b")}, kDefaultStream, 0, 0, kToW2W3,
           /*broadcast=*/true);
  src.flush();
  std::vector<ReceivedItem> g2;
  std::vector<ReceivedItem> g3;
  d2.poll(g2, 8);
  d3.poll(g3, 8);
  EXPECT_EQ(g2.size(), 1u);
  EXPECT_EQ(g3.size(), 1u);
}

}  // namespace
}  // namespace typhoon::stream
