// Direct Worker tests over a live switch: the framework layer's control
// tuple handling (Table 2), routing-state swaps, tuple parking
// (pause/resume), ack bookkeeping, crash semantics, and stats publishing.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <mutex>

#include "coordinator/coordinator.h"
#include "openflow/flow.h"
#include "stream/acker.h"
#include "stream/physical.h"
#include "stream/transport_typhoon.h"
#include "stream/worker.h"
#include "switchd/soft_switch.h"
#include "util/components.h"

namespace typhoon::stream {
namespace {

using namespace std::chrono_literals;
using openflow::ActionOutput;
using openflow::FlowModCommand;
using openflow::FlowRule;

constexpr TopologyId kTopo = 3;
// Destination list for Transport::send, which takes a span.
constexpr WorkerId kToW2[] = {2};

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(2);
  }
  return pred();
}

// Test fixture wiring one or two workers to a switch with explicit rules.
class WorkerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    switchd::SoftSwitchConfig cfg;
    cfg.host = 1;
    sw_ = std::make_unique<switchd::SoftSwitch>(cfg);
    sw_->start();
  }
  void TearDown() override {
    workers_.clear();  // stop workers before the switch goes away
    sw_->stop();
  }

  // Raw tap port for observing a worker's output.
  std::shared_ptr<switchd::PortHandle> Tap() { return sw_->attach_port(); }

  std::unique_ptr<TyphoonTransport> Transport(WorkerId w,
                                              std::size_t batch = 1) {
    auto port = sw_->attach_port(100 + w);
    net::PacketizerConfig cfg;
    cfg.batch_tuples = batch;
    return std::make_unique<TyphoonTransport>(WorkerAddress{kTopo, w}, port,
                                              cfg);
  }

  void Wire(WorkerId src, WorkerId dst, PortId out_port) {
    FlowRule r;
    r.match.in_port = 100 + src;
    r.match.dl_src = WorkerAddress{kTopo, src}.packed();
    r.match.dl_dst = WorkerAddress{kTopo, dst}.packed();
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = {ActionOutput{out_port}};
    sw_->handle_flow_mod({FlowModCommand::kAdd, r});
  }

  Worker* AddWorker(WorkerOptions opts) {
    workers_.push_back(std::make_unique<Worker>(std::move(opts)));
    workers_.back()->start();
    return workers_.back().get();
  }

  // Collect data tuples arriving at a tap port.
  static std::vector<Tuple> DrainTap(switchd::PortHandle& tap) {
    std::vector<Tuple> out;
    net::Depacketizer depack([&](net::TupleRecord rec) {
      if (rec.control) return;
      Tuple t;
      std::uint64_t root = 0;
      std::uint64_t edge = 0;
      if (DeserializeTyphoon(rec.data, t, root, edge)) {
        out.push_back(std::move(t));
      }
    });
    std::vector<net::PacketPtr> burst;
    tap.recv_bulk(burst, 1024);
    for (const auto& p : burst) depack.consume(*p);
    return out;
  }

  std::unique_ptr<switchd::SoftSwitch> sw_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

WorkerOptions BaseOptions(WorkerId id, const std::string& node_name,
                          bool is_spout) {
  WorkerOptions wo;
  wo.ctx.topology = kTopo;
  wo.ctx.topology_name = "t";
  wo.ctx.worker = id;
  wo.ctx.node = 10;
  wo.ctx.node_name = node_name;
  wo.is_spout = is_spout;
  return wo;
}

TEST_F(WorkerFixture, SpoutEmitsThroughRoutingState) {
  auto tap = Tap();
  Wire(1, 99, tap->id());

  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(50, 5);
  wo.transport = Transport(1);
  EdgeRuntime e;
  e.to_node = 20;
  e.state.type = GroupingType::kGlobal;
  e.state.next_hops = {99};
  wo.out_edges.push_back(std::move(e));
  Worker* w = AddWorker(std::move(wo));

  ASSERT_TRUE(WaitFor([&] { return w->emitted() >= 50; }, 3s));
  std::vector<Tuple> got;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto more = DrainTap(*tap);
        got.insert(got.end(), more.begin(), more.end());
        return got.size() >= 50;
      },
      3s));
  EXPECT_EQ(got[0].i64(0), 0);
  EXPECT_EQ(got[49].i64(0), 49);
}

TEST_F(WorkerFixture, RoutingControlTupleSwapsDestinations) {
  auto tap_a = Tap();
  auto tap_b = Tap();
  Wire(1, 50, tap_a->id());
  Wire(1, 60, tap_b->id());

  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(0, 4);
  auto transport = Transport(1);
  TyphoonTransport* transport_raw = transport.get();
  wo.transport = std::move(transport);
  EdgeRuntime e;
  e.to_node = 20;
  e.state.type = GroupingType::kGlobal;
  e.state.next_hops = {50};
  wo.out_edges.push_back(std::move(e));
  AddWorker(std::move(wo));

  ASSERT_TRUE(WaitFor([&] { return !DrainTap(*tap_a).empty(); }, 3s));

  // ROUTING update: switch the edge to worker 60.
  ControlTuple ct;
  ct.type = ControlType::kRouting;
  RoutingUpdate ru;
  ru.to_node = 20;
  ru.state.type = GroupingType::kGlobal;
  ru.state.next_hops = {60};
  ct.routing = ru;
  transport_raw->inject_control(ct);

  ASSERT_TRUE(WaitFor([&] { return !DrainTap(*tap_b).empty(); }, 3s));
  // After the swap settles, tap A goes quiet. Drain the pre-swap backlog
  // (its RX ring may hold thousands of in-flight packets) first.
  ASSERT_TRUE(WaitFor([&] { return DrainTap(*tap_a).empty(); }, 3s));
  common::SleepMillis(100);
  EXPECT_TRUE(DrainTap(*tap_a).empty());
}

TEST_F(WorkerFixture, EmptyHopsParkAndResumeLosesNothing) {
  auto tap = Tap();
  Wire(1, 70, tap->id());

  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(2000, 8);
  auto transport = Transport(1);
  TyphoonTransport* transport_raw = transport.get();
  wo.transport = std::move(transport);
  EdgeRuntime e;
  e.to_node = 20;
  e.state.type = GroupingType::kShuffle;
  e.state.next_hops = {};  // paused from the start
  wo.out_edges.push_back(std::move(e));
  Worker* w = AddWorker(std::move(wo));

  // Everything parks; nothing reaches the network.
  ASSERT_TRUE(
      WaitFor([&] { return w->metrics().value("parked") >= 2000; }, 3s));
  EXPECT_TRUE(DrainTap(*tap).empty());

  // Resume.
  ControlTuple ct;
  ct.type = ControlType::kRouting;
  RoutingUpdate ru;
  ru.to_node = 20;
  ru.state.type = GroupingType::kShuffle;
  ru.state.next_hops = {70};
  ct.routing = ru;
  transport_raw->inject_control(ct);

  std::vector<Tuple> got;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto more = DrainTap(*tap);
        got.insert(got.end(), more.begin(), more.end());
        return got.size() >= 2000;
      },
      5s));
  // Parked tuples flushed in order.
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].i64(0), static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(w->metrics().value("parked_dropped"), 0);
}

TEST_F(WorkerFixture, DeactivateAndActivateGateSpout) {
  auto tap = Tap();
  Wire(1, 70, tap->id());
  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(0, 4);
  auto transport = Transport(1);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  EdgeRuntime e;
  e.to_node = 20;
  e.state.type = GroupingType::kGlobal;
  e.state.next_hops = {70};
  wo.out_edges.push_back(std::move(e));
  Worker* w = AddWorker(std::move(wo));
  ASSERT_TRUE(WaitFor([&] { return w->emitted() > 100; }, 3s));

  ControlTuple off;
  off.type = ControlType::kDeactivate;
  traw->inject_control(off);
  common::SleepMillis(50);
  const std::int64_t frozen = w->emitted();
  common::SleepMillis(100);
  EXPECT_LE(w->emitted(), frozen + 8);  // at most one in-flight batch

  ControlTuple on;
  on.type = ControlType::kActivate;
  traw->inject_control(on);
  ASSERT_TRUE(WaitFor([&] { return w->emitted() > frozen + 100; }, 3s));
}

TEST_F(WorkerFixture, BatchSizeControlTupleAdjustsIoLayer) {
  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(0, 4);
  auto transport = Transport(1, 100);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  Worker* w = AddWorker(std::move(wo));
  (void)w;
  EXPECT_EQ(traw->batch_size(), 100u);

  ControlTuple ct;
  ct.type = ControlType::kBatchSize;
  ct.batch_size = 7;
  traw->inject_control(ct);
  ASSERT_TRUE(WaitFor([&] { return traw->batch_size() == 7; }, 3s));
}

TEST_F(WorkerFixture, InputRateThrottlesBoltProcessing) {
  WorkerOptions wo = BaseOptions(2, "fwd", false);
  wo.bolt = std::make_unique<testutil::ForwardBolt>();
  auto transport = Transport(2);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  Worker* w = AddWorker(std::move(wo));

  // Throttle to ~1k tuples/s.
  ControlTuple rate;
  rate.type = ControlType::kInputRate;
  rate.input_rate = 1000.0;
  traw->inject_control(rate);
  common::SleepMillis(30);

  auto feeder = Transport(9, /*batch=*/64);
  Wire(9, 2, static_cast<PortId>(100 + 2));
  for (int i = 0; i < 3000; ++i) {
    feeder->send(Tuple{std::int64_t{i}}, kDefaultStream, 0, 0, kToW2, false);
  }
  feeder->flush();

  common::SleepMillis(400);
  const std::int64_t processed = w->received();
  EXPECT_GT(processed, 100);
  EXPECT_LT(processed, 1500) << "rate limit not applied to bolt";

  // Lifting the limit drains the backlog.
  ControlTuple unlimited;
  unlimited.type = ControlType::kInputRate;
  unlimited.input_rate = 0.0;
  traw->inject_control(unlimited);
  ASSERT_TRUE(WaitFor([&] { return w->received() >= 3000; }, 5s))
      << w->received();
}

// The spout path reads the same limited/unlimited flag as the bolt path:
// a rate caps spout turns, and rate 0 restores full speed.
TEST_F(WorkerFixture, InputRateThrottlesSpoutAndZeroLiftsIt) {
  auto tap = Tap();
  Wire(1, 70, tap->id());
  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(0, 1);
  auto transport = Transport(1, /*batch=*/64);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  EdgeRuntime e;
  e.to_node = 20;
  e.state.type = GroupingType::kGlobal;
  e.state.next_hops = {70};
  wo.out_edges.push_back(std::move(e));
  Worker* w = AddWorker(std::move(wo));
  ASSERT_TRUE(WaitFor([&] { return w->emitted() > 100; }, 3s));

  // Throttle to 200 spout turns/s (one tuple each).
  ControlTuple rate;
  rate.type = ControlType::kInputRate;
  rate.input_rate = 200.0;
  traw->inject_control(rate);
  common::SleepMillis(50);
  const std::int64_t capped_from = w->emitted();
  for (int i = 0; i < 6; ++i) {
    common::SleepMillis(50);
    DrainTap(*tap);
  }
  // ~60 tuples in 300 ms, plus at most one burst (64) of banked credit.
  EXPECT_LT(w->emitted() - capped_from, 400) << "rate cap not applied";

  ControlTuple unlimited;
  unlimited.type = ControlType::kInputRate;
  unlimited.input_rate = 0.0;
  traw->inject_control(unlimited);
  const std::int64_t lifted_from = w->emitted();
  // 5000 tuples would take 25 s at the old cap.
  ASSERT_TRUE(WaitFor(
      [&] {
        DrainTap(*tap);
        return w->emitted() >= lifted_from + 5000;
      },
      5s))
      << w->emitted() - lifted_from;
}

// A transport that hands the worker scripted poll batches, one per poll,
// so a test controls exactly what each batch holds.
class ScriptedTransport : public stream::Transport {
 public:
  void add_batch(std::vector<ReceivedItem> batch) {
    std::lock_guard lk(mu_);
    batches_.push_back(std::move(batch));
  }
  std::size_t poll(std::vector<ReceivedItem>& out, std::size_t max) override {
    std::lock_guard lk(mu_);
    if (batches_.empty()) return 0;
    std::vector<ReceivedItem>& batch = batches_.front();
    const std::size_t n = batch.size();
    EXPECT_LE(n, max);
    for (ReceivedItem& item : batch) out.push_back(std::move(item));
    batches_.pop_front();
    return n;
  }
  void send(const Tuple&, StreamId, std::uint64_t, std::uint64_t,
            std::span<const WorkerId>, bool,
            trace::TraceContext) override {}
  void send_to_controller(const ControlTuple&) override {}
  void flush() override {}
  [[nodiscard]] std::size_t input_queue_depth() const override { return 0; }

 private:
  std::mutex mu_;
  std::deque<std::vector<ReceivedItem>> batches_;
};

// Records the order in which data sequence numbers and SIGNALs (as -1)
// reach the application layer.
class OrderRecordingBolt : public Bolt {
 public:
  struct Log {
    std::mutex mu;
    std::vector<std::int64_t> seen;
  };
  explicit OrderRecordingBolt(std::shared_ptr<Log> log)
      : log_(std::move(log)) {}
  void execute(const Tuple& input, const TupleMeta&, Emitter&) override {
    std::lock_guard lk(log_->mu);
    log_->seen.push_back(input.i64(0));
  }
  void on_signal(const std::string&, Emitter&) override {
    std::lock_guard lk(log_->mu);
    log_->seen.push_back(-1);
  }

 private:
  std::shared_ptr<Log> log_;
};

ReceivedItem DataItem(std::int64_t seq) {
  ReceivedItem item;
  item.tuple = Tuple{seq};
  return item;
}

ReceivedItem ControlItem(ControlTuple ct) {
  ReceivedItem item;
  item.is_control = true;
  item.control = std::make_shared<ControlTuple>(std::move(ct));
  return item;
}

ReceivedItem RateItem(double rate) {
  ControlTuple ct;
  ct.type = ControlType::kInputRate;
  ct.input_rate = rate;
  return ControlItem(std::move(ct));
}

// One full 256-item poll batch drained under an INPUT_RATE cap: the
// throttle stops mid-batch again and again, and every stop must resume on
// the very item it stopped at — no tuple skipped, none handled twice, none
// reordered — including a SIGNAL queued behind throttled data.
TEST(WorkerReceive, ThrottledBatchKeepsOrderAcrossRateStops) {
  auto script = std::make_unique<ScriptedTransport>();
  ScriptedTransport* sraw = script.get();
  auto log = std::make_shared<OrderRecordingBolt::Log>();

  // Batch 1 sets the cap; batch 2 is one full poll: data 0..199, a SIGNAL,
  // data 200..254; batch 3 lifts the cap and carries data 255..299.
  sraw->add_batch({RateItem(1000.0)});
  std::vector<ReceivedItem> full;
  for (std::int64_t i = 0; i < 200; ++i) full.push_back(DataItem(i));
  ControlTuple signal;
  signal.type = ControlType::kSignal;
  signal.signal_tag = "flush";
  full.push_back(ControlItem(signal));
  for (std::int64_t i = 200; i < 255; ++i) full.push_back(DataItem(i));
  ASSERT_EQ(full.size(), 256u);
  sraw->add_batch(std::move(full));
  std::vector<ReceivedItem> rest{RateItem(0.0)};
  for (std::int64_t i = 255; i < 300; ++i) rest.push_back(DataItem(i));
  sraw->add_batch(std::move(rest));

  WorkerOptions wo = BaseOptions(2, "rec", false);
  wo.bolt = std::make_unique<OrderRecordingBolt>(log);
  wo.transport = std::move(script);
  Worker w(std::move(wo));
  w.start();

  // At 1k tuples/s the full batch takes ~255 ms: part-way through, the cap
  // still holds the bolt short of the SIGNAL.
  common::SleepMillis(60);
  EXPECT_LT(w.received(), 200) << "rate cap not applied mid-batch";
  ASSERT_TRUE(WaitFor([&] { return w.received() >= 300; }, 10s))
      << w.received();
  w.stop();

  std::vector<std::int64_t> expect;
  for (std::int64_t i = 0; i < 200; ++i) expect.push_back(i);
  expect.push_back(-1);
  for (std::int64_t i = 200; i < 300; ++i) expect.push_back(i);
  std::lock_guard lk(log->mu);
  EXPECT_EQ(log->seen, expect);
  EXPECT_EQ(w.received(), 300);
}

TEST_F(WorkerFixture, SignalReachesApplicationLayer) {
  // Stateful count bolt flushes its cache downstream on SIGNAL.
  auto tap = Tap();
  Wire(2, 70, tap->id());

  WorkerOptions wo = BaseOptions(2, "count", false);
  wo.bolt = std::make_unique<testutil::CountBolt>();
  auto transport = Transport(2);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  EdgeRuntime e;
  e.to_node = 30;
  e.state.type = GroupingType::kGlobal;
  e.state.next_hops = {70};
  wo.out_edges.push_back(std::move(e));
  Worker* w = AddWorker(std::move(wo));

  // Feed it three words via another transport.
  auto feeder = Transport(9);
  Wire(9, 2, static_cast<PortId>(100 + 2));
  feeder->send(Tuple{std::string("a"), std::int64_t{1}}, kDefaultStream, 0,
               0, kToW2, false);
  feeder->send(Tuple{std::string("a"), std::int64_t{1}}, kDefaultStream, 0,
               0, kToW2, false);
  feeder->send(Tuple{std::string("b"), std::int64_t{1}}, kDefaultStream, 0,
               0, kToW2, false);
  feeder->flush();
  ASSERT_TRUE(WaitFor([&] { return w->received() >= 3; }, 3s));

  ControlTuple sig;
  sig.type = ControlType::kSignal;
  sig.signal_tag = "flush";
  traw->inject_control(sig);

  std::vector<Tuple> got;
  ASSERT_TRUE(WaitFor(
      [&] {
        auto more = DrainTap(*tap);
        got.insert(got.end(), more.begin(), more.end());
        return got.size() >= 2;
      },
      3s));
  std::int64_t total = 0;
  for (const Tuple& t : got) total += t.i64(1);
  EXPECT_EQ(total, 3);  // a:2 + b:1
  EXPECT_EQ(w->metrics().value("signals"), 1);
}

TEST_F(WorkerFixture, MetricReqProducesResponseToController) {
  // Route worker->controller traffic to a tap standing in for PacketIn.
  auto tap = Tap();
  FlowRule r;
  r.match.in_port = 101;
  r.match.dl_dst = WorkerAddress{kTopo, kControllerWorker}.packed();
  r.actions = {ActionOutput{tap->id()}};
  sw_->handle_flow_mod({FlowModCommand::kAdd, r});

  WorkerOptions wo = BaseOptions(1, "src", true);
  wo.spout = std::make_unique<testutil::SequenceSpout>(100, 4);
  auto transport = Transport(1);
  TyphoonTransport* traw = transport.get();
  wo.transport = std::move(transport);
  AddWorker(std::move(wo));
  common::SleepMillis(50);

  ControlTuple req;
  req.type = ControlType::kMetricReq;
  req.request_id = 42;
  traw->inject_control(req);

  std::optional<ControlTuple> resp;
  ASSERT_TRUE(WaitFor(
      [&] {
        std::vector<net::PacketPtr> burst;
        tap->recv_bulk(burst, 64);
        for (const auto& p : burst) {
          common::BufReader rd(p->payload);
          net::ChunkHeader h;
          std::span<const std::uint8_t> body;
          if (net::DecodeChunkHeader(rd, h) && rd.view(h.chunk_len, body) &&
              h.control()) {
            ControlTuple ct;
            if (DecodeControl(body, ct) &&
                ct.type == ControlType::kMetricResp) {
              resp = ct;
            }
          }
        }
        return resp.has_value();
      },
      3s));
  ASSERT_TRUE(resp->report.has_value());
  EXPECT_EQ(resp->report->worker, 1u);
  EXPECT_EQ(resp->report->request_id, 42u);
  bool has_emitted = false;
  for (const auto& [name, value] : resp->report->metrics) {
    if (name == "emitted") has_emitted = true;
  }
  EXPECT_TRUE(has_emitted);
}

TEST_F(WorkerFixture, CrashInExecuteMarksWorkerDead) {
  coordinator::Coordinator coord;
  auto flags = std::make_shared<testutil::SharedFlags>();
  flags->crash_split.store(true);

  WorkerOptions wo = BaseOptions(2, "split", false);
  wo.bolt = std::make_unique<testutil::SplitBolt>(flags);
  wo.transport = Transport(2);
  wo.coord = &coord;
  Worker* w = AddWorker(std::move(wo));
  ASSERT_TRUE(WaitFor(
      [&] {
        auto s = coord.get_str(WorkerStatePath("t", 2));
        return s && *s == "RUNNING";
      },
      3s));

  auto feeder = Transport(9);
  Wire(9, 2, static_cast<PortId>(100 + 2));
  feeder->send(Tuple{std::string("boom boom")}, kDefaultStream, 0, 0, kToW2,
               false);
  feeder->flush();

  ASSERT_TRUE(WaitFor([&] { return w->crashed(); }, 3s));
  EXPECT_EQ(*coord.get_str(WorkerStatePath("t", 2)), "DEAD");
}

TEST_F(WorkerFixture, ReliableSpoutAcksViaAckerRoundTrip) {
  // spout (1) -> sink (2); acker (3). Full in-band ack loop over the switch.
  auto spout_transport = Transport(1);
  auto sink_transport = Transport(2);
  auto acker_transport = Transport(3);
  Wire(1, 2, 102);  // data
  Wire(1, 3, 103);  // INIT
  Wire(2, 3, 103);  // ACK
  Wire(3, 1, 101);  // COMPLETE

  WorkerOptions spout = BaseOptions(1, "src", true);
  spout.spout = std::make_unique<testutil::SequenceSpout>(500, 4);
  spout.transport = std::move(spout_transport);
  spout.reliable = true;
  spout.acker = 3;
  {
    EdgeRuntime e;
    e.to_node = 20;
    e.state.type = GroupingType::kGlobal;
    e.state.next_hops = {2};
    spout.out_edges.push_back(std::move(e));
  }
  auto probe =
      dynamic_cast<testutil::SequenceSpout*>(spout.spout.get());
  AddWorker(std::move(spout));

  WorkerOptions sink = BaseOptions(2, "sink", false);
  sink.bolt = std::make_unique<testutil::ForwardBolt>();
  sink.transport = std::move(sink_transport);
  sink.reliable = true;
  sink.acker = 3;
  AddWorker(std::move(sink));

  WorkerOptions acker = BaseOptions(3, kAckerNodeName, false);
  acker.bolt = std::make_unique<AckerBolt>();
  acker.transport = std::move(acker_transport);
  Worker* acker_worker = AddWorker(std::move(acker));

  ASSERT_TRUE(WaitFor([&] { return probe->acked() >= 500; }, 10s))
      << "acked " << probe->acked();
  EXPECT_EQ(probe->failed(), 0);
  // Acks are coalesced: one init message per spout turn and one ack message
  // per bolt drain pass, so the acker sees fewer messages than roots.
  EXPECT_LT(acker_worker->received(), probe->acked());
}

TEST_F(WorkerFixture, UnackedTuplesFailAfterTimeout) {
  // Spout routed to a black hole; acker present but no sink acks.
  auto spout_transport = Transport(1);
  auto acker_transport = Transport(3);
  Wire(1, 3, 103);
  Wire(3, 1, 101);

  WorkerOptions spout = BaseOptions(1, "src", true);
  spout.spout = std::make_unique<testutil::SequenceSpout>(10, 2);
  spout.transport = std::move(spout_transport);
  spout.reliable = true;
  spout.acker = 3;
  spout.pending_timeout = std::chrono::milliseconds(200);
  {
    EdgeRuntime e;
    e.to_node = 20;
    e.state.type = GroupingType::kGlobal;
    e.state.next_hops = {77};  // nobody there
    spout.out_edges.push_back(std::move(e));
  }
  auto probe = dynamic_cast<testutil::SequenceSpout*>(spout.spout.get());
  AddWorker(std::move(spout));

  WorkerOptions acker = BaseOptions(3, kAckerNodeName, false);
  acker.bolt = std::make_unique<AckerBolt>();
  acker.transport = std::move(acker_transport);
  AddWorker(std::move(acker));

  ASSERT_TRUE(WaitFor([&] { return probe->failed() >= 10; }, 5s))
      << "failed " << probe->failed();
  EXPECT_EQ(probe->acked(), 0);
}

}  // namespace
}  // namespace typhoon::stream
