// TyphoonController unit/integration tests: rule installation on the hook
// path, cookie sweeps, worker lookup by port, control-packet building, and
// error paths of send_control / metric queries.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "coordinator/coordinator.h"
#include "stream/tuple.h"
#include "switchd/soft_switch.h"

namespace typhoon::controller {
namespace {

using namespace std::chrono_literals;
using stream::PhysicalTopology;
using stream::TopologySpec;

struct Fixture {
  coordinator::Coordinator coord;
  switchd::SoftSwitchConfig c1{.host = 1};
  switchd::SoftSwitchConfig c2{.host = 2};
  switchd::SoftSwitch sw1{c1};
  switchd::SoftSwitch sw2{c2};
  TyphoonController ctl{&coord};

  TopologySpec spec;
  PhysicalTopology phys;

  Fixture() {
    ctl.add_switch(1, &sw1);
    ctl.add_switch(2, &sw2);
    spec.id = 9;
    spec.name = "t";
    spec.nodes = {{1, "src", 1, true, false}, {2, "dst", 2, false, false}};
    spec.edges = {{1, 2, stream::GroupingType::kShuffle, {},
                   stream::kDefaultStream}};
    phys.id = 9;
    phys.name = "t";
    phys.workers = {{10, 1, 0, 1, 110}, {20, 2, 0, 1, 120},
                    {21, 2, 1, 2, 121}};
  }
};

TEST(Controller, DeployInstallsRulesOnEverySwitch) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  // host1: local + remote-sender + 2x2 control; host2: remote-receiver +
  // 2 control.
  EXPECT_EQ(f.sw1.flow_count(), 6u);
  EXPECT_EQ(f.sw2.flow_count(), 3u);
  // Mirrored state available.
  EXPECT_TRUE(f.ctl.spec(9).has_value());
  EXPECT_TRUE(f.ctl.physical(9).has_value());
  EXPECT_EQ(f.ctl.topology_ids().size(), 1u);
}

TEST(Controller, ReinstallIsIdempotent) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  const std::size_t n1 = f.sw1.flow_count();
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  EXPECT_EQ(f.sw1.flow_count(), n1);
}

TEST(Controller, KillSweepsByCookie) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  ASSERT_GT(f.sw1.flow_count(), 0u);
  f.ctl.on_topology_killed(9);
  EXPECT_EQ(f.sw1.flow_count(), 0u);
  EXPECT_EQ(f.sw2.flow_count(), 0u);
  EXPECT_FALSE(f.ctl.spec(9).has_value());
}

TEST(Controller, WorkerRemovalDropsItsRules) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  const std::size_t before = f.sw2.flow_count();

  stream::PhysicalWorker removed = f.phys.workers[2];  // w21 on host2
  std::erase_if(f.phys.workers,
                [&](const auto& w) { return w.id == removed.id; });
  f.ctl.on_topology_updated(f.spec, f.phys, {removed});
  EXPECT_LT(f.sw2.flow_count(), before);
  for (const auto& r : f.sw2.flow_rules()) {
    const std::uint64_t addr = WorkerAddress{9, removed.id}.packed();
    EXPECT_FALSE(r.match.dl_dst && *r.match.dl_dst == addr) << r.str();
    EXPECT_FALSE(r.match.dl_src && *r.match.dl_src == addr) << r.str();
  }
}

TEST(Controller, WorkerByPortResolvesAcrossTopologies) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  auto ref = f.ctl.worker_by_port(2, 121);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->topology, 9);
  EXPECT_EQ(ref->worker.id, 21u);
  EXPECT_FALSE(f.ctl.worker_by_port(2, 999).has_value());
  EXPECT_FALSE(f.ctl.worker_by_port(9, 121).has_value());
}

TEST(Controller, SendControlValidatesTargets) {
  Fixture f;
  stream::ControlTuple ct;
  ct.type = stream::ControlType::kSignal;
  EXPECT_EQ(f.ctl.send_control(9, 10, ct).code(),
            common::ErrorCode::kNotFound);  // topology unknown yet
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  EXPECT_TRUE(f.ctl.send_control(9, 10, ct).ok());
  EXPECT_EQ(f.ctl.send_control(9, 777, ct).code(),
            common::ErrorCode::kNotFound);  // worker unknown
}

TEST(Controller, MetricQueryTimesOutWithoutWorker) {
  Fixture f;
  f.ctl.on_topology_updated(f.spec, f.phys, {});
  f.ctl.start();
  // No worker attached to the port: the PacketOut disappears and the query
  // must time out rather than hang.
  auto r = f.ctl.query_worker_metrics(9, 10, 100ms);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::ErrorCode::kUnavailable);
  f.ctl.stop();
}

TEST(Controller, BuildControlPacketRoundTrips) {
  stream::ControlTuple ct;
  ct.type = stream::ControlType::kInputRate;
  ct.input_rate = 2500.0;
  net::PacketPtr p = BuildControlPacket(9, 42, ct);
  EXPECT_EQ(p->dst.worker, 42u);
  EXPECT_EQ(p->src.worker, kControllerWorker);
  EXPECT_EQ(p->ether_type, net::kTyphoonEtherType);

  common::BufReader r(p->payload);
  net::ChunkHeader h;
  ASSERT_TRUE(net::DecodeChunkHeader(r, h));
  EXPECT_TRUE(h.control());
  EXPECT_EQ(h.stream_id, stream::kControlStream);
  std::span<const std::uint8_t> body;
  ASSERT_TRUE(r.view(h.chunk_len, body));
  stream::ControlTuple out;
  ASSERT_TRUE(stream::DecodeControl(body, out));
  EXPECT_EQ(out.type, stream::ControlType::kInputRate);
  EXPECT_DOUBLE_EQ(out.input_rate, 2500.0);
}

TEST(Controller, EventsFlowToApps) {
  Fixture f;

  struct Recorder final : ControlPlaneApp {
    [[nodiscard]] const char* name() const override { return "rec"; }
    void on_port_status(HostId h, const openflow::PortStatus& ev) override {
      events.fetch_add(1);
      last_host.store(h);
      last_port.store(ev.port);
    }
    std::atomic<int> events{0};
    std::atomic<HostId> last_host{0};
    std::atomic<PortId> last_port{0};
  };
  auto rec = std::make_unique<Recorder>();
  Recorder* raw = rec.get();
  f.ctl.add_app(std::move(rec));
  f.ctl.start();

  auto port = f.sw1.attach_port(555);
  const auto deadline = common::Now() + 2s;
  while (raw->events.load() == 0 && common::Now() < deadline) {
    common::SleepMillis(2);
  }
  EXPECT_GE(raw->events.load(), 1);
  EXPECT_EQ(raw->last_host.load(), 1u);
  EXPECT_EQ(raw->last_port.load(), 555u);
  EXPECT_EQ(f.ctl.app("rec"), raw);
  EXPECT_EQ(f.ctl.app("nope"), nullptr);
  f.ctl.stop();
  (void)port;
}

TEST(Controller, GroupIdsAreUnique) {
  Fixture f;
  const auto a = f.ctl.next_group_id();
  const auto b = f.ctl.next_group_id();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace typhoon::controller
