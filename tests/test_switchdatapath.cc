// The switch's one forwarding thread under concurrent load: counters match
// the traffic of several sources, a FlowMod invalidates every warm flow at
// once, a port attached under traffic gets it all, producer threads racing
// control-plane churn and live rate reprogramming lose nothing, burst
// tunnel I/O carries cross-host traffic, and an idle switch parks instead
// of spinning a core. The churn tests are expected to stay clean under
// TSan.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <mutex>
#include <thread>

#include "net/tunnel.h"
#include "switchd/soft_switch.h"

namespace typhoon::switchd {
namespace {

using namespace std::chrono_literals;
using openflow::ActionOutput;
using openflow::ActionSetTunDst;
using openflow::FlowMod;
using openflow::FlowModCommand;
using openflow::FlowRule;

net::PacketPtr Pkt(WorkerId src, WorkerId dst) {
  net::Packet p;
  p.src = WorkerAddress{1, src};
  p.dst = WorkerAddress{1, dst};
  p.payload = {1, 2, 3};
  return net::MakePacket(std::move(p));
}

std::optional<net::PacketPtr> RecvFor(PortHandle& port,
                                      std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (auto p = port.recv()) return p;
    std::this_thread::sleep_for(100us);
  }
  return std::nullopt;
}

FlowRule PortRule(PortId in_port, WorkerId s, WorkerId d,
                  std::vector<openflow::FlowAction> actions) {
  FlowRule r;
  r.match.in_port = in_port;
  r.match.dl_src = WorkerAddress{1, s}.packed();
  r.match.dl_dst = WorkerAddress{1, d}.packed();
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = openflow::SharedActions(std::move(actions));
  return r;
}

// `nsources` source ports (ids from 1000), each with its own exact-match
// flow to its own sink. Returns (sources, sinks).
struct Topo {
  std::vector<std::shared_ptr<PortHandle>> srcs;
  std::vector<std::shared_ptr<PortHandle>> sinks;
};

Topo BuildTopo(SoftSwitch& sw, std::size_t nsources) {
  Topo t;
  for (std::size_t s = 0; s < nsources; ++s) {
    auto src = sw.attach_port(static_cast<PortId>(1000 + s));
    auto sink = sw.attach_port();
    sw.handle_flow_mod(
        {FlowModCommand::kAdd,
         PortRule(src->id(), static_cast<WorkerId>(10 + s),
                  static_cast<WorkerId>(100 + s),
                  {ActionOutput{sink->id()}})});
    t.srcs.push_back(std::move(src));
    t.sinks.push_back(std::move(sink));
  }
  return t;
}

// ---- counters ---------------------------------------------------------------

// Four sources, 200 packets each: packets_forwarded, the per-rule packet
// counters and the per-port TX counters each add up to the 800 sent.
TEST(SwitchDatapathTest, CountersMatchTrafficFromFourSources) {
  constexpr int kPerFlow = 200;
  constexpr std::size_t kSources = 4;
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  sw.start();

  auto topo = BuildTopo(sw, kSources);
  for (std::size_t s = 0; s < topo.srcs.size(); ++s) {
    for (int i = 0; i < kPerFlow; ++i) {
      while (!topo.srcs[s]->send(Pkt(static_cast<WorkerId>(10 + s),
                                     static_cast<WorkerId>(100 + s)))) {
        std::this_thread::yield();
      }
    }
  }
  for (std::size_t s = 0; s < topo.sinks.size(); ++s) {
    for (int i = 0; i < kPerFlow; ++i) {
      ASSERT_TRUE(RecvFor(*topo.sinks[s], 2s).has_value())
          << "sink " << s << " packet " << i;
    }
  }

  std::uint64_t rule_packets = 0;
  std::uint64_t port_tx = 0;
  for (const auto& fs : sw.flow_stats()) rule_packets += fs.packets;
  for (const auto& ps : sw.port_stats()) port_tx += ps.tx_packets;
  EXPECT_EQ(sw.packets_forwarded(), kSources * kPerFlow);
  EXPECT_EQ(rule_packets, kSources * kPerFlow);
  EXPECT_EQ(port_tx, kSources * kPerFlow);
  sw.stop();
}

// ---- invalidation -----------------------------------------------------------

// Warm four flows in the microflow cache, then delete their rules with one
// FlowMod each: no flow may keep forwarding from a stale entry.
TEST(SwitchDatapathTest, FlowModInvalidationReachesEveryFlow) {
  constexpr std::size_t kFlows = 4;
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  sw.start();
  auto topo = BuildTopo(sw, kFlows);

  // Warm all flows.
  for (std::size_t s = 0; s < kFlows; ++s) {
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(topo.srcs[s]->send(Pkt(static_cast<WorkerId>(10 + s),
                                         static_cast<WorkerId>(100 + s))));
    }
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(RecvFor(*topo.sinks[s], 2s).has_value());
    }
  }
  EXPECT_GT(sw.cache_hits(), 0u);

  // Delete every rule; the epoch bump must gate all four warm entries.
  for (std::size_t s = 0; s < kFlows; ++s) {
    sw.handle_flow_mod(
        {FlowModCommand::kDelete,
         PortRule(topo.srcs[s]->id(), static_cast<WorkerId>(10 + s),
                  static_cast<WorkerId>(100 + s), {})});
  }
  for (std::size_t s = 0; s < kFlows; ++s) {
    ASSERT_TRUE(topo.srcs[s]->send(Pkt(static_cast<WorkerId>(10 + s),
                                       static_cast<WorkerId>(100 + s))));
    EXPECT_FALSE(RecvFor(*topo.sinks[s], 100ms).has_value())
        << "flow " << s << " forwarded from a stale microflow entry";
  }
  sw.stop();
}

// ---- port attach under traffic ---------------------------------------------

// A rule names port X before X exists, and traffic toward X streams in
// through the tunnel port. X attaches from the PacketIn sink, which runs on
// the forwarding thread after it adopted its view and before it polls its
// tunnels, so the sink's sends land in the same loop iteration: the widest
// window in which the switch could still see an X-less view. Every packet
// sent after attach_port returns must reach X, and X must drop nothing.
TEST(SwitchDatapathTest, JustAttachedPortGetsItsTraffic) {
  constexpr int kRounds = 50;
  constexpr int kBefore = 4;  // sent toward X before it exists
  constexpr int kAfter = 8;   // sent after attach_port returns
  constexpr HostId kPeer = 2;
  const auto dst_of = [](int round) {
    return static_cast<WorkerId>(100 + round);
  };
  const auto port_of = [](int round) {
    return static_cast<PortId>(2000 + round);
  };
  const auto tunnel_pkt = [](WorkerId dst, std::uint8_t after) {
    net::Packet p;
    p.src = WorkerAddress{1, 1};
    p.dst = WorkerAddress{1, dst};
    p.payload = {after};
    return net::MakePacket(std::move(p));
  };
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  auto [near, far] = net::CreateTunnel();
  sw.add_tunnel(kPeer, near);
  auto trigger = sw.attach_port(1000);
  sw.handle_flow_mod(
      {FlowModCommand::kAdd,
       PortRule(trigger->id(), 1, 1, {openflow::ActionOutputController{}})});

  std::mutex mu;
  int round = 0;                     // guarded by mu
  std::shared_ptr<PortHandle> out;   // X of the round; guarded by mu
  sw.set_event_sink([&](HostId, SwitchEvent ev) {
    if (!std::holds_alternative<openflow::PacketIn>(ev)) return;
    std::lock_guard lk(mu);
    out = sw.attach_port(port_of(round));
    for (int i = 0; i < kAfter; ++i) {
      ASSERT_TRUE(far->send(tunnel_pkt(dst_of(round), 1)));
    }
  });
  sw.start();

  for (int r = 0; r < kRounds; ++r) {
    {
      std::lock_guard lk(mu);
      round = r;
      out = nullptr;
    }
    sw.handle_flow_mod(
        {FlowModCommand::kAdd,
         PortRule(SoftSwitch::kTunnelPort, 1, dst_of(r),
                  {ActionOutput{port_of(r)}})});
    for (int i = 0; i < kBefore; ++i) {
      ASSERT_TRUE(far->send(tunnel_pkt(dst_of(r), 0)));
    }
    ASSERT_TRUE(trigger->send(Pkt(1, 1)));

    std::shared_ptr<PortHandle> x;
    const auto deadline = common::Now() + 2s;
    while (x == nullptr && common::Now() < deadline) {
      std::this_thread::sleep_for(100us);
      std::lock_guard lk(mu);
      x = out;
    }
    ASSERT_NE(x, nullptr) << "round " << r << ": no PacketIn";
    int got_after = 0;
    while (got_after < kAfter) {
      auto p = RecvFor(*x, 2s);
      if (!p) break;
      got_after += (*p)->payload[0];
    }
    ASSERT_EQ(got_after, kAfter)
        << "round " << r << ": traffic sent after the attach was lost";
    for (const openflow::PortStats& st : sw.port_stats()) {
      if (st.port == port_of(r)) {
        EXPECT_EQ(st.tx_dropped, 0u);
      }
    }
  }
  sw.stop();
}

// ---- concurrent churn (TSan coverage) ---------------------------------------

// Four producer threads into one switch, concurrent control-plane churn on
// an unrelated rule, stats polling from another thread: the stable flows
// must lose nothing and the run must be race-free under TSan.
TEST(SwitchDatapathTest, ConcurrentChurnLosesNothing) {
  constexpr std::size_t kSources = 4;
  constexpr int kPerFlow = 1500;
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  sw.start();
  auto topo = BuildTopo(sw, kSources);

  std::atomic<bool> done{false};
  std::thread churn([&] {
    // Unrelated rule added/deleted in a loop: every iteration bumps the
    // table epoch and invalidates the warm flows mid-traffic.
    int i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      sw.handle_flow_mod({FlowModCommand::kAdd,
                          PortRule(9999, 77, 78, {ActionOutput{1}})});
      sw.handle_flow_mod({FlowModCommand::kDelete, PortRule(9999, 77, 78, {})});
      if (++i % 8 == 0) std::this_thread::sleep_for(1ms);
    }
  });
  std::thread stats([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)sw.packets_forwarded();
      (void)sw.cache_hits();
      (void)sw.port_stats();
      std::this_thread::sleep_for(500us);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSources; ++s) {
    producers.emplace_back([&, s] {
      for (int i = 0; i < kPerFlow; ++i) {
        while (!topo.srcs[s]->send(Pkt(static_cast<WorkerId>(10 + s),
                                       static_cast<WorkerId>(100 + s)))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::uint64_t> got(kSources, 0);
  std::vector<std::thread> consumers;
  for (std::size_t s = 0; s < kSources; ++s) {
    consumers.emplace_back([&, s] {
      while (got[s] < kPerFlow) {
        if (RecvFor(*topo.sinks[s], 5s).has_value()) {
          ++got[s];
        } else {
          break;  // timeout — fail below with the count
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  done.store(true);
  churn.join();
  stats.join();

  for (std::size_t s = 0; s < kSources; ++s) {
    EXPECT_EQ(got[s], static_cast<std::uint64_t>(kPerFlow))
        << "source " << s << " lost packets under churn";
  }
  sw.stop();
}

// ---- ingress rate shaping under live reprogramming --------------------------

// Four sources forwarding through per-port ingress shapers while a
// controller thread reprograms every rate every few milliseconds (the QoS
// app's actuation pattern) and churns an unrelated shaper entry to force
// View republishes mid-traffic. Shaping is lossless by design — an
// empty bucket defers the poll, never drops — so every packet must arrive,
// and the byte accounting must be exact: each source port's rx_bytes is
// exactly count x wire size, and, because the shapers stay attached for the
// whole run, the shaper's shaped_bytes ledger must equal it byte-for-byte.
// TSan covers the set_rate vs. poll-path races this test exists for.
TEST(SwitchDatapathTest, RateReprogramUnderTrafficIsLosslessAndExact) {
  constexpr std::size_t kSources = 4;
  constexpr int kPerFlow = 1200;
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  sw.start();
  auto topo = BuildTopo(sw, kSources);

  // Shape every source port from the start, slow enough that empty-bucket
  // defers genuinely happen.
  for (const auto& src : topo.srcs) {
    sw.set_port_ingress_rate(src->id(), 262'144.0);
  }

  std::atomic<bool> done{false};
  std::thread reprogram([&] {
    // The QoS actuation pattern: live in-place rate changes on hot ports
    // plus add/remove churn of an idle entry (each add/remove publishes a
    // new View that the forwarding thread adopts).
    int i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const double rate = (i % 2 == 0) ? 524'288.0 : 262'144.0;
      for (const auto& src : topo.srcs) {
        sw.set_port_ingress_rate(src->id(), rate);
      }
      sw.set_port_ingress_rate(9999, 1e6);
      sw.set_port_ingress_rate(9999, 0.0);
      (void)sw.shaper_stats();
      (void)sw.port_ingress_rate(topo.srcs[0]->id());
      ++i;
      std::this_thread::sleep_for(2ms);
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSources; ++s) {
    producers.emplace_back([&, s] {
      for (int i = 0; i < kPerFlow; ++i) {
        while (!topo.srcs[s]->send(Pkt(static_cast<WorkerId>(10 + s),
                                       static_cast<WorkerId>(100 + s)))) {
          std::this_thread::yield();
        }
      }
    });
  }
  std::vector<std::uint64_t> got(kSources, 0);
  std::vector<std::thread> consumers;
  for (std::size_t s = 0; s < kSources; ++s) {
    consumers.emplace_back([&, s] {
      while (got[s] < kPerFlow) {
        if (RecvFor(*topo.sinks[s], 10s).has_value()) {
          ++got[s];
        } else {
          break;  // timeout — fail below with the count
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  done.store(true);
  reprogram.join();

  // Zero loss through the shapers.
  for (std::size_t s = 0; s < kSources; ++s) {
    EXPECT_EQ(got[s], static_cast<std::uint64_t>(kPerFlow))
        << "source " << s << " lost packets under rate reprogramming";
  }

  // Exact byte accounting: rx_bytes == count x wire size on every shaped
  // port, and the shaper ledger saw every one of those bytes.
  const std::uint64_t wire = Pkt(10, 100)->wire_size();
  std::map<PortId, std::uint64_t> rx_bytes;
  for (const auto& ps : sw.port_stats()) rx_bytes[ps.port] = ps.rx_bytes;
  std::map<PortId, SoftSwitch::PortShaperStats> shaped;
  std::uint64_t defers = 0;
  for (const auto& ss : sw.shaper_stats()) {
    shaped[ss.port] = ss;
    defers += ss.throttle_defers;
  }
  for (const auto& src : topo.srcs) {
    EXPECT_EQ(rx_bytes[src->id()], kPerFlow * wire) << "port " << src->id();
    ASSERT_TRUE(shaped.contains(src->id()));
    EXPECT_EQ(shaped[src->id()].shaped_bytes, kPerFlow * wire)
        << "port " << src->id();
    EXPECT_GT(shaped[src->id()].rate_bps, 0.0);
  }
  // At ~256-512 kB/s the buckets genuinely ran dry with traffic waiting.
  EXPECT_GT(defers, 0u);

  sw.stop();
}

// ---- tunnel RX --------------------------------------------------------------

// Cross-host forwarding between two switches: remote transfer rules
// (set_tun_dst + output:tunnel) on host 1, tunnel-ingress delivery rules on
// host 2.
TEST(SwitchDatapathTest, CrossHostTunnelForwarding) {
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
  sw1.handle_flow_mod(
      {FlowModCommand::kAdd,
       PortRule(src->id(), 1, 2,
                {ActionSetTunDst{2}, ActionOutput{SoftSwitch::kTunnelPort}})});
  sw2.handle_flow_mod({FlowModCommand::kAdd,
                       PortRule(SoftSwitch::kTunnelPort, 1, 2,
                                {ActionOutput{dst->id()}})});

  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) {
    while (!src->send(Pkt(1, 2))) std::this_thread::yield();
  }
  for (int i = 0; i < kCount; ++i) {
    ASSERT_TRUE(RecvFor(*dst, 2s).has_value()) << "packet " << i;
  }
  EXPECT_EQ(e1->frames_sent(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(e1->rx_corrupt_drops(), 0u);
  sw1.stop();
  sw2.stop();
}

// ---- idle cost --------------------------------------------------------------

// An idle switch must park its forwarding thread on its wakeup gate, not
// spin its run loop. Budget: the whole process may burn a small fraction
// of one CPU over the window (the parked thread wakes at most every ~10ms
// for the backstop recheck). Generous threshold: 25% of one core, to stay
// robust on slow or oversubscribed CI machines.
TEST(SwitchDatapathTest, IdleSwitchParksNearZeroCpu) {
  SoftSwitchConfig cfg;
  cfg.host = 1;
  SoftSwitch sw(cfg);
  sw.start();
  auto src = sw.attach_port();  // attached but silent
  auto out = sw.attach_port();
  sw.handle_flow_mod(
      {FlowModCommand::kAdd,
       PortRule(src->id(), 1, 2, {ActionOutput{out->id()}})});

  // One warm-up packet, then let the thread ramp down and park.
  ASSERT_TRUE(src->send(Pkt(1, 2)));
  ASSERT_TRUE(RecvFor(*out, 1s).has_value());
  std::this_thread::sleep_for(100ms);

  struct rusage before {};
  getrusage(RUSAGE_SELF, &before);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(600ms);
  struct rusage after {};
  getrusage(RUSAGE_SELF, &after);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  auto cpu_secs = [](const rusage& r) {
    return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
           static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e6;
  };
  const double used = cpu_secs(after) - cpu_secs(before);
  EXPECT_LT(used, 0.25 * wall)
      << "idle switch burned " << used << "s CPU over " << wall
      << "s wall";

  // The parked thread must still wake for traffic.
  ASSERT_TRUE(src->send(Pkt(1, 2)));
  EXPECT_TRUE(RecvFor(*out, 1s).has_value());
  sw.stop();
}

}  // namespace
}  // namespace typhoon::switchd
