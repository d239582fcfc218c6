// Process-level integration & soak tests (DESIGN.md Sec 17): every host of
// the cluster is a real typhoon_hostd child process, connected by real TCP
// socket tunnels (or shared-memory rings) for data and a TCP control channel
// for coordination. The suite drives end-to-end word counts with exact
// parameter-derived expectations, SIGKILL chaos with exact dedup recovery,
// host restart/reconnect, and a bounded soak loop — and asserts after every
// test that no host process was orphaned.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>

#include "common/clock.h"
#include "stream/physical.h"
#include "typhoon/proc_apps.h"
#include "typhoon/process_cluster.h"
#include "util/subprocess.h"

namespace typhoon::proc {
namespace {

using namespace std::chrono_literals;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(20);
  }
  return pred();
}

// Exact convergence: the sink's published unique-occurrence total and word
// counts equal the parameter-derived expectations (dedup makes this exact
// even under at-least-once replay).
bool ResultsExact(const ProcessCluster& pc, const WordCountParams& p) {
  const auto r = pc.results(p.topology);
  if (!r.ok()) return false;
  return r.value().first == ExpectedUnique(p) &&
         r.value().second == ExpectedCounts(p);
}

// The chaos victim: a host that runs only (stateless) split workers, so the
// spout's replay ledger and the dedup sink both survive the SIGKILL and the
// counts stay exact. Resolved from the scheduler's published physical
// topology rather than assuming placement order.
HostId SplitOnlyHost(ProcessCluster& pc, const WordCountParams& p) {
  auto& coord = pc.coordinator();
  const auto pb = coord.get(stream::PhysicalPath(p.topology));
  const auto sb = coord.get(stream::SpecPath(p.topology));
  if (!pb.ok() || !sb.ok()) return 0;
  stream::PhysicalTopology phys;
  stream::TopologySpec spec;
  if (!stream::DecodePhysical(pb.value(), phys) ||
      !stream::DecodeSpec(sb.value(), spec)) {
    return 0;
  }
  std::map<NodeId, std::string> names;
  for (const auto& n : spec.nodes) names[n.id] = n.name;
  for (const HostId h : pc.hosts()) {
    bool any = false;
    bool all_split = true;
    for (const auto& w : phys.workers) {
      if (w.host != h) continue;
      any = true;
      if (names[w.node] != "split") all_split = false;
    }
    if (any && all_split) return h;
  }
  return 0;
}

class ProcClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testutil::WaitForNoHostd(10s))
        << "stale typhoon_hostd before test: " << testutil::DescribeHostd();
  }
  void TearDown() override {
    EXPECT_TRUE(testutil::WaitForNoHostd(10s))
        << "orphaned typhoon_hostd after test: " << testutil::DescribeHostd();
  }
};

stream::SubmitOptions ReliableOptions(std::uint32_t pending_timeout_ms) {
  stream::SubmitOptions so;
  so.reliable = true;
  so.pending_timeout_ms = pending_timeout_ms;
  return so;
}

// The configure frame carries the transport, the shm prefix and the host
// list, and nothing else.
TEST(ProcProto, ConfigureRoundTrips) {
  ConfigureMsg in;
  in.transport = ProcTransport::kShmRing;
  in.shm_prefix = "/typhoon-42";
  in.hosts = {1, 2, 3};
  common::Bytes wire;
  common::BufWriter w(wire);
  WriteConfigure(w, in);

  ConfigureMsg out;
  common::BufReader r(wire);
  ASSERT_TRUE(ReadConfigure(r, out));
  EXPECT_EQ(out.transport, in.transport);
  EXPECT_EQ(out.shm_prefix, in.shm_prefix);
  EXPECT_EQ(out.hosts, in.hosts);
  EXPECT_EQ(r.remaining(), 0u);

  // A truncated frame is rejected, never half-read.
  const std::span<const std::uint8_t> truncated(wire.data(), wire.size() - 1);
  common::BufReader short_r(truncated);
  EXPECT_FALSE(ReadConfigure(short_r, out));
}

TEST_F(ProcClusterTest, SocketWordCountExactCounts) {
  ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  ProcessCluster pc(cfg);
  ASSERT_TRUE(pc.start().ok());

  WordCountParams p;
  p.topology = "wc_socket";
  p.sentences = 120;
  p.seed = 7;
  const auto id = pc.submit_wordcount(p, ReliableOptions(1500));
  ASSERT_TRUE(id.ok()) << id.status().message();

  ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p); }, 60s));
  const auto r = pc.results(p.topology);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().first, ExpectedUnique(p));
  EXPECT_EQ(r.value().second, ExpectedCounts(p));

  EXPECT_TRUE(pc.kill(p.topology).ok());
  pc.stop();
}

TEST_F(ProcClusterTest, ShmRingWordCountExactCounts) {
  ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.transport = ProcTransport::kShmRing;
  ProcessCluster pc(cfg);
  ASSERT_TRUE(pc.start().ok());

  WordCountParams p;
  p.topology = "wc_shm";
  p.sentences = 80;
  p.seed = 3;
  const auto id = pc.submit_wordcount(p, ReliableOptions(1500));
  ASSERT_TRUE(id.ok()) << id.status().message();

  ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p); }, 60s));
  pc.stop();
}

TEST_F(ProcClusterTest, SigkillSplitHostRecoversExactCounts) {
  ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.heartbeat_timeout = 600ms;
  cfg.manager_monitor_interval = 50ms;
  ProcessCluster pc(cfg);
  ASSERT_TRUE(pc.start().ok());

  WordCountParams p;
  p.topology = "wc_chaos";
  p.sentences = 400;
  p.seed = 11;
  p.spout_batch = 4;
  p.emit_delay_us = 10000;  // ~1s of stream time: the kill lands mid-flight
  const auto id = pc.submit_wordcount(p, ReliableOptions(800));
  ASSERT_TRUE(id.ok()) << id.status().message();

  // Let the pipeline make some progress first.
  ASSERT_TRUE(WaitFor(
      [&] {
        const auto r = pc.results(p.topology);
        return r.ok() && r.value().first > 0;
      },
      30s));

  const HostId victim = SplitOnlyHost(pc, p);
  ASSERT_NE(victim, 0u) << "no split-only host in placement";
  ASSERT_TRUE(pc.kill_host(victim).ok());
  EXPECT_FALSE(pc.host_alive(victim));
  {
    // The stream must still be in flight when the host dies, or this test
    // exercises nothing.
    const auto r = pc.results(p.topology);
    ASSERT_TRUE(!r.ok() || r.value().first < ExpectedUnique(p))
        << "stream completed before the SIGKILL landed";
  }

  // The manager reschedules the lost splits; replay + sink dedup converge
  // to the exact expectations.
  ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p); }, 120s));
  pc.stop();
}

TEST_F(ProcClusterTest, RestartHostRejoinsMeshAndServesNewTopology) {
  ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.heartbeat_timeout = 600ms;
  cfg.manager_monitor_interval = 50ms;
  ProcessCluster pc(cfg);
  ASSERT_TRUE(pc.start().ok());

  WordCountParams p1;
  p1.topology = "wc_pre";
  p1.sentences = 60;
  p1.seed = 5;
  ASSERT_TRUE(pc.submit_wordcount(p1, ReliableOptions(1500)).ok());
  ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p1); }, 60s));
  ASSERT_TRUE(pc.kill(p1.topology).ok());

  const HostId victim = pc.hosts().back();
  ASSERT_TRUE(pc.kill_host(victim).ok());
  EXPECT_FALSE(pc.host_alive(victim));
  ASSERT_TRUE(pc.restart_host(victim).ok());
  EXPECT_TRUE(pc.host_alive(victim));

  // A fresh topology schedules across all three hosts — the restarted one
  // must carry traffic over its re-established tunnels.
  WordCountParams p2;
  p2.topology = "wc_post";
  p2.sentences = 90;
  p2.seed = 13;
  ASSERT_TRUE(pc.submit_wordcount(p2, ReliableOptions(1500)).ok());
  ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p2); }, 60s));
  pc.stop();
}

// Bounded soak: repeated submit/converge/kill cycles with a host
// kill+restart every other round. Catches slow leaks (sessions, channels,
// tunnels) and bootstrap regressions that single-shot tests miss.
TEST_F(ProcClusterTest, SoakSubmitKillRestartCycles) {
  constexpr int kCycles = 3;
  ProcessClusterConfig cfg;
  cfg.num_hosts = 3;
  cfg.heartbeat_timeout = 600ms;
  cfg.manager_monitor_interval = 50ms;
  ProcessCluster pc(cfg);
  ASSERT_TRUE(pc.start().ok());

  auto stamp = [t0 = std::chrono::steady_clock::now()](const char* what,
                                                       int cycle) {
    std::fprintf(stderr, "[soak] %6lld ms  cycle %d  %s\n",
                 static_cast<long long>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count()),
                 cycle, what);
  };
  for (int i = 0; i < kCycles; ++i) {
    WordCountParams p;
    p.topology = "wc_soak" + std::to_string(i);
    p.sentences = 80;
    p.seed = 20 + static_cast<std::uint32_t>(i);
    ASSERT_TRUE(pc.submit_wordcount(p, ReliableOptions(1500)).ok())
        << "cycle " << i;
    stamp("submitted", i);
    ASSERT_TRUE(WaitFor([&] { return ResultsExact(pc, p); }, 60s))
        << "cycle " << i;
    stamp("converged", i);
    ASSERT_TRUE(pc.kill(p.topology).ok()) << "cycle " << i;
    stamp("killed topology", i);
    if (i % 2 == 0) {
      const HostId victim = pc.hosts().back();
      ASSERT_TRUE(pc.kill_host(victim).ok()) << "cycle " << i;
      stamp("killed host", i);
      ASSERT_TRUE(pc.restart_host(victim).ok()) << "cycle " << i;
      stamp("restarted host", i);
    }
  }
  pc.stop();
}

}  // namespace
}  // namespace typhoon::proc
