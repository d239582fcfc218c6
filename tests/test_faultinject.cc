// Deterministic fault-injection layer: impairment schedule determinism and
// rates, shaper holdback semantics, FaultPlan parsing, tunnel/switch-port
// attachment points, worker process injectors, and the no-loss property
// test — a reliable topology under 5% drop + 5% reorder with a mid-run
// scale-up still delivers every sequence exactly (at-least) once.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "faultinject/fault_plan.h"
#include "faultinject/impairment.h"
#include "net/socket_tunnel.h"
#include "net/tunnel.h"
#include "stream/topology.h"
#include "switchd/soft_switch.h"
#include "typhoon/cluster.h"
#include "util/components.h"
#include "util/tunnel_io.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using faultinject::FaultKind;
using faultinject::FaultPlan;
using faultinject::Impairment;
using faultinject::ImpairmentConfig;
using testutil::CollectingSink;
using testutil::ForwardBolt;
using testutil::RecvFor;
using testutil::ReplayableSpout;
using testutil::SinkState;
using testutil::TryRecv;

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(5);
  }
  return pred();
}

bool SameDecision(const Impairment::Decision& a,
                  const Impairment::Decision& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.corrupt == b.corrupt && a.hold == b.hold &&
         a.release_after == b.release_after &&
         a.corrupt_offset == b.corrupt_offset &&
         a.corrupt_mask == b.corrupt_mask;
}

// ---------------------------------------------------------------- Impairment

TEST(Impairment, SameSeedYieldsIdenticalSchedule) {
  ImpairmentConfig cfg;
  cfg.drop = 0.1;
  cfg.duplicate = 0.05;
  cfg.reorder = 0.08;
  cfg.corrupt = 0.03;
  cfg.seed = 1234;

  Impairment a(cfg);
  Impairment b(cfg);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(SameDecision(a.next(), b.next())) << "diverged at frame " << i;
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.reorders(), b.reorders());

  // A different seed produces a different decision stream.
  cfg.seed = 1235;
  Impairment c(cfg);
  for (int i = 0; i < 5000; ++i) c.next();
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(Impairment, FixedDrawCountKeepsSchedulesIndependent) {
  // Raising the drop probability must not shift the corrupt schedule: each
  // frame consumes a fixed number of PRNG draws.
  ImpairmentConfig only_corrupt;
  only_corrupt.corrupt = 0.2;
  only_corrupt.seed = 99;
  ImpairmentConfig with_drop = only_corrupt;
  with_drop.drop = 0.4;

  Impairment a(only_corrupt);
  Impairment b(with_drop);
  for (int i = 0; i < 4000; ++i) {
    const auto da = a.next();
    const auto db = b.next();
    if (!db.drop) {
      EXPECT_EQ(da.corrupt, db.corrupt) << "corrupt schedule moved at " << i;
    }
  }
}

TEST(Impairment, RatesApproximateConfiguredProbabilities) {
  ImpairmentConfig cfg;
  cfg.drop = 0.2;
  cfg.duplicate = 0.1;
  cfg.seed = 7;
  Impairment imp(cfg);
  constexpr int kFrames = 20000;
  for (int i = 0; i < kFrames; ++i) imp.next();
  EXPECT_NEAR(static_cast<double>(imp.drops()) / kFrames, 0.2, 0.03);
  EXPECT_NEAR(static_cast<double>(imp.duplicates()) / kFrames,
              0.1 * 0.8 /* only non-dropped frames can duplicate */, 0.03);
}

TEST(Shaper, DelayHoldsFramesBehindSuccessors) {
  ImpairmentConfig cfg;
  cfg.delay_frames = 2;
  faultinject::Shaper<int> shaper(cfg);
  auto nop = [](int&, std::uint32_t, std::uint8_t) {};

  std::vector<int> out;
  shaper.admit(0, out, nop);
  shaper.admit(1, out, nop);
  EXPECT_TRUE(out.empty());  // both still held
  EXPECT_EQ(shaper.held(), 2u);
  shaper.admit(2, out, nop);
  ASSERT_EQ(out.size(), 1u);  // frame 0 released after 2 successors
  EXPECT_EQ(out[0], 0);

  out.clear();
  shaper.flush(out);  // teardown releases the rest in order
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(Shaper, ConservesFramesUnderReorder) {
  ImpairmentConfig cfg;
  cfg.reorder = 0.3;
  cfg.reorder_span = 2;
  cfg.seed = 21;
  faultinject::Shaper<int> shaper(cfg);
  auto nop = [](int&, std::uint32_t, std::uint8_t) {};

  constexpr int kFrames = 2000;
  std::vector<int> out;
  for (int i = 0; i < kFrames; ++i) shaper.admit(i, out, nop);
  shaper.flush(out);

  ASSERT_EQ(out.size(), static_cast<std::size_t>(kFrames));
  std::vector<int> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_FALSE(std::is_sorted(out.begin(), out.end()));  // reorders happened
  EXPECT_GT(shaper.impairment().reorders(), 0u);
}

// ----------------------------------------------------------------- FaultPlan

TEST(FaultPlanParse, ParsesEveryKindAndField) {
  auto plan = FaultPlan::Parse(
      "# fig10-style schedule\n"
      "at_ms=1500 fault=crash worker=wc/split/0 repeat_ms=200\n"
      "at_tuples=2e4 fault=impair_tunnel hosts=1-2 drop=0.10 reorder=0.05 "
      "seed=7\n"
      "at_ms=3000 fault=partition host=2 duration_ms=200\n"
      "at_ms=4000 fault=heal host=2\n"
      "at_ms=5000 fault=hang worker=wc/count/1 duration_ms=500\n"
      "at_ms=6000 fault=slow worker=wc/count/0 slow_us=50\n"
      "\n"
      "at_ms=7000 fault=impair_port host=1 port=3 corrupt=0.2\n"
      "at_ms=8000 fault=fail_host host=3\n");
  ASSERT_TRUE(plan.ok()) << plan.status().str();
  const auto& ev = plan.value().events;
  ASSERT_EQ(ev.size(), 8u);

  EXPECT_EQ(ev[0].kind, FaultKind::kCrashWorker);
  EXPECT_EQ(ev[0].at_ms, 1500);
  EXPECT_EQ(ev[0].topology, "wc");
  EXPECT_EQ(ev[0].node, "split");
  EXPECT_EQ(ev[0].task_index, 0);
  EXPECT_EQ(ev[0].repeat_ms, 200);

  EXPECT_EQ(ev[1].kind, FaultKind::kImpairTunnel);
  EXPECT_EQ(ev[1].at_tuples, 20000);
  EXPECT_EQ(ev[1].host_a, 1u);
  EXPECT_EQ(ev[1].host_b, 2u);
  EXPECT_DOUBLE_EQ(ev[1].impair.drop, 0.10);
  EXPECT_DOUBLE_EQ(ev[1].impair.reorder, 0.05);
  EXPECT_EQ(ev[1].impair.seed, 7u);

  EXPECT_EQ(ev[2].kind, FaultKind::kPartitionController);
  EXPECT_EQ(ev[2].host_a, 2u);
  EXPECT_EQ(ev[2].duration_ms, 200);
  EXPECT_EQ(ev[3].kind, FaultKind::kHealController);
  EXPECT_EQ(ev[4].kind, FaultKind::kHangWorker);
  EXPECT_EQ(ev[4].duration_ms, 500);
  EXPECT_EQ(ev[5].kind, FaultKind::kSlowWorker);
  EXPECT_EQ(ev[5].slow_us, 50);
  EXPECT_EQ(ev[6].kind, FaultKind::kImpairPort);
  EXPECT_EQ(ev[6].port, 3u);
  EXPECT_DOUBLE_EQ(ev[6].impair.corrupt, 0.2);
  EXPECT_EQ(ev[7].kind, FaultKind::kFailHost);
  EXPECT_EQ(ev[7].host_a, 3u);
}

TEST(FaultPlanParse, RejectsMalformedInput) {
  // Unknown key fails the whole parse — a silently ignored fault would void
  // a chaos test.
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=crash worker=a/b/0 bogus=1")
                   .ok());
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=controller_crash shard=0").ok());
  // Missing trigger.
  EXPECT_FALSE(FaultPlan::Parse("fault=crash worker=a/b/0").ok());
  // Missing target.
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=crash").ok());
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=impair_tunnel drop=0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=partition").ok());
  // Malformed worker / host pair.
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=crash worker=only_topo").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("at_ms=1 fault=impair_tunnel hosts=1-1 drop=0.1").ok());
  // Bare token without '='.
  EXPECT_FALSE(FaultPlan::Parse("at_ms=1 fault=crash worker=a/b/0 crash")
                   .ok());
}

// -------------------------------------------------------------------- Tunnel

net::Packet SeqPacket(std::int64_t seq) {
  net::Packet p;
  p.src = WorkerAddress{1, 1};
  p.dst = WorkerAddress{2, 2};
  p.payload = {static_cast<std::uint8_t>(seq & 0xff),
               static_cast<std::uint8_t>((seq >> 8) & 0xff)};
  return p;
}

std::vector<int> RunImpairedTransfer(std::uint64_t seed, int frames,
                                     std::uint64_t* fingerprint_out) {
  auto [a, b] = net::CreateTunnel(16384);
  ImpairmentConfig cfg;
  cfg.drop = 0.3;
  cfg.reorder = 0.1;
  cfg.seed = seed;
  Impairment* imp = a->set_impairment(cfg);
  for (int i = 0; i < frames; ++i) a->send(net::MakePacket(SeqPacket(i)));
  // Fingerprint is read before clear_impairment(): the Impairment lives
  // inside the shaper, which clear destroys. Flushing the holdback makes
  // no further decisions, so the fingerprint is already final here.
  if (fingerprint_out != nullptr) *fingerprint_out = imp->fingerprint();
  a->clear_impairment();  // flush holdback

  std::vector<int> received;
  while (auto p = TryRecv(*b)) {
    received.push_back(p->payload[0] | (p->payload[1] << 8));
  }
  return received;
}

TEST(TunnelImpairment, ReplayIsBitIdentical) {
  std::uint64_t fp1 = 0;
  std::uint64_t fp2 = 0;
  const std::vector<int> run1 = RunImpairedTransfer(42, 2000, &fp1);
  const std::vector<int> run2 = RunImpairedTransfer(42, 2000, &fp2);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(run1, run2);  // same drops, same delivery order
  EXPECT_LT(run1.size(), 2000u);  // drops actually happened
  EXPECT_GT(run1.size(), 1000u);

  std::uint64_t fp3 = 0;
  const std::vector<int> run3 = RunImpairedTransfer(43, 2000, &fp3);
  EXPECT_NE(fp1, fp3);
  EXPECT_NE(run1, run3);
}

TEST(TunnelImpairment, CorruptionIsDetectedByChecksum) {
  auto [a, b] = net::CreateTunnel();
  ImpairmentConfig cfg;
  cfg.corrupt = 1.0;
  Impairment* imp = a->set_impairment(cfg);

  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) a->send(net::MakePacket(SeqPacket(i)));
  int delivered = 0;
  while (TryRecv(*b)) ++delivered;

  // Every frame had one byte flipped; the checksum turns each into a
  // counted drop instead of a garbage packet.
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b->rx_corrupt_drops(), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(imp->corruptions(), static_cast<std::uint64_t>(kFrames));

  a->clear_impairment();
  a->send(net::MakePacket(SeqPacket(0)));
  EXPECT_TRUE(TryRecv(*b).has_value());  // clean link works again
}

// Frames the shaper holds back already count in frames_sent(), so clearing
// the impairment must not lose them silently when the ring is full: the
// flush waits for room and every frame is delivered or counted.
TEST(TunnelImpairment, ClearImpairmentOnFullRingLosesNothingSilently) {
  auto [a, b] = net::CreateTunnel(4);
  ImpairmentConfig cfg;
  cfg.delay_frames = 4;
  a->set_impairment(cfg);
  // Each send releases the frame sent four before it: frames 0-3 fill the
  // ring, frames 4-7 stay held.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->send(net::MakePacket(SeqPacket(i))));
  }
  ASSERT_EQ(a->frames_sent(), 8u);
  ASSERT_EQ(b->rx_queue_depth(), 4u);

  std::thread clearer([&] { a->clear_impairment(); });
  std::vector<int> received;
  EXPECT_TRUE(WaitFor(
      [&] {
        while (auto p = TryRecv(*b)) {
          received.push_back(p->payload[0] | (p->payload[1] << 8));
        }
        return received.size() + a->peer_drops() >= a->frames_sent();
      },
      5s));
  clearer.join();
  while (auto p = TryRecv(*b)) {
    received.push_back(p->payload[0] | (p->payload[1] << 8));
  }

  EXPECT_EQ(received.size() + a->peer_drops(), a->frames_sent());
  EXPECT_EQ(a->frames_sent(), 8u);
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// close() does not wait for ring room: frames still held back are counted
// as dropped.
TEST(TunnelImpairment, CloseCountsHeldFramesAsDropped) {
  auto [a, b] = net::CreateTunnel(4);
  ImpairmentConfig cfg;
  cfg.delay_frames = 4;
  a->set_impairment(cfg);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->send(net::MakePacket(SeqPacket(i))));
  }
  a->close();
  EXPECT_EQ(a->peer_drops(), 4u);
  int delivered = 0;
  while (TryRecv(*b)) ++delivered;
  EXPECT_EQ(delivered + a->peer_drops(), a->frames_sent());
}

// The impairment stage lives in the TunnelEndpoint base, so the real-socket
// transport inherits it unchanged: the same seed over the same send
// sequence must make the same decisions (identical FNV fingerprints) and
// deliver the same frames as the in-memory transport — and replaying the
// socket run must be bit-identical.
std::vector<int> RunImpairedSocketTransfer(std::uint64_t seed, int frames,
                                           std::uint64_t* fingerprint_out) {
  net::SocketTunnelListener listener(2);
  EXPECT_TRUE(listener.bind(0));
  auto passive = listener.expect_peer(1);
  listener.start();
  auto active =
      net::SocketTunnel::Connect("127.0.0.1", listener.port(), 1, 2);

  ImpairmentConfig cfg;
  cfg.drop = 0.3;
  cfg.reorder = 0.1;
  cfg.seed = seed;
  Impairment* imp = active->set_impairment(cfg);
  for (int i = 0; i < frames; ++i) active->send(net::MakePacket(SeqPacket(i)));
  if (fingerprint_out != nullptr) *fingerprint_out = imp->fingerprint();
  active->clear_impairment();  // flush holdback

  // Surviving frames cross a real TCP connection; drain until quiescent.
  std::vector<int> received;
  for (;;) {
    auto p = RecvFor(*passive, 200ms);
    if (!p.has_value()) break;
    received.push_back(p->payload[0] | (p->payload[1] << 8));
  }
  active->close();
  passive->close();
  listener.stop();
  return received;
}

TEST(TunnelImpairment, SocketTransportSharesDecisionFingerprints) {
  std::uint64_t fp_mem = 0;
  std::uint64_t fp_sock1 = 0;
  std::uint64_t fp_sock2 = 0;
  const std::vector<int> mem = RunImpairedTransfer(42, 2000, &fp_mem);
  const std::vector<int> sock1 = RunImpairedSocketTransfer(42, 2000, &fp_sock1);
  const std::vector<int> sock2 = RunImpairedSocketTransfer(42, 2000, &fp_sock2);

  // Same seed, same send sequence: the decision stream is transport
  // independent, and the delivered frames are identical.
  EXPECT_EQ(fp_mem, fp_sock1);
  EXPECT_EQ(mem, sock1);

  // Replay over the socket transport is bit-identical.
  EXPECT_EQ(fp_sock1, fp_sock2);
  EXPECT_EQ(sock1, sock2);

  EXPECT_LT(sock1.size(), 2000u);  // drops actually happened
  EXPECT_GT(sock1.size(), 1000u);
}

// --------------------------------------------------------------- SoftSwitch

TEST(SwitchImpairment, IngressDropBlocksForwardingUntilCleared) {
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();
  auto p1 = sw.attach_port();
  auto p2 = sw.attach_port();

  openflow::FlowRule r;
  r.match.in_port = p1->id();
  r.match.dl_src = WorkerAddress{1, 1}.packed();
  r.match.dl_dst = WorkerAddress{1, 2}.packed();
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {openflow::ActionOutput{p2->id()}};
  sw.handle_flow_mod({openflow::FlowModCommand::kAdd, r});

  auto mk = [] {
    net::Packet p;
    p.src = WorkerAddress{1, 1};
    p.dst = WorkerAddress{1, 2};
    p.payload = {1, 2, 3};
    return net::MakePacket(std::move(p));
  };

  ImpairmentConfig cfg;
  cfg.drop = 1.0;
  Impairment* imp = sw.set_port_ingress_impairment(p1->id(), cfg);
  ASSERT_NE(imp, nullptr);

  for (int i = 0; i < 50; ++i) ASSERT_TRUE(p1->send(mk()));
  ASSERT_TRUE(WaitFor([&] { return imp->drops() >= 50; }, 2s));
  EXPECT_EQ(imp->seen(), 50u);
  EXPECT_FALSE(p2->recv().has_value());

  sw.clear_port_impairments(p1->id());
  ASSERT_TRUE(p1->send(mk()));
  ASSERT_TRUE(WaitFor([&] { return p2->recv().has_value(); }, 2s));
  sw.stop();
}

// ------------------------------------------------------- process injectors

stream::LogicalTopology PipelineTopo(std::shared_ptr<SinkState> state,
                                     std::int64_t limit, int mid_par,
                                     double rate) {
  stream::TopologyBuilder b("fi");
  const NodeId src = b.add_spout(
      "src",
      [limit, rate] {
        return std::make_unique<testutil::SequenceSpout>(limit, 8, 0, rate);
      },
      1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, mid_par);
  const NodeId sink = b.add_bolt(
      "sink",
      [state] { return std::make_unique<CollectingSink>(state, true); }, 1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);
  return b.build().value();
}

TEST(WorkerInjectors, CrashKillsWorkerAndAgentRestartsIt) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(PipelineTopo(state, 0, 1, 20000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 10s));

  ASSERT_TRUE(cluster.probe_worker("fi", "mid", 0,
                                   [](stream::Worker& w) { w.inject_crash(); }));
  // Supervisor restarts the crashed worker locally; traffic resumes.
  ASSERT_TRUE(WaitFor([&] { return cluster.agent_restarts() >= 1; }, 10s));
  const std::int64_t mark = state->received.load();
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > mark + 500; },
                      10s));
  cluster.stop();
}

TEST(WorkerInjectors, HangPausesThenResumes) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  cfg.enable_failure_detector = false;  // the hang must not be "cured"
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(PipelineTopo(state, 0, 1, 20000.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 10s));

  ASSERT_TRUE(cluster.probe_worker(
      "fi", "mid", 0, [](stream::Worker& w) { w.inject_hang(400ms); }));
  common::SleepMillis(150);  // hang has started, residual in-flight drained
  const std::int64_t frozen = state->received.load();
  common::SleepMillis(150);
  EXPECT_LT(state->received.load(), frozen + 300);  // pipeline stalled
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > frozen + 1000; },
                      10s));  // resumed
  cluster.stop();
}

TEST(WorkerInjectors, SlowdownThrottlesThroughput) {
  ClusterConfig cfg;
  cfg.num_hosts = 1;
  Cluster cluster(cfg);
  cluster.start();
  auto state = std::make_shared<SinkState>();
  ASSERT_TRUE(cluster.submit(PipelineTopo(state, 0, 1, 0.0)).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 2000; }, 10s));

  // ~1ms per tuple caps the mid stage near 1k tuples/s.
  ASSERT_TRUE(cluster.probe_worker(
      "fi", "mid", 0, [](stream::Worker& w) { w.inject_slowdown(1000us); }));
  common::SleepMillis(200);  // let in-flight batches clear
  const std::int64_t t0 = state->received.load();
  common::SleepMillis(500);
  const std::int64_t slow_rate = (state->received.load() - t0) * 2;
  EXPECT_LT(slow_rate, 4000);  // far below unthrottled throughput

  ASSERT_TRUE(cluster.probe_worker(
      "fi", "mid", 0, [](stream::Worker& w) { w.inject_slowdown(0us); }));
  const std::int64_t t1 = state->received.load();
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > t1 + 5000; },
                      10s));
  cluster.stop();
}

// --------------------------------------------------- no-loss property test

TEST(Property, StableUpdateUnderLossAndReorderLosesNothing) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  // 5% loss + 5% reorder on both directions of the only inter-host link.
  ImpairmentConfig icfg;
  icfg.drop = 0.05;
  icfg.reorder = 0.05;
  icfg.seed = 2026;
  auto [fwd, rev] = cluster.impair_tunnel(1, 2, icfg);
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(rev, nullptr);

  auto state = std::make_shared<SinkState>();
  constexpr std::int64_t kLimit = 4000;
  stream::TopologyBuilder b("prop");
  const NodeId src = b.add_spout(
      "src",
      [kLimit] {
        return std::make_unique<ReplayableSpout>(kLimit, 8, 20000.0);
      },
      1);
  const NodeId mid = b.add_bolt(
      "mid", [] { return std::make_unique<ForwardBolt>(); }, 2);
  const NodeId sink = b.add_bolt(
      "sink",
      [state] { return std::make_unique<CollectingSink>(state, true); }, 1);
  b.shuffle(src, mid);
  b.shuffle(mid, sink);

  stream::SubmitOptions sopts;
  sopts.reliable = true;           // anchor + ack + replay on failure
  sopts.pending_timeout_ms = 800;  // fast replay of tuples lost to the wire
  ASSERT_TRUE(cluster.submit(b.build().value(), sopts).ok());
  ASSERT_TRUE(WaitFor([&] { return state->received.load() > 500; }, 20s));

  // Stable update mid-run: scale the mid stage up while the wire is lossy.
  // The ROUTING/launch control traffic rides the hardened reliable channel.
  stream::ReconfigRequest req;
  req.kind = stream::ReconfigRequest::Kind::kScaleUp;
  req.topology = "prop";
  req.node = "mid";
  req.count = 1;
  auto st = cluster.reconfigure(req);
  ASSERT_TRUE(st.ok()) << st.str();
  EXPECT_EQ(cluster.workers_of_node("prop", "mid").size(), 3u);

  // Every sequence number arrives despite the impaired wire: drops fail the
  // ack tree and the spout replays. Delivery is at-least-once — duplicates
  // are possible (ack loss), loss is not.
  ASSERT_TRUE(WaitFor(
      [&] {
        std::lock_guard lk(state->mu);
        return state->seen.size() >= static_cast<std::size_t>(kLimit);
      },
      90s))
      << "delivered only " << state->seen.size() << "/" << kLimit;
  {
    std::lock_guard lk(state->mu);
    EXPECT_EQ(state->seen.size(), static_cast<std::size_t>(kLimit));
    EXPECT_EQ(*state->seen.rbegin(), kLimit - 1);
  }

  // The wire was genuinely hostile while we did it.
  EXPECT_GT(fwd->seen(), 0u);
  EXPECT_GT(fwd->drops() + rev->drops(), 0u);
  EXPECT_GT(fwd->reorders() + rev->reorders(), 0u);
  cluster.stop();
}

}  // namespace
}  // namespace typhoon
