// Figure 8(a)/(b): tuple-forwarding throughput of a two-worker topology,
// LOCAL (same host) and REMOTE (two hosts), Storm baseline vs Typhoon with
// I/O batch sizes {100, 250, 500, 1000}; then the same with guaranteed
// processing (one acker) enabled.
//
// Expected shape (paper): Typhoon ~= Storm in both placements; batch size
// has minimal effect at max input speed; enabling the acker roughly halves
// throughput for both systems.
//
// `--smoke` instead runs the raw soft-switch fast-path benchmark (~2s):
// single-flow pps, multi-flow pps, broadcast fanout pps, and microflow-cache
// hit rate, written to BENCH_fastpath.json next to the binary alongside the
// pre-PR baseline for the ≥2x speedup check (DESIGN.md "Forwarding fast
// path").
//
// `--hotpath` runs the zero-copy hot-path benchmark (~5s): the fig 8(a)
// LOCAL single-flow cluster run against the pre-zero-copy baseline, plus a
// transport-level pump under a global operator-new hook that reports heap
// allocations per tuple on the steady-state emit -> switch -> receive ->
// decode path, and the same pump across two switches joined by an
// in-process tunnel, reporting heap allocations per tunnel frame. Results
// go to BENCH_hotpath.json.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "net/tunnel.h"
#include "stream/transport_typhoon.h"
#include "switchd/soft_switch.h"
#include "util/components.h"
#include "util/harness.h"

// ---- global operator-new hook (hot-path allocation accounting) ------------
// Replacement allocation functions need external linkage, so they live at
// global scope; the counter costs one relaxed atomic increment, noise for
// the table modes. Mirrors tests/test_zero_copy.cc.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace typhoon::bench {
namespace {

using stream::TopologyBuilder;
using testutil::CollectingSink;
using testutil::SequenceSpout;
using testutil::SinkState;

struct Config {
  TransportMode mode;
  std::uint32_t batch;
  bool remote;
  bool reliable;
};

// Switch poll burst for the --smoke mode, set from the --burst CLI flag.
std::size_t g_burst = 64;

double RunOnce(const Config& c) {
  ClusterConfig cfg;
  cfg.num_hosts = c.remote ? 2 : 1;
  cfg.mode = c.mode;
  Cluster cluster(cfg);
  cluster.start();

  auto state = std::make_shared<SinkState>();
  TopologyBuilder b("fwd");
  const NodeId src = b.add_spout(
      "src", [] { return std::make_unique<SequenceSpout>(0, 32); }, 1);
  const NodeId sink = b.add_bolt(
      "sink", [state] { return std::make_unique<CollectingSink>(state); },
      1);
  b.shuffle(src, sink);

  stream::SubmitOptions opts;
  opts.batch_size = c.batch;
  opts.reliable = c.reliable;
  auto r = cluster.submit(b.build().value(), opts);
  if (!r.ok()) {
    std::fprintf(stderr, "submit failed: %s\n", r.status().str().c_str());
    return 0;
  }
  const double rate = MeasureThroughput(cluster, "fwd", "sink",
                                        std::chrono::milliseconds(400),
                                        std::chrono::milliseconds(1200));
  // One representative config prints the cross-layer trace summary — proof
  // that the default 1/1024 sampling was live while the numbers above were
  // taken, without flooding the table.
  if (c.mode == TransportMode::kTyphoon && !c.remote && c.batch == 1000 &&
      !c.reliable) {
    PrintObservabilitySummary(cluster);
  }
  cluster.stop();
  return rate;
}

void RunTable(bool reliable) {
  std::printf("\n%-28s %14s %14s\n",
              reliable ? "Fig 8(b) with ACK (tuples/s)"
                       : "Fig 8(a) plain (tuples/s)",
              "LOCAL", "REMOTE");
  auto row = [&](const char* label, TransportMode mode, std::uint32_t batch) {
    const double local = RunOnce({mode, batch, false, reliable});
    const double remote = RunOnce({mode, batch, true, reliable});
    std::printf("%-28s %14.0f %14.0f\n", label, local, remote);
  };
  row("STORM", TransportMode::kStormTcp, 100);
  row("TYPHOON (100)", TransportMode::kTyphoon, 100);
  row("TYPHOON (250)", TransportMode::kTyphoon, 250);
  row("TYPHOON (500)", TransportMode::kTyphoon, 500);
  row("TYPHOON (1000)", TransportMode::kTyphoon, 1000);
}

// ---- fast-path smoke benchmark (--smoke) ----------------------------------

// Pre-PR single-flow throughput of this benchmark on the reference machine,
// measured at the seed commit before the microflow cache / snapshot rework.
constexpr double kBaselineSingleFlowPps = 4.69e6;

net::PacketPtr MakeProto(WorkerAddress src, WorkerAddress dst) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = common::Bytes(64, 0xab);
  return net::MakePacket(std::move(p));
}

openflow::FlowRule ExactRule(PortId in_port, WorkerAddress src,
                             WorkerAddress dst,
                             std::vector<openflow::FlowAction> actions) {
  openflow::FlowRule r;
  r.match.in_port = in_port;
  r.match.dl_src = src.packed();
  r.match.dl_dst = dst.packed();
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = openflow::SharedActions(std::move(actions));
  return r;
}

// Drives `protos` round-robin into `src` for `secs`, draining every handle
// in `sinks` on one collector thread. Returns delivered packets per second.
double DrivePps(const std::shared_ptr<switchd::PortHandle>& src,
                const std::vector<std::shared_ptr<switchd::PortHandle>>& sinks,
                const std::vector<net::PacketPtr>& protos, double secs) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> received{0};
  std::thread drainer([&] {
    std::vector<net::PacketPtr> burst;
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t n = 0;
      for (const auto& s : sinks) {
        burst.clear();
        n += s->recv_bulk(burst, 256);
      }
      received.fetch_add(n, std::memory_order_relaxed);
      if (n == 0) std::this_thread::yield();
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<std::int64_t>(secs * 1e6));
  std::size_t next = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      if (!src->send(protos[next])) {
        std::this_thread::yield();
        break;
      }
      next = (next + 1) % protos.size();
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  drainer.join();
  return static_cast<double>(received.load()) / elapsed;
}

int RunSmoke() {
  // One switch instance for all three scenarios; the cache hit rate at the
  // end covers the whole run.
  switchd::SoftSwitchConfig cfg;
  cfg.host = 1;
  cfg.poll_burst = g_burst;
  switchd::SoftSwitch sw(cfg);
  sw.start();

  auto src = sw.attach_port();
  const WorkerAddress producer{1, 1};

  // Scenario 1: one exact-match flow, one output port.
  auto d0 = sw.attach_port();
  sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                      ExactRule(src->id(), producer, WorkerAddress{1, 100},
                                {openflow::ActionOutput{d0->id()}})});
  const double single = DrivePps(
      src, {d0}, {MakeProto(producer, WorkerAddress{1, 100})}, 0.7);

  // Scenario 2: 16 distinct flows round-robin (exercises cache set
  // associativity and multi-entry hits).
  std::vector<std::shared_ptr<switchd::PortHandle>> multi_sinks;
  std::vector<net::PacketPtr> multi_protos;
  for (std::uint16_t i = 0; i < 16; ++i) {
    auto d = sw.attach_port();
    const WorkerAddress dst{1, static_cast<std::uint16_t>(200 + i)};
    sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                        ExactRule(src->id(), producer, dst,
                                  {openflow::ActionOutput{d->id()}})});
    multi_sinks.push_back(std::move(d));
    multi_protos.push_back(MakeProto(producer, dst));
  }
  const double multi = DrivePps(src, multi_sinks, multi_protos, 0.7);

  // Scenario 3: broadcast fanout — one flow replicating to 4 ports.
  std::vector<std::shared_ptr<switchd::PortHandle>> fan_sinks;
  std::vector<openflow::FlowAction> fan_actions;
  for (int i = 0; i < 4; ++i) {
    auto d = sw.attach_port();
    fan_actions.push_back(openflow::ActionOutput{d->id()});
    fan_sinks.push_back(std::move(d));
  }
  sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                      ExactRule(src->id(), producer, WorkerAddress{1, 300},
                                std::move(fan_actions))});
  const double fanout = DrivePps(
      src, fan_sinks, {MakeProto(producer, WorkerAddress{1, 300})}, 0.6);

  const std::uint64_t hits = sw.cache_hits();
  const std::uint64_t misses = sw.cache_misses();
  const double hit_rate =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  sw.stop();

  const double speedup = single / kBaselineSingleFlowPps;
  std::printf("\nSoft-switch fast-path smoke (~2s)\n");
  std::printf("  single-flow        %12.0f pps\n", single);
  std::printf("  multi-flow (16)    %12.0f pps\n", multi);
  std::printf("  broadcast fanout   %12.0f pps (4-way, delivered)\n", fanout);
  std::printf("  cache hit rate     %12.4f  (%llu hits / %llu misses)\n",
              hit_rate, static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  std::printf("  speedup vs pre-PR  %12.2fx (baseline %.0f pps)\n", speedup,
              kBaselineSingleFlowPps);

  std::FILE* f = std::fopen("BENCH_fastpath.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_fastpath.json");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"baseline_single_flow_pps\": %.0f,\n"
               "  \"single_flow_pps\": %.0f,\n"
               "  \"multi_flow_pps\": %.0f,\n"
               "  \"broadcast_fanout_pps\": %.0f,\n"
               "  \"cache_hit_rate\": %.4f,\n"
               "  \"speedup_single_flow\": %.2f\n"
               "}\n",
               kBaselineSingleFlowPps, single, multi, fanout, hit_rate,
               speedup);
  std::fclose(f);
  std::printf("  wrote BENCH_fastpath.json\n");
  return 0;
}

// ---- zero-copy hot-path benchmark (--hotpath) -----------------------------

// Fig 8(a) LOCAL single-flow throughput before the zero-copy data plane
// (view-backed depacketization, inline tuple values, pooled frames):
// recorded 1.17M–1.65M tuples/s across runs on the reference machine;
// midpoint used as the speedup denominator.
constexpr double kBaselinePr3LocalTuplesPerSec = 1.41e6;

// Most tuples MeasurePump lets be in flight before it waits for them.
constexpr std::uint64_t kPumpWindowTuples = 4096;

// Pumps tuples from `t1` to `t2` (256 sends, one flush, then drain, in a
// loop) for a 0.4 s warm-up and a 1.0 s measured phase, counting heap
// allocations over the measured phase. Everything per-iteration is
// hoisted, so the counted allocations are the data plane's own: pool
// checkouts, staging churn, tunnel framing, decode. With a `tunnel`, also
// counts the frames it sent over the measured phase.
struct PumpResult {
  double tuples_per_sec = 0.0;
  double allocs_per_tuple = 0.0;
  double allocs_per_frame = 0.0;  // with a tunnel only
};

PumpResult MeasurePump(stream::TyphoonTransport& t1,
                       stream::TyphoonTransport& t2, WorkerId dest,
                       const net::TunnelEndpoint* tunnel = nullptr) {
  const stream::Tuple payload{std::int64_t{42}, std::string(48, 'x'),
                              std::int64_t{7}};
  const std::vector<WorkerId> dests{dest};
  std::vector<stream::ReceivedItem> got;
  got.reserve(128);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  const auto pump_for = [&](double secs) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto deadline =
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(secs * 1e6));
    while (std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 256; ++i) {
        t1.send(payload, stream::kDefaultStream, sent, 1, dests, false);
        ++sent;
      }
      t1.flush();
      // Drain what has arrived, and keep draining while more than a
      // window of tuples is in flight. The window (~40 packets, well under
      // the frame pools' 256-packet free lists) keeps the pools' high-water
      // mark a property of the pump rather than of how the scheduler
      // happened to share the cores, so a pool miss means a real leak.
      for (;;) {
        got.clear();
        if (t2.poll(got, 64) == 0) {
          if (sent - received <= kPumpWindowTuples) break;
          std::this_thread::yield();
          continue;
        }
        received += got.size();
      }
    }
    // Drain the tail so `received` matches `sent` before the next phase.
    while (received < sent) {
      got.clear();
      if (t2.poll(got, 64) == 0) {
        std::this_thread::yield();
        continue;
      }
      received += got.size();
    }
  };

  pump_for(0.4);  // warm-up: pool, high-water reservations, microflow cache
  const std::uint64_t sent_before = sent;
  const std::uint64_t frames_before =
      tunnel != nullptr ? tunnel->frames_sent() : 0;
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto m0 = std::chrono::steady_clock::now();
  pump_for(1.0);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
          .count();
  const std::uint64_t measured = sent - sent_before;
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  const std::uint64_t frames =
      tunnel != nullptr ? tunnel->frames_sent() - frames_before : 0;
  std::printf("  %llu allocs / %llu tuples",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(measured));
  if (tunnel != nullptr) {
    std::printf(" / %llu tunnel frames",
                static_cast<unsigned long long>(frames));
  }
  std::printf("\n");
  PumpResult r;
  r.tuples_per_sec = static_cast<double>(measured) / elapsed;
  r.allocs_per_tuple =
      static_cast<double>(allocs) / static_cast<double>(measured);
  if (frames != 0) {
    r.allocs_per_frame =
        static_cast<double>(allocs) / static_cast<double>(frames);
  }
  return r;
}

int RunHotpath() {
  // Stage 1: the same measurement the fig 8(a) table takes — full cluster,
  // LOCAL placement, batch 1000 — so the speedup is apples-to-apples
  // against the PR 3 recorded range.
  std::printf("\nStage 1: fig 8(a) LOCAL single-flow cluster run\n");
  const double cluster_pps =
      RunOnce({TransportMode::kTyphoon, 1000, false, false});
  const double speedup = cluster_pps / kBaselinePr3LocalTuplesPerSec;

  // Stage 2: transport-level pump through one switch with the
  // operator-new hook.
  std::printf("\nStage 2: transport hot path under allocation accounting\n");
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();
  auto port1 = sw.attach_port(101);
  auto port2 = sw.attach_port(102);
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = 100;
  const WorkerAddress a1{1, 1};
  const WorkerAddress a2{1, 2};
  stream::TyphoonTransport t1(a1, port1, pcfg);
  stream::TyphoonTransport t2(a2, port2, pcfg);
  sw.handle_flow_mod({openflow::FlowModCommand::kAdd,
                      ExactRule(101, a1, a2,
                                {openflow::ActionOutput{PortId{102}}})});
  const PumpResult local = MeasurePump(t1, t2, a2.worker);
  const double transport_pps = local.tuples_per_sec;
  const double allocs_per_tuple = local.allocs_per_tuple;

  const stream::TransportIoStats tx = t1.io_stats();
  const stream::TransportIoStats rx = t2.io_stats();
  const double pool_total =
      static_cast<double>(tx.pool_hits + tx.pool_misses);
  const double pool_hit_rate =
      pool_total == 0 ? 0.0 : static_cast<double>(tx.pool_hits) / pool_total;
  sw.stop();

  // Stage 3: the same pump across two switches joined by an in-process
  // tunnel (the fig 8(a) REMOTE data path): tunnel TX and RX join the
  // accounted path, reported per tunnel frame.
  std::printf("\nStage 3: cross-host hot path under allocation accounting\n");
  switchd::SoftSwitchConfig rcfg1;
  rcfg1.host = 1;
  switchd::SoftSwitchConfig rcfg2;
  rcfg2.host = 2;
  switchd::SoftSwitch rsw1(rcfg1);
  switchd::SoftSwitch rsw2(rcfg2);
  auto [e1, e2] = net::CreateTunnel();
  rsw1.add_tunnel(2, e1);
  rsw2.add_tunnel(1, e2);
  rsw1.start();
  rsw2.start();
  stream::TyphoonTransport rt1(a1, rsw1.attach_port(101), pcfg);
  stream::TyphoonTransport rt2(a2, rsw2.attach_port(102), pcfg);
  rsw1.handle_flow_mod(
      {openflow::FlowModCommand::kAdd,
       ExactRule(101, a1, a2,
                 {openflow::ActionSetTunDst{2},
                  openflow::ActionOutput{switchd::SoftSwitch::kTunnelPort}})});
  rsw2.handle_flow_mod(
      {openflow::FlowModCommand::kAdd,
       ExactRule(switchd::SoftSwitch::kTunnelPort, a1, a2,
                 {openflow::ActionOutput{PortId{102}}})});
  const PumpResult remote = MeasurePump(rt1, rt2, a2.worker, e1.get());
  rsw1.stop();
  rsw2.stop();

  std::printf("\nZero-copy hot path (~5s)\n");
  std::printf("  fig8a LOCAL cluster  %12.0f tuples/s\n", cluster_pps);
  std::printf("  speedup vs PR 3      %12.2fx (baseline %.0f tuples/s)\n",
              speedup, kBaselinePr3LocalTuplesPerSec);
  std::printf("  transport hot path   %12.0f tuples/s\n", transport_pps);
  std::printf("  heap allocs/tuple    %12.4f\n", allocs_per_tuple);
  std::printf("  remote hot path      %12.0f tuples/s\n",
              remote.tuples_per_sec);
  std::printf("  remote allocs/frame  %12.4f\n", remote.allocs_per_frame);
  std::printf("  frame pool hit rate  %12.4f\n", pool_hit_rate);
  std::printf("  rx bytes copied      %12llu\n",
              static_cast<unsigned long long>(rx.bytes_copied_rx));

  std::FILE* f = std::fopen("BENCH_hotpath.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_hotpath.json");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"baseline_pr3_local_tuples_per_sec\": %.0f,\n"
               "  \"local_cluster_tuples_per_sec\": %.0f,\n"
               "  \"speedup_vs_pr3\": %.2f,\n"
               "  \"transport_tuples_per_sec\": %.0f,\n"
               "  \"allocs_per_tuple\": %.4f,\n"
               "  \"pool_hit_rate\": %.4f,\n"
               "  \"rx_bytes_copied\": %llu,\n"
               "  \"remote_tuples_per_sec\": %.0f,\n"
               "  \"remote_allocs_per_frame\": %.4f\n"
               "}\n",
               kBaselinePr3LocalTuplesPerSec, cluster_pps, speedup,
               transport_pps, allocs_per_tuple, pool_hit_rate,
               static_cast<unsigned long long>(rx.bytes_copied_rx),
               remote.tuples_per_sec, remote.allocs_per_frame);
  std::fclose(f);
  std::printf("  wrote BENCH_hotpath.json\n");
  return 0;
}

}  // namespace
}  // namespace typhoon::bench

int main(int argc, char** argv) {
  using namespace typhoon::bench;
  // Datapath knob for --smoke.
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--burst") == 0) {
      g_burst = static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
      if (g_burst == 0) g_burst = 64;
    }
  }
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    PrintBanner("Soft-switch fast-path smoke benchmark",
                "microflow cache + lock-free table snapshots");
    return RunSmoke();
  }
  if (argc > 1 && std::strcmp(argv[1], "--hotpath") == 0) {
    PrintBanner("Zero-copy hot-path benchmark",
                "view-backed depacketization + inline values + pooled frames");
    return RunHotpath();
  }
  PrintBanner("Tuple forwarding throughput, 2-worker topology",
              "Typhoon (CoNEXT'17) Figure 8(a) and 8(b)");
  RunTable(/*reliable=*/false);
  RunTable(/*reliable=*/true);
  std::printf(
      "\nshape check: TYPHOON ~ STORM per placement; ACK roughly halves "
      "both.\n");
  return 0;
}
