// Layer pump for traced runs, after fig08 --hotpath stage 2: drives the
// workload's tuple shape through TyphoonTransport -> SoftSwitch ->
// TyphoonTransport on one thread, then raw frames of the resulting packet
// size through an in-memory TunnelEndpoint pair, and times each call.
#include <span>
#include <thread>

#include "net/packet.h"
#include "net/tunnel.h"
#include "openflow/flow.h"
#include "stream/transport_typhoon.h"
#include "switchd/soft_switch.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace typhoon;

constexpr int kBatch = 256;

std::uint64_t PortRx(const switchd::SoftSwitch& sw, PortId port,
                     std::uint64_t* bytes) {
  for (const auto& p : sw.port_stats()) {
    if (p.port == port) {
      *bytes = p.rx_bytes;
      return p.rx_packets;
    }
  }
  *bytes = 0;
  return 0;
}

}  // namespace

PumpCosts RunLayerPump(const std::function<stream::Tuple(std::uint64_t)>& shape,
                       double seconds) {
  PumpCosts out;
  Tracer::Buffer* spans = GlobalTracer().buffer("pump");

  // ---- transport + switch ----
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
  stream::TyphoonTransport tx(a1, port1, pcfg);
  stream::TyphoonTransport rx(a2, port2, pcfg);
  openflow::FlowRule rule;
  rule.match.in_port = 101;
  rule.match.dl_src = a1.packed();
  rule.match.dl_dst = a2.packed();
  rule.match.ether_type = net::kTyphoonEtherType;
  rule.actions =
      openflow::SharedActions({openflow::ActionOutput{PortId{102}}});
  sw.handle_flow_mod({openflow::FlowModCommand::kAdd, rule});

  std::vector<stream::Tuple> tuples;
  for (int i = 0; i < kBatch; ++i) tuples.push_back(shape(i));
  const std::vector<WorkerId> dests{2};
  std::vector<stream::ReceivedItem> got;
  got.reserve(64);

  std::int64_t send_ns = 0, poll_ns = 0, wait_ns = 0, n_tuples = 0;
  std::uint64_t batch = 0;
  std::uint64_t bytes0 = 0;
  std::uint64_t pkts0 = 0;
  const auto pump = [&](double secs, bool count) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(secs * 1e9);
    while (NowNs() < deadline) {
      ++batch;
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan span(spans, "pump.send", nullptr, batch);
        for (const auto& t : tuples) {
          tx.send(t, stream::kDefaultStream, 0, 0, dests, false);
        }
        tx.flush();
      }
      const std::int64_t t1 = NowNs();
      std::int64_t polled = 0;
      int received = 0;
      while (received < kBatch) {
        const std::int64_t p0 = NowNs();
        got.clear();
        const std::size_t n = rx.poll(got, 64);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        polled += NowNs() - p0;
        received += static_cast<int>(n);
      }
      const std::int64_t t2 = NowNs();
      if (count) {
        send_ns += t1 - t0;
        poll_ns += polled;
        wait_ns += (t2 - t1) - polled;
        n_tuples += kBatch;
      }
    }
  };
  pump(seconds * 0.25, false);
  pkts0 = PortRx(sw, 101, &bytes0);
  pump(seconds, true);
  std::uint64_t bytes1 = 0;
  const std::uint64_t pkts = PortRx(sw, 101, &bytes1) - pkts0;
  sw.stop();
  if (n_tuples > 0) {
    out.serialize_ns = static_cast<double>(send_ns) / n_tuples;
    out.decode_ns = static_cast<double>(poll_ns) / n_tuples;
  }
  if (pkts > 0) out.forward_ns = static_cast<double>(wait_ns) / pkts;
  const std::size_t frame_bytes =
      pkts > 0 ? static_cast<std::size_t>((bytes1 - bytes0) / pkts) : 1024;

  // ---- tunnel bursts ----
  auto [ea, eb] = net::CreateTunnel(4096);
  std::vector<net::PacketPtr> frames;
  for (int i = 0; i < 64; ++i) {
    net::Packet p;
    p.dst = a2;
    p.src = a1;
    p.payload.assign(frame_bytes, static_cast<std::uint8_t>(i));
    frames.push_back(net::MakePacket(std::move(p)));
  }
  std::vector<net::Packet> rx_store(frames.size());
  std::vector<net::Packet*> rx_ptrs;
  for (auto& p : rx_store) rx_ptrs.push_back(&p);
  std::int64_t burst_ns = 0, n_frames = 0;
  const auto tunnel = [&](double secs, bool count) {
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(secs * 1e9);
    while (NowNs() < deadline) {
      ++batch;
      ScopedSpan span(spans, "pump.burst", nullptr, batch);
      const std::int64_t t0 = NowNs();
      std::size_t sent = 0;
      while (sent < frames.size()) {
        sent += ea->try_send_burst(
            std::span<const net::PacketPtr>(frames).subspan(sent));
      }
      std::size_t recvd = 0;
      while (recvd < frames.size()) {
        recvd += eb->try_recv_burst(
            std::span<net::Packet*>(rx_ptrs).subspan(0, frames.size() - recvd));
      }
      if (count) {
        burst_ns += NowNs() - t0;
        n_frames += static_cast<std::int64_t>(frames.size());
      }
    }
  };
  tunnel(seconds * 0.25, false);
  tunnel(seconds / 2, true);
  if (n_frames > 0) out.burst_ns = static_cast<double>(burst_ns) / n_frames;
  return out;
}

}  // namespace perfbench
