// Cross-process data-plane I/O-path microbenchmark (DESIGN.md Sec 17): two
// real processes (fork before any threads), one pumping small frames in
// 256-frame bursts through TunnelEndpoint::try_send_burst(PacketPtr), the
// other sinking them with try_recv_burst — once over a loopback TCP
// SocketTunnel and once over a shared-memory ring. Unlike fig_proc (which
// measures a whole streaming topology end to end), this isolates the
// transport itself: frames/s through one tunnel, syscalls per frame, and
// RX bytes copied per frame (no TX path copies a frame).
//
// Writes BENCH_procpath.json. CI guards `pps` (loosely — wall clock on
// shared runners) and `syscalls_per_frame` (tightly: the batched path must
// stay well under 0.1 syscalls/frame at steady state; regressions here are
// architectural, not noise).
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/ids.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/ring_tunnel.h"
#include "net/socket_tunnel.h"
#include "net/tunnel.h"

namespace typhoon::bench {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFrames = 200000;
constexpr std::size_t kPayloadBytes = 64;
constexpr std::size_t kBurst = 256;
constexpr std::uint8_t kSentinelByte = 0xEE;

WorkerAddress Addr(WorkerId w) { return WorkerAddress{7, w}; }

// Child -> parent result record, written over the pre-fork socketpair.
// Fixed-width POD so both sides agree on the layout without a codec.
struct ChildReport {
  std::uint64_t frames = 0;         // data frames sunk (sentinel excluded)
  std::uint64_t payload_bytes = 0;  // sum of sunk payload sizes
  double elapsed_s = 0.0;           // first data frame -> sentinel
  std::uint64_t read_calls = 0;     // receiver-side io_stats
  std::uint64_t poll_calls = 0;
  std::uint64_t wake_writes = 0;
  std::uint64_t rx_bytes_copied = 0;
  std::uint64_t ok = 0;  // 1 when the sentinel arrived before the deadline
};

bool WriteAll(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadAll(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::read(fd, p, len);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

// Receiver loop: burst-drain the tunnel into pooled packets, timing from
// the first data frame to the 1-byte sentinel.
void SinkLoop(net::TunnelEndpoint& ep, ChildReport& rep) {
  auto pool = net::PacketPool::Create();
  constexpr std::size_t kSlots = 512;
  std::vector<net::Packet*> slots;
  slots.reserve(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) slots.push_back(pool->acquire_raw());

  const auto deadline = Clock::now() + 120s;
  auto t0 = Clock::now();
  auto t1 = t0;
  bool started = false;
  bool done = false;
  while (!done && Clock::now() < deadline) {
    const std::size_t n = ep.try_recv_burst(std::span<net::Packet*>(slots));
    if (n == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    if (!started) {
      t0 = Clock::now();
      started = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (slots[i]->payload.size() == 1 &&
          slots[i]->payload[0] == kSentinelByte) {
        t1 = Clock::now();
        done = true;
        break;
      }
      ++rep.frames;
      rep.payload_bytes += slots[i]->payload.size();
    }
  }
  for (net::Packet* s : slots) net::PacketPtr::adopt(s);  // recycle
  rep.ok = done ? 1 : 0;
  rep.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
}

// Sender loop: kFrames pooled packets in kBurst-frame bursts through the
// PacketPtr overload (the vectored path), then the sentinel.
void PumpFrames(net::TunnelEndpoint& ep) {
  net::PacketPoolConfig pcfg;
  pcfg.max_free = kBurst * 2;
  pcfg.payload_reserve = kPayloadBytes;
  auto pool = net::PacketPool::Create(pcfg);

  std::vector<net::PacketPtr> burst;
  burst.reserve(kBurst);
  std::uint64_t sent = 0;
  while (sent < kFrames) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBurst, kFrames - sent));
    burst.clear();
    for (std::size_t i = 0; i < n; ++i) {
      net::Packet* p = pool->acquire_raw();
      p->src = Addr(1);
      p->dst = Addr(2);
      p->payload.assign(kPayloadBytes,
                        static_cast<std::uint8_t>((sent + i) & 0x7f));
      burst.push_back(net::PacketPtr::adopt(p));
    }
    std::size_t off = 0;
    while (off < burst.size()) {
      const std::size_t k = ep.try_send_burst(
          std::span<const net::PacketPtr>(burst).subspan(off));
      off += k;
      if (k == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    sent += n;
  }
  net::Packet s;
  s.src = Addr(1);
  s.dst = Addr(2);
  s.payload = {kSentinelByte};
  (void)ep.send(net::MakePacket(std::move(s)));
}

struct PathRun {
  bool ok = false;
  double pps = 0.0;
  double syscalls_per_frame = 0.0;
  double rx_copied_per_frame = 0.0;
  double sendmsg_per_frame = 0.0;
  double reads_per_frame = 0.0;
};

// Wait for the child's report with a hard timeout so a wedged child can't
// hang the bench; returns false (and kills the child) on timeout.
bool AwaitReport(int ctl, pid_t child, ChildReport& rep) {
  struct pollfd pfd {};
  pfd.fd = ctl;
  pfd.events = POLLIN;
  const int pr = ::poll(&pfd, 1, 150000);
  if (pr <= 0 || !ReadAll(ctl, &rep, sizeof rep)) {
    ::kill(child, SIGKILL);
    int st = 0;
    ::waitpid(child, &st, 0);
    return false;
  }
  int st = 0;
  ::waitpid(child, &st, 0);
  return rep.ok != 0;
}

PathRun RunSocket() {
  PathRun out;
  int ctl[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) != 0) return out;

  const pid_t pid = ::fork();  // before any threads exist in this process
  if (pid == 0) {
    ::close(ctl[0]);
    net::SocketTunnelConfig cfg;
    cfg.capacity = 8192;
    net::SocketTunnelListener listener(2);
    if (!listener.bind(0)) ::_exit(1);
    auto ep = listener.expect_peer(1, cfg);
    listener.start();
    const std::uint16_t port = listener.port();
    if (!WriteAll(ctl[1], &port, sizeof port)) ::_exit(1);

    ChildReport rep;
    SinkLoop(*ep, rep);
    const auto st = ep->io_stats();
    rep.read_calls = st.read_calls;
    rep.poll_calls = st.poll_calls;
    rep.wake_writes = st.wake_writes;
    rep.rx_bytes_copied = st.rx_bytes_copied;
    WriteAll(ctl[1], &rep, sizeof rep);
    ep->close();
    listener.stop();
    ::_exit(0);
  }
  ::close(ctl[1]);

  std::uint16_t port = 0;
  if (!ReadAll(ctl[0], &port, sizeof port)) {
    ::close(ctl[0]);
    return out;
  }
  net::SocketTunnelConfig cfg;
  cfg.capacity = 8192;
  auto ep = net::SocketTunnel::Connect("127.0.0.1", port, 1, 2, cfg);
  PumpFrames(*ep);

  ChildReport rep;
  if (!AwaitReport(ctl[0], pid, rep)) {
    std::printf("  socket child did not finish\n");
    ::close(ctl[0]);
    return out;
  }
  ::close(ctl[0]);

  const auto st = ep->io_stats();
  ep->close();
  const double frames = static_cast<double>(rep.frames);
  out.ok = rep.frames == kFrames && rep.elapsed_s > 0.0;
  out.pps = frames / rep.elapsed_s;
  // Every syscall either side makes on behalf of the data stream: sender
  // sendmsg/poll/eventfd-wakes, receiver reads/polls/wakes.
  out.syscalls_per_frame =
      static_cast<double>(st.sendmsg_calls + st.poll_calls + st.wake_writes +
                          rep.read_calls + rep.poll_calls + rep.wake_writes) /
      frames;
  out.sendmsg_per_frame = static_cast<double>(st.sendmsg_calls) / frames;
  out.reads_per_frame = static_cast<double>(rep.read_calls) / frames;
  out.rx_copied_per_frame = static_cast<double>(rep.rx_bytes_copied) / frames;
  return out;
}

PathRun RunShm() {
  PathRun out;
  const std::string seg =
      "/typhoon-bench-procpath-" + std::to_string(::getpid());
  net::RingTunnel::UnlinkSegment(seg);
  if (!net::RingTunnel::CreateSegment(seg, 1 << 20)) return out;

  int ctl[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl) != 0) {
    net::RingTunnel::UnlinkSegment(seg);
    return out;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(ctl[0]);
    auto ep = net::RingTunnel::Attach(seg, net::RingTunnel::Side::kB);
    if (ep == nullptr) ::_exit(1);
    ChildReport rep;
    SinkLoop(*ep, rep);
    rep.rx_bytes_copied = ep->rx_wrap_bytes_copied();
    WriteAll(ctl[1], &rep, sizeof rep);
    ep->close();
    ::_exit(0);
  }
  ::close(ctl[1]);

  auto ep = net::RingTunnel::Attach(seg, net::RingTunnel::Side::kA);
  if (ep == nullptr) {
    ::kill(pid, SIGKILL);
    int st = 0;
    ::waitpid(pid, &st, 0);
    ::close(ctl[0]);
    net::RingTunnel::UnlinkSegment(seg);
    return out;
  }
  PumpFrames(*ep);

  ChildReport rep;
  const bool got = AwaitReport(ctl[0], pid, rep);
  ::close(ctl[0]);
  net::RingTunnel::UnlinkSegment(seg);
  if (!got) {
    std::printf("  shm child did not finish\n");
    return out;
  }
  out.ok = rep.frames == kFrames && rep.elapsed_s > 0.0;
  out.pps = static_cast<double>(rep.frames) / rep.elapsed_s;
  // Shared-memory rings make no syscalls on the data path; the only copy
  // metric is receiver-side wrap stitching at the ring edge.
  out.rx_copied_per_frame =
      static_cast<double>(rep.rx_bytes_copied) / static_cast<double>(rep.frames);
  return out;
}

}  // namespace
}  // namespace typhoon::bench

int main() {
  using typhoon::bench::PathRun;

  std::printf(
      "fig_procpath: 2-process tunnel pump, %llu frames x %zu B payload, "
      "burst %zu\n",
      static_cast<unsigned long long>(typhoon::bench::kFrames),
      typhoon::bench::kPayloadBytes, typhoon::bench::kBurst);

  // Socket run forks first so the child never inherits live threads.
  const PathRun sock = typhoon::bench::RunSocket();
  const PathRun shm = typhoon::bench::RunShm();

  std::printf(
      "  socket %10.0f pps  %.4f syscalls/frame (%.4f sendmsg, %.4f read)  "
      "copied rx %.1f B/frame  %s\n",
      sock.pps, sock.syscalls_per_frame, sock.sendmsg_per_frame,
      sock.reads_per_frame, sock.rx_copied_per_frame,
      sock.ok ? "ok" : "FAILED");
  std::printf("  shm    %10.0f pps  copied rx %.1f B/frame (wrap)  %s\n",
              shm.pps, shm.rx_copied_per_frame, shm.ok ? "ok" : "FAILED");

  std::FILE* f = std::fopen("BENCH_procpath.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_procpath.json");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"frames\": %llu,\n"
               "  \"payload_bytes\": %zu,\n"
               "  \"burst\": %zu,\n"
               "  \"pps\": %.0f,\n"
               "  \"syscalls_per_frame\": %.5f,\n"
               "  \"sendmsg_per_frame\": %.5f,\n"
               "  \"reads_per_frame\": %.5f,\n"
               "  \"bytes_copied_rx_per_frame\": %.2f,\n"
               "  \"shm_pps\": %.0f,\n"
               "  \"shm_rx_wrap_bytes_per_frame\": %.2f\n"
               "}\n",
               static_cast<unsigned long long>(typhoon::bench::kFrames),
               typhoon::bench::kPayloadBytes, typhoon::bench::kBurst, sock.pps,
               sock.syscalls_per_frame, sock.sendmsg_per_frame,
               sock.reads_per_frame, sock.rx_copied_per_frame, shm.pps,
               shm.rx_copied_per_frame);
  std::fclose(f);
  std::printf("  wrote BENCH_procpath.json\n");
  return (sock.ok && shm.ok) ? 0 : 1;
}
