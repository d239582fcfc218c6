// SocketTunnel — the TunnelEndpoint transport for multi-process deployments:
// a real TCP connection between two host processes (DESIGN.md Sec 17).
//
// The endpoint keeps the TunnelEndpoint burst contract (the SoftSwitch
// hot path is unchanged): send/try_send_burst stage
// records into a bounded TX ring and try_recv_burst drains a bounded RX
// ring. One IO thread per endpoint owns the socket and moves records
// between the rings and the wire as length-prefixed records
// ([u32 len LE][frame bytes]), reassembling records split across reads.
//
// Vectored TX (DESIGN.md Sec 17): the burst push and the blocking push of
// one packet both stage a TxFrame (refcounted packet plus checksum, no
// frame materialization); the IO thread encodes each
// record's [len][header] prefix and [checksum] trailer into a per-batch
// arena and flushes the whole burst with one sendmsg() — an iovec triplet
// per record, payload bytes straight from the pooled packet. Short writes
// resume mid-iovec. RX reads into pooled slabs with one big read() and
// slices records in place; try_recv_burst decodes borrowed views, so the
// only post-kernel copy is the decode into the caller's pooled packet
// (plus slab-boundary record stitching, counted in io_stats). The IO
// thread ramps spin -> short poll -> parked poll when idle, and senders
// write the wakeup eventfd only when the thread is actually parked, so a
// busy tunnel runs syscall-free on the submit side.
//
// Connection lifecycle:
//   - The active (connecting) side dials the peer's listener with capped
//     exponential backoff and opens with a 12-byte hello
//     [magic u32][src host u32][dst host u32], so one listener per host can
//     demux inbound connections to per-peer endpoints.
//   - The passive side is created via SocketTunnelListener::expect_peer();
//     the listener's accept thread reads the hello and hands the connected
//     fd to the matching endpoint (adopt_fd), including after a reconnect.
//   - While a previously-established connection is down, staged TX frames
//     are discarded and counted (peer_drops) — writes into a dead TCP
//     connection are lost on a real network too — and delivery resumes on
//     reconnect. Before the first connection, frames queue (bounded, with
//     back-pressure): peers boot in arbitrary order.
//   - A disconnect episode that outlives kConnectDeadline (10 s) turns the
//     endpoint terminal: rings close and sends fail fast, like a closed
//     in-memory tunnel.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/ids.h"
#include "common/mpmc_queue.h"
#include "net/tunnel.h"

namespace typhoon::net {

// Hello header opening every tunnel connection.
inline constexpr std::uint32_t kTunnelHelloMagic = 0x54595048;  // "TYPH"
inline constexpr std::size_t kTunnelHelloBytes = 12;
// Protocol sanity cap on one framed record; a longer length prefix means a
// corrupted or misdirected stream and drops the connection.
inline constexpr std::uint32_t kTunnelMaxFrameBytes = 1u << 22;

struct SocketTunnelConfig {
  // TX/RX staging ring capacity, in frames (matches CreateTunnel's default).
  std::size_t capacity = 4096;
  // Size of each pooled RX slab (one read() target). Must exceed the
  // largest expected record; oversized records get a dedicated slab.
  std::size_t rx_slab_bytes = 256 * 1024;
};

class SocketTunnel final : public TunnelEndpoint {
 public:
  // Active side: dial `host:port`, identifying as src=self toward dst=peer.
  // Returns immediately; the IO thread dials with retry/backoff.
  static std::shared_ptr<SocketTunnel> Connect(std::string host,
                                               std::uint16_t port, HostId self,
                                               HostId peer,
                                               SocketTunnelConfig cfg = {});
  // Passive side: waits for SocketTunnelListener (or a test harness) to
  // hand it connected fds via adopt_fd().
  static std::shared_ptr<SocketTunnel> Accepting(SocketTunnelConfig cfg = {});

  ~SocketTunnel() override;

  // Hand the endpoint a connected socket whose hello has been consumed.
  // Replaces any current connection (the reconnect path). Takes ownership.
  void adopt_fd(int fd);

  // Active side only: point future dials at a new address (a restarted
  // peer process binds a fresh ephemeral port). Drops any current
  // connection so the IO thread re-dials the new target.
  void retarget(std::string host, std::uint16_t port);

  // Established at least once and currently up.
  [[nodiscard]] bool connected() const {
    return connected_.load(std::memory_order_acquire);
  }
  // Completed re-establishments after a drop.
  [[nodiscard]] std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  // I/O-efficiency counters for the vectored path (bench_procpath reports
  // syscalls/frame and RX bytes-copied/frame from these). TX has no copy
  // counter: no TX path copies a frame.
  struct IoStats {
    std::uint64_t sendmsg_calls = 0;   // burst flushes (one per writev)
    std::uint64_t read_calls = 0;      // slab reads
    std::uint64_t poll_calls = 0;      // IO-thread polls (any timeout)
    std::uint64_t wake_writes = 0;     // eventfd pokes by submitters
    std::uint64_t tx_records = 0;      // records fully written to the wire
    std::uint64_t rx_records = 0;      // records sliced out of slabs
    std::uint64_t rx_bytes_copied = 0; // slab-boundary record stitches
  };
  [[nodiscard]] IoStats io_stats() const;

 protected:
  std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                 std::span<const TxFrameInfo> info) override;
  bool wire_push(TxFrame f) override;
  std::size_t wire_pop_views(std::vector<FrameView>& out,
                             std::size_t max) override;
  void wire_release_views() override;
  [[nodiscard]] std::size_t wire_rx_depth() const override;
  void wire_close() override;

 private:
  SocketTunnel(bool active, std::string host, std::uint16_t port, HostId self,
               HostId peer, SocketTunnelConfig cfg);

  // One received record sliced in place out of a pooled RX slab. The
  // shared_ptr keeps the slab alive while the record is queued or viewed.
  struct RxFrameRef {
    std::shared_ptr<common::Bytes> slab;
    const std::uint8_t* data = nullptr;
    std::uint32_t len = 0;
  };

  void io_loop();
  // Blocks until a usable fd is available (dial with backoff, or wait for
  // adopt_fd). Returns -1 when the endpoint stopped or went terminal.
  int ensure_connected();
  int dial_once();
  // Moves frames both ways until the connection drops or the endpoint
  // stops. Returns frames lost in flight (staged but unwritten), which the
  // caller counts as peer drops either way.
  std::uint64_t pump(int fd);
  // Discard staged TX frames while a once-established connection is down.
  void drain_tx_as_drops();
  void poke();
  // Poke only if the IO thread is (or may be going) to sleep.
  void poke_if_waiting();

  const bool active_;
  std::string peer_host_;       // guarded by fd_mu_ (retarget)
  std::uint16_t peer_port_;     // guarded by fd_mu_ (retarget)
  const HostId self_host_;
  const HostId peer_host_id_;
  const SocketTunnelConfig cfg_;

  // Staged outbound frames; the IO thread frames each from iovecs at flush
  // time, payload straight from the packet.
  common::MpmcQueue<TxFrame> tx_q_;
  common::MpmcQueue<RxFrameRef> rx_q_;

  std::atomic<bool> running_{true};
  std::atomic<bool> connected_{false};
  std::atomic<bool> ever_connected_{false};
  std::atomic<std::uint64_t> reconnects_{0};

  // True while the IO thread is about to block in (or is inside) a poll
  // with a nonzero timeout. Submitters write the eventfd only when set —
  // the busy loop re-checks the rings itself, so pokes would be wasted
  // syscalls. Ordering: the IO thread stores this (seq_cst) *before* its
  // final emptiness check of the rings; a submitter's push into the ring
  // happens-before its load of this flag (same ring mutex), so either the
  // IO thread sees the new record or the submitter sees the flag and pokes.
  std::atomic<bool> io_waiting_{false};

  // IO-thread wakeup (eventfd): armed by pushes, close, and adopt_fd.
  int wake_fd_ = -1;

  // I/O efficiency counters (see IoStats).
  std::atomic<std::uint64_t> sendmsg_calls_{0};
  std::atomic<std::uint64_t> read_calls_{0};
  std::atomic<std::uint64_t> poll_calls_{0};
  std::atomic<std::uint64_t> wake_writes_{0};
  std::atomic<std::uint64_t> tx_records_{0};
  std::atomic<std::uint64_t> rx_records_{0};
  std::atomic<std::uint64_t> rx_bytes_copied_{0};

  // Borrowed-view scratch for wire_pop_views/wire_release_views (single
  // consumer: the owning poller).
  std::vector<RxFrameRef> view_refs_;

  // Pending adopted connection (passive side / reconnect).
  std::mutex fd_mu_;
  std::condition_variable fd_cv_;
  int pending_fd_ = -1;
  // Fd currently owned by the pump; shutdown() on close/adopt unblocks it.
  std::atomic<int> live_fd_{-1};

  std::thread io_thread_;
};

// Per-host accept loop for inbound tunnel connections: reads each new
// connection's hello and routes the fd to the endpoint registered for that
// source host. Unknown or malformed hellos drop the connection.
class SocketTunnelListener {
 public:
  explicit SocketTunnelListener(HostId self);
  ~SocketTunnelListener();

  SocketTunnelListener(const SocketTunnelListener&) = delete;
  SocketTunnelListener& operator=(const SocketTunnelListener&) = delete;

  // Bind the listen socket (port 0 = ephemeral). False on error.
  bool bind(std::uint16_t port = 0);
  [[nodiscard]] std::uint16_t port() const { return port_; }

  // Register (and return) the passive endpoint for connections from `peer`.
  std::shared_ptr<SocketTunnel> expect_peer(HostId peer,
                                            SocketTunnelConfig cfg = {});

  void start();
  void stop();

 private:
  void accept_loop();

  const HostId self_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::mutex mu_;
  std::map<HostId, std::shared_ptr<SocketTunnel>> peers_;
  std::thread accept_thread_;
};

}  // namespace typhoon::net
