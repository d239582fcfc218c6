// RingTunnel — the TunnelEndpoint transport built on two lock-free SPSC
// byte rings, one per direction, carrying length-prefixed frame records
// ([u32 len LE][header][payload][checksum], wrapping at the ring edge).
// DESIGN.md Sec 17. Both TX primitives — the burst push and the blocking
// push of one packet — write records with the same routine, straight from
// the refcounted packet into the ring.
//
// Segment layout (see SegmentHeader in the .cc): a magic/capacity header,
// two ring headers (cache-line aligned producer/consumer cursors, a
// queued-frame count, and a closed flag), then the two data regions back
// to back. Side A transmits on ring 0, side B on ring 1. The layout has
// two backings, and the ring code is the same for both:
//   - Heap (CreateTunnel, net/tunnel.h): one heap block shared by an
//     in-process endpoint pair — the single-process deployment. The sender
//     fires the receiver's rx-notify hook once per send or burst; the ring
//     also enforces CreateTunnel's frame capacity through its frame count;
//     and a full ring blocks the blocking push until space frees or the
//     tunnel closes (the consumer lives in this process and cannot vanish).
//   - Shared memory (CreateSegment + Attach): a POSIX shm segment for
//     same-machine host-process pairs. The parent process creates the
//     segment before spawning the two host processes; each host attaches as
//     side A or B and the parent unlinks the name at teardown, so the
//     segment dies with its last mapping even after a SIGKILL. There is no
//     cross-process wakeup — a parked receiver rides its poll backstop (the
//     switch parks at most 10 ms) — and a full ring holds the blocking push
//     briefly (back-pressure), then counts the frame out as a peer drop:
//     with the consumer process gone, that is the RTO analog of
//     SocketTunnel's disconnected-drop behavior.
//
// Concurrency: exactly one producer and one consumer per ring (the byte
// cursors are the SPSC handshake); within a process, local mutexes
// serialize concurrent senders and harness pollers, preserving
// TunnelEndpoint's concurrency contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "net/tunnel.h"

namespace typhoon::net {

class RingTunnel final : public TunnelEndpoint {
 public:
  enum class Side : std::uint8_t { kA = 0, kB = 1 };

  // Create and initialize the named shm segment (fails if it already
  // exists or on any shm error). `ring_capacity` is the per-direction data
  // size in bytes, rounded up to a power of two.
  static bool CreateSegment(const std::string& name, std::size_t ring_capacity);
  // Remove the name; live mappings keep working until unmapped.
  static void UnlinkSegment(const std::string& name);

  // Map the named segment and return an endpoint for one side. Null on
  // error (missing segment, bad magic).
  static std::shared_ptr<RingTunnel> Attach(const std::string& name,
                                            Side side);

  ~RingTunnel() override;

  // Payload bytes copied into wrap-around scratch on the view RX path (a
  // record straddling the ring edge cannot be lent as one span).
  [[nodiscard]] std::uint64_t rx_wrap_bytes_copied() const {
    return rx_wrap_copied_.load(std::memory_order_relaxed);
  }

 protected:
  std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                 std::span<const TxFrameInfo> info) override;
  bool wire_push(TxFrame f) override;
  std::size_t wire_pop_views(std::vector<FrameView>& out,
                             std::size_t max) override;
  void wire_release_views() override;
  [[nodiscard]] std::size_t wire_rx_depth() const override;
  void wire_close() override;
  void wire_fire_tx_notify() override;
  void wire_set_rx_notify(std::function<void()> fn) override;

 private:
  friend std::pair<std::shared_ptr<TunnelEndpoint>,
                   std::shared_ptr<TunnelEndpoint>>
  CreateTunnel(std::size_t capacity);

  struct Segment;  // the backing memory plus process-local ring hooks

  RingTunnel(std::shared_ptr<Segment> seg, Side side,
             std::uint32_t max_frames);

  const std::shared_ptr<Segment> seg_;
  const int tx_;  // ring index this side produces on
  const int rx_;  // ring index this side consumes from
  // Most frames one ring queues (CreateTunnel's capacity; unbounded for
  // shm, whose rings are bounded by bytes only).
  const std::uint32_t max_frames_;

  // In-process concurrency guards over the SPSC rings.
  std::mutex tx_mu_;
  std::mutex rx_mu_;

  // View RX state (single consumer; guarded by rx_mu_ inside each call).
  // Records lent out by wire_pop_views stay in the ring — head advances
  // only in wire_release_views, so the spans stay valid in between.
  std::uint64_t view_head_advance_ = 0;
  std::uint32_t view_count_ = 0;
  std::vector<common::Bytes> wrap_bufs_;  // scratch for edge-straddling recs
  std::size_t wrap_used_ = 0;
  std::atomic<std::uint64_t> rx_wrap_copied_{0};
};

}  // namespace typhoon::net
