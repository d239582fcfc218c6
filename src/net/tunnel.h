// Host-level TCP tunnel analog (Sec 3.3.1): a reliable, in-order, framed
// byte channel between two hosts. Workers never own connections; the per-
// host switch forwards remote-bound packets into the tunnel designated by a
// set_tun_dst action, and the peer's switch re-injects them into its pipeline
// (Table 3, remote transfer rules).
//
// Frames are serialized to bytes on send and parsed on receive, preserving
// the real marshaling cost of crossing a host boundary. Every frame carries
// an 8-byte checksum trailer (a word-at-a-time fold, see FrameChecksum); a
// frame that fails verification on receive is dropped and counted
// (`rx_corrupt_drops`) instead of surfacing garbage — the wire can be
// corrupted by an attached fault-injection Impairment.
//
// Burst I/O: try_send_burst enqueues a whole vector of frames under one
// ring-lock round (the DPDK tx-burst analog) and try_recv_burst drains up
// to N frames the same way, decoding into caller-provided pooled packets.
// Send may be called from several switch shards concurrently (frame
// counters are atomics); burst receive is single-consumer — the one shard
// that owns this tunnel's RX polling.
//
// TunnelEndpoint is a transport-agnostic base: framing, checksums, the
// impairment shaper, the tx rate cap, and all counters live here, above a
// small set of wire primitives (`wire_*`). Transports only move opaque
// checksummed frames:
//   - InMemoryTunnel (this header + CreateTunnel): a pair of in-process
//     frame rings — the single-process deployment.
//   - SocketTunnel (net/socket_tunnel.h): a real TCP connection between
//     host processes.
//   - ShmRingTunnel (net/shm_ring_tunnel.h): shared-memory SPSC byte rings
//     for same-machine host-process pairs.
// Because everything above the wire is shared, the three transports are
// behaviourally equivalent by construction (locked down by the seeded
// transport-equivalence property test in tests/test_net.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/token_bucket.h"
#include "faultinject/impairment.h"
#include "net/packet.h"

namespace typhoon::net {

// Width of the checksum trailer appended to every wire frame.
// Transports that build records without materializing the frame (the
// vectored socket TX path, the shm burst writer) need the trailer width to
// size their records; the checksum value itself rides in TxFrameInfo.
inline constexpr std::size_t kFrameChecksumBytes = 8;

// Checksum of a packet's encoded frame ([header][payload]) computed without
// materializing the frame. The header and the payload are folded as two
// chained segments, 8 bytes per step: four independent
// h = rotl((h ^ w) * prime, 31) lanes over 32-byte blocks, then whole
// words, the zero-padded tail word and the length; only lane 0 of the
// payload fold is seeded with the header's sum. Receivers split a
// contiguous frame at the fixed header width and fold it the same way, so
// this equals the RX check over EncodeFrame's output. Each step is a
// bijection of its lane, so any change confined to one of the 8-byte words
// the fold consumes (every single-byte flip included) is always detected.
std::uint64_t FrameChecksum(const Packet& p);

// Per-frame metadata precomputed by the burst sender and handed to the
// wire alongside the packets, so transports can frame records ([len]
// [header][payload][checksum]) from iovecs without re-hashing.
struct TxFrameInfo {
  std::uint32_t body_len = 0;     // header + payload, excluding trailer
  std::uint64_t checksum = 0;     // FrameChecksum of the packet
};

// Borrowed view of one received wire frame ([header][payload][checksum]),
// valid until the next wire_release_views() on the same endpoint.
struct FrameView {
  std::span<const std::uint8_t> bytes;
};

class TunnelEndpoint {
 public:
  virtual ~TunnelEndpoint();

  TunnelEndpoint(const TunnelEndpoint&) = delete;
  TunnelEndpoint& operator=(const TunnelEndpoint&) = delete;

  // Blocking send (TCP back-pressure semantics). False once closed.
  bool send(const Packet& p);
  // Non-blocking burst send: encodes and enqueues frames in order under one
  // ring-lock round, stopping at the first rejection (full ring). Returns
  // the number enqueued; the unsent tail `pkts[n..]` stays with the caller
  // (retry, hold, or fall back to the blocking send).
  std::size_t try_send_burst(std::span<const Packet* const> pkts);
  // PacketPtr burst send — the cross-process fast path. Same ordering and
  // tail semantics as the raw-pointer overload, but hands the refcounted
  // handles to the wire so a transport with its own I/O thread (socket) can
  // keep the packets alive and write [header iovec][payload iovec] pairs
  // without ever copying the payload into an intermediate frame buffer.
  std::size_t try_send_burst(std::span<const PacketPtr> pkts);
  // Non-blocking receive of one decoded frame.
  std::optional<Packet> try_recv();
  // Non-blocking receive into an existing packet, reusing its payload
  // capacity (pooled RX path — no per-frame Packet allocation).
  bool try_recv_into(Packet& out);
  // Non-blocking burst receive: drains up to out.size() frames under one
  // ring-lock round and decodes them into the caller's packets (payload
  // capacity reused, same as try_recv_into). Returns the number decoded;
  // corrupt frames are counted and skipped, never surfaced. Single
  // consumer: only the owning poller may call this.
  std::size_t try_recv_burst(std::span<Packet*> out);
  // Blocking receive with timeout.
  std::optional<Packet> recv_for(std::chrono::milliseconds timeout);

  // Frames queued toward this endpoint, not yet received. Used by pollers
  // deciding whether to park.
  [[nodiscard]] std::size_t rx_queue_depth() const { return wire_rx_depth(); }

  // Register a callback fired after frames become available toward this
  // endpoint (once per send / per burst / per RX pump round). Lets a parked
  // receiver wake without polling; pass nullptr to clear.
  void set_rx_notify(std::function<void()> fn) {
    wire_set_rx_notify(std::move(fn));
  }

  void close();
  [[nodiscard]] std::uint64_t frames_sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  // Frames discarded on receive because their checksum failed.
  [[nodiscard]] std::uint64_t rx_corrupt_drops() const {
    return corrupt_rx_.load(std::memory_order_relaxed);
  }
  // Frames accepted by send()/try_send_burst() but discarded by the
  // transport because the peer was gone (connection down / process dead).
  // Always 0 for the in-memory transport, whose peer cannot vanish.
  [[nodiscard]] std::uint64_t peer_drops() const {
    return peer_drops_.load(std::memory_order_relaxed);
  }

  // Attach a deterministic impairment stage to this endpoint's transmit
  // side (frames admitted on send may be dropped, duplicated, reordered,
  // delayed, or corrupted before reaching the peer). Returns the decision
  // engine for counter/fingerprint probes; the pointer stays valid until
  // clear_impairment() or endpoint destruction. Thread-safe.
  faultinject::Impairment* set_impairment(
      const faultinject::ImpairmentConfig& cfg);
  void clear_impairment();
  [[nodiscard]] faultinject::Impairment* impairment();

  // Cap this endpoint's transmit byte rate (a genuinely bandwidth-bounded
  // link — the congestion substrate for the QoS experiments). The blocking
  // send() waits for token credit (TCP back-pressure semantics, so a switch
  // shard flushing into a saturated link stalls and the pressure propagates
  // upstream); try_send_burst stops at the first frame the bucket cannot
  // yet cover, leaving the tail with the caller. 0 clears the cap.
  // Thread-safe; the uncapped path pays one relaxed load.
  void set_tx_rate(double bytes_per_sec);
  [[nodiscard]] double tx_rate() const;

 protected:
  TunnelEndpoint() = default;

  // ---- wire primitives, implemented per transport -----------------------
  // Frames handed down are opaque checksummed byte blobs; transports move
  // them verbatim and never look inside.

  // Blocking enqueue toward the peer. False once the wire is closed.
  virtual bool wire_push(common::Bytes frame) = 0;
  // Non-blocking enqueue; false when the wire is full or closed.
  virtual bool wire_try_push(common::Bytes frame) = 0;
  // Non-blocking bulk enqueue under one lock round. Returns the number
  // accepted from the front of `frames`; the tail stays with the caller.
  virtual std::size_t wire_try_push_bulk(
      std::vector<common::Bytes>& frames) = 0;
  // Non-blocking bulk enqueue of refcounted packets plus their precomputed
  // framing metadata (info[i] describes pkts[i]). Default: materialize each
  // frame and fall back to wire_try_push_bulk — transports with a vectored
  // TX path (socket, shm) override to skip the intermediate copy. Returns
  // the accepted prefix length.
  virtual std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                         std::span<const TxFrameInfo> info);
  // Non-blocking dequeue of one frame from the peer.
  virtual std::optional<common::Bytes> wire_try_pop() = 0;
  // Bulk dequeue of up to `max` frames under one lock round.
  virtual std::size_t wire_pop_bulk(std::vector<common::Bytes>& out,
                                    std::size_t max) = 0;
  // Blocking dequeue with timeout.
  virtual std::optional<common::Bytes> wire_pop_for(
      std::chrono::milliseconds timeout) = 0;
  // View-based RX: transports that hold received records in slabs/rings can
  // hand out borrowed spans instead of copying each frame into a Bytes.
  // wire_pop_views appends up to `max` views (valid until the matching
  // wire_release_views) and returns the count; try_recv_burst decodes
  // straight from the views into the caller's pooled packets, making the
  // decode the only copy on the RX path. Single consumer, and the two
  // calls must pair up (no other RX call in between).
  [[nodiscard]] virtual bool wire_supports_views() const { return false; }
  virtual std::size_t wire_pop_views(std::vector<FrameView>& out,
                                     std::size_t max) {
    (void)out;
    (void)max;
    return 0;
  }
  virtual void wire_release_views() {}
  // Frames queued toward this endpoint, not yet popped.
  [[nodiscard]] virtual std::size_t wire_rx_depth() const = 0;
  // Tear the wire down; all subsequent pushes/pops fail fast.
  virtual void wire_close() = 0;
  // Fired once after a send/burst handed frames to the wire. The in-memory
  // transport pokes the peer's rx-notify hook here; transports with their
  // own RX pump (socket/shm) fire the local hook from the pump instead.
  virtual void wire_fire_tx_notify() {}

  // Receiver-side notify hook. The default implementation stores the hook
  // endpoint-locally (for transports whose RX pump fires it); InMemoryTunnel
  // overrides it to store the hook on the shared channel, where the peer's
  // sender fires it directly.
  virtual void wire_set_rx_notify(std::function<void()> fn) {
    rx_hook_.set(std::move(fn));
  }

  // Sender-side wake-up hook machinery, shared by transports.
  struct NotifyHook {
    std::mutex mu;
    std::function<void()> fn;        // guarded by mu
    std::atomic<bool> armed{false};  // cheap gate for the hot path

    void set(std::function<void()> f) {
      std::lock_guard lk(mu);
      fn = std::move(f);
      armed.store(fn != nullptr, std::memory_order_release);
    }
    void fire() {
      if (!armed.load(std::memory_order_acquire)) return;
      std::lock_guard lk(mu);
      if (fn) fn();
    }
  };

  // For transports that discard queued frames when the peer vanishes.
  void count_peer_drops(std::uint64_t n) {
    peer_drops_.fetch_add(n, std::memory_order_relaxed);
  }

  NotifyHook rx_hook_;

 private:
  std::optional<Packet> decode_checked(common::Bytes frame);
  bool decode_checked_into(common::Bytes frame, Packet& out);

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> corrupt_rx_{0};
  std::atomic<std::uint64_t> peer_drops_{0};

  // Single-consumer scratch for try_recv_burst (frames popped in bulk,
  // decoded outside the ring lock).
  std::vector<common::Bytes> rx_scratch_;
  std::vector<FrameView> view_scratch_;

  // Wire shaper, present only while impaired. The flag keeps the unimpaired
  // send path lock-free; the mutex covers attach/detach racing the sender.
  std::mutex impair_mu_;
  std::unique_ptr<faultinject::Shaper<common::Bytes>> shaper_;
  std::atomic<bool> impaired_{false};

  // TX capacity cap (bytes/s); the bucket has internal locking and the
  // flag gates the uncapped fast path.
  common::ByteBucket tx_bucket_;
  std::atomic<bool> tx_limited_{false};
};

// The in-process transport: two MPMC frame rings shared by the endpoint
// pair, with the receiver's wake-up hook living on the ring so the sender
// can fire it directly after enqueueing.
class InMemoryTunnel final : public TunnelEndpoint {
 protected:
  bool wire_push(common::Bytes frame) override;
  bool wire_try_push(common::Bytes frame) override;
  std::size_t wire_try_push_bulk(std::vector<common::Bytes>& frames) override;
  std::optional<common::Bytes> wire_try_pop() override;
  std::size_t wire_pop_bulk(std::vector<common::Bytes>& out,
                            std::size_t max) override;
  std::optional<common::Bytes> wire_pop_for(
      std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::size_t wire_rx_depth() const override;
  void wire_close() override;
  void wire_fire_tx_notify() override;
  void wire_set_rx_notify(std::function<void()> fn) override;

 private:
  friend std::pair<std::shared_ptr<TunnelEndpoint>,
                   std::shared_ptr<TunnelEndpoint>>
  CreateTunnel(std::size_t capacity);

  // One direction of the wire: the frame queue plus the receiver-side
  // wake-up hook fired by the sender after enqueueing.
  struct Channel {
    explicit Channel(std::size_t cap) : q(cap) {}
    common::MpmcQueue<common::Bytes> q;
    NotifyHook notify;
  };

  InMemoryTunnel(std::shared_ptr<Channel> tx, std::shared_ptr<Channel> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  std::shared_ptr<Channel> tx_;
  std::shared_ptr<Channel> rx_;
};

// Create a bidirectional in-memory tunnel; returns the two endpoints.
std::pair<std::shared_ptr<TunnelEndpoint>, std::shared_ptr<TunnelEndpoint>>
CreateTunnel(std::size_t capacity = 4096);

}  // namespace typhoon::net
