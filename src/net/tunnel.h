// Host-level TCP tunnel analog (Sec 3.3.1): a reliable, in-order, framed
// byte channel between two hosts. Workers never own connections; the per-
// host switch forwards remote-bound packets into the tunnel designated by a
// set_tun_dst action, and the peer's switch re-injects them into its pipeline
// (Table 3, remote transfer rules).
//
// One contract. Frames go out as refcounted packets, in a burst
// (try_send_burst) or one at a time through the blocking send(), and come
// in as a burst decoded into the caller's pooled packets (try_recv_burst).
// Every frame is [header][payload][8-byte checksum] on the wire (a
// word-at-a-time fold, see FrameChecksum); a frame that fails verification
// on receive is dropped and counted (`rx_corrupt_drops`) instead of
// surfacing garbage — the wire can be corrupted by an attached
// fault-injection Impairment. Send may be called from several threads
// concurrently (frame counters are atomics); burst receive is single-
// consumer — the switch's forwarding thread.
//
// TunnelEndpoint is a transport-agnostic base: checksums, the impairment
// shaper and all counters live here, above four data primitives
// (`wire_*`): a non-blocking burst push and a blocking push of one packet,
// both taking refcounted packets with their precomputed framing metadata
// (TxFrameInfo), and a borrowed-view burst pop with its release.
// No TX path materializes a frame: each transport writes
// [header][payload][checksum] straight from the packet with one framing
// routine. Transports:
//   - RingTunnel (net/ring_tunnel.h): two SPSC byte rings with two
//     backings of the same segment layout — one heap block shared by an
//     in-process endpoint pair (CreateTunnel, the single-process
//     deployment), or a POSIX shm segment mapped by two host processes.
//   - SocketTunnel (net/socket_tunnel.h): a real TCP connection between
//     host processes.
// Because everything above the wire is shared, and in-memory and shm are
// one ring implementation, the transports are behaviourally equivalent by
// construction (locked down by the seeded transport-equivalence property
// test in tests/test_net.cc).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "faultinject/impairment.h"
#include "net/packet.h"

namespace typhoon::net {

// Width of the checksum trailer appended to every wire frame.
// Transports build records without materializing the frame (the vectored
// socket TX path, the ring burst writer), so they need the trailer width
// to size their records; the checksum value itself rides in TxFrameInfo.
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

// One frame on its way out, as the impairment shaper holds it and the
// socket stages it. Corruption swaps in a private packet copy or flips the
// checksum, never mutating a packet other replicas share.
struct TxFrame {
  PacketPtr pkt;
  TxFrameInfo info;
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
  bool send(PacketPtr p);
  // Non-blocking burst send — the data path. Hands the refcounted packets
  // to the wire in order, stopping at the first the wire cannot take (full
  // ring, or a capped link out of credit). Returns the number accepted; the
  // unsent tail `pkts[n..]` stays with the caller (retry, hold, or fall
  // back to the blocking send). Transports frame each packet straight from
  // its header and payload, never through an intermediate frame buffer.
  std::size_t try_send_burst(std::span<const PacketPtr> pkts);
  // Non-blocking burst receive: decodes up to out.size() frames into the
  // caller's packets (payload capacity reused). Returns the number
  // decoded; corrupt frames are counted and skipped, never surfaced.
  // Single consumer: only the owning poller may call this.
  std::size_t try_recv_burst(std::span<Packet*> out);

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
  // Frames accepted by send()/try_send_burst() but never delivered: the
  // transport discarded them because the peer was gone (connection down /
  // process dead), or the endpoint closed while the impairment shaper
  // still held them. 0 on an unimpaired in-process tunnel, whose peer
  // cannot vanish.
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
  // Detach the impairment stage. Frames it still holds back go out through
  // the blocking wire push, so each is delivered or counted in
  // peer_drops(); close() counts them as dropped instead of waiting.
  void clear_impairment();
  [[nodiscard]] faultinject::Impairment* impairment();

 protected:
  TunnelEndpoint() = default;

  // ---- wire primitives, implemented per transport -----------------------
  // Transports frame [header][payload][checksum] from the packet and the
  // precomputed TxFrameInfo; they never compute or verify a checksum.

  // Non-blocking burst enqueue of refcounted packets plus their precomputed
  // framing metadata (info[i] describes pkts[i]); the transport frames
  // [header][payload][checksum] itself. Returns the accepted prefix length;
  // 0 once the wire is closed.
  virtual std::size_t wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                         std::span<const TxFrameInfo> info) = 0;
  // Blocking enqueue of one frame toward the peer, framed as by
  // wire_try_push_pkts. Waits for room (a shm ring only briefly, then
  // counts a peer drop); a frame that can never fit is a counted drop.
  // False once the wire is closed.
  virtual bool wire_push(TxFrame f) = 0;
  // Borrowed-view dequeue: appends up to `max` views of received frames
  // (valid until the matching wire_release_views) and returns the count.
  // try_recv_burst verifies and decodes straight from the views into the
  // caller's pooled packets, making the decode the only copy on the RX
  // path. Single consumer, and the two calls must pair up.
  virtual std::size_t wire_pop_views(std::vector<FrameView>& out,
                                     std::size_t max) = 0;
  virtual void wire_release_views() = 0;

  // Frames queued toward this endpoint, not yet popped.
  [[nodiscard]] virtual std::size_t wire_rx_depth() const = 0;
  // Tear the wire down; all subsequent pushes fail fast.
  virtual void wire_close() = 0;
  // Fired once after a send/burst handed frames to the wire. The in-process
  // ring pokes the peer's rx-notify hook here; transports with their own RX
  // pump (socket) fire the local hook from the pump instead.
  virtual void wire_fire_tx_notify() {}

  // Receiver-side notify hook. The default implementation stores the hook
  // endpoint-locally (for transports whose RX pump fires it); RingTunnel
  // overrides it to store the hook next to the ring, where the peer's
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
  // Detach the shaper; its held frames go out through wire_push (deliver)
  // or are counted as peer drops (!deliver).
  void release_impairment(bool deliver);

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> corrupt_rx_{0};
  std::atomic<std::uint64_t> peer_drops_{0};

  // Single-consumer scratch for try_recv_burst.
  std::vector<FrameView> view_scratch_;

  // Wire shaper, present only while impaired. The flag keeps the unimpaired
  // send path lock-free; the mutex covers attach/detach racing the sender.
  std::mutex impair_mu_;
  std::unique_ptr<faultinject::Shaper<TxFrame>> shaper_;
  std::atomic<bool> impaired_{false};
};

// Create a bidirectional in-process tunnel (a heap-backed RingTunnel pair)
// that queues at most `capacity` frames per direction; returns the two
// endpoints.
std::pair<std::shared_ptr<TunnelEndpoint>, std::shared_ptr<TunnelEndpoint>>
CreateTunnel(std::size_t capacity = 4096);

}  // namespace typhoon::net
