// Typhoon custom transport packet (paper Fig 5).
//
// Wire layout (what EncodeFrame produces for tunnels):
//   [dst worker addr u64][src worker addr u64][ether_type u16]
//   [trace_id u64][trace_hop u8][payload ...]
// trace_id/trace_hop carry the TraceContext of the first traced tuple in
// the packet (0 = none), so remote switches can stamp switch-level spans
// without parsing chunk payloads.
// The payload is a sequence of tuple chunks:
//   [stream_id u16][flags u8][tuple_seq u32][seg_index u16][seg_count u16]
//   [chunk_len u32][chunk bytes ...]
// A chunk with the 0x02 flag set carries a 9-byte trace extension
// ([trace_id u64][hop u8]) between the header and the chunk bytes;
// chunk_len still counts only the chunk bytes.
// A chunk is either a whole serialized tuple (seg_count == 1) or one segment
// of a large tuple (reassembled by the depacketizer). Multiple small tuples
// with the same src/dst are multiplexed into one packet; one large tuple is
// segmented into several packets (Sec 5, southbound egress workflow).
//
// In-process, packets move as PacketPtr — an intrusively refcounted handle:
// the switch's broadcast replication is a reference-count bump, the analog
// of OVS's cheap packet copy vs. app-level re-serialization (Sec 6.1,
// Fig 9). Packets born from a PacketPool return to the pool's freelist
// (payload capacity intact) when the last reference drops; packets made with
// MakePacket are plain heap objects deleted on last release. Receivers may
// therefore hold views into `payload` for as long as they hold a PacketPtr
// or a PacketPin (below).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "common/ids.h"

namespace typhoon::net {

class PacketPool;
class PacketPtr;
struct Packet;
PacketPtr MakePacket(Packet p);

// Custom EtherType for Typhoon tuple traffic (paper uses 0xffff so switch
// rules avoid wildcarding unused IPv4 fields).
inline constexpr std::uint16_t kTyphoonEtherType = 0xffff;

// Chunk flag bits.
inline constexpr std::uint8_t kChunkFlagControl = 0x01;  // control tuple
inline constexpr std::uint8_t kChunkFlagTraced = 0x02;   // trace ext follows

// Wire size of the per-chunk trace extension ([trace_id u64][hop u8]).
inline constexpr std::size_t kTraceExtWireSize = 8 + 1;

struct ChunkHeader {
  StreamId stream_id = 0;
  std::uint8_t flags = 0;
  std::uint32_t tuple_seq = 0;  // reassembly key, unique per (src, tuple)
  std::uint16_t seg_index = 0;
  std::uint16_t seg_count = 1;
  std::uint32_t chunk_len = 0;
  // Populated from the trace extension when kChunkFlagTraced is set.
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;

  static constexpr std::size_t kWireSize = 2 + 1 + 4 + 2 + 2 + 4;

  [[nodiscard]] bool control() const { return flags & kChunkFlagControl; }
  [[nodiscard]] bool traced() const { return flags & kChunkFlagTraced; }
};

struct Packet {
  WorkerAddress dst;
  WorkerAddress src;
  std::uint16_t ether_type = kTyphoonEtherType;
  // TraceContext of the first traced tuple multiplexed into this packet
  // (0 = packet carries no sampled tuple). Switch-level instrumentation
  // reads these without touching the payload.
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;
  common::Bytes payload;

  static constexpr std::size_t kHeaderWireSize = 8 + 8 + 2 + 8 + 1;
  [[nodiscard]] std::size_t wire_size() const {
    return kHeaderWireSize + payload.size();
  }

  Packet() = default;
  // Copies/moves transfer only the wire content — never the refcount or the
  // pool linkage (a copy of a pooled packet is an unshared, unpooled value).
  Packet(const Packet& o)
      : dst(o.dst),
        src(o.src),
        ether_type(o.ether_type),
        trace_id(o.trace_id),
        trace_hop(o.trace_hop),
        payload(o.payload) {}
  Packet(Packet&& o) noexcept
      : dst(o.dst),
        src(o.src),
        ether_type(o.ether_type),
        trace_id(o.trace_id),
        trace_hop(o.trace_hop),
        payload(std::move(o.payload)) {}
  Packet& operator=(const Packet& o) {
    if (this != &o) {
      dst = o.dst;
      src = o.src;
      ether_type = o.ether_type;
      trace_id = o.trace_id;
      trace_hop = o.trace_hop;
      payload = o.payload;
    }
    return *this;
  }
  Packet& operator=(Packet&& o) noexcept {
    if (this != &o) {
      dst = o.dst;
      src = o.src;
      ether_type = o.ether_type;
      trace_id = o.trace_id;
      trace_hop = o.trace_hop;
      payload = std::move(o.payload);
    }
    return *this;
  }

 private:
  friend class PacketPtr;
  friend class PacketPool;
  friend PacketPtr MakePacket(Packet p);
  // Intrusive reference count. 0 while a producer is still filling the
  // packet (pool checkout before adopt); PacketPtr::adopt publishes it.
  mutable std::atomic<std::uint32_t> refs_{0};
  // Keeps the owning pool alive while this packet is in flight; empty for
  // plain heap packets. Moved out (and consumed) on final release.
  std::shared_ptr<PacketPool> pool_;
};

// Shared handle to an immutable in-flight packet. Replaces the previous
// shared_ptr<const Packet> alias with an intrusive count so pooled packets
// can be recycled (not freed) when the last switch/port/tunnel reference
// drops, and so no separate control block is allocated per packet.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  PacketPtr(const PacketPtr& o) : p_(o.p_) { retain(); }
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& o) {
    if (this != &o) {
      release();
      p_ = o.p_;
      retain();
    }
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketPtr() { release(); }

  // Takes ownership of a packet already carrying one reference (set by
  // MakePacket / PacketPool::acquire_raw). Does not bump the count.
  static PacketPtr adopt(Packet* p) { return PacketPtr(p); }

  const Packet& operator*() const { return *p_; }
  const Packet* operator->() const { return p_; }
  [[nodiscard]] const Packet* get() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  void reset() { release(); }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

  [[nodiscard]] std::uint32_t use_count() const {
    return p_ == nullptr ? 0
                         : p_->refs_.load(std::memory_order_relaxed);
  }

 private:
  explicit PacketPtr(Packet* p) : p_(p) {}

  void retain() {
    if (p_ != nullptr) p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  void release() {
    Packet* p = p_;
    p_ = nullptr;
    if (p != nullptr &&
        p->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      final_release(p);
    }
  }
  // Recycles into the owning pool or deletes; defined in packet_pool.cc.
  static void final_release(Packet* p);

  Packet* p_ = nullptr;
};

// PacketPin — a single-thread share of one PacketPtr. A receiver pops a
// packet from its port ring (the one atomic reference it takes) and moves
// that PacketPtr into a pin node; every tuple decoded from the packet that
// borrows payload bytes then copies the pin, which bumps a plain,
// non-atomic count. So a packet costs one atomic retain/release per
// receiver, not two per tuple, and the shared packet's cache line is
// written once per receiver instead of once per tuple. Nodes come from a
// PinPool freelist owned by the receiver.
//
// Thread contract: a pin, its copies and its pool are used by one thread at
// a time — the receiving worker's. Handing them to another thread needs a
// happens-before edge (a join, a lock) covering every copy, as for any
// non-atomic value.
class PinPool;

class PacketPin {
 public:
  PacketPin() = default;
  PacketPin(const PacketPin& o) : n_(o.n_) {
    if (n_ != nullptr) ++n_->refs;
  }
  PacketPin(PacketPin&& o) noexcept : n_(std::exchange(o.n_, nullptr)) {}
  PacketPin& operator=(const PacketPin& o) {
    if (n_ != o.n_) {
      release();
      n_ = o.n_;
      if (n_ != nullptr) ++n_->refs;
    }
    return *this;
  }
  PacketPin& operator=(PacketPin&& o) noexcept {
    if (this != &o) {
      release();
      n_ = std::exchange(o.n_, nullptr);
    }
    return *this;
  }
  ~PacketPin() { release(); }

  explicit operator bool() const { return n_ != nullptr; }
  [[nodiscard]] const Packet* get() const {
    return n_ == nullptr ? nullptr : n_->packet.get();
  }
  void reset() { release(); }
  // Holders of this pin's node (0 for an empty pin).
  [[nodiscard]] std::uint32_t use_count() const {
    return n_ == nullptr ? 0 : n_->refs;
  }

 private:
  friend class PinPool;
  struct Node {
    PacketPtr packet;
    std::uint32_t refs = 0;
    Node* next_free = nullptr;
    PinPool* pool = nullptr;
  };
  explicit PacketPin(Node* n) : n_(n) {}
  inline void release();

  Node* n_ = nullptr;
};

// Freelist of pin nodes. The owner holds it through PinPool::Owner; a pool
// whose owner is gone lives on until its last outstanding pin drops, so
// items that outlive their transport stay valid. Same thread contract as
// PacketPin.
class PinPool {
 public:
  struct Release {
    void operator()(PinPool* pool) const;
  };
  using Owner = std::unique_ptr<PinPool, Release>;
  static Owner Create() { return Owner(new PinPool()); }

  PinPool(const PinPool&) = delete;
  PinPool& operator=(const PinPool&) = delete;

  // Takes over `p`'s reference (no atomic RMW) and returns the first pin.
  PacketPin pin(PacketPtr p) {
    PacketPin::Node* n = free_;
    if (n != nullptr) {
      free_ = n->next_free;
      --free_count_;
    } else {
      n = new PacketPin::Node();
      n->pool = this;
      ++allocated_;
    }
    n->packet = std::move(p);
    n->refs = 1;
    ++outstanding_;
    return PacketPin(n);
  }

  // Nodes ever allocated / waiting on the freelist / held by live pins.
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  [[nodiscard]] std::size_t free_size() const { return free_count_; }
  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }

 private:
  friend class PacketPin;
  // Recycled nodes beyond this are deleted, so a burst of held packets
  // does not keep its peak node count forever.
  static constexpr std::size_t kMaxFree = 256;

  PinPool() = default;
  ~PinPool();

  // Last pin of a node dropped: release the packet, keep the node.
  void recycle(PacketPin::Node* n) {
    n->packet.reset();
    --outstanding_;
    if (orphaned_) {
      delete n;
      if (outstanding_ == 0) delete this;
      return;
    }
    if (free_count_ >= kMaxFree) {
      delete n;
      return;
    }
    n->next_free = free_;
    free_ = n;
    ++free_count_;
  }

  PacketPin::Node* free_ = nullptr;
  std::size_t free_count_ = 0;
  std::size_t outstanding_ = 0;
  std::uint64_t allocated_ = 0;
  // Set when the owner let go while pins were outstanding.
  bool orphaned_ = false;
};

inline void PacketPin::release() {
  Node* n = std::exchange(n_, nullptr);
  if (n != nullptr && --n->refs == 0) n->pool->recycle(n);
}

// Heap-allocating fallback for cold paths (tests, control-plane one-offs,
// copy-on-write rewrites). Hot paths should fill a pool checkout instead.
inline PacketPtr MakePacket(Packet p) {
  auto* heap = new Packet(std::move(p));
  heap->refs_.store(1, std::memory_order_relaxed);
  return PacketPtr::adopt(heap);
}

// Serialize/parse the full frame (header + payload) for tunnel transport.
void EncodeFrame(const Packet& p, common::Bytes& out);
// Encode just the fixed-width frame header (kHeaderWireSize bytes) into
// `out`, byte-identical to EncodeFrame's prefix. The vectored tunnel TX
// path writes [header][payload] as separate iovecs, so the header must be
// encodable without materializing the whole frame.
void EncodeFrameHeader(const Packet& p, std::uint8_t* out);
std::optional<Packet> DecodeFrame(std::span<const std::uint8_t> frame);
// Parse into an existing packet, reusing its payload capacity (pooled RX).
bool DecodeFrameInto(std::span<const std::uint8_t> frame, Packet& out);

// Chunk header codec within a payload.
void EncodeChunkHeader(const ChunkHeader& h, common::BufWriter& w);
bool DecodeChunkHeader(common::BufReader& r, ChunkHeader& h);

// The chunk-header parse behind DecodeChunkHeader, for the receive path:
// one bounds check for the fixed part (and one for a trace extension).
// Returns the first byte after the header, or nullptr if [p, end) is too
// short.
inline const std::uint8_t* ParseChunkHeader(const std::uint8_t* p,
                                            const std::uint8_t* end,
                                            ChunkHeader& h) {
  if (end - p < static_cast<std::ptrdiff_t>(ChunkHeader::kWireSize)) {
    return nullptr;
  }
  std::memcpy(&h.stream_id, p, 2);
  h.flags = p[2];
  std::memcpy(&h.tuple_seq, p + 3, 4);
  std::memcpy(&h.seg_index, p + 7, 2);
  std::memcpy(&h.seg_count, p + 9, 2);
  std::memcpy(&h.chunk_len, p + 11, 4);
  p += ChunkHeader::kWireSize;
  if (!h.traced()) {
    h.trace_id = 0;
    h.trace_hop = 0;
    return p;
  }
  if (end - p < static_cast<std::ptrdiff_t>(kTraceExtWireSize)) return nullptr;
  std::memcpy(&h.trace_id, p, 8);
  h.trace_hop = p[8];
  return p + kTraceExtWireSize;
}

}  // namespace typhoon::net
