// Packetizer / Depacketizer — the southbound half of the Typhoon I/O layer
// (Sec 3.3.1, Sec 5). The packetizer multiplexes serialized tuples bound for
// the same destination into packets, segments oversized tuples, and batches
// up to a configurable tuple count before flushing (the BATCH_SIZE knob of
// Fig 8). The depacketizer performs the inverse: demultiplexing chunks and
// reassembling segmented tuples.
//
// Zero-copy contract: the packetizer fills packets checked out of a
// PacketPool (recycled when the last switch/port reference drops), and the
// depacketizer's visit() hands unsegmented tuples out as *views* into the
// packet payload — no byte of an unsegmented tuple is copied between the
// emitting worker's serialize and the receiving worker's decode. The
// receiver keeps those views valid by pinning the packet (a PacketPin, one
// per packet, shared by its tuples without atomics). Segmented tuples take
// the owning-buffer reassembly path (a copy is unavoidable when stitching
// segments).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "net/packet.h"
#include "net/packet_pool.h"

namespace typhoon::net {

// A serialized tuple plus its routing envelope, as handed to/from the I/O
// layer by the framework layer. Owns its bytes: the send path fills `data`,
// and consume() copies each received tuple into it.
struct TupleRecord {
  WorkerAddress src;
  WorkerAddress dst;
  StreamId stream_id = 0;
  bool control = false;
  // Trace context of a sampled tuple (trace_id != 0); travels as a chunk
  // extension (kChunkFlagTraced) and survives reassembly.
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;
  common::Bytes data;
};

// A destination whose buffer stays empty for this many flush() passes is
// considered retired and its DstBuffer is evicted (rebalance/scale-down
// leaves no dead high-water reservations behind).
inline constexpr std::size_t kIdleFlushEvict = 32;

struct PacketizerConfig {
  // Flush automatically once this many tuples are buffered for one
  // destination. 0 disables count-based flushing (explicit flush only).
  std::size_t batch_tuples = 100;
  // Maximum payload bytes per packet; larger tuples are segmented.
  std::size_t max_payload = 16 * 1024;
  // Freelist cap of the per-packetizer PacketPool.
  std::size_t pool_max_free = 256;
};

class Packetizer {
 public:
  using Sink = std::function<void(PacketPtr)>;

  Packetizer(WorkerAddress self, PacketizerConfig cfg, Sink sink);
  ~Packetizer();

  Packetizer(const Packetizer&) = delete;
  Packetizer& operator=(const Packetizer&) = delete;

  // Queue one tuple; may emit packets through the sink.
  void add(const TupleRecord& rec);

  // Emit all buffered tuples as packets.
  void flush();
  // Flush only the buffer for one destination.
  void flush_to(const WorkerAddress& dst);
  // Flush and drop a destination's buffer (explicit retirement after a
  // routing update removed it from all next-hop sets).
  void retire(const WorkerAddress& dst);

  // Batch-size knob, adjusted live by BATCH_SIZE control tuples on the
  // worker thread while harness threads probe it — hence atomic.
  void set_batch_tuples(std::size_t n);
  [[nodiscard]] std::size_t batch_tuples() const {
    return batch_tuples_.load(std::memory_order_relaxed);
  }

  // Live per-destination buffers (dead ones are evicted on flush).
  [[nodiscard]] std::size_t buffer_count() const { return buffers_.size(); }
  [[nodiscard]] std::uint64_t buffers_evicted() const {
    return buffers_evicted_;
  }
  [[nodiscard]] const std::shared_ptr<PacketPool>& pool() const {
    return pool_;
  }

 private:
  struct DstBuffer {
    // Write-in-progress packet checked out of the pool; null until the
    // first chunk since the last emit.
    Packet* wip = nullptr;
    std::size_t tuple_count = 0;
    // TraceContext of the first traced tuple buffered since the last emit;
    // stamped into the packet header so switches see it without parsing.
    std::uint64_t trace_id = 0;
    std::uint8_t trace_hop = 0;
    // Largest payload ever emitted for this destination; fresh checkouts
    // are pre-reserved to it, so filling a packet costs at most one
    // allocation instead of a realloc-and-copy ladder after every emit.
    std::size_t high_water = 0;
    // Consecutive flush() passes that found this buffer empty.
    std::size_t idle_flushes = 0;
  };

  Packet& ensure_wip(DstBuffer& buf);
  void append_chunk(DstBuffer& buf, const ChunkHeader& h,
                    std::span<const std::uint8_t> data);
  void emit(const WorkerAddress& dst, DstBuffer& buf);
  void drop_wip(DstBuffer& buf);

  WorkerAddress self_;
  PacketizerConfig cfg_;
  std::atomic<std::size_t> batch_tuples_{0};
  Sink sink_;
  std::shared_ptr<PacketPool> pool_;
  std::unordered_map<WorkerAddress, DstBuffer> buffers_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t buffers_evicted_ = 0;
};

struct DepacketizerConfig {
  // A partial reassembly older than this many consumed packets is evicted
  // (its remaining segments were lost to impairment or port churn).
  std::uint64_t reassembly_max_age_packets = 4096;
  // Hard cap on concurrently pending reassemblies; exceeding it evicts the
  // oldest entry.
  std::size_t max_reassemblies = 1024;
};

class Depacketizer {
 public:
  using Sink = std::function<void(TupleRecord)>;

  explicit Depacketizer(Sink sink = {}, DepacketizerConfig cfg = {});

  // The one chunk parser. Calls `v(header, bytes, owned)` once per whole
  // tuple in `p`, in wire order. For an unsegmented chunk `owned` is null
  // and `bytes` aliases p.payload. When the last segment of a segmented
  // tuple arrives, `owned` points at the reassembled buffer (the visitor
  // may move from it), `bytes` views it, and `header` carries the tuple's
  // stream, flags and trace context. Returns false if the payload is
  // malformed; tuples before the fault have been visited.
  template <typename Visitor>
  bool visit(const Packet& p, Visitor&& v);

  // Record-sink wrapper over visit(): copies each tuple into an owning
  // TupleRecord and hands it to the sink (needs one). For receivers that
  // don't keep the packet alive; the zero-copy path calls visit().
  bool consume(const Packet& p);

  // Number of partially reassembled tuples pending.
  [[nodiscard]] std::size_t pending_reassemblies() const {
    return reassembly_.size();
  }
  // Partial reassemblies dropped by age/cap eviction.
  [[nodiscard]] std::uint64_t reassembly_evicted() const {
    return reassembly_evicted_;
  }
  // Tuple bytes that had to be copied out of packet payloads (consume +
  // segment reassembly). The zero-copy receive path keeps this flat while
  // tuples flow.
  [[nodiscard]] std::uint64_t bytes_copied() const { return bytes_copied_; }

 private:
  struct Partial {
    common::Bytes data;
    std::uint16_t received = 0;
    std::uint16_t expected = 0;
    StreamId stream_id = 0;
    std::uint8_t flags = 0;
    std::uint64_t trace_id = 0;
    std::uint8_t trace_hop = 0;
    // packets_seen_ when this partial was created, for age-based eviction.
    std::uint64_t born = 0;
  };

  // Adds one segment; true once its tuple is whole, which is then moved
  // into `out` and described by `h` (rewritten to a single-segment header).
  bool reassemble(const Packet& p, ChunkHeader& h,
                  std::span<const std::uint8_t> data, common::Bytes& out);
  void evict_stale();
  void evict_oldest(std::uint64_t except_key);

  Sink sink_;
  DepacketizerConfig cfg_;
  // Keyed by (src worker, tuple_seq).
  std::unordered_map<std::uint64_t, Partial> reassembly_;
  std::uint64_t packets_seen_ = 0;
  std::uint64_t reassembly_evicted_ = 0;
  std::uint64_t bytes_copied_ = 0;
};

template <typename Visitor>
bool Depacketizer::visit(const Packet& p, Visitor&& v) {
  ++packets_seen_;
  // Periodic stale sweep: cheap (map is tiny in steady state) and bounds
  // how long an abandoned partial can linger.
  if ((packets_seen_ & 0xff) == 0 && !reassembly_.empty()) evict_stale();

  const std::uint8_t* at = p.payload.data();
  const std::uint8_t* const end = at + p.payload.size();
  while (at != end) {
    ChunkHeader h;
    at = ParseChunkHeader(at, end, h);
    if (at == nullptr || static_cast<std::size_t>(end - at) < h.chunk_len) {
      return false;
    }
    const std::span<const std::uint8_t> data(at, h.chunk_len);
    at += h.chunk_len;
    if (h.seg_count <= 1) {
      v(static_cast<const ChunkHeader&>(h), data,
        static_cast<common::Bytes*>(nullptr));
    } else if (common::Bytes whole; reassemble(p, h, data, whole)) {
      v(static_cast<const ChunkHeader&>(h),
        std::span<const std::uint8_t>(whole), &whole);
    }
  }
  return true;
}

}  // namespace typhoon::net
