#include "net/packetizer.h"

#include <algorithm>

#include "common/hash.h"

namespace typhoon::net {

Packetizer::Packetizer(WorkerAddress self, PacketizerConfig cfg, Sink sink)
    : self_(self),
      cfg_(cfg),
      batch_tuples_(cfg.batch_tuples),
      sink_(std::move(sink)),
      pool_(PacketPool::Create({.max_free = cfg.pool_max_free})) {}

Packetizer::~Packetizer() {
  // Return unfinished checkouts to the pool.
  for (auto& [dst, buf] : buffers_) drop_wip(buf);
}

Packet& Packetizer::ensure_wip(DstBuffer& buf) {
  if (buf.wip == nullptr) {
    buf.wip = pool_->acquire_raw();
    if (buf.high_water > 0) buf.wip->payload.reserve(buf.high_water);
  }
  return *buf.wip;
}

void Packetizer::drop_wip(DstBuffer& buf) {
  if (buf.wip != nullptr) {
    PacketPtr::adopt(buf.wip);  // dropped immediately → recycled
    buf.wip = nullptr;
  }
}

void Packetizer::append_chunk(DstBuffer& buf, const ChunkHeader& h,
                              std::span<const std::uint8_t> data) {
  common::BufWriter w(ensure_wip(buf).payload);
  EncodeChunkHeader(h, w);
  w.raw(data);
}

void Packetizer::emit(const WorkerAddress& dst, DstBuffer& buf) {
  if (buf.wip == nullptr || buf.wip->payload.empty()) return;
  buf.high_water = std::max(buf.high_water, buf.wip->payload.size());
  Packet* p = buf.wip;
  buf.wip = nullptr;
  p->dst = dst;
  p->src = self_;
  p->trace_id = buf.trace_id;
  p->trace_hop = buf.trace_hop;
  buf.tuple_count = 0;
  buf.trace_id = 0;
  buf.trace_hop = 0;
  buf.idle_flushes = 0;
  sink_(PacketPtr::adopt(p));
}

void Packetizer::add(const TupleRecord& rec) {
  DstBuffer& buf = buffers_[rec.dst];
  const std::span<const std::uint8_t> bytes(rec.data);

  ChunkHeader h;
  h.stream_id = rec.stream_id;
  h.flags = rec.control ? kChunkFlagControl : std::uint8_t{0};
  if (rec.trace_id != 0) {
    h.flags |= kChunkFlagTraced;
    h.trace_id = rec.trace_id;
    h.trace_hop = rec.trace_hop;
  }
  h.tuple_seq = next_seq_++;

  const std::size_t chunk_overhead =
      ChunkHeader::kWireSize + (h.traced() ? kTraceExtWireSize : 0);
  const std::size_t max_chunk = cfg_.max_payload - chunk_overhead;
  if (bytes.size() > max_chunk) {
    // Large tuple: flush what we have, then emit one packet per segment.
    emit(rec.dst, buf);
    const std::size_t segs = (bytes.size() + max_chunk - 1) / max_chunk;
    h.seg_count = static_cast<std::uint16_t>(segs);
    std::size_t off = 0;
    for (std::size_t i = 0; i < segs; ++i) {
      const std::size_t n = std::min(max_chunk, bytes.size() - off);
      h.seg_index = static_cast<std::uint16_t>(i);
      h.chunk_len = static_cast<std::uint32_t>(n);
      append_chunk(buf, h, bytes.subspan(off, n));
      buf.trace_id = rec.trace_id;
      buf.trace_hop = rec.trace_hop;
      off += n;
      emit(rec.dst, buf);
    }
    return;
  }

  // Would this tuple overflow the packet? Flush first.
  const std::size_t buffered =
      buf.wip == nullptr ? 0 : buf.wip->payload.size();
  if (buffered + chunk_overhead + bytes.size() > cfg_.max_payload) {
    emit(rec.dst, buf);
  }
  h.chunk_len = static_cast<std::uint32_t>(bytes.size());
  append_chunk(buf, h, bytes);
  if (rec.trace_id != 0 && buf.trace_id == 0) {
    buf.trace_id = rec.trace_id;
    buf.trace_hop = rec.trace_hop;
  }
  ++buf.tuple_count;
  const std::size_t batch = batch_tuples_.load(std::memory_order_relaxed);
  if (batch != 0 && buf.tuple_count >= batch) {
    emit(rec.dst, buf);
  }
}

void Packetizer::flush() {
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    DstBuffer& buf = it->second;
    const bool had_data = buf.wip != nullptr && !buf.wip->payload.empty();
    emit(it->first, buf);
    if (!had_data && ++buf.idle_flushes >= kIdleFlushEvict) {
      // Destination went quiet for many flush cycles — likely retired by a
      // rebalance/scale-down. Drop the buffer (and its reservation); it is
      // recreated on demand if the destination comes back.
      drop_wip(buf);
      it = buffers_.erase(it);
      ++buffers_evicted_;
    } else {
      ++it;
    }
  }
}

void Packetizer::flush_to(const WorkerAddress& dst) {
  if (auto it = buffers_.find(dst); it != buffers_.end()) {
    emit(dst, it->second);
  }
}

void Packetizer::retire(const WorkerAddress& dst) {
  if (auto it = buffers_.find(dst); it != buffers_.end()) {
    emit(dst, it->second);
    drop_wip(it->second);
    buffers_.erase(it);
    ++buffers_evicted_;
  }
}

void Packetizer::set_batch_tuples(std::size_t n) {
  batch_tuples_.store(n, std::memory_order_relaxed);
}

Depacketizer::Depacketizer(Sink sink, DepacketizerConfig cfg)
    : sink_(std::move(sink)), cfg_(cfg) {}

bool Depacketizer::consume(const Packet& p) {
  return visit(p, [&](const ChunkHeader& h, std::span<const std::uint8_t> bytes,
                      common::Bytes* owned) {
    TupleRecord rec;
    rec.src = p.src;
    rec.dst = p.dst;
    rec.stream_id = h.stream_id;
    rec.control = h.control();
    rec.trace_id = h.trace_id;
    rec.trace_hop = h.trace_hop;
    if (owned != nullptr) {
      rec.data = std::move(*owned);
    } else {
      rec.data.assign(bytes.begin(), bytes.end());
      bytes_copied_ += bytes.size();
    }
    sink_(std::move(rec));
  });
}

bool Depacketizer::reassemble(const Packet& p, ChunkHeader& h,
                              std::span<const std::uint8_t> data,
                              common::Bytes& out) {
  // Segments of one tuple travel in order over one path, so append-order
  // suffices.
  const std::uint64_t key = common::HashCombine(p.src.packed(), h.tuple_seq);
  Partial& part = reassembly_[key];
  if (part.expected == 0) {
    part.expected = h.seg_count;
    part.stream_id = h.stream_id;
    part.flags = h.flags;
    part.trace_id = h.trace_id;
    part.trace_hop = h.trace_hop;
    part.born = packets_seen_;
    if (reassembly_.size() > cfg_.max_reassemblies) evict_oldest(key);
  }
  part.data.insert(part.data.end(), data.begin(), data.end());
  bytes_copied_ += data.size();
  if (++part.received != part.expected) return false;
  h.stream_id = part.stream_id;
  h.flags = part.flags;
  h.trace_id = part.trace_id;
  h.trace_hop = part.trace_hop;
  h.seg_index = 0;
  h.seg_count = 1;
  out = std::move(part.data);
  h.chunk_len = static_cast<std::uint32_t>(out.size());
  reassembly_.erase(key);
  return true;
}

void Depacketizer::evict_stale() {
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (packets_seen_ - it->second.born > cfg_.reassembly_max_age_packets) {
      it = reassembly_.erase(it);
      ++reassembly_evicted_;
    } else {
      ++it;
    }
  }
}

void Depacketizer::evict_oldest(std::uint64_t except_key) {
  auto oldest = reassembly_.end();
  for (auto it = reassembly_.begin(); it != reassembly_.end(); ++it) {
    if (it->first == except_key) continue;  // never evict the one being built
    if (oldest == reassembly_.end() || it->second.born < oldest->second.born) {
      oldest = it;
    }
  }
  if (oldest != reassembly_.end()) {
    reassembly_.erase(oldest);
    ++reassembly_evicted_;
  }
}

}  // namespace typhoon::net
