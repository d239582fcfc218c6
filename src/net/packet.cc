#include "net/packet.h"

#include <cstring>

namespace typhoon::net {

void PinPool::Release::operator()(PinPool* pool) const {
  pool->orphaned_ = true;
  if (pool->outstanding_ == 0) delete pool;
}

PinPool::~PinPool() {
  while (free_ != nullptr) delete std::exchange(free_, free_->next_free);
}

void EncodeFrame(const Packet& p, common::Bytes& out) {
  common::BufWriter w(out);
  w.u64(p.dst.packed());
  w.u64(p.src.packed());
  w.u16(p.ether_type);
  w.u64(p.trace_id);
  w.u8(p.trace_hop);
  w.raw(p.payload);
}

void EncodeFrameHeader(const Packet& p, std::uint8_t* out) {
  const std::uint64_t dst = p.dst.packed();
  const std::uint64_t src = p.src.packed();
  std::memcpy(out, &dst, 8);
  std::memcpy(out + 8, &src, 8);
  std::memcpy(out + 16, &p.ether_type, 2);
  std::memcpy(out + 18, &p.trace_id, 8);
  out[26] = p.trace_hop;
  static_assert(Packet::kHeaderWireSize == 27);
}

bool DecodeFrameInto(std::span<const std::uint8_t> frame, Packet& out) {
  common::BufReader r(frame);
  std::uint64_t dst = 0;
  std::uint64_t src = 0;
  std::uint16_t ether_type = 0;
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;
  if (!r.u64(dst) || !r.u64(src) || !r.u16(ether_type) || !r.u64(trace_id) ||
      !r.u8(trace_hop)) {
    return false;
  }
  out.dst = WorkerAddress::unpack(dst);
  out.src = WorkerAddress::unpack(src);
  out.ether_type = ether_type;
  out.trace_id = trace_id;
  out.trace_hop = trace_hop;
  out.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(r.position()),
                     frame.end());
  return true;
}

std::optional<Packet> DecodeFrame(std::span<const std::uint8_t> frame) {
  Packet p;
  if (!DecodeFrameInto(frame, p)) return std::nullopt;
  return p;
}

void EncodeChunkHeader(const ChunkHeader& h, common::BufWriter& w) {
  w.u16(h.stream_id);
  w.u8(h.flags);
  w.u32(h.tuple_seq);
  w.u16(h.seg_index);
  w.u16(h.seg_count);
  w.u32(h.chunk_len);
  if (h.traced()) {
    w.u64(h.trace_id);
    w.u8(h.trace_hop);
  }
}

bool DecodeChunkHeader(common::BufReader& r, ChunkHeader& h) {
  const std::span<const std::uint8_t> rest = r.rest();
  const std::uint8_t* body =
      ParseChunkHeader(rest.data(), rest.data() + rest.size(), h);
  return body != nullptr && r.skip(static_cast<std::size_t>(body - rest.data()));
}

}  // namespace typhoon::net
