#include "net/tunnel.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

namespace typhoon::net {

namespace {

constexpr std::size_t kChecksumBytes = kFrameChecksumBytes;

// ---- frame checksum -------------------------------------------------------
// A word-at-a-time fold: every step consumes one little-endian 64-bit word,
// h = rotl((h ^ w) * kPrime, 31). For a fixed word the step is a bijection
// of h (xor, multiply by an odd constant and rotate are all invertible), and
// for a fixed h it is injective in w. So a change confined to one 8-byte
// word changes the lane that folds it and stays changed through every later
// step: any such change — a single flipped byte in particular — is always
// detected, not merely with high probability.

constexpr std::uint64_t kPrime = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kSeed = 0xcbf29ce484222325ull;
constexpr std::uint64_t kLaneSeed1 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kLaneSeed2 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kLaneSeed3 = 0x27d4eb2f165667c5ull;

std::uint64_t FoldStep(std::uint64_t h, std::uint64_t w) {
  return std::rotl((h ^ w) * kPrime, 31);
}

std::uint64_t LoadLe64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

// Folds one segment. Four independent lanes take 32-byte blocks (so the
// multiplies overlap), then collapse into one; whole words and the zero-
// padded tail follow, then the length. The seed enters lane 0 only, which
// chains segments: Fold(b, Fold(a, s)) is how a split frame is hashed.
std::uint64_t Fold(std::span<const std::uint8_t> data, std::uint64_t seed) {
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::uint64_t l0 = seed;
  std::uint64_t l1 = kLaneSeed1;
  std::uint64_t l2 = kLaneSeed2;
  std::uint64_t l3 = kLaneSeed3;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    l0 = FoldStep(l0, LoadLe64(p + i));
    l1 = FoldStep(l1, LoadLe64(p + i + 8));
    l2 = FoldStep(l2, LoadLe64(p + i + 16));
    l3 = FoldStep(l3, LoadLe64(p + i + 24));
  }
  std::uint64_t h = FoldStep(FoldStep(FoldStep(l0, l1), l2), l3);
  for (; i + 8 <= n; i += 8) h = FoldStep(h, LoadLe64(p + i));
  std::uint8_t tail[8] = {};
  if (n > i) std::memcpy(tail, p + i, n - i);
  h = FoldStep(h, LoadLe64(tail));
  return FoldStep(h, n);
}

// Checksum of a contiguous frame body ([header][payload]): the header and
// the payload are folded as two chained segments, exactly as FrameChecksum
// folds a packet it never materializes.
std::uint64_t BodyChecksum(std::span<const std::uint8_t> body) {
  const std::size_t hdr = std::min(body.size(), Packet::kHeaderWireSize);
  return Fold(body.subspan(hdr), Fold(body.first(hdr), kSeed));
}

std::uint64_t StoredChecksum(std::span<const std::uint8_t> trailer) {
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    stored |= static_cast<std::uint64_t>(trailer[i]) << (i * 8);
  }
  return stored;
}

// Verify the trailer over a borrowed frame view without mutating it.
// Returns the body span (trailer stripped) or an empty optional on mismatch.
std::optional<std::span<const std::uint8_t>> VerifyChecksumView(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kChecksumBytes) return std::nullopt;
  const auto body = frame.first(frame.size() - kChecksumBytes);
  if (BodyChecksum(body) != StoredChecksum(frame.subspan(body.size()))) {
    return std::nullopt;
  }
  return body;
}

// The shaper's corrupt action: XORs `mask` into byte `offset % frame size`
// of the wire frame [header][payload][checksum]. A trailer byte is flipped
// in the carried checksum; a header or payload byte in a private copy of
// the packet, which broadcast replicas may share. Every header byte is one
// byte of a Packet field (the header has no length field), so decoding the
// flipped header yields a packet that encodes to exactly those bytes.
void CorruptFrame(TxFrame& f, std::uint32_t offset, std::uint8_t mask) {
  const std::size_t at = offset % (f.info.body_len + kChecksumBytes);
  if (at >= f.info.body_len) {
    f.info.checksum ^= static_cast<std::uint64_t>(mask)
                       << (8 * (at - f.info.body_len));
    return;
  }
  Packet copy;
  if (at < Packet::kHeaderWireSize) {
    std::uint8_t hdr[Packet::kHeaderWireSize];
    EncodeFrameHeader(*f.pkt, hdr);
    hdr[at] ^= mask;
    DecodeFrameInto(hdr, copy);
    copy.payload = f.pkt->payload;
  } else {
    copy = *f.pkt;
    copy.payload[at - Packet::kHeaderWireSize] ^= mask;
  }
  f.pkt = MakePacket(std::move(copy));
}

}  // namespace

std::uint64_t FrameChecksum(const Packet& p) {
  std::uint8_t hdr[Packet::kHeaderWireSize];
  EncodeFrameHeader(p, hdr);
  return Fold(p.payload, Fold(hdr, kSeed));
}

TunnelEndpoint::~TunnelEndpoint() = default;

bool TunnelEndpoint::send(PacketPtr p) {
  // bytes_sent counts marshalled frame bytes; the checksum trailer is link
  // overhead, excluded so throughput probes keep their pre-trailer meaning.
  const TxFrameInfo info{static_cast<std::uint32_t>(p->wire_size()),
                         FrameChecksum(*p)};

  bool ok = true;
  bool handled = false;
  if (impaired_.load(std::memory_order_acquire)) {
    std::lock_guard lk(impair_mu_);
    if (shaper_ != nullptr) {
      // The corrupt action flips one wire byte; the receiver's checksum
      // turns it into a counted drop rather than a garbage packet.
      std::vector<TxFrame> out;
      shaper_->admit(TxFrame{std::move(p), info}, out, CorruptFrame);
      for (TxFrame& f : out) ok = wire_push(std::move(f)) && ok;
      handled = true;
    }
  }
  // Outside impair_mu_: a push blocked on a full wire stalls no setter.
  if (!handled) ok = wire_push(TxFrame{std::move(p), info});
  wire_fire_tx_notify();
  // A frame counts as sent once it is handed to the wire — including
  // frames the wire shaper then drops (link loss), but not frames a
  // closed tunnel rejected, which would skew accounting against delivery.
  if (ok) {
    sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(info.body_len, std::memory_order_relaxed);
  }
  return ok;
}

std::size_t TunnelEndpoint::try_send_burst(std::span<const PacketPtr> pkts) {
  if (pkts.empty()) return 0;
  if (impaired_.load(std::memory_order_acquire)) {
    // Impaired links keep the per-frame path so the shaper's deterministic
    // draw schedule (one admit per frame) is byte-identical with and
    // without bursting.
    std::size_t n = 0;
    for (const PacketPtr& p : pkts) {
      if (!send(p)) break;
      ++n;
    }
    return n;
  }
  // Precompute framing metadata into per-thread scratch (several threads
  // may burst into one endpoint at once).
  thread_local std::vector<TxFrameInfo> info;
  info.clear();
  for (const PacketPtr& p : pkts) {
    info.push_back(TxFrameInfo{static_cast<std::uint32_t>(p->wire_size()),
                               FrameChecksum(*p)});
  }
  const std::size_t pushed =
      wire_try_push_pkts(pkts, std::span<const TxFrameInfo>(info));
  std::size_t body_bytes_total = 0;
  for (std::size_t i = 0; i < pushed; ++i) body_bytes_total += info[i].body_len;
  bytes_.fetch_add(body_bytes_total, std::memory_order_relaxed);
  sent_.fetch_add(pushed, std::memory_order_relaxed);
  if (pushed != 0) wire_fire_tx_notify();
  return pushed;
}

std::size_t TunnelEndpoint::try_recv_burst(std::span<Packet*> out) {
  if (out.empty()) return 0;
  // The transport lends spans into its RX rings/slabs; verify and decode in
  // place, making the payload copy into the caller's pooled packet the only
  // copy on the way in.
  view_scratch_.clear();
  const std::size_t got = wire_pop_views(view_scratch_, out.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < got; ++i) {
    // Corrupt frames are counted link drops; the decode slot is reused for
    // the next frame so the caller still gets a dense prefix.
    const auto body = VerifyChecksumView(view_scratch_[i].bytes);
    if (!body) {
      corrupt_rx_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (DecodeFrameInto(*body, *out[n])) ++n;
  }
  view_scratch_.clear();
  wire_release_views();
  return n;
}

faultinject::Impairment* TunnelEndpoint::set_impairment(
    const faultinject::ImpairmentConfig& cfg) {
  std::lock_guard lk(impair_mu_);
  shaper_ = std::make_unique<faultinject::Shaper<TxFrame>>(cfg);
  impaired_.store(true, std::memory_order_release);
  return &shaper_->impairment();
}

void TunnelEndpoint::clear_impairment() { release_impairment(true); }

void TunnelEndpoint::release_impairment(bool deliver) {
  std::unique_ptr<faultinject::Shaper<TxFrame>> shaper;
  {
    std::lock_guard lk(impair_mu_);
    shaper = std::move(shaper_);
    impaired_.store(false, std::memory_order_release);
  }
  if (shaper == nullptr) return;
  // The held frames already count in frames_sent(), so none may vanish
  // silently: each goes out through the blocking push, and whatever the
  // wire refuses (closed) is a counted drop. The push runs outside the
  // lock, so a close() racing a flush blocked on a full ring closes the
  // wire and unblocks it.
  std::vector<TxFrame> held;
  shaper->flush(held);
  std::uint64_t dropped = 0;
  for (TxFrame& f : held) {
    if (!deliver || !wire_push(std::move(f))) ++dropped;
  }
  if (deliver && dropped != held.size()) wire_fire_tx_notify();
  count_peer_drops(dropped);
}

faultinject::Impairment* TunnelEndpoint::impairment() {
  std::lock_guard lk(impair_mu_);
  return shaper_ == nullptr ? nullptr : &shaper_->impairment();
}

void TunnelEndpoint::close() {
  wire_close();
  release_impairment(false);
}

}  // namespace typhoon::net
