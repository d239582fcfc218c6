#include "net/ring_tunnel.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <new>
#include <thread>

#include "common/log.h"

namespace typhoon::net {

namespace {

constexpr std::uint32_t kShmMagic = 0x54595253;  // "TYRS"

// Data bytes per direction of an in-process ring. A constant, not an
// option: it must hold a whole burst of the largest frames (64 x 16 KiB
// payloads) with room to spare, because a sender may push a full burst
// before its receiver runs at all.
constexpr std::size_t kHeapRingBytes = std::size_t{4} << 20;

// How long a blocking push waits out a full shm ring before counting the
// frame as a peer drop (the consumer process is wedged or dead).
constexpr auto kShmPushPatience = std::chrono::milliseconds(200);

std::size_t RoundUpPow2(std::size_t v) {
  std::size_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

// One direction of the wire. `tail` is the producer's byte cursor, `head`
// the consumer's; both grow monotonically and are reduced mod capacity at
// access time, so `tail - head` is always the queued byte count. Cursor
// stores use release ordering so the data copied before the bump is visible
// to the other side's acquire load (another thread, or another process).
struct alignas(64) Ring {
  std::atomic<std::uint64_t> tail;
  std::atomic<std::uint64_t> head;
  std::atomic<std::uint32_t> frames;
  std::atomic<std::uint32_t> closed;
};

struct SegmentHeader {
  std::uint32_t magic;
  std::uint32_t capacity;  // per-ring data bytes (power of two)
  Ring ring[2];            // ring[0]: A→B, ring[1]: B→A
  // Data regions follow: ring 0 at offset sizeof(SegmentHeader), ring 1
  // right after it.
};

// The heap backing is an array of these, so the ring headers get their
// cache-line alignment without the block being zero-filled.
struct alignas(64) CacheLine {
  std::uint8_t bytes[64];
};
static_assert(sizeof(SegmentHeader) % sizeof(CacheLine) == 0);

// Initialize a segment header in place. Only the header is written: the
// data regions are never read before a producer has written them.
SegmentHeader* InitSegment(void* mem, std::size_t cap) {
  auto* hdr = new (mem) SegmentHeader{};
  hdr->capacity = static_cast<std::uint32_t>(cap);
  for (Ring& r : hdr->ring) {
    r.tail.store(0, std::memory_order_relaxed);
    r.head.store(0, std::memory_order_relaxed);
    r.frames.store(0, std::memory_order_relaxed);
    r.closed.store(0, std::memory_order_relaxed);
  }
  // Publish the magic last: an attacher that sees it sees an initialized
  // segment.
  reinterpret_cast<std::atomic<std::uint32_t>*>(&hdr->magic)
      ->store(kShmMagic, std::memory_order_release);
  return hdr;
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Copy `n` bytes out of a ring's data region at cursor `pos`, wrapping at
// the edge.
void RingGet(const std::uint8_t* data, std::size_t cap, std::uint64_t pos,
             std::uint8_t* dst, std::size_t n) {
  const std::size_t off = pos & (cap - 1);
  const std::size_t first = std::min(n, cap - off);
  std::memcpy(dst, data + off, first);
  if (first < n) std::memcpy(dst + first, data, n - first);
}

// Burst reserve/commit over one ring: one acquire-load of the consumer's
// head bounds the space, records are laid in against a local tail cursor,
// and commit() publishes the whole burst with one frame-count add and one
// tail store (vs. a cursor round per frame). Callers hold the ring's
// producer lock.
class BurstWriter {
 public:
  BurstWriter(Ring& r, std::uint8_t* data, std::size_t cap,
              std::uint32_t max_frames)
      : r_(r),
        data_(data),
        cap_(cap),
        head_(r.head.load(std::memory_order_acquire)),
        tail_(r.tail.load(std::memory_order_relaxed)),
        room_(max_frames -
              std::min(max_frames, r.frames.load(std::memory_order_relaxed))) {
  }

  // Start a record of `len` frame bytes (its length prefix is written
  // here); the caller then puts exactly `len` bytes. False when the record
  // does not fit: ring bytes or the frame capacity are exhausted.
  bool begin(std::uint32_t len) {
    const std::size_t need = 4 + static_cast<std::size_t>(len);
    if (n_ == room_ || need > cap_ - (tail_ - head_)) return false;
    const std::uint8_t len_le[4] = {
        static_cast<std::uint8_t>(len), static_cast<std::uint8_t>(len >> 8),
        static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 24)};
    put(len_le, sizeof len_le);
    ++n_;
    return true;
  }

  // Write one whole record, [len][header][payload][checksum], straight
  // from the packet; false when it does not fit (see begin()).
  bool frame(const Packet& p, const TxFrameInfo& info) {
    if (!begin(info.body_len +
               static_cast<std::uint32_t>(kFrameChecksumBytes))) {
      return false;
    }
    std::uint8_t hdr[Packet::kHeaderWireSize];
    EncodeFrameHeader(p, hdr);
    put(hdr, sizeof(hdr));
    put(p.payload.data(), p.payload.size());
    std::uint8_t csum[kFrameChecksumBytes];
    for (std::size_t b = 0; b < kFrameChecksumBytes; ++b) {
      csum[b] = static_cast<std::uint8_t>(info.checksum >> (b * 8));
    }
    put(csum, sizeof(csum));
    return true;
  }

  void put(const std::uint8_t* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t off = tail_ & (cap_ - 1);
    const std::size_t first = std::min(n, cap_ - off);
    std::memcpy(data_ + off, src, first);
    if (first < n) std::memcpy(data_, src + first, n - first);
    tail_ += n;
  }

  // Publish the records begun so far; returns their count. The count goes
  // up before the tail moves, so a consumer (which only releases records
  // it saw through the tail) never drives it below zero.
  std::size_t commit() {
    if (n_ != 0) {
      r_.frames.fetch_add(n_, std::memory_order_release);
      r_.tail.store(tail_, std::memory_order_release);
    }
    return n_;
  }

 private:
  Ring& r_;
  std::uint8_t* data_;
  const std::size_t cap_;
  const std::uint64_t head_;
  std::uint64_t tail_;
  const std::uint32_t room_;  // frames the ring may still take
  std::uint32_t n_ = 0;
};

}  // namespace

// The memory behind one segment — a heap block or a shm mapping — plus
// the process-local receiver hooks of its two rings. A heap segment is
// shared by both endpoints of the pair, so a sender fires the hook its
// peer registered; each shm attach has its own, so nothing crosses the
// process boundary.
struct RingTunnel::Segment {
  SegmentHeader* hdr = nullptr;
  std::unique_ptr<CacheLine[]> heap;
  void* map = nullptr;
  std::size_t map_bytes = 0;
  NotifyHook rx_notify[2];  // indexed by ring

  ~Segment() {
    if (map != nullptr) munmap(map, map_bytes);
  }

  Ring& ring(int index) const { return hdr->ring[index]; }
  std::uint8_t* data(int index) const {
    auto* base = reinterpret_cast<std::uint8_t*>(hdr) + sizeof(SegmentHeader);
    return base + static_cast<std::size_t>(index) * hdr->capacity;
  }
};

std::pair<std::shared_ptr<TunnelEndpoint>, std::shared_ptr<TunnelEndpoint>>
CreateTunnel(std::size_t capacity) {
  auto seg = std::make_shared<RingTunnel::Segment>();
  // Uninitialized on purpose: zero-filling 8 MiB would cost milliseconds
  // per tunnel pair at cluster setup, and only the header is ever read
  // before being written.
  seg->heap = std::make_unique_for_overwrite<CacheLine[]>(
      (sizeof(SegmentHeader) + 2 * kHeapRingBytes) / sizeof(CacheLine));
  seg->hdr = InitSegment(seg->heap.get(), kHeapRingBytes);
  const auto frames = static_cast<std::uint32_t>(std::clamp<std::size_t>(
      capacity, 1, std::numeric_limits<std::uint32_t>::max()));
  std::shared_ptr<TunnelEndpoint> a(
      new RingTunnel(seg, RingTunnel::Side::kA, frames));
  std::shared_ptr<TunnelEndpoint> b(
      new RingTunnel(seg, RingTunnel::Side::kB, frames));
  return {a, b};
}

bool RingTunnel::CreateSegment(const std::string& name,
                               std::size_t ring_capacity) {
  const std::size_t cap = RoundUpPow2(ring_capacity);
  const std::size_t total = sizeof(SegmentHeader) + 2 * cap;
  const int fd = shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0) {
    LOG_WARN("shmring") << "shm_open(" << name << ") failed: " << errno;
    return false;
  }
  if (ftruncate(fd, static_cast<off_t>(total)) != 0) {
    ::close(fd);
    shm_unlink(name.c_str());
    return false;
  }
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    shm_unlink(name.c_str());
    return false;
  }
  InitSegment(map, cap);
  munmap(map, total);
  return true;
}

void RingTunnel::UnlinkSegment(const std::string& name) {
  shm_unlink(name.c_str());
}

std::shared_ptr<RingTunnel> RingTunnel::Attach(const std::string& name,
                                               Side side) {
  const int fd = shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) return nullptr;
  struct stat st{};
  if (fstat(fd, &st) != 0 || st.st_size <
                                 static_cast<off_t>(sizeof(SegmentHeader))) {
    ::close(fd);
    return nullptr;
  }
  const auto total = static_cast<std::size_t>(st.st_size);
  void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) return nullptr;
  auto seg = std::make_shared<Segment>();
  seg->map = map;
  seg->map_bytes = total;
  seg->hdr = static_cast<SegmentHeader*>(map);
  if (reinterpret_cast<std::atomic<std::uint32_t>*>(&seg->hdr->magic)
          ->load(std::memory_order_acquire) != kShmMagic) {
    return nullptr;
  }
  return std::shared_ptr<RingTunnel>(new RingTunnel(
      std::move(seg), side, std::numeric_limits<std::uint32_t>::max()));
}

RingTunnel::RingTunnel(std::shared_ptr<Segment> seg, Side side,
                       std::uint32_t max_frames)
    : seg_(std::move(seg)),
      tx_(side == Side::kA ? 0 : 1),
      rx_(side == Side::kA ? 1 : 0),
      max_frames_(max_frames) {}

RingTunnel::~RingTunnel() { close(); }

std::size_t RingTunnel::wire_try_push_pkts(std::span<const PacketPtr> pkts,
                                           std::span<const TxFrameInfo> info) {
  Ring& r = seg_->ring(tx_);
  if (r.closed.load(std::memory_order_acquire) != 0) return 0;
  std::lock_guard lk(tx_mu_);
  // Encode [hdr][payload][csum] straight into the ring — no intermediate
  // frame buffer.
  BurstWriter w(r, seg_->data(tx_), seg_->hdr->capacity, max_frames_);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (!w.frame(*pkts[i], info[i])) break;
  }
  return w.commit();
}

bool RingTunnel::wire_push(TxFrame f) {
  Ring& r = seg_->ring(tx_);
  const std::size_t cap = seg_->hdr->capacity;
  if (4 + f.info.body_len + kFrameChecksumBytes > cap) {
    count_peer_drops(1);  // can never fit: a counted loss, not a hang
    return true;
  }
  const auto deadline = std::chrono::steady_clock::now() + kShmPushPatience;
  for (int waits = 0;; ++waits) {
    if (r.closed.load(std::memory_order_acquire) != 0) return false;
    {
      std::lock_guard lk(tx_mu_);
      BurstWriter w(r, seg_->data(tx_), cap, max_frames_);
      if (w.frame(*f.pkt, f.info)) {
        w.commit();
        return true;
      }
    }
    // Full ring. A shm consumer may be a wedged or dead process: brief
    // back-pressure, then a counted drop, because blocking forever would
    // wedge the sending switch with it. A heap ring's consumer lives
    // in this process, so the push waits for it like a blocking queue.
    if (seg_->map != nullptr && std::chrono::steady_clock::now() >= deadline) {
      count_peer_drops(1);
      return true;
    }
    if (waits < 64) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

std::size_t RingTunnel::wire_pop_views(std::vector<FrameView>& out,
                                       std::size_t max) {
  std::lock_guard lk(rx_mu_);
  Ring& r = seg_->ring(rx_);
  const std::size_t cap = seg_->hdr->capacity;
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
  const std::uint8_t* data = seg_->data(rx_);
  // Walk records in place. Contiguous records are lent as spans straight
  // into the ring — the producer cannot overwrite them because the head
  // cursor advances only in wire_release_views. Records straddling the
  // ring edge are stitched into reusable scratch (counted).
  std::uint64_t pos = head;
  std::size_t n = 0;
  wrap_used_ = 0;
  while (n < max && tail - pos >= 4) {
    std::uint8_t len_le[4];
    RingGet(data, cap, pos, len_le, 4);
    const std::uint32_t len = GetU32(len_le);
    if (len > cap || tail - pos < 4 + static_cast<std::uint64_t>(len)) break;
    const std::size_t off = (pos + 4) & (cap - 1);
    if (off + len <= cap) {
      out.push_back(FrameView{std::span<const std::uint8_t>(data + off, len)});
    } else {
      if (wrap_used_ == wrap_bufs_.size()) wrap_bufs_.emplace_back();
      common::Bytes& buf = wrap_bufs_[wrap_used_++];
      buf.resize(len);
      RingGet(data, cap, pos + 4, buf.data(), len);
      rx_wrap_copied_.fetch_add(len, std::memory_order_relaxed);
      out.push_back(
          FrameView{std::span<const std::uint8_t>(buf.data(), buf.size())});
    }
    pos += 4 + len;
    ++n;
  }
  view_head_advance_ = pos;
  view_count_ = static_cast<std::uint32_t>(n);
  return n;
}

void RingTunnel::wire_release_views() {
  std::lock_guard lk(rx_mu_);
  if (view_count_ == 0) return;
  Ring& r = seg_->ring(rx_);
  r.head.store(view_head_advance_, std::memory_order_release);
  r.frames.fetch_sub(view_count_, std::memory_order_release);
  view_count_ = 0;
  wrap_used_ = 0;
}

std::size_t RingTunnel::wire_rx_depth() const {
  return seg_->ring(rx_).frames.load(std::memory_order_acquire);
}

void RingTunnel::wire_close() {
  // Close both directions: the peer's pushes and ours both fail fast once
  // either side closes.
  seg_->ring(0).closed.store(1, std::memory_order_release);
  seg_->ring(1).closed.store(1, std::memory_order_release);
}

void RingTunnel::wire_fire_tx_notify() { seg_->rx_notify[tx_].fire(); }

void RingTunnel::wire_set_rx_notify(std::function<void()> fn) {
  seg_->rx_notify[rx_].set(std::move(fn));
}

}  // namespace typhoon::net
