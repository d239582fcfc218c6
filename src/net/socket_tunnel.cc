#include "net/socket_tunnel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iterator>

#include "common/hash.h"
#include "common/log.h"

namespace typhoon::net {

namespace {

// Records framed into one sendmsg() batch. Three iovecs per record keeps
// the worst case (768) comfortably under IOV_MAX (1024).
constexpr std::size_t kTxBurstRecs = 256;
// Staged-record cap on the IO thread (beyond the TX ring), bounding the
// frames counted lost when a connection drops mid-flight.
constexpr std::size_t kTxStageMax = 1024;
// Arena bytes per record: [len u32] + frame header + checksum trailer.
constexpr std::size_t kArenaPerRec =
    4 + Packet::kHeaderWireSize + kFrameChecksumBytes;
// Dial/redial backoff ramp for the active side.
constexpr std::chrono::milliseconds kBackoffMin{5};
constexpr std::chrono::milliseconds kBackoffMax{250};
// A disconnect episode longer than this turns the endpoint terminal.
constexpr std::chrono::milliseconds kConnectDeadline{10000};

// Idle ramp for the IO thread: spin (poll timeout 0) while work keeps
// arriving, then short poll, then park with the eventfd armed. The 100ms
// backstop only bounds wakeup loss, never delivery latency — submitters
// poke the eventfd whenever io_waiting_ is set.
int RampTimeoutMs(int idle_rounds) {
  if (idle_rounds < 4) return 0;
  if (idle_rounds < 16) return 1;
  if (idle_rounds < 64) return 5;
  return 100;
}

void PutU32At(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Write exactly n bytes to a blocking fd; false on error.
bool WriteAll(int fd, const std::uint8_t* p, std::size_t n) {
  while (n != 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

// ---- SocketTunnel ---------------------------------------------------------

std::shared_ptr<SocketTunnel> SocketTunnel::Connect(std::string host,
                                                    std::uint16_t port,
                                                    HostId self, HostId peer,
                                                    SocketTunnelConfig cfg) {
  return std::shared_ptr<SocketTunnel>(new SocketTunnel(
      /*active=*/true, std::move(host), port, self, peer, cfg));
}

std::shared_ptr<SocketTunnel> SocketTunnel::Accepting(SocketTunnelConfig cfg) {
  return std::shared_ptr<SocketTunnel>(
      new SocketTunnel(/*active=*/false, "", 0, 0, 0, cfg));
}

SocketTunnel::SocketTunnel(bool active, std::string host, std::uint16_t port,
                           HostId self, HostId peer, SocketTunnelConfig cfg)
    : active_(active),
      peer_host_(std::move(host)),
      peer_port_(port),
      self_host_(self),
      peer_host_id_(peer),
      cfg_(cfg),
      tx_q_(cfg.capacity),
      rx_q_(cfg.capacity) {
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  io_thread_ = std::thread([this] { io_loop(); });
}

SocketTunnel::~SocketTunnel() {
  close();
  if (io_thread_.joinable()) io_thread_.join();
  {
    std::lock_guard lk(fd_mu_);
    if (pending_fd_ >= 0) ::close(pending_fd_);
    pending_fd_ = -1;
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

SocketTunnel::IoStats SocketTunnel::io_stats() const {
  IoStats s;
  s.sendmsg_calls = sendmsg_calls_.load(std::memory_order_relaxed);
  s.read_calls = read_calls_.load(std::memory_order_relaxed);
  s.poll_calls = poll_calls_.load(std::memory_order_relaxed);
  s.wake_writes = wake_writes_.load(std::memory_order_relaxed);
  s.tx_records = tx_records_.load(std::memory_order_relaxed);
  s.rx_records = rx_records_.load(std::memory_order_relaxed);
  s.rx_bytes_copied = rx_bytes_copied_.load(std::memory_order_relaxed);
  return s;
}

void SocketTunnel::poke() {
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    wake_writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketTunnel::poke_if_waiting() {
  // See io_waiting_'s comment for why this load is ordered correctly
  // against the IO thread's final ring check.
  if (io_waiting_.load(std::memory_order_seq_cst)) poke();
}

void SocketTunnel::adopt_fd(int fd) {
  SetNonBlocking(fd);
  SetNoDelay(fd);
  int stale = -1;
  {
    std::lock_guard lk(fd_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    std::swap(stale, pending_fd_);
    pending_fd_ = fd;
  }
  if (stale >= 0) ::close(stale);
  // A fresh inbound connection means the old one is dead on the peer's
  // side; kick the pump off it so the swap happens promptly.
  const int live = live_fd_.load(std::memory_order_acquire);
  if (live >= 0) ::shutdown(live, SHUT_RDWR);
  fd_cv_.notify_all();
  poke();
}

bool SocketTunnel::wire_push(TxFrame f) {
  // Blocks while the TX ring is full (back-pressure while the IO thread
  // keeps up); close() releases the waiters by closing the ring, and a
  // dead connection drains the ring as counted drops.
  const bool ok = tx_q_.push(std::move(f));
  if (ok) poke_if_waiting();
  return ok;
}

std::size_t SocketTunnel::wire_try_push_pkts(
    std::span<const PacketPtr> pkts, std::span<const TxFrameInfo> info) {
  // Stage refcounted packets; the IO thread frames them from iovecs at
  // flush time, so nothing is copied here.
  thread_local std::vector<TxFrame> recs;
  recs.clear();
  recs.reserve(pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    recs.push_back(TxFrame{pkts[i], info[i]});
  }
  const std::size_t n = tx_q_.try_push_bulk(recs.begin(), recs.size());
  recs.clear();  // drop refs on any rejected tail
  if (n != 0) poke_if_waiting();
  return n;
}

std::size_t SocketTunnel::wire_pop_views(std::vector<FrameView>& out,
                                         std::size_t max) {
  view_refs_.clear();
  const std::size_t n = rx_q_.pop_bulk(std::back_inserter(view_refs_), max);
  for (const RxFrameRef& r : view_refs_) {
    out.push_back(FrameView{std::span<const std::uint8_t>(r.data, r.len)});
  }
  return n;
}

void SocketTunnel::wire_release_views() { view_refs_.clear(); }

std::size_t SocketTunnel::wire_rx_depth() const { return rx_q_.size(); }

void SocketTunnel::wire_close() {
  if (!running_.exchange(false)) return;
  tx_q_.close();
  rx_q_.close();
  const int live = live_fd_.load(std::memory_order_acquire);
  if (live >= 0) ::shutdown(live, SHUT_RDWR);
  fd_cv_.notify_all();
  poke();
}

void SocketTunnel::retarget(std::string host, std::uint16_t port) {
  bool changed = false;
  {
    std::lock_guard lk(fd_mu_);
    changed = host != peer_host_ || port != peer_port_;
    peer_host_ = std::move(host);
    peer_port_ = port;
  }
  if (!changed) return;
  // Kick the pump off the old connection so the next dial hits the new
  // address.
  const int live = live_fd_.load(std::memory_order_acquire);
  if (live >= 0) ::shutdown(live, SHUT_RDWR);
  fd_cv_.notify_all();
  poke();
}

int SocketTunnel::dial_once() {
  std::string host;
  std::uint16_t port = 0;
  {
    std::lock_guard lk(fd_mu_);
    host = peer_host_;
    port = peer_port_;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.empty() ? "127.0.0.1" : host.c_str(),
                &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  std::uint8_t hello[kTunnelHelloBytes];
  PutU32At(hello, kTunnelHelloMagic);
  PutU32At(hello + 4, self_host_);
  PutU32At(hello + 8, peer_host_id_);
  if (!WriteAll(fd, hello, sizeof hello)) {
    ::close(fd);
    return -1;
  }
  SetNonBlocking(fd);
  SetNoDelay(fd);
  return fd;
}

void SocketTunnel::drain_tx_as_drops() {
  std::uint64_t n = 0;
  while (auto f = tx_q_.try_pop()) ++n;
  if (n != 0) count_peer_drops(n);
}

int SocketTunnel::ensure_connected() {
  auto backoff = kBackoffMin;
  // Jittered redials: after a peer restart every surviving host re-dials at
  // once; randomizing each sleep to 0.5x..1.5x spreads the thundering herd
  // without changing the expected ramp.
  common::Rng jitter(common::SplitMix64(
      (static_cast<std::uint64_t>(self_host_) << 32) ^ peer_host_id_ ^
      static_cast<std::uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count())));
  const auto give_up = std::chrono::steady_clock::now() + kConnectDeadline;
  while (running_.load(std::memory_order_acquire)) {
    {
      // adopt_fd serves both sides: a listener handing the passive side its
      // connection, or a harness injecting one.
      std::lock_guard lk(fd_mu_);
      if (pending_fd_ >= 0) {
        int fd = -1;
        std::swap(fd, pending_fd_);
        return fd;
      }
    }
    if (active_) {
      const int fd = dial_once();
      if (fd >= 0) return fd;
    }
    // A lost connection means staged frames go nowhere; count them out so
    // senders keep making progress (at-least-once replay recovers).
    if (ever_connected_.load(std::memory_order_acquire)) drain_tx_as_drops();
    if (std::chrono::steady_clock::now() > give_up) return -1;
    if (active_) {
      const double scale = 0.5 + jitter.uniform();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                        static_cast<double>(backoff.count()) *
                                        scale))));
      backoff = std::min(backoff * 2, kBackoffMax);
    } else {
      std::unique_lock lk(fd_mu_);
      fd_cv_.wait_for(lk, std::chrono::milliseconds(20), [&] {
        return pending_fd_ >= 0 || !running_.load(std::memory_order_acquire);
      });
    }
  }
  return -1;
}

std::uint64_t SocketTunnel::pump(int fd) {
  live_fd_.store(fd, std::memory_order_release);
  connected_.store(true, std::memory_order_release);

  // ---- TX state: staged records framed per batch into one sendmsg() ----
  std::deque<TxFrame> pending;
  std::vector<TxFrame> refill_scratch;
  common::Bytes arena;  // [len][hdr]/[csum] blocks; iovecs point into it,
  arena.reserve(kTxBurstRecs * kArenaPerRec);  // so it must never regrow
  std::vector<iovec> iov;
  iov.reserve(kTxBurstRecs * 3);
  std::size_t batch_recs = 0;  // records framed into iov (prefix of pending)
  std::size_t iov_done = 0;    // fully written iovecs (resume cursor)

  // ---- RX state: pooled slabs sliced in place ----
  std::vector<std::shared_ptr<common::Bytes>> slab_pool;
  std::shared_ptr<common::Bytes> slab;
  std::size_t fill = 0;   // bytes read into slab
  std::size_t parse = 0;  // bytes sliced out of slab

  bool progress = false;  // wire bytes moved this round (resets the ramp)

  auto take_slab = [&](std::size_t min_size) {
    for (auto it = slab_pool.begin(); it != slab_pool.end(); ++it) {
      // use_count()==1 means no queued record still borrows the slab.
      if ((*it)->size() >= min_size && it->use_count() == 1) {
        auto s = std::move(*it);
        slab_pool.erase(it);
        return s;
      }
    }
    return std::make_shared<common::Bytes>(
        std::max(min_size, cfg_.rx_slab_bytes));
  };

  // Swap in a fresh slab, stitching any partial record across the boundary
  // (the only RX copy, counted). The new slab must hold the carried-over
  // partial plus read room, whatever the caller asked for.
  auto rotate_slab = [&](std::size_t min_size) {
    const std::size_t part = fill - parse;
    auto ns = take_slab(std::max(min_size, part + 4096));
    if (part != 0) {
      std::memcpy(ns->data(), slab->data() + parse, part);
      rx_bytes_copied_.fetch_add(part, std::memory_order_relaxed);
    }
    if (slab && slab->size() == cfg_.rx_slab_bytes && slab_pool.size() < 8) {
      slab_pool.push_back(std::move(slab));
    }
    slab = std::move(ns);
    fill = part;
    parse = 0;
  };

  slab = take_slab(cfg_.rx_slab_bytes);

  auto lost = [&]() -> std::uint64_t {
    connected_.store(false, std::memory_order_release);
    live_fd_.store(-1, std::memory_order_release);
    ::close(fd);
    return pending.size();
  };

  // Frame the front of `pending` into iovecs: per record an arena block
  // [len u32][27B header] + the payload straight from the packet + an
  // arena [8B checksum] block.
  auto build_batch = [&] {
    iov.clear();
    arena.clear();
    iov_done = 0;
    const std::size_t maxr = std::min(pending.size(), kTxBurstRecs);
    for (std::size_t i = 0; i < maxr; ++i) {
      const TxFrame& r = pending[i];
      const std::size_t a0 = arena.size();
      arena.resize(a0 + kArenaPerRec);
      std::uint8_t* p = arena.data() + a0;
      PutU32At(p, r.info.body_len + kFrameChecksumBytes);
      EncodeFrameHeader(*r.pkt, p + 4);
      std::uint8_t* trailer = p + 4 + Packet::kHeaderWireSize;
      for (std::size_t b = 0; b < kFrameChecksumBytes; ++b) {
        trailer[b] = static_cast<std::uint8_t>(r.info.checksum >> (b * 8));
      }
      iov.push_back(iovec{p, 4 + Packet::kHeaderWireSize});
      const common::Bytes& pay = r.pkt->payload;
      if (!pay.empty()) {
        iov.push_back(iovec{const_cast<std::uint8_t*>(pay.data()), pay.size()});
      }
      iov.push_back(iovec{trailer, kFrameChecksumBytes});
    }
    batch_recs = maxr;
  };

  enum class TxRc { kDrained, kBlocked, kFatal };
  auto flush_tx = [&]() -> TxRc {
    for (;;) {
      if (batch_recs == 0) {
        if (pending.empty()) return TxRc::kDrained;
        build_batch();
      }
      while (iov_done < iov.size()) {
        msghdr mh{};
        mh.msg_iov = iov.data() + iov_done;
        mh.msg_iovlen = iov.size() - iov_done;
        const ssize_t w = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
        sendmsg_calls_.fetch_add(1, std::memory_order_relaxed);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) return TxRc::kBlocked;
          return TxRc::kFatal;
        }
        progress = true;
        // Short write: fold the written bytes into the iovec cursor so the
        // next sendmsg resumes mid-record, mid-iovec.
        std::size_t left = static_cast<std::size_t>(w);
        while (left != 0 && iov_done < iov.size()) {
          iovec& v = iov[iov_done];
          if (left >= v.iov_len) {
            left -= v.iov_len;
            ++iov_done;
          } else {
            v.iov_base = static_cast<std::uint8_t*>(v.iov_base) + left;
            v.iov_len -= left;
            left = 0;
          }
        }
      }
      // Whole batch on the wire: retire the records (drops packet refs —
      // pooled payloads recycle here).
      tx_records_.fetch_add(batch_recs, std::memory_order_relaxed);
      pending.erase(pending.begin(),
                    pending.begin() + static_cast<std::ptrdiff_t>(batch_recs));
      batch_recs = 0;
    }
  };

  // Drain the socket into slabs and slice complete records into the RX
  // ring in place. False = connection lost / protocol error.
  auto drain_rx = [&]() -> bool {
    bool delivered = false;
    for (;;) {
      const std::size_t min_space =
          std::min<std::size_t>(4096, std::max<std::size_t>(slab->size() / 4,
                                                            std::size_t{1}));
      if (slab->size() - fill < min_space) rotate_slab(cfg_.rx_slab_bytes);
      const std::size_t space = slab->size() - fill;
      const ssize_t r = ::read(fd, slab->data() + fill, space);
      read_calls_.fetch_add(1, std::memory_order_relaxed);
      if (r == 0) {
        if (delivered) rx_hook_.fire();
        return false;  // peer closed
      }
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (delivered) rx_hook_.fire();
        return false;
      }
      progress = true;
      fill += static_cast<std::size_t>(r);
      while (fill - parse >= 4) {
        const std::uint32_t len = GetU32(slab->data() + parse);
        if (len > kTunnelMaxFrameBytes) {
          if (delivered) rx_hook_.fire();
          return false;  // protocol error
        }
        const std::size_t rec = 4 + static_cast<std::size_t>(len);
        if (rec > slab->size()) {
          // Record larger than the slab: move the partial into a dedicated
          // slab big enough to hold it, then keep reading.
          rotate_slab(rec);
          break;
        }
        if (fill - parse < rec) break;  // partial record
        RxFrameRef ref;
        ref.slab = slab;
        ref.data = slab->data() + parse + 4;
        ref.len = len;
        parse += rec;
        rx_records_.fetch_add(1, std::memory_order_relaxed);
        // A full RX ring is back-pressure: stop pulling off the socket and
        // let the kernel buffers (and eventually the sender) fill. The ref
        // is passed by copy because push_for consumes its argument even on
        // timeout.
        while (running_.load(std::memory_order_acquire)) {
          if (rx_q_.push_for(ref, std::chrono::milliseconds(5))) {
            delivered = true;
            break;
          }
          if (rx_q_.closed()) break;
          // Ring full means records are definitely pending; make sure a
          // parked consumer is awake to drain them before we retry.
          rx_hook_.fire();
        }
      }
      if (r < static_cast<ssize_t>(space)) break;  // socket drained
    }
    if (delivered) rx_hook_.fire();
    return true;
  };

  int idle_rounds = 0;
  while (running_.load(std::memory_order_acquire)) {
    progress = false;

    // Refill the outbound stage from the TX ring (one lock round).
    if (pending.size() < kTxStageMax) {
      refill_scratch.clear();
      tx_q_.pop_bulk(std::back_inserter(refill_scratch),
                     kTxStageMax - pending.size());
      for (TxFrame& r : refill_scratch) pending.push_back(std::move(r));
      refill_scratch.clear();
    }

    const TxRc txrc = flush_tx();
    if (txrc == TxRc::kFatal) return lost();

    int timeout = progress ? 0 : RampTimeoutMs(idle_rounds);
    if (timeout > 0) {
      // Arm the parked flag, then re-check the ring: a submitter either
      // sees the flag (and pokes the eventfd) or enqueued before our check.
      io_waiting_.store(true, std::memory_order_seq_cst);
      if (tx_q_.size() != 0) {
        io_waiting_.store(false, std::memory_order_relaxed);
        timeout = 0;
      }
    }

    pollfd pfds[2];
    pfds[0] = {fd, POLLIN, 0};
    if (!pending.empty()) pfds[0].events |= POLLOUT;
    pfds[1] = {wake_fd_, POLLIN, 0};
    const int rc = ::poll(pfds, 2, timeout);
    poll_calls_.fetch_add(1, std::memory_order_relaxed);
    if (timeout > 0) io_waiting_.store(false, std::memory_order_relaxed);
    if (rc < 0 && errno != EINTR) return lost();
    if (pfds[1].revents != 0) {
      std::uint64_t junk = 0;
      [[maybe_unused]] ssize_t n = ::read(wake_fd_, &junk, sizeof(junk));
    }

    if ((pfds[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      if (!drain_rx()) return lost();
    }

    idle_rounds = progress ? 0 : idle_rounds + 1;
  }
  connected_.store(false, std::memory_order_release);
  live_fd_.store(-1, std::memory_order_release);
  ::close(fd);
  return pending.size();
}

void SocketTunnel::io_loop() {
  bool first = true;
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ensure_connected();
    if (fd < 0) break;  // stopped or terminal
    if (!first) reconnects_.fetch_add(1, std::memory_order_relaxed);
    first = false;
    ever_connected_.store(true, std::memory_order_release);
    // Records still staged when the pump stops — a dropped connection or
    // a close — were accepted but never written: count them either way.
    count_peer_drops(pump(fd));
  }
  // Terminal: fail senders/receivers fast, like a closed in-memory tunnel.
  tx_q_.close();
  rx_q_.close();
  drain_tx_as_drops();
  rx_hook_.fire();  // unpark any waiter so it observes the closed ring
}

// ---- SocketTunnelListener -------------------------------------------------

SocketTunnelListener::SocketTunnelListener(HostId self) : self_(self) {}

SocketTunnelListener::~SocketTunnelListener() { stop(); }

bool SocketTunnelListener::bind(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  return true;
}

std::shared_ptr<SocketTunnel> SocketTunnelListener::expect_peer(
    HostId peer, SocketTunnelConfig cfg) {
  auto ep = SocketTunnel::Accepting(cfg);
  std::lock_guard lk(mu_);
  peers_[peer] = ep;
  return ep;
}

void SocketTunnelListener::start() {
  if (listen_fd_ < 0) return;
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketTunnelListener::stop() {
  if (!running_.exchange(false)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void SocketTunnelListener::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed
    }
    // Short deadline on the hello so a stuck dialer cannot wedge accepts.
    timeval tv{};
    tv.tv_sec = 2;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t hello[kTunnelHelloBytes];
    std::size_t got = 0;
    while (got < sizeof(hello)) {
      const ssize_t r = ::read(fd, hello + got, sizeof(hello) - got);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    if (got != sizeof(hello) || GetU32(hello) != kTunnelHelloMagic ||
        GetU32(hello + 8) != self_) {
      ::close(fd);
      continue;
    }
    const HostId src = GetU32(hello + 4);
    std::shared_ptr<SocketTunnel> ep;
    {
      std::lock_guard lk(mu_);
      auto it = peers_.find(src);
      if (it != peers_.end()) ep = it->second;
    }
    if (!ep) {
      LOG_WARN("tunnel") << "host" << self_
                         << ": unexpected tunnel hello from host" << src;
      ::close(fd);
      continue;
    }
    ep->adopt_fd(fd);
  }
}

}  // namespace typhoon::net
