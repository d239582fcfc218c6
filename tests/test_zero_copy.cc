// Zero-copy data plane tests (Sec 3.3.1 hot path):
//  * a global operator-new hook proves the steady-state LOCAL
//    emit -> switch -> receive -> decode path is amortized allocation-free
//    (<= 1 heap allocation per tuple, in practice near zero);
//  * a seeded property test round-trips random tuple records — sizes
//    straddling max_payload, mixed traced/control chunks — through
//    packetizer and depacketizer while the frame pool recycles;
//  * reassembly state stays bounded under Impairment-scheduled loss
//    (age + cap eviction, reassembly_evicted counter);
//  * retired destinations get their DstBuffers evicted on flush;
//  * the reliable worker path (spout -> fields-grouped bolt -> acker on
//    live Workers) is amortized allocation-free too (< 1 per tuple).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <random>

#include "faultinject/impairment.h"
#include "openflow/flow.h"
#include "stream/acker.h"
#include "stream/transport_typhoon.h"
#include "stream/worker.h"
#include "switchd/soft_switch.h"

// ---- global operator-new hook ---------------------------------------------
// Replacement allocation functions must have external linkage, so the hook
// lives at global scope; only the counter is file-local state. Every heap
// allocation in the process (any thread, including the switch thread — the
// path under test) bumps the counter.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n != 0 ? n : 1);
}

void* operator new(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace typhoon::stream {
namespace {

using namespace std::chrono_literals;
using openflow::ActionOutput;
using openflow::FlowModCommand;
using openflow::FlowRule;

constexpr TopologyId kTopo = 1;
constexpr WorkerId kToW2[] = {2};

std::uint64_t A(WorkerId w) { return WorkerAddress{kTopo, w}.packed(); }

// ---- allocation hook: steady-state local path -----------------------------

TEST(ZeroCopy, SteadyStateLocalPathIsAmortizedAllocationFree) {
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();

  auto port1 = sw.attach_port(101);
  auto port2 = sw.attach_port(102);
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = 64;
  TyphoonTransport t1(WorkerAddress{kTopo, 1}, port1, pcfg);
  TyphoonTransport t2(WorkerAddress{kTopo, 2}, port2, pcfg);

  FlowRule r;
  r.match.in_port = 101;
  r.match.dl_src = A(1);
  r.match.dl_dst = A(2);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionOutput{static_cast<PortId>(102)}};
  sw.handle_flow_mod({FlowModCommand::kAdd, r});

  // 48-byte string: too long for Value's inline buffer, so the receive side
  // must borrow it from the packet payload to stay allocation-free. Built
  // once; send() serializes from it without constructing tuples per call.
  const Tuple payload{std::int64_t{42}, std::string(48, 'x'),
                      std::int64_t{7}};
  // Hoisted: a brace-literal destination list would heap-allocate a vector
  // per send call inside the test itself.
  const std::vector<WorkerId> dests{2};

  std::vector<ReceivedItem> got;
  got.reserve(128);
  std::size_t received = 0;
  const auto drain_once = [&]() -> bool {
    got.clear();
    if (t2.poll(got, 64) == 0) return false;
    for (const auto& item : got) {
      EXPECT_FALSE(item.is_control);
      EXPECT_EQ(item.tuple.size(), 3u);
    }
    received += got.size();
    return true;
  };
  const auto pump = [&](std::size_t n) {
    const std::size_t target = received + n;
    for (std::size_t i = 0; i < n; ++i) {
      t1.send(payload, kDefaultStream, i, 1, dests, false);
      if ((i & 0xff) == 0xff) {
        t1.flush();
        // Drain the receiver as we go so the rings never back-pressure.
        while (drain_once()) {
        }
      }
    }
    t1.flush();
    const auto deadline = common::Now() + 5s;
    while (received < target && common::Now() < deadline) {
      if (!drain_once()) std::this_thread::sleep_for(100us);
    }
  };

  // Warm-up: fills the frame pool, high-water payload reservations, ring
  // and staging-deque capacity, and the switch's microflow cache.
  pump(4096);
  const std::size_t received_before = received;

  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  constexpr std::size_t kMeasured = 16384;
  pump(kMeasured);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

  ASSERT_EQ(received - received_before, kMeasured);
  // Amortized <= 1 heap allocation per tuple on the hot path; the real
  // number is far lower (staging-deque chunk churn dominates).
  EXPECT_LE(allocs, kMeasured)
      << "allocs/tuple = "
      << static_cast<double>(allocs) / static_cast<double>(kMeasured);

  // Zero-copy receive: unsegmented tuples are views, so no payload bytes
  // were copied out, and steady-state frames came from the pool.
  const TransportIoStats io = t1.io_stats();
  EXPECT_GT(io.pool_hits, 0u);
  const TransportIoStats rio = t2.io_stats();
  EXPECT_EQ(rio.bytes_copied_rx, 0u);

  sw.stop();
}

// ---- allocation hook: reliable worker path --------------------------------

// Emits int-only tuples (inline in Tuple, so user code allocates nothing)
// keyed for fields grouping; counts acks for the test thread.
class IntSpout : public Spout {
 public:
  bool next(Emitter& out) override {
    out.emit(Tuple{static_cast<std::int64_t>(seq_ % 61),
                   static_cast<std::int64_t>(seq_)});
    ++seq_;
    return true;
  }
  void ack(std::uint64_t, std::int64_t) override {
    acked_.fetch_add(1, std::memory_order_relaxed);
  }
  void fail(std::uint64_t) override {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::int64_t> acked_{0};
  std::atomic<std::int64_t> failed_{0};

 private:
  std::uint64_t seq_ = 0;
};

class DiscardBolt : public Bolt {
 public:
  void execute(const Tuple&, const TupleMeta&, Emitter&) override {}
};

// The per-data-tuple worker path (emit -> route -> send, poll -> execute,
// pending roots, acker trees) makes no heap allocation of its own once
// warm; what remains is per ack message or per packet. On this topology
// (default build type, 4-vCPU x86-64 VM) it measured 4.1 allocations per
// acked tuple while routing returned a vector and the root tables were
// node-based maps (route vector, pending-root node, acker tree node, acker
// completion list), and 0.07 with views and flat tables.
TEST(ZeroCopy, ReliableWorkerPathIsAmortizedAllocationFree) {
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();

  constexpr WorkerId kSpout = 1;
  constexpr WorkerId kAcker = 4;
  const auto wire = [&](WorkerId src, WorkerId dst) {
    FlowRule r;
    r.match.in_port = static_cast<PortId>(100 + src);
    r.match.dl_src = A(src);
    r.match.dl_dst = A(dst);
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = {ActionOutput{static_cast<PortId>(100 + dst)}};
    sw.handle_flow_mod({FlowModCommand::kAdd, r});
  };
  const auto options = [&](WorkerId w, const std::string& name,
                           bool is_spout) {
    WorkerOptions wo;
    wo.ctx.topology = kTopo;
    wo.ctx.topology_name = "allocs";
    wo.ctx.worker = w;
    wo.ctx.node = w;
    wo.ctx.node_name = name;
    wo.is_spout = is_spout;
    wo.reliable = true;
    wo.acker = kAcker;
    net::PacketizerConfig pcfg;
    pcfg.batch_tuples = 64;
    wo.transport = std::make_unique<TyphoonTransport>(
        WorkerAddress{kTopo, w}, sw.attach_port(100 + w), pcfg);
    return wo;
  };
  for (WorkerId bolt : {2, 3}) {
    wire(kSpout, bolt);
    wire(bolt, kAcker);
  }
  wire(kSpout, kAcker);
  wire(kAcker, kSpout);

  std::vector<std::unique_ptr<Worker>> workers;
  for (WorkerId bolt : {2, 3}) {
    WorkerOptions wo = options(bolt, "sink", false);
    wo.bolt = std::make_unique<DiscardBolt>();
    workers.push_back(std::make_unique<Worker>(std::move(wo)));
  }
  {
    WorkerOptions wo = options(kAcker, kAckerNodeName, false);
    wo.bolt = std::make_unique<AckerBolt>();
    workers.push_back(std::make_unique<Worker>(std::move(wo)));
  }
  auto spout_owned = std::make_unique<IntSpout>();
  IntSpout* spout = spout_owned.get();
  {
    WorkerOptions wo = options(kSpout, "src", true);
    wo.spout = std::move(spout_owned);
    EdgeRuntime e;
    e.to_node = 2;
    e.state.type = GroupingType::kFields;
    e.state.next_hops = {2, 3};
    e.state.key_indices = {0};
    wo.out_edges.push_back(std::move(e));
    workers.push_back(std::make_unique<Worker>(std::move(wo)));
  }
  for (auto& w : workers) w->start();

  const auto wait_acked = [&](std::int64_t n) {
    const auto deadline = common::Now() + 30s;
    while (spout->acked_.load() < n && common::Now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    return spout->acked_.load();
  };
  // Warm-up: root tables, frame pools, ring and staging capacities, the
  // microflow cache and the packetizer's per-destination buffers.
  constexpr std::int64_t kWarm = 20000;
  constexpr std::int64_t kMeasured = 40000;
  ASSERT_GE(wait_acked(kWarm), kWarm);
  const std::int64_t acked0 = spout->acked_.load();
  const std::uint64_t allocs0 = g_heap_allocs.load(std::memory_order_relaxed);
  ASSERT_GE(wait_acked(acked0 + kMeasured), acked0 + kMeasured);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs0;
  const std::int64_t acked = spout->acked_.load() - acked0;

  for (auto& w : workers) w->stop();
  sw.stop();

  EXPECT_EQ(spout->failed_.load(), 0);
  const double per_tuple =
      static_cast<double>(allocs) / static_cast<double>(acked);
  RecordProperty("allocs_per_tuple", std::to_string(per_tuple));
  // What remains is per ack message, so it grows as batches shrink (0.34
  // under ASan); one allocation per data tuple (a route vector, say)
  // always reads >= 1.0.
  EXPECT_LT(per_tuple, 1.0) << allocs << " allocations for " << acked
                            << " acked tuples";
}

// A borrowed tuple must stay valid for as long as its ReceivedItem (the
// keepalive pins the pooled packet), even after the sender recycles frames.
TEST(ZeroCopy, BorrowedTuplesSurvivePoolRecycling) {
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();

  auto port1 = sw.attach_port(101);
  auto port2 = sw.attach_port(102);
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = 1;
  pcfg.pool_max_free = 2;
  TyphoonTransport t1(WorkerAddress{kTopo, 1}, port1, pcfg);
  TyphoonTransport t2(WorkerAddress{kTopo, 2}, port2, pcfg);
  FlowRule r;
  r.match.in_port = 101;
  r.match.dl_src = A(1);
  r.match.dl_dst = A(2);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionOutput{static_cast<PortId>(102)}};
  sw.handle_flow_mod({FlowModCommand::kAdd, r});

  std::vector<ReceivedItem> held;
  for (int i = 0; i < 32; ++i) {
    t1.send(Tuple{std::string(40, static_cast<char>('a' + (i % 26)))},
            kDefaultStream, static_cast<std::uint64_t>(i), 0, kToW2, false);
    t1.flush();
    const auto deadline = common::Now() + 2s;
    while (common::Now() < deadline) {
      if (t2.poll(held, 64) != 0 && held.size() == std::size_t(i + 1)) break;
      std::this_thread::sleep_for(100us);
    }
  }
  ASSERT_EQ(held.size(), 32u);
  // Every held item still reads its own bytes even though the pool has long
  // since recycled (its freelist cap is 2 — most frames round-tripped).
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(held[i].tuple.str(0),
              std::string(40, static_cast<char>('a' + (i % 26))));
  }
  sw.stop();
}

// Tuples polled from one packet share one reference to it: the ring's
// reference becomes the packet's single pin, and each borrowing tuple copies
// the pin, not the PacketPtr.
TEST(ZeroCopy, HeldTuplesShareOnePacketReference) {
  switchd::SoftSwitchConfig scfg;
  scfg.host = 1;
  switchd::SoftSwitch sw(scfg);
  sw.start();
  auto port1 = sw.attach_port(101);
  auto port2 = sw.attach_port(102);
  TyphoonTransport t2(WorkerAddress{kTopo, 2}, port2, net::PacketizerConfig{});
  FlowRule r;
  r.match.in_port = 101;
  r.match.dl_src = A(1);
  r.match.dl_dst = A(2);
  r.match.ether_type = net::kTyphoonEtherType;
  r.actions = {ActionOutput{static_cast<PortId>(102)}};
  sw.handle_flow_mod({FlowModCommand::kAdd, r});

  // One packet of 64 tuples, each with a 40-byte string (longer than
  // Value::kInlineCap, so every decoded tuple borrows).
  constexpr int kTuples = 64;
  std::vector<net::PacketPtr> wire;
  net::PacketizerConfig pcfg;
  pcfg.batch_tuples = kTuples;
  net::Packetizer pz(WorkerAddress{kTopo, 1}, pcfg,
                     [&](net::PacketPtr p) { wire.push_back(std::move(p)); });
  for (int i = 0; i < kTuples; ++i) {
    net::TupleRecord rec;
    rec.dst = WorkerAddress{kTopo, 2};
    rec.stream_id = kDefaultStream;
    SerializeTyphoonInto(Tuple{std::string(40, static_cast<char>('a' + i % 26))},
                         static_cast<std::uint64_t>(i), 0, rec.data);
    pz.add(rec);
  }
  ASSERT_EQ(wire.size(), 1u);
  const net::PacketPtr pkt = std::move(wire[0]);  // the test's one handle
  wire.clear();
  ASSERT_TRUE(port1->send(pkt));

  std::vector<ReceivedItem> held;
  const auto deadline = common::Now() + 2s;
  while (held.size() < kTuples && common::Now() < deadline) {
    t2.poll(held, kTuples);
    std::this_thread::sleep_for(100us);
  }
  ASSERT_EQ(held.size(), std::size_t{kTuples});
  for (const ReceivedItem& item : held) ASSERT_TRUE(item.tuple.borrows());
  // The switch lets go of its copies right after forwarding.
  const auto settle = common::Now() + 2s;
  while (pkt.use_count() > 2 && common::Now() < settle) {
    std::this_thread::sleep_for(100us);
  }
  EXPECT_EQ(pkt.use_count(), 2u) << "the test's handle plus one pin";
  held.clear();
  EXPECT_EQ(pkt.use_count(), 1u);
  sw.stop();
}

// Held items keep their borrowed bytes valid after the transport, its pin
// pool, the switch and the sender's packet pool are all gone.
TEST(ZeroCopy, BorrowedItemsOutliveTheirTransport) {
  std::vector<ReceivedItem> held;  // outlives everything below
  {
    switchd::SoftSwitchConfig scfg;
    scfg.host = 1;
    switchd::SoftSwitch sw(scfg);
    sw.start();
    auto port1 = sw.attach_port(101);
    auto port2 = sw.attach_port(102);
    net::PacketizerConfig pcfg;
    pcfg.batch_tuples = 4;
    TyphoonTransport t1(WorkerAddress{kTopo, 1}, port1, pcfg);
    TyphoonTransport t2(WorkerAddress{kTopo, 2}, port2, pcfg);
    FlowRule r;
    r.match.in_port = 101;
    r.match.dl_src = A(1);
    r.match.dl_dst = A(2);
    r.match.ether_type = net::kTyphoonEtherType;
    r.actions = {ActionOutput{static_cast<PortId>(102)}};
    sw.handle_flow_mod({FlowModCommand::kAdd, r});
    for (int i = 0; i < 8; ++i) {
      t1.send(Tuple{std::string(40, static_cast<char>('a' + i))},
              kDefaultStream, 0, 0, kToW2, false);
    }
    t1.flush();
    const auto deadline = common::Now() + 2s;
    while (held.size() < 8 && common::Now() < deadline) {
      t2.poll(held, 64);
      std::this_thread::sleep_for(100us);
    }
    sw.stop();
  }
  ASSERT_EQ(held.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(held[i].backing);
    EXPECT_EQ(held[i].tuple.str(0),
              std::string(40, static_cast<char>('a' + i)));
  }
  held.clear();  // the last pins free the orphaned pin pool
}

// ---- packet pin -----------------------------------------------------------

TEST(PacketPin, CopyMoveAndReleaseShareOneReference) {
  net::PinPool::Owner pins = net::PinPool::Create();
  net::PacketPtr mine = net::MakePacket(net::Packet{});
  net::PacketPin a = pins->pin(mine);
  EXPECT_EQ(a.get(), mine.get());
  EXPECT_EQ(mine.use_count(), 2u);
  EXPECT_EQ(a.use_count(), 1u);
  {
    net::PacketPin b = a;  // copy: the pin's count, not the packet's
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(mine.use_count(), 2u);
    net::PacketPin c = std::move(b);
    EXPECT_FALSE(b);
    EXPECT_EQ(c.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  net::PacketPin d;
  d = a;
  EXPECT_EQ(a.use_count(), 2u);
  d = std::move(a);
  EXPECT_FALSE(a);
  EXPECT_EQ(d.use_count(), 1u);
  EXPECT_EQ(pins->outstanding(), 1u);
  d.reset();  // last pin: the packet reference goes, the node is kept
  EXPECT_FALSE(d);
  EXPECT_EQ(mine.use_count(), 1u);
  EXPECT_EQ(pins->outstanding(), 0u);
  EXPECT_EQ(pins->free_size(), 1u);
}

TEST(PacketPin, NodesRecycleWithoutAllocationOnceWarm) {
  constexpr std::size_t kHeld = 8;
  net::PinPool::Owner pins = net::PinPool::Create();
  std::array<net::PacketPtr, kHeld> packets;
  for (auto& p : packets) p = net::MakePacket(net::Packet{});
  std::array<net::PacketPin, kHeld> held;
  for (std::size_t i = 0; i < kHeld; ++i) held[i] = pins->pin(packets[i]);
  for (auto& pin : held) pin.reset();  // warm: kHeld nodes on the freelist
  ASSERT_EQ(pins->allocated(), kHeld);

  std::array<net::PacketPin, kHeld> copies;
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < kHeld; ++i) {
      held[i] = pins->pin(packets[i]);
      copies[i] = held[i];
    }
    for (std::size_t i = 0; i < kHeld; ++i) {
      held[i].reset();
      copies[i].reset();
    }
  }
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  EXPECT_EQ(pins->allocated(), kHeld);
  for (const auto& p : packets) EXPECT_EQ(p.use_count(), 1u);
}

// ---- packetizer <-> depacketizer property test ----------------------------

struct ExpectRec {
  common::Bytes data;
  StreamId stream_id = 0;
  bool control = false;
  std::uint64_t trace_id = 0;
  std::uint8_t trace_hop = 0;
};

TEST(ZeroCopy, PacketizerDepacketizerPropertyRoundTrip) {
  std::mt19937_64 rng(0xC0FFEE5EEDull);
  net::PacketizerConfig cfg;
  cfg.batch_tuples = 7;
  cfg.max_payload = 512;
  cfg.pool_max_free = 8;

  std::vector<net::PacketPtr> wire;
  net::Packetizer pz(WorkerAddress{kTopo, 1}, cfg,
                     [&](net::PacketPtr p) { wire.push_back(std::move(p)); });

  std::vector<ExpectRec> sent;
  std::vector<ExpectRec> got;
  net::Depacketizer dz([&](net::TupleRecord rec) {
    ExpectRec e;
    e.data = std::move(rec.data);
    e.stream_id = rec.stream_id;
    e.control = rec.control;
    e.trace_id = rec.trace_id;
    e.trace_hop = rec.trace_hop;
    got.push_back(std::move(e));
  });

  std::uniform_int_distribution<std::size_t> size_dist(1, 1200);
  std::uniform_int_distribution<int> pct(0, 99);

  for (int round = 0; round < 6; ++round) {
    sent.clear();
    got.clear();
    for (int i = 0; i < 400; ++i) {
      net::TupleRecord rec;
      rec.src = WorkerAddress{kTopo, 1};
      rec.dst = WorkerAddress{kTopo, 2};
      rec.control = pct(rng) < 10;
      rec.stream_id = rec.control ? kControlStream
                                  : static_cast<StreamId>(pct(rng) % 3);
      if (pct(rng) < 20) {
        rec.trace_id = rng() | 1;
        rec.trace_hop = static_cast<std::uint8_t>(pct(rng) & 0x0f);
      }
      const std::size_t sz = size_dist(rng);  // straddles max_payload = 512
      rec.data.resize(sz);
      for (std::size_t b = 0; b < sz; ++b) {
        rec.data[b] = static_cast<std::uint8_t>((i * 131 + b * 7 + round));
      }
      ExpectRec e;
      e.data = rec.data;
      e.stream_id = rec.stream_id;
      e.control = rec.control;
      e.trace_id = rec.trace_id;
      e.trace_hop = rec.trace_hop;
      sent.push_back(std::move(e));
      pz.add(rec);
    }
    pz.flush();
    for (const auto& p : wire) ASSERT_TRUE(dz.consume(*p));
    wire.clear();  // drops the last refs -> frames return to the pool

    ASSERT_EQ(got.size(), sent.size()) << "round " << round;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      ASSERT_EQ(got[i].data, sent[i].data) << "round " << round << " #" << i;
      EXPECT_EQ(got[i].stream_id, sent[i].stream_id);
      EXPECT_EQ(got[i].control, sent[i].control);
      EXPECT_EQ(got[i].trace_id, sent[i].trace_id);
      EXPECT_EQ(got[i].trace_hop, sent[i].trace_hop);
    }
    EXPECT_EQ(dz.pending_reassemblies(), 0u) << "round " << round;
    if (round > 0) {
      EXPECT_GT(pz.pool()->hits(), 0u);  // frames recycled across rounds
    }
  }
  EXPECT_EQ(dz.reassembly_evicted(), 0u);  // lossless feed loses nothing
}

// ---- reassembly eviction under Impairment loss ----------------------------

TEST(ZeroCopy, ReassemblyStateStaysBoundedUnderLoss) {
  net::PacketizerConfig cfg;
  cfg.batch_tuples = 1;
  cfg.max_payload = 128;

  faultinject::ImpairmentConfig icfg;
  icfg.drop = 0.3;
  icfg.seed = 0xBADCAB1Eull;
  faultinject::Impairment imp(icfg);

  net::DepacketizerConfig dcfg;
  dcfg.reassembly_max_age_packets = 64;
  dcfg.max_reassemblies = 8;

  std::size_t delivered = 0;
  net::Depacketizer dz([&](net::TupleRecord) { ++delivered; }, dcfg);
  net::Packetizer pz(WorkerAddress{kTopo, 1}, cfg, [&](net::PacketPtr p) {
    // The deterministic loss schedule sits between packetizer and
    // depacketizer, exactly where an impaired tunnel would drop frames.
    if (!imp.next().drop) {
      ASSERT_TRUE(dz.consume(*p));
    }
  });

  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::size_t> size_dist(300, 500);
  constexpr int kTuples = 2000;  // ~4 segments each at max_payload = 128
  for (int i = 0; i < kTuples; ++i) {
    net::TupleRecord rec;
    rec.src = WorkerAddress{kTopo, 1};
    rec.dst = WorkerAddress{kTopo, 2};
    rec.stream_id = 1;
    rec.data.assign(size_dist(rng), static_cast<std::uint8_t>(i));
    pz.add(rec);
    // The cap alone keeps pending reassemblies bounded at every step, not
    // just after the periodic age sweep.
    ASSERT_LE(dz.pending_reassemblies(), dcfg.max_reassemblies);
  }
  pz.flush();

  EXPECT_GT(imp.drops(), 0u);
  // With 30% frame loss most multi-segment tuples lose a segment; their
  // partials must be evicted, not accumulated forever.
  EXPECT_GT(dz.reassembly_evicted(), 0u);
  EXPECT_LE(dz.pending_reassemblies(), dcfg.max_reassemblies);
  // Some tuples made it through intact, none were delivered corrupted
  // (consume returns false on malformed payloads and the sink counts only
  // completed records).
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, static_cast<std::size_t>(kTuples));
}

// ---- packetizer buffer eviction -------------------------------------------

TEST(ZeroCopy, IdleDestinationBuffersAreEvictedOnFlush) {
  net::PacketizerConfig cfg;
  cfg.batch_tuples = 0;  // explicit flush only
  std::size_t packets = 0;
  net::Packetizer pz(WorkerAddress{kTopo, 1}, cfg,
                     [&](net::PacketPtr) { ++packets; });

  net::TupleRecord rec;
  rec.src = WorkerAddress{kTopo, 1};
  rec.stream_id = 1;
  rec.data.assign(16, 0xab);

  rec.dst = WorkerAddress{kTopo, 2};
  pz.add(rec);
  rec.dst = WorkerAddress{kTopo, 3};
  pz.add(rec);
  pz.flush();
  EXPECT_EQ(pz.buffer_count(), 2u);

  // Keep dst 2 active; dst 3 goes quiet and is retired by the idle sweep.
  for (std::size_t pass = 0; pass < net::kIdleFlushEvict; ++pass) {
    rec.dst = WorkerAddress{kTopo, 2};
    pz.add(rec);
    pz.flush();
  }
  EXPECT_EQ(pz.buffer_count(), 1u);
  EXPECT_EQ(pz.buffers_evicted(), 1u);

  // Explicit retirement drops the buffer immediately (after flushing it).
  rec.dst = WorkerAddress{kTopo, 4};
  pz.add(rec);
  pz.retire(WorkerAddress{kTopo, 4});
  EXPECT_EQ(pz.buffer_count(), 1u);
  EXPECT_GT(packets, 0u);
}

// ---- packet pool ----------------------------------------------------------

TEST(ZeroCopy, PacketPoolRecyclesUpToCap) {
  auto pool = net::PacketPool::Create({.max_free = 2});
  net::Packet* a = pool->acquire_raw();
  a->payload.assign(64, 0x11);
  { net::PacketPtr pa = net::PacketPtr::adopt(a); }  // released -> freelist
  EXPECT_EQ(pool->free_size(), 1u);

  net::Packet* b = pool->acquire_raw();
  EXPECT_EQ(b, a);  // recycled, not reallocated
  EXPECT_EQ(b->payload.size(), 0u);  // header+payload reset on recycle
  EXPECT_EQ(pool->hits(), 1u);

  net::Packet* c = pool->acquire_raw();
  net::Packet* d = pool->acquire_raw();
  {
    net::PacketPtr pb = net::PacketPtr::adopt(b);
    net::PacketPtr pc = net::PacketPtr::adopt(c);
    net::PacketPtr pd = net::PacketPtr::adopt(d);
  }
  EXPECT_EQ(pool->free_size(), 2u);  // third release overflowed the cap
  EXPECT_EQ(pool->misses(), 3u);     // a/b shared one allocation
}

}  // namespace
}  // namespace typhoon::stream
