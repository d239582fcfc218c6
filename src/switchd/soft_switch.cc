#include "switchd/soft_switch.h"

#include <algorithm>
#include <iterator>

#include "common/clock.h"
#include "common/log.h"

namespace typhoon::switchd {

namespace {

// Packets the switch will hold for full egress rings before dropping.
constexpr std::size_t kEgressPendingCap = 4096;
// How long the switch holds packets for a full egress ring (pausing its
// ingress so the pressure reaches senders) before falling back to the
// at-most-once drop. Keeps a wedged receiver from stalling the host.
constexpr std::chrono::milliseconds kEgressHold{5};

// Spin iterations before the forwarding thread starts sleeping.
constexpr std::uint32_t kSpinStreak = 16;
// Idle streak after which the forwarding thread parks on its gate instead
// of sleeping.
constexpr std::uint32_t kParkStreak = 64;
// Park timeout: a correctness backstop for the (theoretically possible but
// rare) lost wake-up between the producer's waiter check and the consumer's
// work recheck — worst case is this much added latency, never a hang.
constexpr std::chrono::milliseconds kParkTimeout{10};

}  // namespace

struct PortHandle::Port {
  Port(std::size_t cap, std::shared_ptr<common::WakeupGate> gate)
      : to_switch(cap), from_switch(cap), wake(std::move(gate)) {}

  common::SpscRing<net::PacketPtr> to_switch;    // worker -> switch
  common::SpscRing<net::PacketPtr> from_switch;  // switch -> worker
  std::atomic<bool> open{true};

  // The switch's gate; notified on empty->non-empty ring transitions so a
  // parked forwarding thread wakes without the sender paying a fence per
  // packet on a busy ring.
  const std::shared_ptr<common::WakeupGate> wake;

  // Stats from the switch's perspective.
  std::atomic<std::uint64_t> rx_packets{0};
  std::atomic<std::uint64_t> rx_bytes{0};
  std::atomic<std::uint64_t> tx_packets{0};
  std::atomic<std::uint64_t> tx_bytes{0};
  std::atomic<std::uint64_t> tx_dropped{0};
};

bool PortHandle::send(net::PacketPtr p) {
  if (!port_->open.load(std::memory_order_relaxed)) return false;
  if (!port_->to_switch.try_push(std::move(p))) return false;
  // Notify only when this push may have made an empty ring non-empty (the
  // switch never parks while its rings hold work). The occupancy is read
  // *after* the push — size() re-reads the consumer index — so a switch
  // that drains the ring concurrently and goes to park is always seen:
  // either its pops leave our packet as the sole entry (size == 1, or 0 if
  // it already took it) and we notify, or older entries remain (size > 1)
  // and its park recheck finds them. A stale pre-push emptiness sample
  // would leave a TOCTOU window here; the fresh read costs one shared-line
  // load, far cheaper than the gate fence it elides on a busy ring.
  if (port_->to_switch.size() <= 1) {
    port_->wake->notify();
  }
  return true;
}

bool PortHandle::closed() const {
  return !port_->open.load(std::memory_order_relaxed);
}

std::optional<net::PacketPtr> PortHandle::recv() {
  return port_->from_switch.try_pop();
}

std::size_t PortHandle::recv_bulk(std::vector<net::PacketPtr>& out,
                                  std::size_t max) {
  return port_->from_switch.pop_bulk(std::back_inserter(out), max);
}

std::size_t PortHandle::rx_queue_depth() const {
  return port_->from_switch.size();
}

SoftSwitch::SoftSwitch(SoftSwitchConfig cfg) : cfg_(cfg), injected_(4096) {
  cfg_.poll_burst = std::clamp<std::size_t>(cfg_.poll_burst, 1, 4096);
  View first;
  first.table_epoch = 1;  // microflow slots stamped 0 are empty
  first.flows = flow_table_.snapshot();
  first.groups = std::make_shared<const openflow::GroupTable>();
  first.tunnels = std::make_shared<const TunnelList>();
  first.impair = std::make_shared<const ImpairMap>();
  first.rates = std::make_shared<const RateMap>();
  std::lock_guard lk(mu_);
  view_ = std::make_shared<const View>(std::move(first));
  publish_ports_locked({});  // the thread always finds a (possibly empty) View
  dp_.view = view_;
}

SoftSwitch::~SoftSwitch() { stop(); }

void SoftSwitch::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void SoftSwitch::stop() {
  if (!running_.exchange(false)) return;
  injected_.close();
  gate_->notify();
  if (thread_.joinable()) thread_.join();
}

std::shared_ptr<const SoftSwitch::View> SoftSwitch::current() const {
  std::lock_guard lk(mu_);
  return view_;
}

void SoftSwitch::publish_locked(View next) {
  next.generation = view_->generation + 1;
  view_ = std::make_shared<const View>(std::move(next));
  // Release point: a thread that observes the new generation also observes
  // the View published above (it re-reads view_ under mu_).
  gen_.store(view_->generation, std::memory_order_release);
}

template <class T, class Edit>
void SoftSwitch::publish_part(std::shared_ptr<const T> View::*part,
                              Edit edit) {
  auto copy = std::make_shared<T>(*((*view_).*part));
  edit(*copy);
  View next = *view_;
  next.*part = std::move(copy);
  publish_locked(std::move(next));
}

void SoftSwitch::publish_ports_locked(PortMap map) {
  auto ports = std::make_shared<PortView>();
  for (const auto& [id, port] : map) {
    ports->poll.emplace_back(id, port);
    if (id < kDensePortLimit) {
      if (ports->out_dense.size() <= id) ports->out_dense.resize(id + 1);
      ports->out_dense[id] = port.get();
    } else {
      ports->out_sparse.emplace(id, port.get());
    }
  }
  ports->map = std::move(map);
  View next = *view_;
  next.ports = std::move(ports);
  publish_locked(std::move(next));
}

void SoftSwitch::adopt() {
  if (gen_.load(std::memory_order_acquire) == dp_.generation) return;
  std::shared_ptr<const View> next = current();
  // Re-copy the groups only when they changed: the copy holds the
  // select-group WRR credit, and the published table is never advanced, so
  // a copy can never leak credit back.
  if (next->groups != dp_.view->groups) dp_.groups = *next->groups;
  dp_.view = std::move(next);
  const View& v = *dp_.view;
  dp_.generation = v.generation;
  dp_.table_epoch = v.table_epoch;
  dp_.ports = v.ports.get();
  dp_.tunnels = v.tunnels.get();
  dp_.impair = v.impair->empty() ? nullptr : v.impair.get();
  dp_.rates = v.rates->empty() ? nullptr : v.rates.get();
}

std::shared_ptr<PortHandle> SoftSwitch::attach_port() {
  std::unique_lock lk(mu_);
  while (view_->ports->map.contains(next_port_) ||
         next_port_ == kTunnelPort || next_port_ == kPortController) {
    ++next_port_;
  }
  return attach_locked(next_port_++, lk);
}

std::shared_ptr<PortHandle> SoftSwitch::attach_port(PortId requested) {
  std::unique_lock lk(mu_);
  if (view_->ports->map.contains(requested) || requested == kTunnelPort ||
      requested == kPortController) {
    return nullptr;
  }
  return attach_locked(requested, lk);
}

std::shared_ptr<PortHandle> SoftSwitch::attach_locked(
    PortId id, std::unique_lock<std::mutex>& lk) {
  auto port = std::make_shared<PortHandle::Port>(cfg_.ring_capacity, gate_);
  PortMap map = view_->ports->map;
  map.emplace(id, port);
  publish_ports_locked(std::move(map));
  lk.unlock();
  emit_event(openflow::PortStatus{id, openflow::PortReason::kAdd});
  return std::shared_ptr<PortHandle>(new PortHandle(id, std::move(port)));
}

void SoftSwitch::detach_port(PortId port) {
  std::shared_ptr<PortHandle::Port> p;
  {
    std::lock_guard lk(mu_);
    PortMap map = view_->ports->map;
    auto it = map.find(port);
    if (it == map.end()) return;
    p = std::move(it->second);
    map.erase(it);
    publish_ports_locked(std::move(map));
  }
  p->open.store(false, std::memory_order_relaxed);
  emit_event(openflow::PortStatus{port, openflow::PortReason::kDelete});
}

void SoftSwitch::add_tunnel(HostId peer,
                            std::shared_ptr<net::TunnelEndpoint> ep) {
  // Wake the forwarding thread when the peer enqueues frames. The gate is
  // captured by shared_ptr so a tunnel outliving the switch fires into an
  // inert gate instead of freed memory.
  ep->set_rx_notify([gate = gate_] { gate->notify(); });
  std::lock_guard lk(mu_);
  publish_part(&View::tunnels, [&](TunnelList& t) {
    t.push_back({peer, std::move(ep)});
  });
}

namespace {

// Summed wire size of a burst.
std::uint64_t WireBytes(const std::vector<net::PacketPtr>& pkts) {
  std::uint64_t bytes = 0;
  for (const net::PacketPtr& p : pkts) bytes += p->wire_size();
  return bytes;
}

// Corrupt action for in-switch packets: copy-on-write flip of one payload
// byte (downstream depacketizers treat the malformed chunk as a drop).
void CorruptPacket(net::PacketPtr& p, std::uint32_t offset,
                   std::uint8_t mask) {
  if (p->payload.empty()) return;
  net::Packet copy = *p;
  copy.payload[offset % copy.payload.size()] ^= mask;
  p = net::MakePacket(std::move(copy));
}

}  // namespace

faultinject::Impairment* SoftSwitch::set_port_ingress_impairment(
    PortId port, const faultinject::ImpairmentConfig& cfg) {
  auto shaper = std::make_shared<PacketShaper>(cfg);
  faultinject::Impairment* probe = &shaper->impairment();
  std::lock_guard lk(mu_);
  publish_part(&View::impair,
               [&](ImpairMap& m) { m[port] = std::move(shaper); });
  return probe;
}

void SoftSwitch::clear_port_impairments(PortId port) {
  std::lock_guard lk(mu_);
  publish_part(&View::impair, [&](ImpairMap& m) { m.erase(port); });
}

void SoftSwitch::set_port_ingress_rate(PortId port, double bytes_per_sec) {
  {
    std::lock_guard lk(mu_);
    auto it = view_->rates->find(port);
    if (it != view_->rates->end() && bytes_per_sec > 0.0) {
      // Live rate change: re-seed the existing bucket in place (tokens
      // scale proportionally, so a cut binds within one refill interval).
      // The forwarding thread already holds this shaper — nothing to
      // republish.
      it->second->bucket.set_rate(bytes_per_sec);
      return;
    }
    if (it == view_->rates->end() && bytes_per_sec <= 0.0) return;
    publish_part(&View::rates, [&](RateMap& rates) {
      if (bytes_per_sec <= 0.0) {
        rates.erase(port);
      } else {
        rates.emplace(port, std::make_shared<PortRateShaper>(bytes_per_sec));
      }
    });
  }
  // Shapers added/removed: wake the forwarding thread so, if parked, it
  // re-evaluates its poll predicate against the new map.
  gate_->notify();
}

double SoftSwitch::port_ingress_rate(PortId port) const {
  const std::shared_ptr<const View> v = current();
  auto it = v->rates->find(port);
  return it == v->rates->end() ? 0.0 : it->second->bucket.rate();
}

std::vector<SoftSwitch::PortShaperStats> SoftSwitch::shaper_stats() const {
  const std::shared_ptr<const View> v = current();
  std::vector<PortShaperStats> out;
  out.reserve(v->rates->size());
  for (const auto& [id, sh] : *v->rates) {
    out.push_back({id, sh->bucket.rate(),
                   sh->shaped_bytes.load(std::memory_order_relaxed),
                   sh->defers.load(std::memory_order_relaxed)});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.port < b.port; });
  return out;
}

PortHandle::Port* SoftSwitch::find_out_port(PortId port) const {
  if (port < dp_.ports->out_dense.size()) return dp_.ports->out_dense[port];
  auto it = dp_.ports->out_sparse.find(port);
  return it == dp_.ports->out_sparse.end() ? nullptr : it->second;
}

void SoftSwitch::apply(const openflow::Bundle& b) {
  std::lock_guard lk(mu_);
  View next = *view_;
  bool changed = false;
  if (!b.groups.empty()) {
    auto groups = std::make_shared<openflow::GroupTable>(*view_->groups);
    for (const openflow::GroupMod& mod : b.groups) changed |= groups->apply(mod);
    // An unchanged table keeps its pointer: the forwarding thread re-copies
    // the groups (and loses its select-group WRR credit) only when the
    // pointer moves.
    if (changed) next.groups = std::move(groups);
  }
  if (flow_table_.apply(b) != 0) {
    next.flows = flow_table_.snapshot();
    changed = true;
  }
  if (!changed) return;
  ++next.table_epoch;
  publish_locked(std::move(next));
}

void SoftSwitch::handle_packet_out(const openflow::PacketOut& po) {
  injected_.push({po.packet, po.in_port});
  gate_->notify();
}

std::vector<openflow::PortStats> SoftSwitch::port_stats() const {
  const std::shared_ptr<const View> v = current();
  std::vector<openflow::PortStats> out;
  out.reserve(v->ports->map.size());
  for (const auto& [id, p] : v->ports->map) {
    openflow::PortStats s;
    s.port = id;
    s.rx_packets = p->rx_packets.load(std::memory_order_relaxed);
    s.rx_bytes = p->rx_bytes.load(std::memory_order_relaxed);
    s.tx_packets = p->tx_packets.load(std::memory_order_relaxed);
    s.tx_bytes = p->tx_bytes.load(std::memory_order_relaxed);
    s.tx_dropped = p->tx_dropped.load(std::memory_order_relaxed);
    s.rx_backlog = p->to_switch.size();
    out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.port < b.port; });
  return out;
}

std::vector<openflow::FlowStats> SoftSwitch::flow_stats(
    std::optional<std::uint64_t> cookie) const {
  std::lock_guard lk(mu_);
  return flow_table_.stats(cookie);
}

std::vector<openflow::FlowRule> SoftSwitch::flow_rules() const {
  std::lock_guard lk(mu_);
  return flow_table_.rules();
}

std::size_t SoftSwitch::flow_count() const {
  std::lock_guard lk(mu_);
  return flow_table_.size();
}

void SoftSwitch::set_event_sink(
    std::function<void(HostId, SwitchEvent)> sink) {
  std::lock_guard lk(sink_mu_);
  event_sink_ = std::move(sink);
}

void SoftSwitch::emit_event(SwitchEvent ev) {
  std::function<void(HostId, SwitchEvent)> sink;
  {
    std::lock_guard lk(sink_mu_);
    sink = event_sink_;
  }
  if (sink) sink(cfg_.host, std::move(ev));
}

void SoftSwitch::record_span(std::uint64_t trace_id, std::uint8_t hop,
                             trace::Stage stage) {
  cfg_.trace_recorder->record(
      {trace_id, stage, hop, cfg_.host, common::NowMicros(), 0});
}

// ---- egress coalescing ----

void SoftSwitch::bin_to_port(net::PacketPtr p, PortId port,
                             std::size_t wire) {
  EgressBins& bins = dp_.bins;
  // Bursts hit few distinct destinations; a linear scan over the active
  // bins beats a map at this scale (the OVS output-batching shape).
  PortBin* b = nullptr;
  for (std::size_t i = 0; i < bins.n_ports; ++i) {
    if (bins.ports[i].id == port) {
      b = &bins.ports[i];
      break;
    }
  }
  if (b == nullptr) {
    if (bins.n_ports == bins.ports.size()) bins.ports.emplace_back();
    b = &bins.ports[bins.n_ports++];
    b->id = port;
    b->port = find_out_port(port);
    b->pkts.clear();
    b->bytes = 0;
  }
  b->pkts.push_back(std::move(p));
  b->bytes += wire;
}

void SoftSwitch::bin_to_tunnel(net::PacketPtr p, net::TunnelEndpoint* ep) {
  EgressBins& bins = dp_.bins;
  for (std::size_t i = 0; i < bins.n_tunnels; ++i) {
    if (bins.tunnels[i].ep == ep) {
      bins.tunnels[i].pkts.push_back(std::move(p));
      return;
    }
  }
  if (bins.n_tunnels == bins.tunnels.size()) bins.tunnels.emplace_back();
  TunnelBin& b = bins.tunnels[bins.n_tunnels++];
  b.ep = ep;
  b.pkts.clear();
  b.pkts.push_back(std::move(p));
}

void SoftSwitch::append_backlog(net::PacketPtr p, PortId port) {
  if (dp_.egress_pending.size() >= kEgressPendingCap) {
    PortHandle::Port* t = find_out_port(port);
    if (t != nullptr) t->tx_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  dp_.egress_pending.emplace_back(std::move(p), port);
}

std::size_t SoftSwitch::deliver(PortHandle::Port& port,
                                std::span<net::PacketPtr> pkts,
                                std::uint64_t bytes) {
  // A delivered packet is not read again here unless traced: the caller's
  // byte count stands for it.
  const bool tracing = cfg_.trace_recorder != nullptr;
  std::size_t i = 0;
  for (; i < pkts.size(); ++i) {
    std::uint64_t tid = 0;
    std::uint8_t thop = 0;
    if (tracing) {
      tid = pkts[i]->trace_id;
      thop = pkts[i]->trace_hop;
    }
    // A rejected push leaves the packet intact.
    if (!port.from_switch.try_push(std::move(pkts[i]))) break;
    if (tid != 0) record_span(tid, thop, trace::Stage::kSwitchOut);
  }
  if (i != 0) {
    for (std::size_t k = i; k < pkts.size(); ++k) bytes -= pkts[k]->wire_size();
    port.tx_packets.fetch_add(i, std::memory_order_relaxed);
    port.tx_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  return i;
}

void SoftSwitch::flush_port_bin(PortBin& bin) {
  PortHandle::Port* target = bin.port;
  if (target == nullptr || !target->open.load(std::memory_order_relaxed)) {
    bin.pkts.clear();  // port vanished; silently dropped
    return;
  }
  // A non-empty backlog means some ring is full: enqueue behind it so this
  // destination's delivery order is preserved and the run loop keeps
  // ingress paused until the pressure clears.
  std::size_t i = 0;
  if (dp_.egress_pending.empty()) {
    i = deliver(*target, bin.pkts, bin.bytes);
    // Ring full mid-bin: hold the tail and start the back-pressure clock.
    if (i < bin.pkts.size()) dp_.egress_block_since = common::Now();
  }
  for (; i < bin.pkts.size(); ++i) {
    append_backlog(std::move(bin.pkts[i]), bin.id);
  }
  bin.pkts.clear();
}

void SoftSwitch::flush_tunnel_bin(TunnelBin& bin) {
  // Hand the refcounted bin straight to the tunnel: the transport frames
  // each packet from its header and payload (the socket on its IO thread,
  // from iovecs), so a cross-host burst stays a burst, uncopied, end to end.
  const std::span<const net::PacketPtr> pkts(bin.pkts.data(), bin.pkts.size());
  const bool tracing = cfg_.trace_recorder != nullptr;
  const auto span_out = [&](const net::PacketPtr& p) {
    if (tracing && p->trace_id != 0) {
      record_span(p->trace_id, p->trace_hop, trace::Stage::kSwitchOut);
    }
  };
  std::size_t i = 0;
  while (i < pkts.size()) {
    const std::size_t sent = bin.ep->try_send_burst(pkts.subspan(i));
    for (std::size_t k = i; k < i + sent; ++k) span_out(pkts[k]);
    i += sent;
    if (i == pkts.size()) break;
    // A full tunnel ring falls back to the blocking send for the frame at
    // its head — the TCP back-pressure semantics — then resumes bursting.
    // As on the burst path, only frames the tunnel actually accepted get a
    // span; a closed tunnel's rejections are dropped without one.
    if (bin.ep->send(pkts[i])) span_out(pkts[i]);
    ++i;
  }
  bin.pkts.clear();
}

void SoftSwitch::flush_bins() {
  for (std::size_t i = 0; i < dp_.bins.n_ports; ++i) {
    flush_port_bin(dp_.bins.ports[i]);
  }
  dp_.bins.n_ports = 0;
  for (std::size_t i = 0; i < dp_.bins.n_tunnels; ++i) {
    flush_tunnel_bin(dp_.bins.tunnels[i]);
  }
  dp_.bins.n_tunnels = 0;
}

std::size_t SoftSwitch::drain_egress_backlog() {
  std::size_t resolved = 0;
  while (!dp_.egress_pending.empty()) {
    auto& [pkt, port] = dp_.egress_pending.front();
    PortHandle::Port* target = find_out_port(port);
    if (target == nullptr || !target->open.load(std::memory_order_relaxed)) {
      dp_.egress_pending.pop_front();  // port vanished with its packets
      ++resolved;
      continue;
    }
    if (deliver(*target, std::span(&pkt, 1), pkt->wire_size()) == 1) {
      dp_.egress_pending.pop_front();
      dp_.egress_block_since = common::Now();
      ++resolved;
      continue;
    }
    if (common::Now() - dp_.egress_block_since >= kEgressHold) {
      // The receiver is wedged (paused or dead consumer): revert to the
      // at-most-once drop for the whole backlog so one port cannot stall
      // the switch's forwarding indefinitely.
      for (auto& [hp, hport] : dp_.egress_pending) {
        PortHandle::Port* t = find_out_port(hport);
        if (t == nullptr) continue;
        if (deliver(*t, std::span(&hp, 1), hp->wire_size()) == 0) {
          t->tx_dropped.fetch_add(1, std::memory_order_relaxed);
        }
      }
      resolved += dp_.egress_pending.size();
      dp_.egress_pending.clear();
    }
    break;
  }
  return resolved;
}

// ---- classification + action stages ----

void SoftSwitch::apply_actions(
    const net::PacketPtr& p, PortId in_port, std::size_t wire,
    const std::vector<openflow::FlowAction>& actions) {
  net::PacketPtr current = p;
  HostId pending_tun_dst = 0;
  bool has_tun_dst = false;

  for (const openflow::FlowAction& a : actions) {
    if (const auto* out = std::get_if<openflow::ActionOutput>(&a)) {
      if (out->port == kTunnelPort) {
        net::TunnelEndpoint* ep = nullptr;
        for (const TunnelRef& t : *dp_.tunnels) {
          if (!has_tun_dst || t.peer == pending_tun_dst) {
            ep = t.ep.get();
            break;
          }
        }
        if (ep != nullptr) bin_to_tunnel(current, ep);
      } else {
        bin_to_port(current, out->port, wire);
      }
    } else if (std::holds_alternative<openflow::ActionOutputController>(a)) {
      emit_event(openflow::PacketIn{current, in_port});
    } else if (const auto* tun = std::get_if<openflow::ActionSetTunDst>(&a)) {
      pending_tun_dst = tun->host;
      has_tun_dst = true;
    } else if (const auto* grp = std::get_if<openflow::ActionGroup>(&a)) {
      // Group state comes from the forwarding thread's private copy — no
      // table lock, no bucket copies. Select-group WRR credit lives in that
      // copy and is only advanced here.
      const auto type = dp_.groups.type(grp->group_id);
      if (!type) continue;
      if (*type == openflow::GroupType::kSelect) {
        if (const auto* b = dp_.groups.select(grp->group_id)) {
          apply_actions(current, in_port, wire, b->actions);
        }
      } else if (const auto* bs = dp_.groups.buckets(grp->group_id)) {
        for (const openflow::GroupBucket& b : *bs) {
          apply_actions(current, in_port, wire, b.actions);
        }
      }
    } else if (const auto* rw = std::get_if<openflow::ActionSetDlDst>(&a)) {
      // Copy-on-write header rewrite.
      net::Packet copy = *current;
      copy.dst = WorkerAddress::unpack(rw->dl_dst);
      current = net::MakePacket(std::move(copy));
    }
  }
}

std::size_t SoftSwitch::process_burst(std::span<net::PacketPtr> pkts,
                                      PortId in_port,
                                      PortHandle::Port* rx_port) {
  if (pkts.empty()) return 0;
  const std::size_t n = pkts.size();
  const bool tracing = cfg_.trace_recorder != nullptr;
  adopt();

  // Wire sizes first, in one tight pass: every byte counter below (port
  // RX, rule, port TX) uses them, so no stage after classification reads
  // a packet again (a header may share its cache line with a refcount
  // other cores are writing).
  dp_.wire.resize(n);
  std::uint64_t rx_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    dp_.wire[i] = pkts[i]->wire_size();
    rx_bytes += dp_.wire[i];
  }
  if (rx_port != nullptr) {
    rx_port->rx_packets.fetch_add(n, std::memory_order_relaxed);
    rx_port->rx_bytes.fetch_add(rx_bytes, std::memory_order_relaxed);
  }

  // Stage 1: whole-burst key extraction + microflow probe. Raw action and
  // stat pointers are captured immediately: a stage-2 insert may evict the
  // probed cache entry, but the pointed-to objects belong to the flow
  // snapshot of the adopted View, which `dp_.view` pins for the whole burst.
  dp_.keys.resize(n);
  dp_.resolved.assign(n, Resolved{});
  dp_.miss_idx.clear();
  dp_.miss_dups.clear();
  std::uint64_t cache_hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const net::Packet& p = *pkts[i];
    if (tracing && p.trace_id != 0) {
      record_span(p.trace_id, p.trace_hop, trace::Stage::kSwitchIn);
    }
    dp_.keys[i] = MicroflowKey{in_port, p.ether_type, p.src.packed(),
                              p.dst.packed()};
    if (MicroflowCache::Entry* e =
            dp_.mcache.probe(dp_.keys[i], dp_.table_epoch)) {
      dp_.resolved[i] = {e->actions.get(), e->stats.get()};
      ++cache_hits;
      continue;
    }
    // Burst-local dedup: later packets of a key that already missed this
    // burst resolve from the first occurrence (the install lands in stage
    // 2). They count as cache hits — like the per-packet path, a flow pays
    // one compulsory miss per table epoch, not one per burst position.
    std::size_t u = 0;
    for (; u < dp_.miss_idx.size(); ++u) {
      if (dp_.keys[dp_.miss_idx[u]] == dp_.keys[i]) break;
    }
    if (u < dp_.miss_idx.size()) {
      dp_.miss_dups.emplace_back(i, u);
    } else {
      dp_.miss_idx.push_back(i);
    }
  }
  dp_.mcache.count_hits(cache_hits + dp_.miss_dups.size());
  dp_.mcache.count_misses(dp_.miss_idx.size());

  // Stage 2: one shared wildcard pass resolves every miss, then the
  // microflows are installed in bulk (negative entries included — known
  // drops are cached too).
  if (!dp_.miss_idx.empty()) {
    dp_.miss_pkts.clear();
    for (const std::size_t idx : dp_.miss_idx) {
      dp_.miss_pkts.push_back(pkts[idx].get());
    }
    dp_.miss_hits.assign(dp_.miss_idx.size(), nullptr);
    dp_.view->flows->lookup_batch(
        std::span<const net::Packet* const>(dp_.miss_pkts), in_port,
        std::span<const openflow::FlowSnapshotEntry*>(dp_.miss_hits));
    for (std::size_t j = 0; j < dp_.miss_idx.size(); ++j) {
      const openflow::FlowSnapshotEntry* hit = dp_.miss_hits[j];
      dp_.mcache.insert(dp_.keys[dp_.miss_idx[j]], dp_.table_epoch,
                       hit ? hit->actions : openflow::SharedActions::Ptr{},
                       hit ? hit->stats : nullptr);
      if (hit != nullptr) {
        dp_.resolved[dp_.miss_idx[j]] = {hit->actions.get(), hit->stats.get()};
      }
    }
    for (const auto& [i, u] : dp_.miss_dups) {
      dp_.resolved[i] = dp_.resolved[dp_.miss_idx[u]];
    }
  }

  // Stage 3: account + act, binning outputs by destination.
  std::size_t forwarded = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Resolved& r = dp_.resolved[i];
    net::PacketPtr p = std::move(pkts[i]);
    if (r.actions == nullptr) continue;  // table miss: drop
    ++forwarded;
    if (r.stats != nullptr) {
      r.stats->packets.fetch_add(1, std::memory_order_relaxed);
      r.stats->bytes.fetch_add(dp_.wire[i], std::memory_order_relaxed);
    }
    const auto& actions = *r.actions;
    // Fast path for the dominant rule shape (single output to a local
    // port): the packet moves straight into its egress bin.
    if (actions.size() == 1) {
      if (const auto* out = std::get_if<openflow::ActionOutput>(&actions[0]);
          out != nullptr && out->port != kTunnelPort) {
        bin_to_port(std::move(p), out->port, dp_.wire[i]);
        continue;
      }
    }
    apply_actions(p, in_port, dp_.wire[i], actions);
  }
  flush_bins();
  return forwarded;
}

// ---- the run loop ----

bool SoftSwitch::has_work() const {
  if (!running_.load(std::memory_order_relaxed)) return true;  // wake to exit
  if (!dp_.egress_pending.empty()) return true;
  // A newer View counts as work: a just-attached port or tunnel may hold
  // traffic the adopted View can't see yet (likewise a just-changed rate-
  // shaper map).
  if (gen_.load(std::memory_order_acquire) != dp_.generation) return true;
  for (const auto& [id, port] : dp_.ports->poll) {
    if (port->to_switch.empty()) continue;
    // A throttled port with an empty bucket is not pollable work: parking
    // is what bounds the shaper's spin, and the park timeout (<= 10 ms)
    // bounds the refill latency.
    if (dp_.rates != nullptr) {
      auto it = dp_.rates->find(id);
      if (it != dp_.rates->end() && !it->second->bucket.ready()) continue;
    }
    return true;
  }
  for (const TunnelRef& t : *dp_.tunnels) {
    if (t.ep->rx_queue_depth() != 0) return true;
  }
  return injected_.size() != 0;
}

void SoftSwitch::run() {
  std::uint32_t idle_streak = 0;

  while (running_.load(std::memory_order_relaxed)) {
    std::size_t work = 0;
    std::uint64_t forwarded = 0;

    // Adopt the latest View. Bursts adopt again at their start;
    // `loop_view` keeps this one alive for the poll lists below.
    adopt();
    if (dp_.loop_view != dp_.view) dp_.loop_view = dp_.view;
    const View* view = dp_.loop_view.get();

    // Held egress goes first; while any remains, ingress polling stays
    // paused so a full downstream ring turns into upstream ring pressure
    // (the sender's back-pressure loop) instead of silent drops.
    if (!dp_.egress_pending.empty()) work += drain_egress_backlog();

    if (dp_.egress_pending.empty()) {
      // Stage 0: bulk-dequeue a burst per port and run it through the
      // batched pipeline. Port counters flush once per burst.
      const RateMap* rates = dp_.rates;  // backed by loop_view
      for (const auto& [id, port] : view->ports->poll) {
        // QoS ingress shaping: an empty token bucket defers this port's
        // poll round entirely (never drops — the ring holds the frames and
        // the worker's send loop feels the pressure). Admission is debt-
        // based: a positive bucket admits a whole burst and is charged its
        // true byte weight afterward.
        PortRateShaper* rl = nullptr;
        if (rates != nullptr) {
          auto it = rates->find(id);
          if (it != rates->end()) rl = it->second.get();
        }
        if (rl != nullptr && !rl->bucket.ready()) {
          if (!port->to_switch.empty()) {
            rl->defers.fetch_add(1, std::memory_order_relaxed);
          }
          continue;
        }
        dp_.port_burst.clear();
        const std::size_t n = port->to_switch.pop_bulk(
            std::back_inserter(dp_.port_burst), cfg_.poll_burst);
        if (n == 0) continue;
        work += n;
        if (rl != nullptr) {
          const std::uint64_t bytes = WireBytes(dp_.port_burst);
          rl->bucket.spend(static_cast<double>(bytes));
          rl->shaped_bytes.fetch_add(bytes, std::memory_order_relaxed);
        }
        // Shape by the View adopted after the pop, so a packet sent after
        // an impairment was set always meets it.
        adopt();
        PacketShaper* shaper = nullptr;
        if (dp_.impair != nullptr) {
          auto it = dp_.impair->find(id);
          if (it != dp_.impair->end()) shaper = it->second.get();
        }
        if (shaper == nullptr) {
          // The pipeline accounts the port's RX in its header pass.
          forwarded += process_burst(std::span<net::PacketPtr>(dp_.port_burst),
                                     id, port.get());
        } else {
          // RX counts what the port received, before impairment. Then shape
          // the whole burst (one admit per frame, in order — the draw
          // schedule is identical to the per-packet path) and pipeline
          // whatever survived.
          port->rx_packets.fetch_add(n, std::memory_order_relaxed);
          port->rx_bytes.fetch_add(WireBytes(dp_.port_burst),
                                   std::memory_order_relaxed);
          dp_.ingress_scratch.clear();
          for (net::PacketPtr& p : dp_.port_burst) {
            shaper->admit(std::move(p), dp_.ingress_scratch, CorruptPacket);
          }
          forwarded += process_burst(
              std::span<net::PacketPtr>(dp_.ingress_scratch), id);
          dp_.ingress_scratch.clear();
        }
        dp_.port_burst.clear();
      }

      // Tunnel ingress: burst-decode into pool checkouts (recycled payload
      // buffers — steady RX allocates nothing). Spares survive empty polls
      // untouched.
      for (const TunnelRef& t : *view->tunnels) {
        while (dp_.rx_spares.size() < cfg_.poll_burst) {
          dp_.rx_spares.push_back(dp_.rx_pool->acquire_raw());
        }
        const std::size_t n = t.ep->try_recv_burst(
            std::span<net::Packet*>(dp_.rx_spares.data(), cfg_.poll_burst));
        if (n == 0) continue;
        dp_.tun_burst.clear();
        for (std::size_t i = 0; i < n; ++i) {
          net::PacketPtr pkt = net::PacketPtr::adopt(dp_.rx_spares[i]);
          if (pkt->trace_id != 0 && cfg_.trace_recorder != nullptr) {
            record_span(pkt->trace_id, pkt->trace_hop,
                        trace::Stage::kTunnelRx);
          }
          dp_.tun_burst.push_back(std::move(pkt));
        }
        dp_.rx_spares.erase(dp_.rx_spares.begin(), dp_.rx_spares.begin() + n);
        forwarded += process_burst(std::span<net::PacketPtr>(dp_.tun_burst),
                                   kTunnelPort);
        dp_.tun_burst.clear();
        work += n;
      }
    }

    // Controller-injected packets (PacketOut) bypass the ingress pause:
    // control traffic is sparse and the backlog cap bounds the stash.
    for (std::size_t i = 0; i < cfg_.poll_burst; ++i) {
      auto item = injected_.try_pop();
      if (!item) break;
      net::PacketPtr pkt = std::move(item->first);
      forwarded +=
          process_burst(std::span<net::PacketPtr>(&pkt, 1), item->second);
      ++work;
    }

    if (forwarded != 0) {
      dp_.forwarded.fetch_add(forwarded, std::memory_order_relaxed);
    }

    // Idle strategy: spin briefly (traffic is bursty — the next packet
    // usually follows immediately), back off exponentially to a 250µs
    // sleep, then park on the gate so a long-idle switch burns no CPU at
    // all. A blocked egress backlog never parks (the held packets need
    // retries) and skips the spin phase: the receiver needs the CPU more
    // than we need latency.
    if (work == 0) {
      ++idle_streak;
      if (!dp_.egress_pending.empty() || idle_streak > kParkStreak) {
        if (dp_.egress_pending.empty()) {
          gate_->park(kParkTimeout, [&] { return has_work(); });
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(250));
        }
      } else if (idle_streak <= kSpinStreak) {
        common::SpinFor(std::chrono::nanoseconds(250));
      } else {
        const std::uint32_t streak = idle_streak - kSpinStreak - 1;
        const std::uint32_t shift = std::min(streak, 6u);
        const std::int64_t us =
            std::min<std::int64_t>(250, std::int64_t{4} << shift);
        std::this_thread::sleep_for(std::chrono::microseconds(us));
      }
    } else {
      idle_streak = 0;
    }
  }

  // Return the spare tunnel-RX checkouts to the pool.
  for (net::Packet* spare : dp_.rx_spares) {
    net::PacketPtr::adopt(spare);
  }
  dp_.rx_spares.clear();
}

}  // namespace typhoon::switchd
