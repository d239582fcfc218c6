#include "controller/controller.h"

#include "common/log.h"
#include "net/packetizer.h"
#include "stream/tuple.h"

namespace typhoon::controller {
namespace {

// Reliable control-channel retry policy: sequenced control tuples are
// retransmitted with bounded exponential backoff until acked (workers
// deduplicate by sequence number, so retries are idempotent).
constexpr int kControlMaxAttempts = 8;
constexpr std::chrono::milliseconds kControlRetryInitial{25};
constexpr std::chrono::milliseconds kControlRetryMax{400};

}  // namespace

net::PacketPtr BuildControlPacket(TopologyId topology, WorkerId dst,
                                  const stream::ControlTuple& ct,
                                  net::PacketPool* pool) {
  const common::Bytes body = stream::EncodeControl(ct);
  // Pooled checkout when available (controller tick retransmits at rate);
  // plain heap packet otherwise (tests, one-offs).
  net::Packet* p =
      pool != nullptr ? pool->acquire_raw() : new net::Packet();
  p->src = WorkerAddress{topology, kControllerWorker};
  p->dst = WorkerAddress{topology, dst};

  net::ChunkHeader h;
  h.stream_id = stream::kControlStream;
  h.flags = net::kChunkFlagControl;
  h.tuple_seq = 0;
  h.chunk_len = static_cast<std::uint32_t>(body.size());
  common::BufWriter w(p->payload);
  net::EncodeChunkHeader(h, w);
  w.raw(body);
  if (pool != nullptr) return net::PacketPtr::adopt(p);
  net::Packet heap = std::move(*p);
  delete p;
  return net::MakePacket(std::move(heap));
}

TyphoonController::TyphoonController(coordinator::Coordinator* coord,
                                     ControllerOptions opts)
    : coord_(coord), opts_(opts), events_q_(8192) {}

TyphoonController::~TyphoonController() { stop(); }

void TyphoonController::add_switch(HostId host, switchd::SwitchControl* sw) {
  attach_switch(host, sw);
  sw->set_event_sink([this](HostId h, switchd::SwitchEvent ev) {
    ingest_event(h, std::move(ev));
  });
}

void TyphoonController::attach_switch(HostId host, switchd::SwitchControl* sw) {
  std::lock_guard lk(mu_);
  switches_[host] = sw;
}

void TyphoonController::ingest_event(HostId host, switchd::SwitchEvent ev) {
  {
    std::lock_guard lk(part_mu_);
    if (partitioned_.contains(host)) {
      // Control channel to this host is down: hold the event until heal.
      if (deferred_.size() < kDeferredCap) {
        deferred_.emplace_back(host, std::move(ev));
      }
      return;
    }
  }
  events_q_.try_push({host, std::move(ev)});
}

switchd::SwitchControl* TyphoonController::switch_at(HostId host) const {
  std::lock_guard lk(mu_);
  auto it = switches_.find(host);
  return it == switches_.end() ? nullptr : it->second;
}

std::vector<HostId> TyphoonController::hosts() const {
  std::lock_guard lk(mu_);
  std::vector<HostId> out;
  out.reserve(switches_.size());
  for (const auto& [h, sw] : switches_) out.push_back(h);
  return out;
}

void TyphoonController::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void TyphoonController::stop() {
  if (!running_.exchange(false)) return;
  events_q_.close();
  if (thread_.joinable()) thread_.join();
  std::lock_guard lk(mu_);
  for (auto& app : apps_) app->on_stop();
}

std::size_t TyphoonController::apply_delta(
    const RuleDelta& delta, std::map<HostId, openflow::Bundle> app_dels) {
  std::size_t flowmods = 0;
  const auto phase = [&](const RulesByHost& rules,
                         openflow::FlowModCommand cmd,
                         std::map<HostId, openflow::Bundle> bundles) {
    for (const auto& [host, host_rules] : rules) {
      openflow::Bundle& b = bundles[host];
      for (const openflow::FlowRule& r : host_rules) b.flows.push_back({cmd, r});
    }
    for (const auto& [host, b] : bundles) {
      switchd::SwitchControl* sw = switch_at(host);
      if (sw == nullptr || b.empty()) continue;
      sw->apply(b);
      auto it = rules.find(host);
      if (it != rules.end()) flowmods += it->second.size();
    }
  };
  phase(delta.adds, openflow::FlowModCommand::kAdd, {});
  phase(delta.mods, openflow::FlowModCommand::kAdd, {});
  phase(delta.dels, openflow::FlowModCommand::kDelete, std::move(app_dels));
  return flowmods;
}

void TyphoonController::on_topology_updated(
    const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
    const std::vector<stream::PhysicalWorker>& removed) {
  if (crashed()) return;
  bool first = false;
  RuleDelta delta;
  // The delta deletes every compiler-emitted rule of the removed workers;
  // the app rules that name one go in the same delete bundles.
  std::map<HostId, openflow::Bundle> app_dels;
  {
    std::lock_guard lk(mu_);
    topologies_[spec.id] = TopoState{spec, phys};
    // Every hook finds cached state except a topology's first: the manager
    // deploys before it reconfigures, and a takeover winner reseeds the
    // cache from the checkpoints before it replays deferred hooks.
    first = compiler_.state(spec.id) == nullptr;
    delta = compiler_.compile_delta(spec, phys);
    std::set<std::uint64_t> gone;
    for (const stream::PhysicalWorker& w : removed) {
      gone.insert(WorkerAddress{spec.id, w.id}.packed());
    }
    const auto names_gone = [&](const std::optional<std::uint64_t>& a) {
      return a && gone.contains(*a);
    };
    for (auto& [host, table] : app_rules_) {
      openflow::Bundle dels;
      for (const openflow::FlowRule& r : table.rules()) {
        if (names_gone(r.match.dl_src) || names_gone(r.match.dl_dst)) {
          dels.flows.push_back({openflow::FlowModCommand::kDelete, r});
        }
      }
      if (dels.empty()) continue;
      table.apply(dels);
      app_dels[host] = std::move(dels);
    }
  }
  const auto flowmods =
      static_cast<std::int64_t>(apply_delta(delta, std::move(app_dels)));
  (first ? flowmods_full_ : flowmods_delta_)
      .fetch_add(flowmods, std::memory_order_relaxed);
  checkpoint_topology(spec, phys);
  if (first) {
    LOG_INFO("controller") << "installed rules for topology " << spec.name;
  }
}

bool TyphoonController::apply_app_bundle(HostId host,
                                         const openflow::Bundle& b) {
  if (crashed()) return false;
  switchd::SwitchControl* sw = nullptr;
  {
    std::lock_guard lk(mu_);
    auto it = switches_.find(host);
    if (it == switches_.end()) return false;
    sw = it->second;
    app_rules_[host].apply(b);
  }
  sw->apply(b);
  return true;
}

void TyphoonController::send_control_tuple(
    const stream::PhysicalTopology& phys, WorkerId target,
    const stream::ControlTuple& ct) {
  (void)send_control(phys.id, target, ct, /*reliable=*/true);
}

void TyphoonController::on_topology_killed(TopologyId id) {
  if (crashed()) return;
  const openflow::Bundle kill{.delete_cookies = {id}};
  std::vector<switchd::SwitchControl*> sws;
  {
    std::lock_guard lk(mu_);
    topologies_.erase(id);
    compiler_.forget(id);
    for (auto& [host, table] : app_rules_) table.apply(kill);
    for (auto& [h, sw] : switches_) sws.push_back(sw);
  }
  for (switchd::SwitchControl* sw : sws) sw->apply(kill);
  checkpoint_remove_topology(id);
}

common::Status TyphoonController::transmit_control(
    TopologyId topology, WorkerId dst, const stream::ControlTuple& ct) {
  if (crashed()) return common::Unavailable("controller crashed");
  stream::PhysicalTopology phys;
  {
    std::lock_guard lk(mu_);
    auto it = topologies_.find(topology);
    if (it == topologies_.end()) {
      return common::NotFound("topology " + std::to_string(topology));
    }
    phys = it->second.physical;
  }
  const stream::PhysicalWorker* w = phys.worker(dst);
  if (w == nullptr) {
    return common::NotFound("worker w" + std::to_string(dst));
  }
  if (is_partitioned(w->host)) {
    return common::Unavailable("controller partitioned from host " +
                               std::to_string(w->host));
  }
  switchd::SwitchControl* sw = switch_at(w->host);
  if (sw == nullptr) return common::NotFound("switch for host");
  sw->handle_packet_out({BuildControlPacket(topology, dst, ct,
                                            ctl_pool_.get()),
                         kPortController});
  return common::Status::Ok();
}

common::Status TyphoonController::send_control(TopologyId topology,
                                               WorkerId dst,
                                               const stream::ControlTuple& ct,
                                               bool reliable) {
  if (crashed()) return common::Unavailable("controller crashed");
  if (!reliable) return transmit_control(topology, dst, ct);

  stream::ControlTuple seqd = ct;
  if (seqd.seq == 0) seqd.seq = next_ctl_seq_.fetch_add(1);
  {
    std::lock_guard lk(mu_);
    if (!topologies_.contains(topology)) {
      return common::NotFound("topology " + std::to_string(topology));
    }
    PendingCtl p;
    p.topology = topology;
    p.dst = dst;
    p.ct = seqd;
    p.attempts = 1;
    p.backoff = kControlRetryInitial;
    p.next_retry = common::Now() + p.backoff;
    pending_ctl_[seqd.seq] = std::move(p);
  }
  // Checkpoint BEFORE the first transmission: a worker can only ever have
  // observed a seq that is durably below the checkpointed counter, so a
  // standby restoring `seq` can never hand out a colliding number. The
  // pending znode likewise exists before any copy is on the wire.
  checkpoint_seq();
  checkpoint_pending(seqd.seq, topology, dst, seqd);
  // First attempt inline; failures (partition, mid-reschedule routing gaps)
  // are retried from the controller loop, so the caller — often an app on
  // the controller thread itself — never blocks waiting for the ack.
  (void)transmit_control(topology, dst, seqd);
  return common::Status::Ok();
}

void TyphoonController::retry_pending_controls() {
  std::vector<PendingCtl> to_send;
  std::vector<std::uint64_t> abandoned;
  const common::TimePoint now = common::Now();
  {
    std::lock_guard lk(mu_);
    for (auto it = pending_ctl_.begin(); it != pending_ctl_.end();) {
      PendingCtl& p = it->second;
      if (now < p.next_retry) {
        ++it;
        continue;
      }
      if (p.attempts >= kControlMaxAttempts ||
          !topologies_.contains(p.topology)) {
        abandoned.push_back(it->first);
        it = pending_ctl_.erase(it);
        continue;
      }
      ++p.attempts;
      p.backoff = std::min(p.backoff * 2, kControlRetryMax);
      p.next_retry = now + p.backoff;
      to_send.push_back(p);
      ++it;
    }
  }
  for (const PendingCtl& p : to_send) {
    ctl_retransmits_.fetch_add(1, std::memory_order_relaxed);
    (void)transmit_control(p.topology, p.dst, p.ct);
  }
  if (!abandoned.empty()) {
    for (std::uint64_t seq : abandoned) checkpoint_remove_pending(seq);
    ctl_abandoned_.fetch_add(static_cast<std::int64_t>(abandoned.size()),
                             std::memory_order_relaxed);
    LOG_WARN("controller") << abandoned.size()
                           << " control tuple(s) abandoned after max retries";
  }
}

void TyphoonController::set_partitioned(HostId host, bool partitioned) {
  std::deque<std::pair<HostId, switchd::SwitchEvent>> flush;
  {
    std::lock_guard lk(part_mu_);
    if (partitioned) {
      partitioned_.insert(host);
      return;
    }
    partitioned_.erase(host);
    std::deque<std::pair<HostId, switchd::SwitchEvent>> rest;
    while (!deferred_.empty()) {
      auto& e = deferred_.front();
      (e.first == host ? flush : rest).push_back(std::move(e));
      deferred_.pop_front();
    }
    deferred_.swap(rest);
  }
  // Heal: buffered events reach the loop in their original arrival order.
  for (auto& e : flush) events_q_.try_push(std::move(e));
}

bool TyphoonController::is_partitioned(HostId host) const {
  std::lock_guard lk(part_mu_);
  return partitioned_.contains(host);
}

std::size_t TyphoonController::control_in_flight() const {
  std::lock_guard lk(mu_);
  return pending_ctl_.size();
}

void TyphoonController::crash() {
  // Order matters: flip the flag first so a hook racing with the crash sees
  // it and bails before touching switches or the coordinator.
  crashed_.store(true, std::memory_order_release);
  stop();
}

void TyphoonController::set_next_control_seq(std::uint64_t seq) {
  std::uint64_t cur = next_ctl_seq_.load();
  while (cur < seq && !next_ctl_seq_.compare_exchange_weak(cur, seq)) {
  }
}

void TyphoonController::restore_pending(std::uint64_t seq, TopologyId topology,
                                        WorkerId dst,
                                        stream::ControlTuple ct) {
  ct.seq = seq;
  std::lock_guard lk(mu_);
  PendingCtl p;
  p.topology = topology;
  p.dst = dst;
  p.ct = std::move(ct);
  p.attempts = 1;
  p.backoff = kControlRetryInitial;
  p.next_retry = common::Now();  // due immediately: first loop tick resends
  pending_ctl_[seq] = std::move(p);
}

// ---- coordinator checkpointing (schema: DESIGN.md Sec 15) ----
//
//   <prefix>/topo/<id>      u16 id | bytes(EncodeSpec) | bytes(EncodePhysical)
//   <prefix>/pending/<seq>  u16 topology | u64 dst | bytes(EncodeControl)
//   <prefix>/seq            u64 next seq to allocate
//
// All persistent znodes (they must outlive the leader's session); written
// outside mu_ because the coordinator runs watch callbacks synchronously on
// the mutating thread.

void TyphoonController::checkpoint_topology(
    const stream::TopologySpec& spec, const stream::PhysicalTopology& phys) {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  common::Bytes blob;
  common::BufWriter w(blob);
  w.u16(spec.id);
  w.bytes(stream::EncodeSpec(spec));
  w.bytes(stream::EncodePhysical(phys));
  (void)coord_->put(opts_.checkpoint_prefix + "/topo/" +
                        std::to_string(spec.id),
                    std::move(blob));
}

void TyphoonController::checkpoint_remove_topology(TopologyId id) {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  (void)coord_->remove(opts_.checkpoint_prefix + "/topo/" +
                       std::to_string(id));
}

void TyphoonController::checkpoint_pending(std::uint64_t seq,
                                           TopologyId topology, WorkerId dst,
                                           const stream::ControlTuple& ct) {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  common::Bytes blob;
  common::BufWriter w(blob);
  w.u16(topology);
  w.u64(dst);
  w.bytes(stream::EncodeControl(ct));
  (void)coord_->put(opts_.checkpoint_prefix + "/pending/" +
                        std::to_string(seq),
                    std::move(blob));
}

void TyphoonController::checkpoint_remove_pending(std::uint64_t seq) {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  (void)coord_->remove(opts_.checkpoint_prefix + "/pending/" +
                       std::to_string(seq));
}

void TyphoonController::checkpoint_seq() {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  common::Bytes blob;
  common::BufWriter w(blob);
  w.u64(next_ctl_seq_.load());
  (void)coord_->put(opts_.checkpoint_prefix + "/seq", std::move(blob));
}

void TyphoonController::checkpoint_blob(const std::string& key,
                                        common::Bytes blob) {
  if (opts_.checkpoint_prefix.empty() || crashed()) return;
  (void)coord_->put(opts_.checkpoint_prefix + "/app/" + key, std::move(blob));
}

std::optional<common::Bytes> TyphoonController::read_blob(
    const std::string& key) const {
  if (opts_.checkpoint_prefix.empty()) return std::nullopt;
  auto r = coord_->get(opts_.checkpoint_prefix + "/app/" + key);
  if (!r.ok()) return std::nullopt;
  return std::move(r).value();
}

bool TyphoonController::program_port_rate(HostId host, PortId port,
                                          double bytes_per_sec) {
  if (crashed()) return false;
  switchd::SwitchControl* sw = switch_at(host);
  if (sw == nullptr) return false;
  sw->set_port_ingress_rate(port, bytes_per_sec);
  rate_updates_.fetch_add(1);
  return true;
}

common::Result<stream::MetricReport> TyphoonController::query_worker_metrics(
    TopologyId topology, WorkerId worker, std::chrono::milliseconds timeout) {
  const std::uint64_t req_id = next_request_.fetch_add(1);
  auto pending = std::make_shared<PendingQuery>();
  {
    std::lock_guard lk(mu_);
    pending_[req_id] = pending;
  }
  stream::ControlTuple ct;
  ct.type = stream::ControlType::kMetricReq;
  ct.request_id = req_id;
  if (common::Status st = send_control(topology, worker, ct); !st.ok()) {
    std::lock_guard lk(mu_);
    pending_.erase(req_id);
    return st;
  }
  const common::TimePoint deadline = common::Now() + timeout;
  while (!pending->done.load(std::memory_order_acquire)) {
    if (common::Now() > deadline) {
      std::lock_guard lk(mu_);
      pending_.erase(req_id);
      return common::Unavailable("metric query timed out");
    }
    common::SleepFor(std::chrono::microseconds(200));
  }
  {
    std::lock_guard lk(mu_);
    pending_.erase(req_id);
  }
  return pending->report;
}

std::vector<openflow::PortStats> TyphoonController::port_stats(
    HostId host) const {
  switchd::SwitchControl* sw = switch_at(host);
  return sw == nullptr ? std::vector<openflow::PortStats>{} : sw->port_stats();
}

std::vector<openflow::FlowStats> TyphoonController::flow_stats(
    HostId host, std::optional<std::uint64_t> cookie) const {
  switchd::SwitchControl* sw = switch_at(host);
  return sw == nullptr ? std::vector<openflow::FlowStats>{}
                       : sw->flow_stats(cookie);
}

std::optional<stream::TopologySpec> TyphoonController::spec(
    TopologyId id) const {
  std::lock_guard lk(mu_);
  auto it = topologies_.find(id);
  if (it == topologies_.end()) return std::nullopt;
  return it->second.spec;
}

std::optional<stream::PhysicalTopology> TyphoonController::physical(
    TopologyId id) const {
  std::lock_guard lk(mu_);
  auto it = topologies_.find(id);
  if (it == topologies_.end()) return std::nullopt;
  return it->second.physical;
}

std::vector<TopologyId> TyphoonController::topology_ids() const {
  std::lock_guard lk(mu_);
  std::vector<TopologyId> out;
  for (const auto& [id, st] : topologies_) out.push_back(id);
  return out;
}

std::optional<TyphoonController::WorkerRef> TyphoonController::worker_by_port(
    HostId host, PortId port) const {
  std::lock_guard lk(mu_);
  for (const auto& [id, st] : topologies_) {
    for (const stream::PhysicalWorker& w : st.physical.workers) {
      if (w.host == host && w.port == port) return WorkerRef{id, w};
    }
  }
  return std::nullopt;
}

void TyphoonController::add_app(std::unique_ptr<ControlPlaneApp> app) {
  // Initialize before publishing: the tick thread may call the app the
  // moment it appears in apps_, and on_start's writes (ctl_, restored
  // checkpoints) must happen-before that first tick. The mutex release
  // below is the publication edge.
  app->on_start(*this);
  std::lock_guard lk(mu_);
  apps_.push_back(std::move(app));
}

ControlPlaneApp* TyphoonController::app(const std::string& name) const {
  std::lock_guard lk(mu_);
  for (const auto& a : apps_) {
    if (name == a->name()) return a.get();
  }
  return nullptr;
}

void TyphoonController::handle_event(HostId host, switchd::SwitchEvent ev) {
  // Internal handling first: METRIC_RESP PacketIns fulfill pending queries.
  if (const auto* pin = std::get_if<openflow::PacketIn>(&ev)) {
    common::BufReader r(pin->packet->payload);
    net::ChunkHeader h;
    std::span<const std::uint8_t> body;
    if (net::DecodeChunkHeader(r, h) && r.view(h.chunk_len, body) &&
        h.control()) {
      stream::ControlTuple ct;
      if (stream::DecodeControl(body, ct)) {
        if (ct.type == stream::ControlType::kMetricResp && ct.report) {
          std::shared_ptr<PendingQuery> pending;
          {
            std::lock_guard lk(mu_);
            auto it = pending_.find(ct.report->request_id);
            if (it != pending_.end()) pending = it->second;
          }
          if (pending) {
            pending->report = *ct.report;
            pending->done.store(true, std::memory_order_release);
          }
        } else if (ct.type == stream::ControlType::kControlAck) {
          // request_id carries the acked sequence number; duplicate acks
          // (from retransmitted copies) find nothing and are ignored.
          bool acked = false;
          {
            std::lock_guard lk(mu_);
            acked = pending_ctl_.erase(ct.request_id) != 0;
          }
          if (acked) {
            ctl_acked_.fetch_add(1, std::memory_order_relaxed);
            checkpoint_remove_pending(ct.request_id);
          }
        }
      }
    }
  }

  std::vector<ControlPlaneApp*> apps;
  {
    std::lock_guard lk(mu_);
    apps.reserve(apps_.size());
    for (const auto& a : apps_) apps.push_back(a.get());
  }
  for (ControlPlaneApp* a : apps) {
    std::visit(
        [&](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, openflow::PacketIn>) {
            a->on_packet_in(host, e);
          } else if constexpr (std::is_same_v<T, openflow::PortStatus>) {
            a->on_port_status(host, e);
          }
        },
        ev);
  }
}

void TyphoonController::run() {
  common::TimePoint last_tick = common::Now();
  while (running_.load(std::memory_order_relaxed)) {
    auto item = events_q_.pop_for(std::chrono::milliseconds(5));
    if (item) handle_event(item->first, std::move(item->second));

    retry_pending_controls();

    const common::TimePoint now = common::Now();
    if (now - last_tick >= opts_.tick_interval) {
      last_tick = now;
      std::vector<ControlPlaneApp*> apps;
      {
        std::lock_guard lk(mu_);
        apps.reserve(apps_.size());
        for (const auto& a : apps_) apps.push_back(a.get());
      }
      for (ControlPlaneApp* a : apps) a->tick();
    }
  }
}

}  // namespace typhoon::controller
