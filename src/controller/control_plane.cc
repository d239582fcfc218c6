#include "controller/control_plane.h"

#include <utility>

#include "common/log.h"

namespace typhoon::controller {

namespace {

common::Bytes ToBytes(const std::string& s) {
  return common::Bytes(s.begin(), s.end());
}

}  // namespace

ControlPlane::ControlPlane(coordinator::Coordinator* coord,
                           ControlPlaneOptions opts)
    : coord_(coord), opts_(std::move(opts)) {
  if (opts_.shards == 0) opts_.shards = 1;
  shards_.reserve(opts_.shards);
  for (std::size_t i = 0; i < opts_.shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->index = i;
    s->root = opts_.root + "/shard-" + std::to_string(i);
    ControllerOptions copts = opts_.controller;
    copts.checkpoint_prefix = s->root + "/state";
    for (std::size_t r = 0; r < opts_.standbys + 1; ++r) {
      Replica rep;
      rep.ctl = std::make_unique<TyphoonController>(coord_, copts);
      rep.session = coord_->create_session();
      s->replicas.push_back(std::move(rep));
    }
    shards_.push_back(std::move(s));
  }
}

ControlPlane::~ControlPlane() { stop(); }

void ControlPlane::add_switch(HostId host, switchd::SwitchControl* sw) {
  switches_[host] = sw;
  for (auto& s : shards_) {
    for (Replica& r : s->replicas) r.ctl->attach_switch(host, sw);
  }
  sw->set_event_sink([this](HostId h, switchd::SwitchEvent ev) {
    route_event(h, std::move(ev));
  });
}

void ControlPlane::set_app_factory(
    std::function<void(TyphoonController&)> factory) {
  app_factory_ = std::move(factory);
}

void ControlPlane::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  for (auto& sp : shards_) {
    Shard& s = *sp;
    // Initial claim: replica 0 becomes leader of its shard.
    (void)coord_->create(s.root + "/leader", ToBytes("0"),
                         /*ephemeral=*/true, s.replicas[0].session);
    make_leader(s, 0);
    // Election watch: when the leader's ephemeral node dies with its
    // session, the first live standby claims the shard.
    Shard* shard_ptr = &s;
    s.watch = coord_->watch(
        s.root + "/leader",
        [this, shard_ptr](const std::string&, coordinator::WatchEvent ev,
                          const common::Bytes&) {
          if (ev == coordinator::WatchEvent::kDeleted &&
              running_.load(std::memory_order_acquire)) {
            elect(*shard_ptr);
          }
        });
  }
}

void ControlPlane::stop() {
  if (!running_.exchange(false)) return;
  for (auto& s : shards_) {
    if (s->watch != 0) {
      coord_->unwatch(s->watch);
      s->watch = 0;
    }
  }
  for (auto& s : shards_) {
    for (Replica& r : s->replicas) {
      r.ctl->stop();
      coord_->close_session(r.session);
    }
  }
}

void ControlPlane::route(TopologyId id,
                         std::function<void(TyphoonController&)> hook) {
  Shard& s = shard_of(id);
  std::lock_guard lk(s.mu);
  if (s.leader == nullptr) {
    // Leaderless mid-failover: buffer; the incoming leader replays these in
    // order (under this same mutex) before publishing itself.
    s.deferred.push_back(std::move(hook));
    return;
  }
  hook(*s.leader);
}

void ControlPlane::route_event(HostId host, switchd::SwitchEvent ev) {
  // Route a PacketIn by its frame's source topology. PortStatus concerns
  // the host rather than any topology, so every shard leader gets a copy
  // (each resolves it against only its own partition's workers).
  const auto* pin = std::get_if<openflow::PacketIn>(&ev);
  if (pin == nullptr) {
    for (auto& s : shards_) {
      std::lock_guard lk(s->mu);
      if (s->leader != nullptr) {
        s->leader->ingest_event(host, ev);
      } else {
        switchd::SwitchEvent copy = ev;
        s->deferred.push_back(
            [host, e = std::move(copy)](TyphoonController& ctl) {
              ctl.ingest_event(host, e);
            });
      }
    }
    return;
  }
  Shard& s = shard_of(pin->packet->src.topology);
  std::lock_guard lk(s.mu);
  if (s.leader != nullptr) {
    s.leader->ingest_event(host, std::move(ev));
  } else {
    s.deferred.push_back([host, e = std::move(ev)](TyphoonController& ctl) {
      ctl.ingest_event(host, e);
    });
  }
}

void ControlPlane::elect(Shard& s) {
  for (std::size_t idx = 0; idx < s.replicas.size(); ++idx) {
    Replica& r = s.replicas[idx];
    if (r.ctl->crashed()) continue;
    common::Status st =
        coord_->create(s.root + "/leader", ToBytes(std::to_string(idx)),
                       /*ephemeral=*/true, r.session);
    if (st.code() == common::ErrorCode::kAlreadyExists) {
      return;  // another thread's election won the claim race
    }
    if (st.ok()) {
      takeover(s, idx);
      return;
    }
  }
  LOG_WARN("ctrlplane") << "shard " << s.index
                        << " has no live replica; staying leaderless";
}

void ControlPlane::takeover(Shard& s, std::size_t replica_idx) {
  TyphoonController* ctl = s.replicas[replica_idx].ctl.get();
  const std::string prefix = s.root + "/state";

  // 1. Sequence counter first — nothing may allocate a seq below what the
  //    dead leader could have transmitted.
  if (auto res = coord_->get(prefix + "/seq"); res.ok()) {
    common::BufReader r(res.value());
    std::uint64_t seq = 0;
    if (r.u64(seq)) ctl->set_next_control_seq(seq);
  }

  // 2. Topologies: decode each checkpoint and diff it against this
  //    replica's empty rule cache — every rule is an idempotent add that
  //    repairs/confirms switch state — which seeds the cache and
  //    re-checkpoints. Hooks deferred while leaderless replay only after
  //    this (make_leader), so none reaches a topology without cached state.
  for (const std::string& name : coord_->children(prefix + "/topo")) {
    auto res = coord_->get(prefix + "/topo/" + name);
    if (!res.ok()) continue;
    common::BufReader r(res.value());
    std::uint16_t id = 0;
    common::Bytes spec_b;
    common::Bytes phys_b;
    if (!r.u16(id) || !r.bytes(spec_b) || !r.bytes(phys_b)) continue;
    stream::TopologySpec spec;
    stream::PhysicalTopology phys;
    if (!stream::DecodeSpec(spec_b, spec) ||
        !stream::DecodePhysical(phys_b, phys)) {
      continue;
    }
    ctl->on_topology_updated(spec, phys, {});
  }

  // 3. In-flight sequenced control tuples: requeued for retransmission.
  //    Workers that already applied a copy dedup by seq, so replay is safe;
  //    workers that never saw one finally get it — zero loss either way.
  for (const std::string& name : coord_->children(prefix + "/pending")) {
    auto res = coord_->get(prefix + "/pending/" + name);
    if (!res.ok()) continue;
    common::BufReader r(res.value());
    std::uint16_t topo = 0;
    std::uint64_t dst = 0;
    common::Bytes ct_b;
    if (!r.u16(topo) || !r.u64(dst) || !r.bytes(ct_b)) continue;
    stream::ControlTuple ct;
    if (!stream::DecodeControl(ct_b, ct)) continue;
    ctl->restore_pending(std::stoull(name), topo, dst, std::move(ct));
  }

  make_leader(s, replica_idx);
  failovers_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO("ctrlplane") << "shard " << s.index << " failed over to replica "
                        << replica_idx;
}

void ControlPlane::make_leader(Shard& s, std::size_t replica_idx) {
  TyphoonController* ctl = s.replicas[replica_idx].ctl.get();
  if (app_factory_) app_factory_(*ctl);
  ctl->start();
  // Replay-then-publish under the shard mutex: hooks arriving concurrently
  // block until the leader is visible, so none can slip between the replay
  // and the publish.
  std::lock_guard lk(s.mu);
  for (auto& hook : s.deferred) hook(*ctl);
  s.deferred.clear();
  s.leader = ctl;
  s.leader_idx = static_cast<int>(replica_idx);
}

bool ControlPlane::crash_shard_leader(std::size_t shard) {
  if (shard >= shards_.size()) return false;
  Shard& s = *shards_[shard];
  TyphoonController* ctl = nullptr;
  coordinator::Coordinator::SessionId session = 0;
  {
    std::lock_guard lk(s.mu);
    if (s.leader_idx < 0) return false;
    Replica& r = s.replicas[static_cast<std::size_t>(s.leader_idx)];
    ctl = r.ctl.get();
    session = r.session;
    s.leader = nullptr;
    s.leader_idx = -1;
  }
  // Dead first (hooks now defer / no-op), then the session: the ephemeral
  // leader znode vanishes and the election watch runs the standby takeover
  // synchronously on this thread before close_session returns.
  ctl->crash();
  coord_->close_session(session);
  return true;
}

void ControlPlane::set_partitioned(HostId host, bool partitioned) {
  for (auto& s : shards_) {
    for (Replica& r : s->replicas) r.ctl->set_partitioned(host, partitioned);
  }
}

TyphoonController* ControlPlane::shard_leader(std::size_t shard) const {
  if (shard >= shards_.size()) return nullptr;
  std::lock_guard lk(shards_[shard]->mu);
  return shards_[shard]->leader;
}

TyphoonController* ControlPlane::leader_of(TopologyId id) const {
  return shard_leader(ShardOfTopology(id, shards_.size()));
}

void ControlPlane::on_topology_updated(
    const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
    const std::vector<stream::PhysicalWorker>& removed) {
  route(spec.id, [spec, phys, removed](TyphoonController& ctl) {
    ctl.on_topology_updated(spec, phys, removed);
  });
}

void ControlPlane::send_control_tuple(const stream::PhysicalTopology& phys,
                                      WorkerId target,
                                      const stream::ControlTuple& ct) {
  route(phys.id, [phys, target, ct](TyphoonController& ctl) {
    ctl.send_control_tuple(phys, target, ct);
  });
}

void ControlPlane::on_topology_killed(TopologyId id) {
  route(id, [id](TyphoonController& ctl) { ctl.on_topology_killed(id); });
}

std::int64_t ControlPlane::flowmods_delta() const {
  std::int64_t n = 0;
  for (const auto& s : shards_) {
    for (const Replica& r : s->replicas) n += r.ctl->flowmods_delta();
  }
  return n;
}

std::int64_t ControlPlane::flowmods_full() const {
  std::int64_t n = 0;
  for (const auto& s : shards_) {
    for (const Replica& r : s->replicas) n += r.ctl->flowmods_full();
  }
  return n;
}

}  // namespace typhoon::controller
