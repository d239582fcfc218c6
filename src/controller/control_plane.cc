#include "controller/control_plane.h"

#include <string>
#include <utility>

#include "common/log.h"

namespace typhoon::controller {

namespace {

// Coordinator subtree for election + checkpoints.
constexpr char kLeaderZnode[] = "/ctrlplane/leader";
constexpr char kStatePrefix[] = "/ctrlplane/state";

common::Bytes ToBytes(const std::string& s) {
  return common::Bytes(s.begin(), s.end());
}

}  // namespace

ControlPlane::ControlPlane(coordinator::Coordinator* coord,
                           ControlPlaneOptions opts)
    : coord_(coord) {
  ControllerOptions copts = opts.controller;
  copts.checkpoint_prefix = kStatePrefix;
  for (std::size_t r = 0; r < opts.standbys + 1; ++r) {
    Replica rep;
    rep.ctl = std::make_unique<TyphoonController>(coord_, copts);
    rep.session = coord_->create_session();
    replicas_.push_back(std::move(rep));
  }
}

ControlPlane::~ControlPlane() { stop(); }

void ControlPlane::add_switch(HostId host, switchd::SwitchControl* sw) {
  for (Replica& r : replicas_) r.ctl->attach_switch(host, sw);
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
  // Initial claim: replica 0 becomes leader.
  (void)coord_->create(kLeaderZnode, ToBytes("0"), /*ephemeral=*/true,
                       replicas_[0].session);
  make_leader(0);
  // Election watch: when the leader's ephemeral node dies with its
  // session, the first live standby claims it.
  watch_ = coord_->watch(
      kLeaderZnode, [this](const std::string&, coordinator::WatchEvent ev,
                           const common::Bytes&) {
        if (ev == coordinator::WatchEvent::kDeleted &&
            running_.load(std::memory_order_acquire)) {
          elect();
        }
      });
}

void ControlPlane::stop() {
  if (!running_.exchange(false)) return;
  if (watch_ != 0) {
    coord_->unwatch(watch_);
    watch_ = 0;
  }
  for (Replica& r : replicas_) {
    r.ctl->stop();
    coord_->close_session(r.session);
  }
}

template <typename Hook>
void ControlPlane::route(Hook&& hook) {
  std::lock_guard lk(mu_);
  if (leader_ == nullptr) {
    // Leaderless mid-failover: buffer; the incoming leader replays these in
    // order (under this same mutex) before publishing itself.
    deferred_.emplace_back(std::forward<Hook>(hook));
    return;
  }
  hook(*leader_);
}

void ControlPlane::route_event(HostId host, switchd::SwitchEvent ev) {
  route([host, e = std::move(ev)](TyphoonController& ctl) mutable {
    ctl.ingest_event(host, std::move(e));
  });
}

void ControlPlane::elect() {
  for (std::size_t idx = 0; idx < replicas_.size(); ++idx) {
    Replica& r = replicas_[idx];
    if (r.ctl->crashed()) continue;
    common::Status st =
        coord_->create(kLeaderZnode, ToBytes(std::to_string(idx)),
                       /*ephemeral=*/true, r.session);
    if (st.code() == common::ErrorCode::kAlreadyExists) {
      return;  // another thread's election won the claim race
    }
    if (st.ok()) {
      takeover(idx);
      return;
    }
  }
  LOG_WARN("ctrlplane") << "no live controller replica; staying leaderless";
}

void ControlPlane::takeover(std::size_t replica_idx) {
  TyphoonController* ctl = replicas_[replica_idx].ctl.get();
  const std::string prefix = kStatePrefix;

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

  make_leader(replica_idx);
  failovers_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO("ctrlplane") << "failed over to replica " << replica_idx;
}

void ControlPlane::make_leader(std::size_t replica_idx) {
  TyphoonController* ctl = replicas_[replica_idx].ctl.get();
  if (app_factory_) app_factory_(*ctl);
  ctl->start();
  // Replay-then-publish under the mutex: hooks arriving concurrently block
  // until the leader is visible, so none can slip between the replay and
  // the publish.
  std::lock_guard lk(mu_);
  for (auto& hook : deferred_) hook(*ctl);
  deferred_.clear();
  leader_ = ctl;
  leader_idx_ = static_cast<int>(replica_idx);
}

bool ControlPlane::crash_leader() {
  TyphoonController* ctl = nullptr;
  coordinator::Coordinator::SessionId session = 0;
  {
    std::lock_guard lk(mu_);
    if (leader_idx_ < 0) return false;
    Replica& r = replicas_[static_cast<std::size_t>(leader_idx_)];
    ctl = r.ctl.get();
    session = r.session;
    leader_ = nullptr;
    leader_idx_ = -1;
  }
  // Dead first (hooks now defer / no-op), then the session: the ephemeral
  // leader znode vanishes and the election watch runs the standby takeover
  // synchronously on this thread before close_session returns.
  ctl->crash();
  coord_->close_session(session);
  return true;
}

void ControlPlane::set_partitioned(HostId host, bool partitioned) {
  for (Replica& r : replicas_) r.ctl->set_partitioned(host, partitioned);
}

TyphoonController* ControlPlane::leader() const {
  std::lock_guard lk(mu_);
  return leader_;
}

void ControlPlane::on_topology_updated(
    const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
    const std::vector<stream::PhysicalWorker>& removed) {
  route([spec, phys, removed](TyphoonController& ctl) {
    ctl.on_topology_updated(spec, phys, removed);
  });
}

void ControlPlane::send_control_tuple(const stream::PhysicalTopology& phys,
                                      WorkerId target,
                                      const stream::ControlTuple& ct) {
  route([phys, target, ct](TyphoonController& ctl) {
    ctl.send_control_tuple(phys, target, ct);
  });
}

void ControlPlane::on_topology_killed(TopologyId id) {
  route([id](TyphoonController& ctl) { ctl.on_topology_killed(id); });
}

std::int64_t ControlPlane::flowmods_delta() const {
  std::int64_t n = 0;
  for (const Replica& r : replicas_) n += r.ctl->flowmods_delta();
  return n;
}

std::int64_t ControlPlane::flowmods_full() const {
  std::int64_t n = 0;
  for (const Replica& r : replicas_) n += r.ctl->flowmods_full();
  return n;
}

}  // namespace typhoon::controller
