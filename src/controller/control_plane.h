// ControlPlane — failover-capable front of the SDN control plane
// (DESIGN.md Sec 15).
//
// One replica group: a leader TyphoonController and its standbys. Every
// SdnHooks callback from the streaming manager and every switch event is
// routed to the leader — the master/standby failover design of
// "Controlling a SDN via Distributed Controllers" around the paper's single
// controller.
//
// The group runs leader election over a coordinator ephemeral znode:
//   /ctrlplane/leader    ephemeral, data = replica index
//   /ctrlplane/state/... persistent checkpoints (written by the leader
//                        TyphoonController: topo/<id>, pending/<seq>, seq)
// Standby replicas watch the leader znode; when the leader's session dies
// the first live standby claims it (create; kAlreadyExists = lost the
// race), restores the checkpointed seq counter / topologies / in-flight
// control tuples, repairs switch state with a rule diff against its empty
// cache (every rule an idempotent add), replays hooks that arrived during
// the leaderless window, and only then publishes itself — so no sequenced
// control tuple is lost and no seq is ever reused (worker dedup windows
// make the replays invisible).
//
// Zero standbys is the default and behaves exactly like the bare
// TyphoonController it wraps.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "controller/controller.h"

namespace typhoon::controller {

struct ControlPlaneOptions {
  // Standby replicas (0 = no failover capacity).
  std::size_t standbys = 0;
  // Options applied to every replica controller (checkpoint_prefix is
  // overwritten with the group's checkpoint subtree).
  ControllerOptions controller;
};

class ControlPlane final : public stream::SdnHooks {
 public:
  ControlPlane(coordinator::Coordinator* coord, ControlPlaneOptions opts);
  ~ControlPlane() override;

  // Attach a host switch: registered with every replica (standbys included,
  // so a takeover needs no re-plumbing) while the ControlPlane itself owns
  // the switch's single event sink and routes each event to the leader.
  void add_switch(HostId host, switchd::SwitchControl* sw);

  // Factory run on every replica that becomes leader (the initial leader
  // at start() and every takeover winner) — installs control-plane apps.
  void set_app_factory(std::function<void(TyphoonController&)> factory);

  void start();
  void stop();

  // ---- SdnHooks: routed to the leader; buffered while the group is
  // leaderless mid-failover and replayed by the incoming leader.
  void on_topology_updated(
      const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
      const std::vector<stream::PhysicalWorker>& removed) override;
  void send_control_tuple(const stream::PhysicalTopology& phys,
                          WorkerId target,
                          const stream::ControlTuple& ct) override;
  void on_topology_killed(TopologyId id) override;

  // ---- fault injection ----
  // Kill the current leader: the controller goes dead, its coordinator
  // session closes, and the election watch runs the standby takeover
  // synchronously before this returns. False if leaderless.
  bool crash_leader();
  // Controller<->host partition, applied to every replica (so a takeover
  // inherits the partition state).
  void set_partitioned(HostId host, bool partitioned);

  // ---- introspection ----
  // Current leader controller; nullptr mid-failover.
  [[nodiscard]] TyphoonController* leader() const;
  [[nodiscard]] std::int64_t failovers() const { return failovers_.load(); }
  // Rule-compilation stats summed across every replica (dead ones keep
  // their counts, so totals are monotonic across failovers).
  [[nodiscard]] std::int64_t flowmods_delta() const;
  [[nodiscard]] std::int64_t flowmods_full() const;

 private:
  struct Replica {
    std::unique_ptr<TyphoonController> ctl;
    coordinator::Coordinator::SessionId session = 0;
  };

  // Run `hook` on the leader, or buffer it while leaderless.
  template <typename Hook>
  void route(Hook&& hook);
  void route_event(HostId host, switchd::SwitchEvent ev);
  // Claim the leader znode for the first live replica and run the
  // takeover. Invoked from the kDeleted election watch.
  void elect();
  void takeover(std::size_t replica_idx);
  void make_leader(std::size_t replica_idx);

  coordinator::Coordinator* coord_;
  std::vector<Replica> replicas_;
  coordinator::Coordinator::WatchId watch_ = 0;
  // Guards leader_/leader_idx_/deferred_; held while invoking a hook on
  // the leader so a takeover's replay-then-publish is atomic wrt new hooks.
  mutable std::mutex mu_;
  TyphoonController* leader_ = nullptr;
  int leader_idx_ = -1;
  // Hooks that arrived while leaderless, replayed in order on takeover.
  std::vector<std::function<void(TyphoonController&)>> deferred_;
  std::function<void(TyphoonController&)> app_factory_;
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<bool> running_{false};
};

}  // namespace typhoon::controller
