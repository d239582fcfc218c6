// ControlPlane — sharded, failover-capable front of the SDN control plane
// (DESIGN.md Sec 15).
//
// Owns N controller shards, each a hash partition of the topology space
// (shard = splitmix64(topology id) % N, the same static-partition idiom the
// SoftSwitch datapath shards use for ports). Every SdnHooks callback from
// the streaming manager and every switch event is routed to the leader
// TyphoonController of the owning shard, so shards never contend and each
// holds only its partition's state — the master/slave partitioned-controller
// design of "Controlling a SDN via Distributed Controllers".
//
// Each shard runs leader election over a coordinator ephemeral znode:
//   <root>/shard-<i>/leader    ephemeral, data = replica index
//   <root>/shard-<i>/state/... persistent checkpoints (written by the
//                              leader TyphoonController: topo/<id>,
//                              pending/<seq>, seq)
// Standby replicas watch the leader znode; when the leader's session dies
// the first live standby claims it (create; kAlreadyExists = lost the
// race), restores the checkpointed seq counter / topologies / in-flight
// control tuples, repairs switch state with a rule diff against its empty
// cache (every rule an idempotent add), replays hooks that arrived during the leaderless window, and
// only then publishes itself — so no sequenced control tuple is lost and
// no seq is ever reused (worker dedup windows make the replays invisible).
//
// Single shard + zero standbys is the default and behaves exactly like the
// bare TyphoonController it wraps.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "controller/controller.h"

namespace typhoon::controller {

struct ControlPlaneOptions {
  std::size_t shards = 1;
  // Standby replicas per shard (0 = no failover capacity).
  std::size_t standbys = 0;
  // Coordinator subtree for election + checkpoints.
  std::string root = "/ctrlplane";
  // Options applied to every replica controller (checkpoint_prefix is
  // overwritten per shard).
  ControllerOptions controller;
};

class ControlPlane final : public stream::SdnHooks {
 public:
  ControlPlane(coordinator::Coordinator* coord, ControlPlaneOptions opts);
  ~ControlPlane() override;

  // Attach a host switch: registered with every replica (standbys included,
  // so a takeover needs no re-plumbing) while the ControlPlane itself owns
  // the switch's single event sink and routes each event to the owning
  // shard's leader.
  void add_switch(HostId host, switchd::SwitchControl* sw);

  // Factory run on every replica that becomes leader (initial leaders at
  // start() and every takeover winner) — installs control-plane apps.
  void set_app_factory(std::function<void(TyphoonController&)> factory);

  void start();
  void stop();

  // ---- SdnHooks: routed to the owning shard's leader; buffered while the
  // shard is leaderless mid-failover and replayed by the incoming leader.
  void on_topology_updated(
      const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
      const std::vector<stream::PhysicalWorker>& removed) override;
  void send_control_tuple(const stream::PhysicalTopology& phys,
                          WorkerId target,
                          const stream::ControlTuple& ct) override;
  void on_topology_killed(TopologyId id) override;

  // ---- fault injection ----
  // Kill the current leader of a shard: the controller goes dead, its
  // coordinator session closes, and the election watch runs the standby
  // takeover synchronously before this returns. False if leaderless.
  bool crash_shard_leader(std::size_t shard);
  // Controller<->host partition, applied to every replica (so a takeover
  // inherits the partition state).
  void set_partitioned(HostId host, bool partitioned);

  // ---- introspection ----
  [[nodiscard]] std::size_t shards() const { return shards_.size(); }
  static std::size_t ShardOfTopology(TopologyId id, std::size_t shards) {
    return shards <= 1 ? 0 : common::SplitMix64(id) % shards;
  }
  // Current leader controller of a shard; nullptr mid-failover.
  [[nodiscard]] TyphoonController* shard_leader(std::size_t shard) const;
  // Leader of the shard owning this topology.
  [[nodiscard]] TyphoonController* leader_of(TopologyId id) const;
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
  struct Shard {
    std::size_t index = 0;
    std::string root;  // <opts.root>/shard-<i>
    std::vector<Replica> replicas;
    coordinator::Coordinator::WatchId watch = 0;
    // Guards leader/leader_idx/deferred; held while invoking a hook on the
    // leader so a takeover's replay-then-publish is atomic wrt new hooks.
    mutable std::mutex mu;
    TyphoonController* leader = nullptr;
    int leader_idx = -1;
    // Hooks that arrived while leaderless, replayed in order on takeover.
    std::vector<std::function<void(TyphoonController&)>> deferred;
  };

  [[nodiscard]] Shard& shard_of(TopologyId id) {
    return *shards_[ShardOfTopology(id, shards_.size())];
  }
  // Run `hook` on the shard's leader, or buffer it while leaderless.
  void route(TopologyId id, std::function<void(TyphoonController&)> hook);
  void route_event(HostId host, switchd::SwitchEvent ev);
  // Claim the shard's leader znode for the first live replica and run the
  // takeover. Invoked at start() and from the kDeleted election watch.
  void elect(Shard& s);
  void takeover(Shard& s, std::size_t replica_idx);
  void make_leader(Shard& s, std::size_t replica_idx);

  coordinator::Coordinator* coord_;
  ControlPlaneOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(TyphoonController&)> app_factory_;
  std::map<HostId, switchd::SwitchControl*> switches_;  // set before start()
  std::atomic<std::int64_t> failovers_{0};
  std::atomic<bool> running_{false};
};

}  // namespace typhoon::controller
