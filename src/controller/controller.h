// TyphoonController — the SDN controller (Floodlight analog, Sec 3.4).
//
// A unified management layer: it programs data-tuple transport among
// workers with flow rules (FlowMod), and controls stream applications and
// the framework layer indirectly through control tuples carried in
// PacketOut messages. It stays stateless with respect to stream
// applications in the ZooKeeper sense — global state is written to the
// coordinator by the streaming manager and mirrored here on notification —
// and exposes cross-layer information (port/flow stats, port events, worker
// metrics) to control-plane applications.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/mpmc_queue.h"
#include "common/result.h"
#include "controller/app.h"
#include "controller/rule_compiler.h"
#include "coordinator/coordinator.h"
#include "net/packet_pool.h"
#include "openflow/flow_table.h"
#include "stream/control_tuple.h"
#include "stream/sdn_hooks.h"
#include "switchd/soft_switch.h"

namespace typhoon::controller {

struct ControllerOptions {
  std::chrono::milliseconds tick_interval{50};
  // Coordinator znode prefix this controller checkpoints its state
  // under (topologies, in-flight reliable control tuples, next control
  // seq) so a standby can take over after a crash. Empty = off.
  std::string checkpoint_prefix;
};

// Build the Ethernet packet carrying one control tuple (controller ->
// worker, Table 2/3). With a pool the frame is a pooled checkout (the
// controller retransmit loop recycles frames); without one it is heap-backed.
net::PacketPtr BuildControlPacket(TopologyId topology, WorkerId dst,
                                  const stream::ControlTuple& ct,
                                  net::PacketPool* pool = nullptr);

class TyphoonController final : public stream::SdnHooks {
 public:
  explicit TyphoonController(coordinator::Coordinator* coord,
                             ControllerOptions opts = {});
  ~TyphoonController() override;

  // Wire up a host switch (registers this controller as its event sink).
  void add_switch(HostId host, switchd::SwitchControl* sw);
  // Register a switch without claiming its event sink. The ControlPlane
  // façade owns each switch's single sink and routes events to the
  // leader via ingest_event; standby replicas are attached this way
  // so they hold the switch map before takeover.
  void attach_switch(HostId host, switchd::SwitchControl* sw);
  // Deliver one switch event to this controller (partition-aware: events
  // from a partitioned host are buffered until heal).
  void ingest_event(HostId host, switchd::SwitchEvent ev);
  [[nodiscard]] switchd::SwitchControl* switch_at(HostId host) const;

  void start();
  void stop();

  // ---- SdnHooks (driven by the streaming manager) ----
  void on_topology_updated(
      const stream::TopologySpec& spec, const stream::PhysicalTopology& phys,
      const std::vector<stream::PhysicalWorker>& removed) override;
  void send_control_tuple(const stream::PhysicalTopology& phys,
                          WorkerId target,
                          const stream::ControlTuple& ct) override;
  void on_topology_killed(TopologyId id) override;

  // ---- services for apps and harnesses ----
  // Inject a control tuple to a worker of a registered topology. With
  // `reliable` the tuple gets a sequence number and is retransmitted with
  // bounded exponential backoff until the worker acks it (or attempts run
  // out); the call itself never blocks — delivery is asynchronous, driven
  // by the controller loop. Stable-update traffic (ROUTING/SIGNAL) goes
  // through this path; METRIC_REQ keeps its own request/timeout cycle.
  common::Status send_control(TopologyId topology, WorkerId dst,
                              const stream::ControlTuple& ct,
                              bool reliable = false);

  // ---- fault injection: controller-channel partition ----
  // While a host is partitioned its switch events are buffered instead of
  // delivered, and control sends toward it fail (the reliable channel keeps
  // retrying); healing flushes the buffered events in arrival order.
  void set_partitioned(HostId host, bool partitioned);
  [[nodiscard]] bool is_partitioned(HostId host) const;

  // ---- failover support (driven by controller::ControlPlane) ----
  // Simulate a hard crash: stop the loop; every subsequent hook, send and
  // checkpoint write becomes a no-op (a dead process neither acts on input
  // nor mutates coordinator state). The object stays safely queryable.
  void crash();
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }
  // Seed the reliable-control sequence counter. A standby restores it from
  // the checkpoint during takeover so new allocations never reuse a seq the
  // old leader may have transmitted — worker dedup windows would silently
  // swallow a reused seq as a duplicate.
  void set_next_control_seq(std::uint64_t seq);
  // Re-queue a checkpointed in-flight control tuple; the controller loop
  // retransmits it until acked. The owning topology must be restored first
  // or the retry loop abandons the tuple.
  void restore_pending(std::uint64_t seq, TopologyId topology, WorkerId dst,
                       stream::ControlTuple ct);

  // Rule-installation stats: FlowMods (one per rule) emitted by diffs
  // against cached state (delta) and against an empty cache (full: deploys,
  // takeover repair).
  [[nodiscard]] std::int64_t flowmods_delta() const {
    return flowmods_delta_.load();
  }
  [[nodiscard]] std::int64_t flowmods_full() const {
    return flowmods_full_.load();
  }

  // Reliable control-channel counters (tests/benches).
  [[nodiscard]] std::int64_t control_retransmits() const {
    return ctl_retransmits_.load();
  }
  [[nodiscard]] std::int64_t control_acked() const {
    return ctl_acked_.load();
  }
  [[nodiscard]] std::int64_t control_abandoned() const {
    return ctl_abandoned_.load();
  }
  [[nodiscard]] std::size_t control_in_flight() const;
  // Application-layer statistics via METRIC_REQ / METRIC_RESP round trip.
  common::Result<stream::MetricReport> query_worker_metrics(
      TopologyId topology, WorkerId worker,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(500));

  [[nodiscard]] std::vector<openflow::PortStats> port_stats(
      HostId host) const;
  [[nodiscard]] std::vector<openflow::FlowStats> flow_stats(
      HostId host, std::optional<std::uint64_t> cookie = std::nullopt) const;

  // Program a per-port ingress shaper rate on a host switch (the QoS app's
  // actuator; 0 clears). No-ops after crash() — a dead controller must not
  // keep reprogramming the dataplane. Returns false when the host is
  // unknown or the controller is dead; successful calls bump rate_updates.
  bool program_port_rate(HostId host, PortId port, double bytes_per_sec);
  [[nodiscard]] std::int64_t rate_updates() const {
    return rate_updates_.load();
  }

  // App-state checkpointing under this controller's checkpoint
  // prefix (`<prefix>/app/<key>`): lets a control-plane app persist its
  // own state (e.g. the QoS allocation) so the failover winner's re-created
  // app restores it. No-op/empty when checkpointing is off or the
  // controller has crashed.
  void checkpoint_blob(const std::string& key, common::Bytes blob);
  [[nodiscard]] std::optional<common::Bytes> read_blob(
      const std::string& key) const;

  // Mirrored global state (learned via the coordinator-fed hooks).
  [[nodiscard]] std::optional<stream::TopologySpec> spec(
      TopologyId id) const;
  [[nodiscard]] std::optional<stream::PhysicalTopology> physical(
      TopologyId id) const;
  [[nodiscard]] std::vector<TopologyId> topology_ids() const;
  // Locate a worker by (host, port) — how apps resolve switch events back
  // to application-layer entities.
  struct WorkerRef {
    TopologyId topology = 0;
    stream::PhysicalWorker worker;
  };
  [[nodiscard]] std::optional<WorkerRef> worker_by_port(HostId host,
                                                        PortId port) const;

  void add_app(std::unique_ptr<ControlPlaneApp> app);
  [[nodiscard]] ControlPlaneApp* app(const std::string& name) const;

  [[nodiscard]] coordinator::Coordinator* coord() const { return coord_; }
  [[nodiscard]] const RuleCompiler& compiler() const { return compiler_; }
  [[nodiscard]] std::vector<HostId> hosts() const;

  // Allocate an OpenFlow group id (load balancer app).
  std::uint32_t next_group_id() { return next_group_.fetch_add(1); }
  // Apply an app's bundle to a host switch and record its flow rules in
  // that host's app overlay, so a later update deletes the ones naming a
  // removed worker and a topology kill drops them with the rest. Returns
  // false when the host is unknown or the controller is dead.
  bool apply_app_bundle(HostId host, const openflow::Bundle& b);

 private:
  void run();
  void handle_event(HostId host, switchd::SwitchEvent ev);
  // Install a compiled delta as one bundle per switch per non-empty phase:
  // every switch gets its adds, then every switch its mods (kAdd, which
  // replaces in place), then every switch its dels (kDelete) with
  // `app_dels` appended. Returns the number of compiled FlowMods sent.
  std::size_t apply_delta(const RuleDelta& delta,
                          std::map<HostId, openflow::Bundle> app_dels);

  // Checkpointing to the coordinator (DESIGN.md Sec 15 schema); all no-ops
  // when checkpoint_prefix is empty or the controller has crashed. Callers
  // must NOT hold mu_ — the coordinator runs watch callbacks synchronously.
  void checkpoint_topology(const stream::TopologySpec& spec,
                           const stream::PhysicalTopology& phys);
  void checkpoint_remove_topology(TopologyId id);
  void checkpoint_pending(std::uint64_t seq, TopologyId topology, WorkerId dst,
                          const stream::ControlTuple& ct);
  void checkpoint_remove_pending(std::uint64_t seq);
  void checkpoint_seq();
  // One transmission attempt (no retry bookkeeping). Fails while the
  // destination host is partitioned or mid-reschedule.
  common::Status transmit_control(TopologyId topology, WorkerId dst,
                                  const stream::ControlTuple& ct);
  void retry_pending_controls();

  coordinator::Coordinator* coord_;
  ControllerOptions opts_;
  RuleCompiler compiler_;
  // Frames for outgoing control packets; retransmission-heavy phases reuse
  // rather than reallocate. Guarded by mu_ (all control sends hold it).
  std::shared_ptr<net::PacketPool> ctl_pool_ =
      net::PacketPool::Create({.max_free = 64});

  mutable std::mutex mu_;
  std::map<HostId, switchd::SwitchControl*> switches_;
  struct TopoState {
    stream::TopologySpec spec;
    stream::PhysicalTopology physical;
  };
  std::map<TopologyId, TopoState> topologies_;
  std::vector<std::unique_ptr<ControlPlaneApp>> apps_;
  // Flow rules apps installed through apply_app_bundle, per host.
  std::map<HostId, openflow::FlowTable> app_rules_;

  // METRIC_REQ correlation.
  struct PendingQuery {
    stream::MetricReport report;
    std::atomic<bool> done{false};
  };
  std::map<std::uint64_t, std::shared_ptr<PendingQuery>> pending_;
  std::atomic<std::uint64_t> next_request_{1};
  std::atomic<std::uint32_t> next_group_{1};

  // Reliable control-channel state (guarded by mu_).
  struct PendingCtl {
    TopologyId topology = 0;
    WorkerId dst = 0;
    stream::ControlTuple ct;
    int attempts = 0;
    common::TimePoint next_retry;
    std::chrono::milliseconds backoff{0};
  };
  std::map<std::uint64_t, PendingCtl> pending_ctl_;  // by seq
  std::atomic<std::uint64_t> next_ctl_seq_{1};
  std::atomic<std::int64_t> ctl_retransmits_{0};
  std::atomic<std::int64_t> ctl_acked_{0};
  std::atomic<std::int64_t> ctl_abandoned_{0};

  std::atomic<bool> crashed_{false};
  std::atomic<std::int64_t> rate_updates_{0};
  std::atomic<std::int64_t> flowmods_delta_{0};
  std::atomic<std::int64_t> flowmods_full_{0};

  // Partition state. Separate lock: the event sink runs on switch threads
  // and must not contend with mu_'s control-plane critical sections.
  mutable std::mutex part_mu_;
  std::set<HostId> partitioned_;
  std::deque<std::pair<HostId, switchd::SwitchEvent>> deferred_;
  static constexpr std::size_t kDeferredCap = 65536;

  common::MpmcQueue<std::pair<HostId, switchd::SwitchEvent>> events_q_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace typhoon::controller
