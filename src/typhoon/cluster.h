// Cluster — the top-level facade assembling a complete Typhoon (or
// Storm-baseline) deployment in process: a coordinator, N hosts each with a
// worker agent and (Typhoon mode) a software SDN switch, a full mesh of
// host-to-host tunnels, the streaming manager, and (Typhoon mode) the SDN
// controller with its control-plane applications.
//
// This is the public entry point a downstream user starts from:
//
//   typhoon::Cluster cluster({.num_hosts = 3});
//   cluster.start();
//   cluster.submit(topology);
//   ...
//   cluster.stop();
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "controller/apps/auto_scaler.h"
#include "controller/apps/fault_detector.h"
#include "controller/apps/live_debugger.h"
#include "controller/apps/load_balancer.h"
#include "controller/control_plane.h"
#include "controller/controller.h"
#include "controller/qos_app.h"
#include "coordinator/coordinator.h"
#include "faultinject/impairment.h"
#include "net/tunnel.h"
#include "stream/app_registry.h"
#include "stream/streaming_manager.h"
#include "stream/worker_agent.h"
#include "switchd/soft_switch.h"
#include "trace/observability.h"

namespace typhoon {

enum class TransportMode {
  kTyphoon,   // SDN switches, custom Ethernet transport, control plane
  kStormTcp,  // baseline: per-pair connections, per-destination serialization
};

struct ClusterConfig {
  int num_hosts = 3;
  TransportMode mode = TransportMode::kTyphoon;
  // The paper evaluates against Storm's default round-robin scheduler for
  // fairness; flip this to use the locality-aware Typhoon scheduler.
  bool locality_scheduler = false;

  bool enable_failure_detector = true;
  std::chrono::milliseconds heartbeat_timeout{1500};
  std::chrono::milliseconds manager_monitor_interval{100};

  // Agent local-restart policy (Storm supervisor behaviour).
  int agent_max_local_restarts = 3;
  std::chrono::milliseconds agent_restart_delay{150};

  std::chrono::milliseconds controller_tick{50};

  // Control-plane failover (DESIGN.md Sec 15). No standbys is the classic
  // single-controller deployment; standbys enable coordinator-elected
  // failover.
  std::size_t controller_standbys = 0;

  // Deploy the stock control-plane apps (fault detector, live debugger,
  // load balancer) at startup. The auto-scaler needs a policy, so it is
  // added explicitly via add_auto_scaler().
  bool default_apps = true;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void start();
  void stop();

  // ---- components ----
  [[nodiscard]] coordinator::Coordinator& coord() { return coord_; }
  [[nodiscard]] stream::AppRegistry& registry() { return registry_; }
  [[nodiscard]] stream::StreamingManager& manager() { return *manager_; }
  // The leader controller. Null in Storm mode, before start() or while the
  // control plane is mid-failover; re-resolve after controller faults (the
  // old leader dies with the crash).
  [[nodiscard]] controller::TyphoonController* controller() {
    return control_plane_ ? control_plane_->leader() : nullptr;
  }
  // The failover control-plane façade itself. Null in Storm mode.
  [[nodiscard]] controller::ControlPlane* control_plane() {
    return control_plane_.get();
  }
  [[nodiscard]] switchd::SoftSwitch* switch_at(HostId host) const;
  [[nodiscard]] std::vector<HostId> hosts() const { return host_ids_; }

  // ---- convenience pass-throughs ----
  common::Result<TopologyId> submit(const stream::LogicalTopology& topology,
                                    stream::SubmitOptions options = {});
  common::Status kill(const std::string& topology);
  common::Status reconfigure(const stream::ReconfigRequest& request);

  // ---- harness probes ----
  // Live worker handle by (topology, node name, task index); nullptr when
  // not running. The handle dies on worker restart — re-resolve after
  // faults.
  [[nodiscard]] stream::Worker* find_worker(const std::string& topology,
                                            const std::string& node,
                                            int task_index);
  [[nodiscard]] stream::Worker* find_worker_by_id(WorkerId id);
  // Restart-safe worker probe: runs `fn` on the live worker under its
  // agent's lock (the monitor thread cannot free it mid-read). False when
  // the worker is not currently running. Use this instead of dereferencing
  // find_worker() results while agent restarts may be in flight — and to
  // inject worker faults (Worker::inject_crash/hang/slowdown).
  bool probe_worker(const std::string& topology, const std::string& node,
                    int task_index,
                    const std::function<void(stream::Worker&)>& fn);
  [[nodiscard]] std::vector<stream::Worker*> workers_of_node(
      const std::string& topology, const std::string& node);
  [[nodiscard]] std::int64_t agent_restarts() const;

  // Fault injection: take a host down abruptly. Its agent stops (the
  // ephemeral /cluster/hosts registration disappears, all workers die and
  // their switch ports detach). The streaming manager reschedules the
  // host's workers onto surviving hosts once heartbeats go stale.
  void fail_host(HostId host);

  // Fault injection: attach deterministic impairments to both directions of
  // the a<->b tunnel (Typhoon mode only). The b-ward direction uses
  // cfg.seed, the a-ward direction cfg.seed + 1, so a replay with the same
  // config is bit-identical. Returns {a->b, b->a} decision engines, or
  // {nullptr, nullptr} when no such tunnel exists.
  std::pair<faultinject::Impairment*, faultinject::Impairment*> impair_tunnel(
      HostId a, HostId b, const faultinject::ImpairmentConfig& cfg);
  void clear_tunnel_impairments(HostId a, HostId b);
  // The raw endpoints of the a<->b tunnel ({a-side, b-side}); harness probes.
  [[nodiscard]] std::pair<net::TunnelEndpoint*, net::TunnelEndpoint*>
  tunnel_between(HostId a, HostId b) const;

  // Fault injection: controller-channel partition of one host (Typhoon
  // mode; no-op otherwise).
  void set_controller_partition(HostId host, bool partitioned);

  // Fault injection: kill the leader controller. With standbys configured
  // the coordinator election promotes one synchronously (rules repaired,
  // in-flight control tuples requeued) before this returns. False without a
  // live leader or in Storm mode.
  bool crash_controller();

  // Stock control-plane apps (Typhoon mode; nullptr otherwise).
  [[nodiscard]] controller::FaultDetector* fault_detector();
  [[nodiscard]] controller::LiveDebugger* live_debugger();
  [[nodiscard]] controller::LoadBalancer* load_balancer();
  // Deploy an auto-scaler app wired to this cluster's reconfigure service.
  // Attaches to the current leader; unlike the default apps it is not
  // re-created by the failover app factory.
  controller::AutoScaler* add_auto_scaler(
      controller::AutoScalerPolicy policy);

  // Deploy the QoS bandwidth-allocation app (DESIGN.md Sec 16) on the
  // leader via the failover app factory, so takeover winners re-create it
  // and restore its checkpointed allocation. Call before start(). When
  // the policy has no latency probe, it is wired to this cluster's
  // observability "end_to_end" stage p99. No-op in Storm mode.
  void enable_qos(controller::QosPolicy policy);
  // The leader's QoS app; nullptr until enabled/started, in Storm mode, or
  // mid-failover — re-resolve after controller faults.
  [[nodiscard]] controller::QosApp* qos_app();

  // ---- observability (DESIGN.md Sec 11) ----
  // The cluster-wide trace domain + collector + metrics time-series.
  [[nodiscard]] trace::ClusterObservability& observability() { return obs_; }
  // Fold every live worker's current metrics snapshot into the time-series
  // layer, stamped at one common now. Call periodically (harness or app).
  void sample_observability();

 private:
  // Assignment lookup (topology, node name, task index) -> stable worker id.
  // Probes resolve an id and reach the worker through its agent — never
  // through a raw Worker*, which the agent's monitor thread can free
  // mid-restart.
  [[nodiscard]] std::optional<WorkerId> resolve_worker_id(
      const std::string& topology, const std::string& node, int task_index);

  struct Host {
    HostId id = 0;
    std::unique_ptr<switchd::SoftSwitch> sw;
    std::unique_ptr<stream::WorkerAgent> agent;
  };

  ClusterConfig cfg_;
  coordinator::Coordinator coord_;
  stream::AppRegistry registry_;
  stream::StormFabric fabric_;
  // Declared before hosts_: recorders handed to switches and agents must
  // outlive them (members destroy in reverse declaration order).
  trace::ClusterObservability obs_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<HostId> host_ids_;
  // Tunnel mesh endpoints by (low host, high host): {low side, high side}.
  std::map<std::pair<HostId, HostId>,
           std::pair<std::shared_ptr<net::TunnelEndpoint>,
                     std::shared_ptr<net::TunnelEndpoint>>>
      tunnels_;
  std::unique_ptr<controller::ControlPlane> control_plane_;
  std::unique_ptr<stream::StreamingManager> manager_;
  bool started_ = false;
  bool qos_enabled_ = false;
  controller::QosPolicy qos_policy_;
  // Deepest computed terminal hop across submitted topologies; -1 until
  // the first submit (the collector's default of 1 applies until then).
  int terminal_hop_ = -1;
};

}  // namespace typhoon
