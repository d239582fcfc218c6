#include "typhoon/cluster.h"

#include <algorithm>

#include "common/clock.h"
#include "net/tunnel.h"

namespace typhoon {

Cluster::Cluster(ClusterConfig cfg) : cfg_(cfg) {
  for (int i = 0; i < cfg_.num_hosts; ++i) {
    auto host = std::make_unique<Host>();
    host->id = static_cast<HostId>(i + 1);
    host_ids_.push_back(host->id);
    if (cfg_.mode == TransportMode::kTyphoon) {
      switchd::SoftSwitchConfig scfg;
      scfg.host = host->id;
      scfg.trace_recorder = obs_.domain().acquire(
          "switch-" + std::to_string(host->id));
      host->sw = std::make_unique<switchd::SoftSwitch>(scfg);
    }
    hosts_.push_back(std::move(host));
  }

  // Full mesh of host-level TCP tunnels (Sec 3.3.1).
  if (cfg_.mode == TransportMode::kTyphoon) {
    for (std::size_t a = 0; a < hosts_.size(); ++a) {
      for (std::size_t b = a + 1; b < hosts_.size(); ++b) {
        auto [ea, eb] = net::CreateTunnel();
        hosts_[a]->sw->add_tunnel(hosts_[b]->id, ea);
        hosts_[b]->sw->add_tunnel(hosts_[a]->id, eb);
        tunnels_[{hosts_[a]->id, hosts_[b]->id}] = {ea, eb};
      }
    }
    controller::ControlPlaneOptions cpopts;
    cpopts.standbys = cfg_.controller_standbys;
    cpopts.controller.tick_interval = cfg_.controller_tick;
    control_plane_ =
        std::make_unique<controller::ControlPlane>(&coord_, cpopts);
    for (auto& h : hosts_) control_plane_->add_switch(h->id, h->sw.get());
  }

  for (auto& h : hosts_) {
    stream::AgentOptions aopts;
    aopts.host = h->id;
    aopts.sw = h->sw.get();
    aopts.fabric = &fabric_;
    aopts.coord = &coord_;
    aopts.registry = &registry_;
    aopts.max_local_restarts = cfg_.agent_max_local_restarts;
    aopts.restart_delay = cfg_.agent_restart_delay;
    aopts.trace = &obs_.domain();
    h->agent = std::make_unique<stream::WorkerAgent>(aopts);
  }

  stream::ManagerOptions mopts;
  mopts.hosts = host_ids_;
  mopts.enable_failure_detector = cfg_.enable_failure_detector;
  mopts.heartbeat_timeout = cfg_.heartbeat_timeout;
  mopts.monitor_interval = cfg_.manager_monitor_interval;
  if (cfg_.locality_scheduler) {
    mopts.scheduler = std::make_unique<stream::LocalityScheduler>();
  } else {
    mopts.scheduler = std::make_unique<stream::RoundRobinScheduler>();
  }
  manager_ = std::make_unique<stream::StreamingManager>(&coord_, &registry_,
                                                        std::move(mopts));
  if (control_plane_) manager_->set_sdn_hooks(control_plane_.get());
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (auto& h : hosts_) {
    if (h->sw) h->sw->start();
  }
  if (control_plane_) {
    if (cfg_.default_apps || qos_enabled_) {
      // App factory rather than direct add_app: every replica that becomes
      // leader — the initial leader now and any failover winner later —
      // gets its own fresh set of control-plane apps. The QoS app rides the
      // same factory so a takeover winner re-creates it and restores its
      // checkpointed allocation from the control plane's blob znode.
      control_plane_->set_app_factory(
          [this](controller::TyphoonController& c) {
            if (cfg_.default_apps) {
              c.add_app(std::make_unique<controller::FaultDetector>());
              c.add_app(std::make_unique<controller::LiveDebugger>());
              c.add_app(std::make_unique<controller::LoadBalancer>());
            }
            if (qos_enabled_) {
              c.add_app(std::make_unique<controller::QosApp>(qos_policy_));
            }
          });
    }
    control_plane_->start();
  }
  for (auto& h : hosts_) h->agent->start();
  manager_->start();
}

void Cluster::stop() {
  if (!started_) return;
  started_ = false;
  manager_->stop();
  // Controller first: agent teardown detaches every port, and those events
  // must not be misread as faults.
  if (control_plane_) control_plane_->stop();
  for (auto& h : hosts_) h->agent->stop();
  for (auto& h : hosts_) {
    if (h->sw) h->sw->stop();
  }
}

switchd::SoftSwitch* Cluster::switch_at(HostId host) const {
  for (const auto& h : hosts_) {
    if (h->id == host) return h->sw.get();
  }
  return nullptr;
}

common::Result<TopologyId> Cluster::submit(
    const stream::LogicalTopology& topology, stream::SubmitOptions options) {
  auto r = manager_->submit(topology, options);
  if (r.ok()) {
    // Chain completeness is judged against the longest spout-to-sink path
    // of the submitted DAG (terminal execute hop = edges - 1). With several
    // live topologies the deepest submitted so far wins — a shallower one
    // would mark deep chains complete too early.
    std::map<NodeId, int> depth;  // edges traversed to reach the node
    bool grew = true;
    while (grew) {  // relaxation; topologies are validated acyclic
      grew = false;
      for (const stream::LogicalEdge& e : topology.edges()) {
        const stream::LogicalNode* from = topology.node(e.from);
        const int base = from != nullptr && from->is_spout
                             ? 0
                             : (depth.count(e.from) ? depth[e.from] : -1);
        if (base < 0) continue;
        if (!depth.count(e.to) || depth[e.to] < base + 1) {
          depth[e.to] = base + 1;
          grew = true;
        }
      }
    }
    int longest = 0;
    for (const auto& [node, d] : depth) longest = std::max(longest, d);
    if (longest > 0) {
      terminal_hop_ = std::max(terminal_hop_, longest - 1);
      obs_.set_terminal_hop(static_cast<std::uint8_t>(terminal_hop_));
    }
  }
  return r;
}

common::Status Cluster::kill(const std::string& topology) {
  return manager_->kill(topology);
}

common::Status Cluster::reconfigure(const stream::ReconfigRequest& request) {
  return manager_->reconfigure(request);
}

stream::Worker* Cluster::find_worker_by_id(WorkerId id) {
  for (const auto& h : hosts_) {
    if (stream::Worker* w = h->agent->find_worker(id)) return w;
  }
  return nullptr;
}

stream::Worker* Cluster::find_worker(const std::string& topology,
                                     const std::string& node,
                                     int task_index) {
  const auto id = resolve_worker_id(topology, node, task_index);
  return id ? find_worker_by_id(*id) : nullptr;
}

bool Cluster::probe_worker(const std::string& topology,
                           const std::string& node, int task_index,
                           const std::function<void(stream::Worker&)>& fn) {
  const auto id = resolve_worker_id(topology, node, task_index);
  if (!id) return false;
  for (const auto& h : hosts_) {
    if (h->agent->probe_worker(*id, fn)) return true;
  }
  return false;
}

std::vector<stream::Worker*> Cluster::workers_of_node(
    const std::string& topology, const std::string& node) {
  std::vector<stream::Worker*> out;
  auto spec = manager_->spec(topology);
  auto phys = manager_->physical(topology);
  if (!spec.ok() || !phys.ok()) return out;
  const stream::NodeSpec* n = spec.value().node_by_name(node);
  if (n == nullptr) return out;
  for (const stream::PhysicalWorker& w : phys.value().workers_of(n->id)) {
    if (stream::Worker* live = find_worker_by_id(w.id)) out.push_back(live);
  }
  return out;
}

void Cluster::fail_host(HostId host) {
  for (const auto& h : hosts_) {
    if (h->id == host) h->agent->stop();
  }
}

std::pair<net::TunnelEndpoint*, net::TunnelEndpoint*> Cluster::tunnel_between(
    HostId a, HostId b) const {
  const auto key = std::minmax(a, b);
  auto it = tunnels_.find({key.first, key.second});
  if (it == tunnels_.end()) return {nullptr, nullptr};
  net::TunnelEndpoint* lo = it->second.first.get();
  net::TunnelEndpoint* hi = it->second.second.get();
  return a <= b ? std::pair{lo, hi} : std::pair{hi, lo};
}

std::pair<faultinject::Impairment*, faultinject::Impairment*>
Cluster::impair_tunnel(HostId a, HostId b,
                       const faultinject::ImpairmentConfig& cfg) {
  auto [side_a, side_b] = tunnel_between(a, b);
  if (side_a == nullptr || side_b == nullptr) return {nullptr, nullptr};
  faultinject::ImpairmentConfig reverse = cfg;
  reverse.seed = cfg.seed + 1;
  return {side_a->set_impairment(cfg), side_b->set_impairment(reverse)};
}

void Cluster::clear_tunnel_impairments(HostId a, HostId b) {
  auto [side_a, side_b] = tunnel_between(a, b);
  if (side_a != nullptr) side_a->clear_impairment();
  if (side_b != nullptr) side_b->clear_impairment();
}

std::optional<WorkerId> Cluster::resolve_worker_id(const std::string& topology,
                                                   const std::string& node,
                                                   int task_index) {
  auto spec = manager_->spec(topology);
  auto phys = manager_->physical(topology);
  if (!spec.ok() || !phys.ok()) return std::nullopt;
  const stream::NodeSpec* n = spec.value().node_by_name(node);
  if (n == nullptr) return std::nullopt;
  for (const stream::PhysicalWorker& w : phys.value().workers_of(n->id)) {
    if (w.task_index == task_index) return w.id;
  }
  return std::nullopt;
}

void Cluster::set_controller_partition(HostId host, bool partitioned) {
  if (control_plane_) control_plane_->set_partitioned(host, partitioned);
}

bool Cluster::crash_controller() {
  return control_plane_ && control_plane_->crash_leader();
}

void Cluster::sample_observability() {
  const std::int64_t now = common::NowMicros();
  for (const auto& h : hosts_) {
    for (WorkerId id : h->agent->worker_ids()) {
      stream::Worker* w = h->agent->find_worker(id);
      if (w == nullptr) continue;
      obs_.observe_worker("worker-" + std::to_string(id), now,
                          w->metrics().snapshot());
    }
  }
}

std::int64_t Cluster::agent_restarts() const {
  std::int64_t n = 0;
  for (const auto& h : hosts_) n += h->agent->restarts();
  return n;
}

controller::FaultDetector* Cluster::fault_detector() {
  controller::TyphoonController* ctl = controller();
  if (ctl == nullptr) return nullptr;
  return dynamic_cast<controller::FaultDetector*>(ctl->app("fault-detector"));
}

controller::LiveDebugger* Cluster::live_debugger() {
  controller::TyphoonController* ctl = controller();
  if (ctl == nullptr) return nullptr;
  return dynamic_cast<controller::LiveDebugger*>(ctl->app("live-debugger"));
}

controller::LoadBalancer* Cluster::load_balancer() {
  controller::TyphoonController* ctl = controller();
  if (ctl == nullptr) return nullptr;
  return dynamic_cast<controller::LoadBalancer*>(ctl->app("load-balancer"));
}

void Cluster::enable_qos(controller::QosPolicy policy) {
  if (!control_plane_ || started_) return;
  if (!policy.latency_p99_ms) {
    // Default latency probe: the collector's cluster-wide spout-emit to
    // terminal-execute p99. Topology-granular probes (the benches compute
    // their own sink-side percentiles) can be supplied in the policy.
    policy.latency_p99_ms = [this](const std::string&) {
      return obs_.stage_p99_ms("end_to_end");
    };
  }
  qos_policy_ = std::move(policy);
  qos_enabled_ = true;
  // Surface the app's epoch/allocation state in the observability export.
  // The provider re-resolves the leader per dump so failover winners take
  // over reporting automatically.
  obs_.set_qos_provider([this]() -> std::string {
    controller::QosApp* app = qos_app();
    return app == nullptr ? std::string{} : app->dump_json_fragment();
  });
}

controller::QosApp* Cluster::qos_app() {
  controller::TyphoonController* ctl = controller();
  if (ctl == nullptr) return nullptr;
  return dynamic_cast<controller::QosApp*>(ctl->app("qos"));
}

controller::AutoScaler* Cluster::add_auto_scaler(
    controller::AutoScalerPolicy policy) {
  controller::TyphoonController* ctl = controller();
  if (ctl == nullptr) return nullptr;
  auto app = std::make_unique<controller::AutoScaler>(
      std::move(policy), [this](const stream::ReconfigRequest& req) {
        return manager_->reconfigure(req);
      });
  controller::AutoScaler* raw = app.get();
  ctl->add_app(std::move(app));
  return raw;
}

}  // namespace typhoon
