#include "stream/worker_agent.h"

#include "common/log.h"
#include "net/packetizer.h"
#include "stream/acker.h"
#include "stream/physical.h"
#include "stream/transport_typhoon.h"

namespace typhoon::stream {

namespace {

// How often the monitor thread checks for crashed workers to restart.
constexpr std::chrono::milliseconds kMonitorInterval{20};

// Parse the worker id out of an assignment path ".../w<ID>".
WorkerId WorkerIdFromPath(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos || slash + 1 >= path.size() ||
      path[slash + 1] != 'w') {
    return 0;
  }
  return std::strtoull(path.c_str() + slash + 2, nullptr, 10);
}

}  // namespace

WorkerAgent::WorkerAgent(AgentOptions opts) : opts_(std::move(opts)) {}

WorkerAgent::~WorkerAgent() { stop(); }

void WorkerAgent::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;

  session_ = opts_.coord->create_session();
  opts_.coord->create("/cluster/hosts/host" + std::to_string(opts_.host), {},
                      /*ephemeral=*/true, session_);

  // Learn about new and removed assignments for this host.
  watch_ = opts_.coord->watch(
      AssignmentsPath(opts_.host),
      [this](const std::string& path, coordinator::WatchEvent ev,
             const common::Bytes&) { on_assignment_event(path, ev); },
      /*prefix=*/true);

  // Catch up on assignments that existed before we started watching.
  for (const std::string& child :
       opts_.coord->children(AssignmentsPath(opts_.host))) {
    on_assignment_event(AssignmentsPath(opts_.host) + "/" + child,
                        coordinator::WatchEvent::kCreated);
  }

  monitor_thread_ = std::thread([this] { monitor(); });
}

void WorkerAgent::stop() {
  if (!running_.exchange(false)) return;
  if (monitor_thread_.joinable()) monitor_thread_.join();
  opts_.coord->unwatch(watch_);

  std::map<WorkerId, Managed> workers;
  {
    std::lock_guard lk(mu_);
    workers.swap(workers_);
  }
  for (auto& [id, m] : workers) {
    if (m.worker) m.worker->stop();
    if (m.port && opts_.sw) opts_.sw->detach_port(m.port->id());
  }
  opts_.coord->close_session(session_);
}

Worker* WorkerAgent::find_worker(WorkerId id) const {
  std::lock_guard lk(mu_);
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.worker.get();
}

bool WorkerAgent::probe_worker(
    WorkerId id, const std::function<void(Worker&)>& fn) const {
  std::lock_guard lk(mu_);
  auto it = workers_.find(id);
  if (it == workers_.end() || !it->second.worker) return false;
  fn(*it->second.worker);
  return true;
}

std::vector<WorkerId> WorkerAgent::worker_ids() const {
  std::lock_guard lk(mu_);
  std::vector<WorkerId> out;
  out.reserve(workers_.size());
  for (const auto& [id, m] : workers_) out.push_back(id);
  return out;
}

void WorkerAgent::on_assignment_event(const std::string& path,
                                      coordinator::WatchEvent ev) {
  const WorkerId id = WorkerIdFromPath(path);
  if (id == 0) return;

  if (ev == coordinator::WatchEvent::kCreated) {
    auto data = opts_.coord->get_str(path);
    if (!data) return;
    const std::string topology = *data;
    std::lock_guard lk(mu_);
    if (workers_.contains(id)) return;
    Managed m;
    if (launch(id, topology, m)) {
      workers_[id] = std::move(m);
    }
  } else if (ev == coordinator::WatchEvent::kDeleted) {
    remove_worker(id);
  }
}

bool WorkerAgent::launch(WorkerId id, const std::string& topology,
                         Managed& slot) {
  // Read global state (Table 1) from the coordinator.
  auto spec_bytes = opts_.coord->get(SpecPath(topology));
  auto phys_bytes = opts_.coord->get(PhysicalPath(topology));
  if (!spec_bytes.ok() || !phys_bytes.ok()) {
    LOG_WARN("agent") << "host" << opts_.host << ": no spec/physical for "
                      << topology;
    return false;
  }
  TopologySpec spec;
  PhysicalTopology phys;
  if (!DecodeSpec(spec_bytes.value(), spec) ||
      !DecodePhysical(phys_bytes.value(), phys)) {
    return false;
  }
  const PhysicalWorker* pw = phys.worker(id);
  if (pw == nullptr || pw->host != opts_.host) return false;
  const NodeSpec* node = spec.node(pw->node);
  if (node == nullptr) return false;

  WorkerOptions wo;
  wo.ctx.topology = spec.id;
  wo.ctx.topology_name = spec.name;
  wo.ctx.worker = id;
  wo.ctx.node = node->id;
  wo.ctx.node_name = node->name;
  wo.ctx.task_index = pw->task_index;
  wo.ctx.parallelism = node->parallelism;
  wo.ctx.host = opts_.host;
  wo.is_spout = node->is_spout;
  wo.coord = opts_.coord;
  wo.flush_interval = std::chrono::microseconds(
      std::max<std::uint32_t>(spec.flush_interval_us, 1));
  wo.max_pending = spec.max_pending;
  wo.pending_timeout = std::chrono::milliseconds(
      std::max<std::uint32_t>(spec.pending_timeout_ms, 100));

  // Cross-layer tracing: the worker and its transport share one
  // single-writer ring (both run on the worker thread).
  std::shared_ptr<trace::FlightRecorder> recorder;
  if (opts_.trace != nullptr && spec.trace_sample_every != 0) {
    recorder = opts_.trace->acquire("worker-" + std::to_string(id));
    wo.trace_recorder = recorder;
    wo.trace_sample_every = spec.trace_sample_every;
  }

  // "Fetch application binaries."
  if (node->is_spout) {
    SpoutFactory f = opts_.registry->spout_factory(topology, node->name);
    if (!f) return false;
    wo.spout = f();
  } else if (node->name == kAckerNodeName) {
    wo.bolt = std::make_unique<AckerBolt>();
  } else {
    BoltFactory f = opts_.registry->bolt_factory(topology, node->name);
    if (!f) return false;
    wo.bolt = f();
  }

  // Initial routing state, derived from the physical topology (in Typhoon
  // this state is subsequently owned and updated by the SDN control plane).
  for (const EdgeSpec& e : spec.out_edges(node->id)) {
    EdgeRuntime er;
    er.to_node = e.to;
    er.stream = e.stream;
    er.state.type = e.grouping;
    er.state.key_indices = e.key_indices;
    er.state.next_hops = phys.worker_ids_of(e.to);
    if (!er.state.next_hops.empty()) wo.out_edges.push_back(std::move(er));
  }

  // Guaranteed processing wiring.
  if (spec.reliable && node->name != kAckerNodeName) {
    if (const NodeSpec* acker = spec.node_by_name(kAckerNodeName)) {
      const auto ids = phys.worker_ids_of(acker->id);
      if (!ids.empty()) {
        wo.reliable = true;
        wo.acker = ids.front();
      }
    }
  }

  // Transport (the I/O layer of Fig 4).
  if (opts_.sw != nullptr) {
    auto port = opts_.sw->attach_port(pw->port);
    if (!port) {
      LOG_ERROR("agent") << "host" << opts_.host << ": port " << pw->port
                         << " already taken for w" << id;
      return false;
    }
    net::PacketizerConfig pcfg;
    pcfg.batch_tuples = spec.batch_size;
    wo.transport = std::make_unique<TyphoonTransport>(
        WorkerAddress{spec.id, id}, port, pcfg, recorder);
    slot.port = std::move(port);
  } else {
    wo.transport = std::make_unique<StormTransport>(
        spec.id, id, opts_.host, opts_.fabric, spec.batch_size);
  }

  slot.topology = topology;
  slot.worker = std::make_unique<Worker>(std::move(wo));
  slot.worker->start();
  return true;
}

void WorkerAgent::remove_worker(WorkerId id) {
  Managed m;
  {
    std::lock_guard lk(mu_);
    auto it = workers_.find(id);
    if (it == workers_.end()) return;
    m = std::move(it->second);
    workers_.erase(it);
  }
  if (m.worker) m.worker->stop();
  if (m.port && opts_.sw) opts_.sw->detach_port(m.port->id());
}

void WorkerAgent::monitor() {
  while (running_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kMonitorInterval);

    std::vector<WorkerId> crashed;
    {
      std::lock_guard lk(mu_);
      for (auto& [id, m] : workers_) {
        if (m.worker && m.worker->crashed() && !m.gave_up) {
          crashed.push_back(id);
        }
      }
    }

    for (WorkerId id : crashed) {
      std::lock_guard lk(mu_);
      auto it = workers_.find(id);
      if (it == workers_.end()) continue;
      Managed& m = it->second;
      if (!m.worker || !m.worker->crashed()) continue;

      // The dead worker's switch port disappears (PortStatus kDelete) —
      // the event the fault-detector app keys on.
      m.worker->stop();
      if (m.port && opts_.sw) {
        opts_.sw->detach_port(m.port->id());
        m.port.reset();
      }

      if (m.restart_count >= opts_.max_local_restarts) {
        // Supervisor gives up; heartbeats go stale and the streaming
        // manager's failure detector will reschedule (Storm's 30 s path).
        m.gave_up = true;
        m.worker.reset();
        continue;
      }
      if (common::Now() - m.last_restart < opts_.restart_delay) continue;

      ++m.restart_count;
      m.last_restart = common::Now();
      restarts_.fetch_add(1);
      LOG_INFO("agent") << "host" << opts_.host << ": restarting w" << id
                        << " (attempt " << m.restart_count << ")";
      Managed fresh;
      fresh.restart_count = m.restart_count;
      fresh.last_restart = m.last_restart;
      if (launch(id, m.topology, fresh)) {
        m.worker = std::move(fresh.worker);
        m.port = std::move(fresh.port);
        m.topology = fresh.topology.empty() ? m.topology : fresh.topology;
      } else {
        m.gave_up = true;
        m.worker.reset();
      }
    }
  }
}

}  // namespace typhoon::stream
