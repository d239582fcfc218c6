#include "stream/streaming_manager.h"

#include <algorithm>

#include "common/clock.h"
#include "common/log.h"
#include "stream/acker.h"

namespace typhoon::stream {

namespace {

// Consecutive stale-heartbeat monitor rounds before a worker is declared
// dead and rescheduled; earlier rounds only log it as slow, so a long pause
// (GC-style hang) is not mistaken for a death.
constexpr int kDeadAfterMisses = 3;
// Pause before the confirming drain probe (and after a stateful drain
// SIGNAL) so in-flight bursts land first.
constexpr std::chrono::milliseconds kDrainSettle{30};

TopologySpec BuildSpec(const LogicalTopology& topo, TopologyId id,
                       const SubmitOptions& options) {
  TopologySpec s;
  s.id = id;
  s.name = topo.name();
  s.version = 1;
  s.reliable = options.reliable;
  s.batch_size = options.batch_size;
  s.flush_interval_us = options.flush_interval_us;
  s.max_pending = options.max_pending;
  s.pending_timeout_ms = options.pending_timeout_ms;
  s.trace_sample_every = options.trace_sample_every;
  for (const LogicalNode& n : topo.nodes()) {
    s.nodes.push_back(
        {n.id, n.name, n.parallelism, n.is_spout, n.stateful});
  }
  for (const LogicalEdge& e : topo.edges()) {
    s.edges.push_back(
        {e.from, e.to, e.grouping.type, e.grouping.key_indices, e.stream});
  }
  return s;
}

}  // namespace

StreamingManager::StreamingManager(coordinator::Coordinator* coord,
                                   AppRegistry* registry,
                                   ManagerOptions opts)
    : coord_(coord),
      registry_(registry),
      opts_(std::move(opts)),
      hb_misses_(opts_.heartbeat_timeout, /*slow_at=*/0, kDeadAfterMisses) {
  if (!opts_.scheduler) {
    opts_.scheduler = std::make_unique<RoundRobinScheduler>();
  }
}

StreamingManager::~StreamingManager() { stop(); }

void StreamingManager::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  if (opts_.enable_failure_detector) {
    monitor_thread_ = std::thread([this] { failure_detector(); });
  }
}

void StreamingManager::stop() {
  if (!running_.exchange(false)) return;
  if (monitor_thread_.joinable()) monitor_thread_.join();
}

void StreamingManager::write_global_state(const Deployed& d) {
  coord_->put(SpecPath(d.spec.name), EncodeSpec(d.spec));
  coord_->put(PhysicalPath(d.spec.name), EncodePhysical(d.physical));
}

void StreamingManager::assign_worker(const std::string& topology,
                                     HostId host, WorkerId w) {
  coord_->put_str(WorkerHeartbeatPath(topology, w),
                  EncodeHeartbeat({common::NowMicros(), std::nullopt}));
  coord_->put_str(AssignmentPath(host, w), topology);
}

common::Status StreamingManager::launch(
    const Deployed& d, const std::vector<PhysicalWorker>& workers) {
  for (const PhysicalWorker& w : workers) {
    assign_worker(d.spec.name, w.host, w.id);
  }
  const common::TimePoint deadline = common::Now() + d.options.launch_timeout;
  for (const PhysicalWorker& w : workers) {
    for (;;) {
      auto s = coord_->get_str(WorkerStatePath(d.spec.name, w.id));
      if (s && *s == "RUNNING") break;
      if (common::Now() > deadline) {
        return common::Unavailable("worker w" + std::to_string(w.id) +
                                   " never reached state RUNNING");
      }
      // Workers usually report within a few hundred microseconds of their
      // assignment; a coarser poll would dominate deploy latency.
      common::SleepFor(std::chrono::microseconds(100));
    }
  }
  return common::Status::Ok();
}

common::Status StreamingManager::wait_for_drain(
    const Deployed& d, const std::vector<PhysicalWorker>& workers) {
  const std::string& topology = d.spec.name;
  const common::TimePoint deadline = common::Now() + d.options.launch_timeout;
  auto drained = [&](WorkerId w) {
    auto hb = coord_->get_str(WorkerHeartbeatPath(topology, w));
    return hb && Drained(ParseHeartbeat(*hb), common::NowMicros());
  };
  for (const PhysicalWorker& pw : workers) {
    const WorkerId w = pw.id;
    int consecutive_empty = 0;
    for (;;) {
      // A worker that can no longer emit has nothing left to drain.
      auto state = coord_->get_str(WorkerStatePath(topology, w));
      if (state && (*state == "DEAD" || *state == "STOPPED")) break;

      consecutive_empty = drained(w) ? consecutive_empty + 1 : 0;
      if (consecutive_empty >= 2) {
        // Settle, then re-probe once: an in-flight burst landing after the
        // empty observations re-opens the wait instead of being stranded by
        // the kill that follows a "drained" verdict.
        common::SleepFor(kDrainSettle);
        if (drained(w)) break;
        consecutive_empty = 0;
      }
      if (common::Now() > deadline) {
        return common::Unavailable("worker w" + std::to_string(w) +
                                   " did not drain within deadline");
      }
      common::SleepMillis(5);
    }
  }
  return common::Status::Ok();
}

common::Result<TopologyId> StreamingManager::submit(
    const LogicalTopology& topology, SubmitOptions options) {
  if (common::Status st = topology.validate(); !st.ok()) return st;

  std::lock_guard lk(mu_);
  if (topologies_.contains(topology.name())) {
    return common::AlreadyExists("topology " + topology.name());
  }

  LogicalTopology topo = topology;
  if (options.reliable) {
    // Deploy an acker node with direct ack-stream edges from every node and
    // back to every spout (Sec 6.1; SDN rules are installed for ackers like
    // for any worker).
    LogicalNode acker;
    acker.name = kAckerNodeName;
    acker.parallelism = 1;
    acker.bolt = [] { return std::make_unique<AckerBolt>(); };
    const NodeId acker_id = topo.add_node(std::move(acker));
    for (const LogicalNode& n : topology.nodes()) {
      topo.add_edge({n.id, acker_id, {GroupingType::kDirect, {}}, kAckStream});
      if (n.is_spout) {
        topo.add_edge(
            {acker_id, n.id, {GroupingType::kDirect, {}}, kAckStream});
      }
    }
  }

  registry_->register_app(topo);
  const TopologyId tid = next_topology_++;

  Deployed d;
  d.physical = opts_.scheduler->schedule(topo, tid, opts_.hosts, ids_);
  d.physical.version = 1;
  d.spec = BuildSpec(topo, tid, options);
  d.options = options;
  write_global_state(d);

  // Step (iii) Notification / network setup: the SDN controller programs
  // Table 3 rules before any worker starts.
  if (hooks_) hooks_->on_topology_updated(d.spec, d.physical, {});

  // Step (iv) Application setup, bolts first so the pipeline downstream of
  // every spout exists before tuples flow.
  std::vector<PhysicalWorker> bolts;
  std::vector<PhysicalWorker> spouts;
  for (const PhysicalWorker& w : d.physical.workers) {
    const NodeSpec* n = d.spec.node(w.node);
    (n != nullptr && n->is_spout ? spouts : bolts).push_back(w);
  }
  if (common::Status st = launch(d, bolts); !st.ok()) return st;
  if (common::Status st = launch(d, spouts); !st.ok()) return st;

  topologies_[topology.name()] = std::move(d);
  LOG_INFO("manager") << "deployed " << topology.name() << " (id " << tid
                      << ")";
  return tid;
}

common::Status StreamingManager::kill(const std::string& topology) {
  std::lock_guard lk(mu_);
  auto it = topologies_.find(topology);
  if (it == topologies_.end()) return common::NotFound(topology);
  Deployed& d = it->second;
  if (hooks_) hooks_->on_topology_killed(d.spec.id);
  for (const PhysicalWorker& w : d.physical.workers) {
    coord_->remove(AssignmentPath(w.host, w.id));
  }
  coord_->remove("/topologies/" + topology, /*recursive=*/true);
  coord_->remove("/workers/" + topology, /*recursive=*/true);
  registry_->unregister_app(topology);
  topologies_.erase(it);
  return common::Status::Ok();
}

// ---- stable-update steps (Sec 3.5); every procedure below is a sequence
// of these plus its own SIGNALs ----

common::Result<std::vector<WorkerId>> StreamingManager::add_workers(
    Deployed& d, NodeId node, int count) {
  // Rules before launch, launch before any predecessor learns about the
  // new workers: no tuple can reach a worker that is not connected yet.
  const std::vector<PhysicalWorker> added = opts_.scheduler->place_additional(
      d.physical, node, count, opts_.hosts, ids_);
  ++d.physical.version;
  write_global_state(d);
  hooks_->on_topology_updated(d.spec, d.physical, {});
  if (common::Status st = launch(d, added); !st.ok()) return st;
  std::vector<WorkerId> ids;
  for (const PhysicalWorker& w : added) ids.push_back(w.id);
  return ids;
}

void StreamingManager::route_predecessors(
    const Deployed& d, NodeId node,
    const std::optional<std::vector<WorkerId>>& hops) {
  for (const EdgeSpec& e : d.spec.in_edges(node)) {
    RoutingUpdate ru;
    ru.to_node = node;
    if (hops) {
      ru.state.type = e.grouping;
      ru.state.key_indices = e.key_indices;
      ru.state.next_hops = *hops;
    } else {
      ru.remove = true;
    }
    for (WorkerId pred : d.physical.worker_ids_of(e.from)) {
      hooks_->send_control_tuple(d.physical, pred, MakeRouting(ru));
    }
  }
}

void StreamingManager::retire_workers(
    Deployed& d, const std::vector<PhysicalWorker>& victims) {
  std::erase_if(d.physical.workers, [&](const PhysicalWorker& w) {
    return std::ranges::any_of(
        victims, [&](const PhysicalWorker& v) { return v.id == w.id; });
  });
  ++d.physical.version;
  // The control plane forgets the victims first so their port-removal
  // events read as administrative (not faults); then agents tear the
  // workers down.
  hooks_->on_topology_updated(d.spec, d.physical, victims);
  for (const PhysicalWorker& w : victims) {
    coord_->remove(AssignmentPath(w.host, w.id));
  }
  write_global_state(d);
}

// ---- the seven reconfigurations ----

common::Status StreamingManager::scale_up(Deployed& d,
                                          const ReconfigRequest& req) {
  const NodeSpec* node = d.spec.node_by_name(req.node);
  if (node == nullptr) return common::NotFound("node " + req.node);
  const NodeId node_id = node->id;
  const std::vector<WorkerId> existing = d.physical.worker_ids_of(node_id);

  // 1. Launch and connect the new workers (Fig 6(a)).
  for (NodeSpec& n : d.spec.nodes) {
    if (n.id == node_id) n.parallelism += req.count;
  }
  ++d.spec.version;
  if (auto added = add_workers(d, node_id, req.count); !added.ok()) {
    return added.status();
  }

  // 2. Stateful node: flush existing caches right before the key space
  //    changes (Fig 6(b)).
  if (node->stateful) {
    for (WorkerId w : existing) {
      hooks_->send_control_tuple(d.physical, w, MakeSignal("scale"));
    }
  }

  // 3. Swap routing state in all predecessors via ROUTING control tuples.
  route_predecessors(d, node_id, d.physical.worker_ids_of(node_id));
  return common::Status::Ok();
}

common::Status StreamingManager::scale_down(Deployed& d,
                                            const ReconfigRequest& req) {
  const NodeSpec* node = d.spec.node_by_name(req.node);
  if (node == nullptr) return common::NotFound("node " + req.node);
  const NodeId node_id = node->id;
  const std::vector<PhysicalWorker> workers = d.physical.workers_of(node_id);
  if (req.count <= 0 ||
      static_cast<std::size_t>(req.count) >= workers.size()) {
    return common::InvalidArgument("scale-down must leave >= 1 worker");
  }

  // Victims: highest task indices.
  const std::vector<PhysicalWorker> victims(workers.end() - req.count,
                                            workers.end());
  std::vector<WorkerId> survivors = d.physical.worker_ids_of(node_id);
  survivors.resize(survivors.size() - req.count);
  for (NodeSpec& n : d.spec.nodes) {
    if (n.id == node_id) n.parallelism -= req.count;
  }
  ++d.spec.version;

  // 1. Update predecessors first so no more tuples reach the victims, then
  //    let the victims finish emitting ongoing tuples.
  route_predecessors(d, node_id, survivors);
  if (common::Status st = wait_for_drain(d, victims); !st.ok()) return st;

  // 2. Stateful victims flush residual window state downstream.
  if (node->stateful) {
    for (const PhysicalWorker& w : victims) {
      hooks_->send_control_tuple(d.physical, w.id, MakeSignal("drain"));
    }
    common::SleepFor(kDrainSettle);
  }

  // 3. Remove from the cluster.
  retire_workers(d, victims);
  return common::Status::Ok();
}

common::Status StreamingManager::change_grouping(Deployed& d,
                                                 const ReconfigRequest& req) {
  const NodeSpec* from = d.spec.node_by_name(req.from_node);
  const NodeSpec* to = d.spec.node_by_name(req.node);
  if (from == nullptr || to == nullptr) {
    return common::NotFound("edge endpoints");
  }
  bool found = false;
  for (EdgeSpec& e : d.spec.edges) {
    if (e.from == from->id && e.to == to->id && e.stream < kAckStream) {
      e.grouping = req.new_grouping.type;
      e.key_indices = req.new_grouping.key_indices;
      found = true;
    }
  }
  if (!found) return common::NotFound("no edge " + req.from_node + "->" +
                                      req.node);
  ++d.spec.version;
  write_global_state(d);
  // All-grouping edges are switch replication rules: recompile them.
  hooks_->on_topology_updated(d.spec, d.physical, {});

  // Stateful consumers flush before their key space shifts.
  if (to->stateful) {
    for (WorkerId w : d.physical.worker_ids_of(to->id)) {
      hooks_->send_control_tuple(d.physical, w, MakeSignal("regroup"));
    }
  }
  route_predecessors(d, to->id, d.physical.worker_ids_of(to->id));
  return common::Status::Ok();
}

common::Status StreamingManager::swap_logic(Deployed& d,
                                            const ReconfigRequest& req) {
  const NodeSpec* node = d.spec.node_by_name(req.node);
  if (node == nullptr) return common::NotFound("node " + req.node);
  const NodeId node_id = node->id;
  const std::vector<PhysicalWorker> old_workers =
      d.physical.workers_of(node_id);

  // 1. Launch replacement workers running the newly registered factory.
  ++d.spec.version;
  auto added =
      add_workers(d, node_id, static_cast<int>(old_workers.size()));
  if (!added.ok()) return added.status();

  // 2. Divert all traffic to the replacements.
  route_predecessors(d, node_id, added.value());

  // 3. Drain and kill the old workers.
  if (node->stateful) {
    for (const PhysicalWorker& w : old_workers) {
      hooks_->send_control_tuple(d.physical, w.id, MakeSignal("swap"));
    }
  }
  if (common::Status st = wait_for_drain(d, old_workers); !st.ok()) {
    return st;
  }
  retire_workers(d, old_workers);
  return common::Status::Ok();
}

common::Status StreamingManager::relocate(Deployed& d,
                                          const ReconfigRequest& req) {
  const NodeSpec* node = d.spec.node_by_name(req.node);
  if (node == nullptr) return common::NotFound("node " + req.node);
  if (std::find(opts_.hosts.begin(), opts_.hosts.end(), req.target_host) ==
      opts_.hosts.end()) {
    return common::NotFound("host " + std::to_string(req.target_host));
  }
  PhysicalWorker* moving = nullptr;
  for (PhysicalWorker& w : d.physical.workers) {
    if (w.node == node->id && w.task_index == req.task_index) moving = &w;
  }
  if (moving == nullptr) return common::NotFound("task index");
  if (moving->host == req.target_host) return common::Status::Ok();
  const PhysicalWorker before = *moving;

  // Pause-and-resume (paper Sec 8): quiesce the worker, flush its window
  // state downstream / to external storage (SIGNAL), stop routing to it,
  // then bring it up on the target host and re-include it.
  hooks_->send_control_tuple(d.physical, before.id, MakeSignal("relocate"));

  // 1. Divert traffic to the node's other workers. For a single-worker
  //    node the update carries an empty hop list: predecessors *park*
  //    emitted tuples until the resume update arrives (the pause half of
  //    pause-and-resume).
  std::vector<WorkerId> others = d.physical.worker_ids_of(node->id);
  std::erase(others, before.id);
  route_predecessors(d, node->id, others);

  // 2. Drain in-flight tuples, then move the worker. The global state is
  //    flipped to the target host and the rules follow it (old-host rules
  //    deleted, new-host rules added) before the old host tears it down, so
  //    the control plane treats the old port's disappearance as
  //    administrative.
  if (common::Status st = wait_for_drain(d, {before}); !st.ok()) return st;
  moving->host = req.target_host;
  ++d.physical.version;
  write_global_state(d);
  hooks_->on_topology_updated(d.spec, d.physical, {before});
  coord_->remove(AssignmentPath(before.host, before.id));

  // 3. Resume on the target host (same worker id; ports are per-host, so
  //    the port number carries over) and re-include it in its
  //    predecessors' routing state.
  if (common::Status st = launch(d, {*moving}); !st.ok()) return st;
  route_predecessors(d, node->id, d.physical.worker_ids_of(node->id));
  return common::Status::Ok();
}

common::Status StreamingManager::attach_query(Deployed& d,
                                              const ReconfigRequest& req) {
  const NodeSpec* from = d.spec.node_by_name(req.from_node);
  if (from == nullptr) return common::NotFound("node " + req.from_node);
  // Copy out before mutating spec.nodes — push_back may reallocate.
  const NodeId from_id = from->id;
  if (d.spec.node_by_name(req.node) != nullptr) {
    return common::AlreadyExists("node " + req.node);
  }
  if (!registry_->bolt_factory(d.spec.name, req.node)) {
    return common::FailedPrecondition(
        "register the query bolt factory (AppRegistry::add_bolt) before "
        "attaching");
  }
  if (req.count <= 0) return common::InvalidArgument("parallelism <= 0");

  // 1. Extend the logical structure: a new node fed by from_node.
  NodeId max_id = 0;
  for (const NodeSpec& n : d.spec.nodes) max_id = std::max(max_id, n.id);
  NodeSpec node;
  node.id = max_id + 1;
  node.name = req.node;
  node.parallelism = req.count;
  d.spec.nodes.push_back(node);
  d.spec.edges.push_back({from_id, node.id, req.new_grouping.type,
                          req.new_grouping.key_indices, kDefaultStream});
  ++d.spec.version;

  // 2. Launch the query workers and connect them (rules before routing).
  auto added = add_workers(d, node.id, req.count);
  if (!added.ok()) return added.status();

  // 3. The source node's workers learn the brand-new out-edge via ROUTING
  //    control tuples (the framework layer creates the edge on the fly).
  route_predecessors(d, node.id, added.value());
  return common::Status::Ok();
}

common::Status StreamingManager::detach_query(Deployed& d,
                                              const ReconfigRequest& req) {
  const NodeSpec* node = d.spec.node_by_name(req.node);
  if (node == nullptr) return common::NotFound("node " + req.node);
  const NodeId node_id = node->id;
  if (!d.spec.out_edges(node_id).empty()) {
    return common::FailedPrecondition(
        "only sink query nodes can be detached");
  }

  // 1. Unplug: predecessors drop the edge entirely.
  route_predecessors(d, node_id, std::nullopt);

  // 2. Drain and remove the query workers.
  const std::vector<PhysicalWorker> victims = d.physical.workers_of(node_id);
  if (common::Status st = wait_for_drain(d, victims); !st.ok()) return st;
  std::erase_if(d.spec.nodes,
                [&](const NodeSpec& n) { return n.id == node_id; });
  std::erase_if(d.spec.edges, [&](const EdgeSpec& e) {
    return e.from == node_id || e.to == node_id;
  });
  ++d.spec.version;
  retire_workers(d, victims);
  return common::Status::Ok();
}

common::Status StreamingManager::reconfigure(const ReconfigRequest& request) {
  std::lock_guard lk(mu_);
  if (hooks_ == nullptr) {
    return common::FailedPrecondition(
        "runtime reconfiguration requires the Typhoon SDN control plane; "
        "the baseline framework must be shut down, modified and restarted");
  }
  auto it = topologies_.find(request.topology);
  if (it == topologies_.end()) return common::NotFound(request.topology);
  Deployed& d = it->second;

  switch (request.kind) {
    case ReconfigRequest::Kind::kScaleUp:
      return scale_up(d, request);
    case ReconfigRequest::Kind::kScaleDown:
      return scale_down(d, request);
    case ReconfigRequest::Kind::kChangeGrouping:
      return change_grouping(d, request);
    case ReconfigRequest::Kind::kSwapLogic:
      return swap_logic(d, request);
    case ReconfigRequest::Kind::kRelocate:
      return relocate(d, request);
    case ReconfigRequest::Kind::kAttachQuery:
      return attach_query(d, request);
    case ReconfigRequest::Kind::kDetachQuery:
      return detach_query(d, request);
  }
  return common::InvalidArgument("unknown reconfiguration kind");
}

common::Status StreamingManager::activate(const std::string& topology) {
  return set_active(topology, true);
}

common::Status StreamingManager::deactivate(const std::string& topology) {
  return set_active(topology, false);
}

common::Status StreamingManager::set_active(const std::string& topology,
                                            bool active) {
  std::lock_guard lk(mu_);
  if (hooks_ == nullptr) {
    return common::FailedPrecondition(
        "ACTIVATE/DEACTIVATE control tuples require the SDN control plane");
  }
  auto it = topologies_.find(topology);
  if (it == topologies_.end()) return common::NotFound(topology);
  Deployed& d = it->second;
  ControlTuple ct;
  ct.type = active ? ControlType::kActivate : ControlType::kDeactivate;
  for (const NodeSpec& n : d.spec.nodes) {
    if (!n.is_spout) continue;
    for (WorkerId w : d.physical.worker_ids_of(n.id)) {
      hooks_->send_control_tuple(d.physical, w, ct);
    }
  }
  return common::Status::Ok();
}

common::Result<PhysicalTopology> StreamingManager::physical(
    const std::string& topology) const {
  std::lock_guard lk(mu_);
  auto it = topologies_.find(topology);
  if (it == topologies_.end()) return common::NotFound(topology);
  return it->second.physical;
}

common::Result<TopologySpec> StreamingManager::spec(
    const std::string& topology) const {
  std::lock_guard lk(mu_);
  auto it = topologies_.find(topology);
  if (it == topologies_.end()) return common::NotFound(topology);
  return it->second.spec;
}

void StreamingManager::failure_detector() {
  while (running_.load(std::memory_order_relaxed)) {
    common::SleepFor(opts_.monitor_interval);

    // Re-schedule only onto hosts whose agents are alive (ephemeral
    // registrations under /cluster/hosts); fall back to the static list
    // when the registry is empty (bare-manager tests).
    std::vector<HostId> live;
    for (const std::string& name : coord_->children("/cluster/hosts")) {
      if (name.starts_with("host")) {
        live.push_back(static_cast<HostId>(
            std::strtoul(name.c_str() + 4, nullptr, 10)));
      }
    }
    if (live.empty()) live = opts_.hosts;

    std::lock_guard lk(mu_);
    const std::int64_t now_us = common::NowMicros();

    for (auto& [name, d] : topologies_) {
      for (PhysicalWorker w : d.physical.workers) {
        auto hb = coord_->get_str(WorkerHeartbeatPath(name, w.id));
        if (!hb) continue;
        const std::int64_t age_us = now_us - ParseHeartbeat(*hb).t_us;
        const MissCounter::Verdict verdict =
            hb_misses_.observe({name, w.id}, age_us);
        if (verdict == MissCounter::Verdict::kFresh) continue;
        if (verdict != MissCounter::Verdict::kDead) {
          LOG_WARN("manager") << "stale heartbeat for w" << w.id << " ("
                              << name << "), miss "
                              << hb_misses_.misses({name, w.id}) << "/"
                              << kDeadAfterMisses << " — slow, not yet dead";
          continue;
        }

        // Heartbeat timeout: re-schedule onto another host (Sec 2 "Any
        // worker failure is detected from periodic heartbeats...").
        LOG_WARN("manager") << "heartbeat timeout for w" << w.id << " ("
                            << name << "), rescheduling";
        coord_->remove(AssignmentPath(w.host, w.id));
        opts_.scheduler->reschedule_worker(d.physical, w.id, live);
        ++d.physical.version;
        write_global_state(d);
        if (hooks_) hooks_->on_topology_updated(d.spec, d.physical, {w});
        assign_worker(name, d.physical.worker(w.id)->host, w.id);
        reschedules_.fetch_add(1);
        // Predecessors re-include the worker once it is actually RUNNING on
        // the new host (checked on subsequent monitor rounds).
        if (hooks_) pending_reinclude_.emplace_back(name, w.id);
      }
    }

    // Re-include rescheduled workers that have come back up.
    std::erase_if(pending_reinclude_, [&](const auto& entry) {
      const auto& [name, wid] = entry;
      auto it = topologies_.find(name);
      if (it == topologies_.end()) return true;
      auto state = coord_->get_str(WorkerStatePath(name, wid));
      if (!state || *state != "RUNNING") return false;
      const PhysicalWorker* pw = it->second.physical.worker(wid);
      if (pw != nullptr) {
        route_predecessors(it->second, pw->node,
                           it->second.physical.worker_ids_of(pw->node));
      }
      return true;
    });
  }
}

}  // namespace typhoon::stream
