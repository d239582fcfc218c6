#include "controller/apps/fault_detector.h"

#include <algorithm>

#include "common/clock.h"
#include "common/log.h"

namespace typhoon::controller {

void FaultDetector::push_routing(TopologyId topology,
                                 const stream::PhysicalWorker& w) {
  auto spec = ctl_->spec(topology);
  auto phys = ctl_->physical(topology);
  if (!spec || !phys) return;

  std::set<WorkerId> down;
  {
    std::lock_guard lk(mu_);
    down = down_[topology];
  }

  // Surviving next hops for the affected node.
  std::vector<WorkerId> hops;
  for (WorkerId id : phys->worker_ids_of(w.node)) {
    if (!down.contains(id)) hops.push_back(id);
  }
  if (hops.empty()) {
    LOG_WARN("fault-detector") << "node " << w.node
                               << " has no surviving workers";
    return;
  }

  for (const stream::EdgeSpec& e : spec->in_edges(w.node)) {
    stream::RoutingUpdate ru;
    ru.to_node = w.node;
    ru.state.type = e.grouping;
    ru.state.key_indices = e.key_indices;
    ru.state.next_hops = hops;
    for (WorkerId pred : phys->worker_ids_of(e.from)) {
      if (down.contains(pred)) continue;
      ctl_->send_control_tuple(*phys, pred, stream::MakeRouting(ru));
    }
  }
}

void FaultDetector::on_port_status(HostId host,
                                   const openflow::PortStatus& ev) {
  auto ref = ctl_->worker_by_port(host, ev.port);
  if (!ref) return;

  if (ev.reason == openflow::PortReason::kDelete) {
    {
      std::lock_guard lk(mu_);
      if (!down_[ref->topology].insert(ref->worker.id).second) return;
    }
    detected_.fetch_add(1);
    LOG_INFO("fault-detector")
        << "port removal on host" << host << " -> worker w" << ref->worker.id
        << " dead; rerouting predecessors";
    push_routing(ref->topology, ref->worker);
  } else if (ev.reason == openflow::PortReason::kAdd) {
    {
      std::lock_guard lk(mu_);
      auto it = down_.find(ref->topology);
      if (it == down_.end() || it->second.erase(ref->worker.id) == 0) return;
      auto hb = hb_down_.find(ref->topology);
      if (hb != hb_down_.end()) hb->second.erase(ref->worker.id);
    }
    recovered_.fetch_add(1);
    push_routing(ref->topology, ref->worker);
  }
}

void FaultDetector::tick() {
  if (ctl_ == nullptr) return;
  auto* coord = ctl_->coord();
  if (coord == nullptr) return;

  const std::int64_t now_us = common::NowMicros();

  for (TopologyId id : ctl_->topology_ids()) {
    auto spec = ctl_->spec(id);
    auto phys = ctl_->physical(id);
    if (!spec || !phys) continue;

    for (const stream::PhysicalWorker& w : phys->workers) {
      auto hb = coord->get_str(stream::WorkerHeartbeatPath(spec->name, w.id));
      if (!hb) continue;  // not yet launched — the manager owns that window
      const std::int64_t age_us = now_us - stream::ParseHeartbeat(*hb).t_us;
      const stream::MissCounter::Verdict verdict =
          hb_misses_.observe({spec->name, w.id}, age_us);

      if (verdict == stream::MissCounter::Verdict::kFresh) {
        // Fresh heartbeat from a worker we rerouted around: re-include it.
        bool was_down = false;
        {
          std::lock_guard lk(mu_);
          auto it = hb_down_.find(id);
          if (it != hb_down_.end() && it->second.erase(w.id) != 0) {
            was_down = true;
            down_[id].erase(w.id);
          }
        }
        if (was_down) {
          recovered_.fetch_add(1);
          LOG_INFO("fault-detector")
              << "heartbeat resumed for w" << w.id << " (" << spec->name
              << "); re-including";
          push_routing(id, w);
        }
        continue;
      }

      if (verdict == stream::MissCounter::Verdict::kSlow) {
        LOG_WARN("fault-detector")
            << "worker w" << w.id << " (" << spec->name << ") heartbeat "
            << age_us / 1000 << "ms stale — slow, watching";
      }
      if (verdict != stream::MissCounter::Verdict::kDead) continue;

      bool newly_down = false;
      {
        std::lock_guard lk(mu_);
        if (down_[id].insert(w.id).second) {
          hb_down_[id].insert(w.id);
          newly_down = true;
        }
      }
      if (!newly_down) continue;
      detected_.fetch_add(1);
      LOG_WARN("fault-detector")
          << "worker w" << w.id << " (" << spec->name
          << ") heartbeat silent past dead threshold; rerouting predecessors";
      push_routing(id, w);
    }
  }
}

}  // namespace typhoon::controller
