#include "controller/apps/load_balancer.h"

#include "common/clock.h"
#include "common/log.h"
#include "net/packet.h"

namespace typhoon::controller {

using openflow::ActionGroup;
using openflow::ActionOutput;
using openflow::ActionSetDlDst;
using openflow::ActionSetTunDst;
using openflow::FlowRule;
using openflow::GroupBucket;
using openflow::GroupMod;

FlowRule LoadBalancer::Redirect(TopologyId topology, const SrcGroup& g,
                               WorkerId dst) {
  FlowRule r;
  r.priority = kPrioLoadBalance;
  r.cookie = topology;
  r.match.in_port = g.src_port;
  r.match.dl_src = g.src_addr;
  r.match.dl_dst = WorkerAddress{topology, dst}.packed();
  r.match.ether_type = net::kTyphoonEtherType;
  return r;
}

std::vector<GroupBucket> LoadBalancer::make_buckets(
    TopologyId topology, HostId src_host,
    const std::vector<stream::PhysicalWorker>& dests,
    const std::map<WorkerId, std::uint32_t>& weights) {
  std::vector<GroupBucket> buckets;
  buckets.reserve(dests.size());
  for (const stream::PhysicalWorker& d : dests) {
    GroupBucket b;
    auto it = weights.find(d.id);
    b.weight = it == weights.end() ? 1 : std::max<std::uint32_t>(1, it->second);
    b.actions.push_back(
        ActionSetDlDst{WorkerAddress{topology, d.id}.packed()});
    if (d.host == src_host) {
      b.actions.push_back(ActionOutput{d.port});
    } else {
      b.actions.push_back(ActionSetTunDst{d.host});
      b.actions.push_back(ActionOutput{switchd::SoftSwitch::kTunnelPort});
    }
    buckets.push_back(std::move(b));
  }
  return buckets;
}

common::Status LoadBalancer::enable(TopologyId topology,
                                    const std::string& from_node,
                                    const std::string& to_node) {
  auto spec = ctl_->spec(topology);
  auto phys = ctl_->physical(topology);
  if (!spec || !phys) return common::NotFound("topology");
  const stream::NodeSpec* from = spec->node_by_name(from_node);
  const stream::NodeSpec* to = spec->node_by_name(to_node);
  if (from == nullptr || to == nullptr) return common::NotFound("node");

  Session session;
  session.dests = phys->workers_of(to->id);
  if (session.dests.empty()) return common::NotFound("destinations");

  const std::map<WorkerId, std::uint32_t> equal;  // all weight 1
  for (const stream::PhysicalWorker& s : phys->workers_of(from->id)) {
    SrcGroup g;
    g.host = s.host;
    g.group_id = ctl_->next_group_id();
    g.src_port = s.port;
    g.src_addr = WorkerAddress{topology, s.id}.packed();

    // The group and its redirect rules go out as one bundle: every
    // (src, original-dst) pair is captured at a priority above the plain
    // data rules and steered through the group.
    openflow::Bundle b;
    b.groups.push_back({GroupMod::Command::kAdd, g.group_id,
                        openflow::GroupType::kSelect,
                        make_buckets(topology, s.host, session.dests, equal)});
    for (const stream::PhysicalWorker& d : session.dests) {
      FlowRule r = Redirect(topology, g, d.id);
      r.actions = {ActionGroup{g.group_id}};
      b.flows.push_back({openflow::FlowModCommand::kAdd, std::move(r)});
    }
    if (ctl_->apply_app_bundle(s.host, b)) session.groups.push_back(g);
  }

  std::lock_guard lk(mu_);
  sessions_[Key{topology, from->id, to->id}] = std::move(session);
  return common::Status::Ok();
}

common::Status LoadBalancer::disable(TopologyId topology,
                                     const std::string& from_node,
                                     const std::string& to_node) {
  auto spec = ctl_->spec(topology);
  if (!spec) return common::NotFound("topology");
  const stream::NodeSpec* from = spec->node_by_name(from_node);
  const stream::NodeSpec* to = spec->node_by_name(to_node);
  if (from == nullptr || to == nullptr) return common::NotFound("node");

  Session session;
  {
    std::lock_guard lk(mu_);
    auto it = sessions_.find(Key{topology, from->id, to->id});
    if (it == sessions_.end()) return common::NotFound("session");
    session = std::move(it->second);
    sessions_.erase(it);
  }
  for (const SrcGroup& g : session.groups) {
    openflow::Bundle b;
    for (const stream::PhysicalWorker& d : session.dests) {
      b.flows.push_back(
          {openflow::FlowModCommand::kDelete, Redirect(topology, g, d.id)});
    }
    b.groups.push_back({GroupMod::Command::kDelete, g.group_id});
    ctl_->apply_app_bundle(g.host, b);
  }
  return common::Status::Ok();
}

common::Status LoadBalancer::apply_weights(
    const Session& s, TopologyId topology,
    const std::map<WorkerId, std::uint32_t>& weights) {
  for (const SrcGroup& g : s.groups) {
    openflow::Bundle b;
    b.groups.push_back({GroupMod::Command::kModify, g.group_id,
                        openflow::GroupType::kSelect,
                        make_buckets(topology, g.host, s.dests, weights)});
    ctl_->apply_app_bundle(g.host, b);
  }
  rebalances_.fetch_add(1);
  return common::Status::Ok();
}

common::Status LoadBalancer::set_weights(
    TopologyId topology, const std::string& from_node,
    const std::string& to_node,
    const std::map<WorkerId, std::uint32_t>& weights) {
  auto spec = ctl_->spec(topology);
  if (!spec) return common::NotFound("topology");
  const stream::NodeSpec* from = spec->node_by_name(from_node);
  const stream::NodeSpec* to = spec->node_by_name(to_node);
  if (from == nullptr || to == nullptr) return common::NotFound("node");

  std::lock_guard lk(mu_);
  auto it = sessions_.find(Key{topology, from->id, to->id});
  if (it == sessions_.end()) return common::NotFound("session");
  return apply_weights(it->second, topology, weights);
}

void LoadBalancer::tick() {
  if (!auto_rebalance_.load()) return;

  std::map<Key, Session> sessions;
  {
    std::lock_guard lk(mu_);
    sessions = sessions_;
  }
  for (const auto& [key, session] : sessions) {
    auto spec = ctl_->spec(key.topology);
    if (!spec) continue;

    // Weight inversely proportional to each destination's smoothed queue
    // depth: the raw coordinator read feeds a per-destination EWMA first,
    // so one noisy sample cannot swing the whole bucket distribution.
    const std::int64_t now_us = common::NowMicros();
    std::int64_t max_q = 0;
    std::map<WorkerId, std::int64_t> depths;
    for (const stream::PhysicalWorker& d : session.dests) {
      auto hb =
          ctl_->coord()->get_str(stream::WorkerHeartbeatPath(spec->name, d.id));
      const std::int64_t raw =
          hb ? stream::ParseHeartbeat(*hb).queue_depth.value_or(0) : 0;
      trace::TimeSeries& ts =
          depth_series_.series("dest-" + std::to_string(d.id));
      ts.observe(now_us, static_cast<double>(raw));
      const auto q = static_cast<std::int64_t>(ts.ewma());
      depths[d.id] = q;
      max_q = std::max(max_q, q);
    }
    std::map<WorkerId, std::uint32_t> weights;
    for (const auto& [id, q] : depths) {
      weights[id] = static_cast<std::uint32_t>(max_q - q + 1);
    }
    apply_weights(session, key.topology, weights);
  }
}

}  // namespace typhoon::controller
