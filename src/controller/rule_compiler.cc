#include "controller/rule_compiler.h"

#include <set>

#include "net/packet.h"
#include "switchd/soft_switch.h"

namespace typhoon::controller {

using openflow::ActionOutput;
using openflow::ActionOutputController;
using openflow::ActionSetTunDst;
using openflow::FlowMatch;
using openflow::FlowRule;
using stream::PhysicalWorker;
using stream::TopologySpec;

namespace {

FlowRule BaseRule(const TopologySpec& spec, std::uint16_t priority) {
  FlowRule r;
  r.priority = priority;
  r.cookie = spec.id;
  r.match.ether_type = net::kTyphoonEtherType;
  return r;
}

}  // namespace

void RuleCompiler::emit_data_rules(const TopologySpec& spec,
                                   const stream::PhysicalTopology& phys,
                                   const PhysicalWorker& src,
                                   RulesByHost& out) const {
  const std::uint64_t src_addr = WorkerAddress{spec.id, src.id}.packed();

  // Destinations reachable by broadcast (union over all all-grouping
  // edges of this node — one broadcast address per worker).
  std::vector<PhysicalWorker> bcast_dsts;

  for (const stream::EdgeSpec& e : spec.out_edges(src.node)) {
    const std::vector<PhysicalWorker> dsts = phys.workers_of(e.to);
    if (e.grouping == stream::GroupingType::kAll) {
      bcast_dsts.insert(bcast_dsts.end(), dsts.begin(), dsts.end());
      continue;
    }
    for (const PhysicalWorker& d : dsts) {
      const std::uint64_t dst_addr = WorkerAddress{spec.id, d.id}.packed();
      if (d.host == src.host) {
        // Local transfer.
        FlowRule r = BaseRule(spec, kPrioData);
        r.match.in_port = src.port;
        r.match.dl_src = src_addr;
        r.match.dl_dst = dst_addr;
        r.actions = {ActionOutput{d.port}};
        out[src.host].push_back(std::move(r));
      } else {
        // Remote transfer, sender side.
        FlowRule s = BaseRule(spec, kPrioData);
        s.match.in_port = src.port;
        s.match.dl_src = src_addr;
        s.match.dl_dst = dst_addr;
        s.actions = {ActionSetTunDst{d.host},
                     ActionOutput{switchd::SoftSwitch::kTunnelPort}};
        out[src.host].push_back(std::move(s));
        // Remote transfer, receiver side.
        FlowRule rr = BaseRule(spec, kPrioData);
        rr.match.in_port = switchd::SoftSwitch::kTunnelPort;
        rr.match.dl_src = src_addr;
        rr.match.dl_dst = dst_addr;
        rr.actions = {ActionOutput{d.port}};
        out[d.host].push_back(std::move(rr));
      }
    }
  }

  if (bcast_dsts.empty()) return;

  // One-to-many transfer: one sender rule replicating to every local
  // destination port and one tunnel send per remote host; per-host receiver
  // rules fan the copy out locally.
  const std::uint64_t bcast_addr =
      BroadcastAddress(spec.id).packed();
  FlowRule b = BaseRule(spec, kPrioData);
  b.match.in_port = src.port;
  b.match.dl_dst = bcast_addr;
  std::set<HostId> remote_hosts;
  for (const PhysicalWorker& d : bcast_dsts) {
    if (d.host == src.host) {
      b.actions.push_back(ActionOutput{d.port});
    } else {
      remote_hosts.insert(d.host);
    }
  }
  for (HostId h : remote_hosts) {
    b.actions.push_back(ActionSetTunDst{h});
    b.actions.push_back(ActionOutput{switchd::SoftSwitch::kTunnelPort});
  }
  out[src.host].push_back(std::move(b));

  for (HostId h : remote_hosts) {
    FlowRule rr = BaseRule(spec, kPrioData);
    rr.match.in_port = switchd::SoftSwitch::kTunnelPort;
    rr.match.dl_src = src_addr;
    rr.match.dl_dst = bcast_addr;
    for (const PhysicalWorker& d : bcast_dsts) {
      if (d.host == h) rr.actions.push_back(ActionOutput{d.port});
    }
    out[h].push_back(std::move(rr));
  }
}

void RuleCompiler::emit_control_rules(const TopologySpec& spec,
                                      const PhysicalWorker& w,
                                      RulesByHost& out) const {
  const std::uint64_t w_addr = WorkerAddress{spec.id, w.id}.packed();
  const std::uint64_t ctl_addr =
      WorkerAddress{spec.id, kControllerWorker}.packed();

  // SDN controller -> worker (PacketOut-injected control tuples).
  FlowRule to_worker = BaseRule(spec, kPrioControl);
  to_worker.match.in_port = kPortController;
  to_worker.match.dl_dst = w_addr;
  to_worker.actions = {ActionOutput{w.port}};
  out[w.host].push_back(std::move(to_worker));

  // Worker -> SDN controller (METRIC_RESP via PacketIn).
  FlowRule to_ctl = BaseRule(spec, kPrioControl);
  to_ctl.match.in_port = w.port;
  to_ctl.match.dl_dst = ctl_addr;
  to_ctl.actions = {ActionOutputController{}};
  out[w.host].push_back(std::move(to_ctl));
}

RulesByHost RuleCompiler::compile(const TopologySpec& spec,
                                  const stream::PhysicalTopology& phys) const {
  RulesByHost out;
  for (const PhysicalWorker& w : phys.workers) {
    emit_data_rules(spec, phys, w, out);
    emit_control_rules(spec, w, out);
  }
  return out;
}

CompiledRuleState RuleCompiler::Keyed(RulesByHost rules) {
  CompiledRuleState keyed;
  for (auto& [host, rs] : rules) {
    for (openflow::FlowRule& r : rs) {
      const RuleKey key = RuleKey::Of(host, r);
      keyed.insert_or_assign(key, std::move(r));
    }
  }
  return keyed;
}

RuleDelta RuleCompiler::Diff(const CompiledRuleState& old_state,
                             const CompiledRuleState& fresh) {
  RuleDelta d;
  // Walk both sorted maps in lockstep: a key only in `fresh` is an add, only
  // in `old_state` a delete, and in both with different actions a mod.
  auto oi = old_state.begin();
  auto ni = fresh.begin();
  while (oi != old_state.end() || ni != fresh.end()) {
    if (oi == old_state.end() || (ni != fresh.end() && ni->first < oi->first)) {
      d.adds[ni->first.host].push_back(ni->second);
      ++ni;
    } else if (ni == fresh.end() || oi->first < ni->first) {
      d.dels[oi->first.host].push_back(oi->second);
      ++oi;
    } else {
      const openflow::FlowRule& was = oi->second;
      const openflow::FlowRule& is = ni->second;
      if (!(was.actions == is.actions)) {
        d.mods[ni->first.host].push_back(is);
      }
      ++oi;
      ++ni;
    }
  }
  return d;
}

RuleDelta RuleCompiler::compile_delta(const TopologySpec& spec,
                                      const stream::PhysicalTopology& phys) {
  CompiledRuleState fresh = Keyed(compile(spec, phys));
  CompiledRuleState& cached = state_[spec.id];  // empty -> pure adds
  RuleDelta d = Diff(cached, fresh);
  cached = std::move(fresh);
  return d;
}

}  // namespace typhoon::controller
