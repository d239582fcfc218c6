// RuleCompiler — turns (TopologySpec, PhysicalTopology) into the exact SDN
// flow-rule set of Table 3:
//
//   local transfer       in_port=src.port, dl_src=src, dl_dst=dst -> output dst.port
//   remote (sender)      in_port=src.port, dl_src=src, dl_dst=dst -> set_tun_dst(peer), output TUNNEL
//   remote (receiver)    in_port=TUNNEL,   dl_src=src, dl_dst=dst -> output dst.port
//   one-to-many          in_port=src.port, dl_dst=BROADCAST       -> output all dst ports (+tunnels)
//   controller -> worker in_port=CONTROLLER, dl_dst=worker        -> output worker.port
//   worker -> controller in_port=worker.port, dl_dst=CONTROLLER   -> output CONTROLLER
//
// Every rule carries cookie = topology id, so a killed topology's rules are
// swept in one call. Rules are permanent: a removed worker's rules go by
// explicit delete.
//
// One installation path (DESIGN.md Sec 15): compile_delta() is
// DeltaPath-style incremental recompilation. The compiler keeps a
// per-topology CompiledRuleState cache of the last emitted set (keyed by
// host + match + priority + cookie) and diffs the freshly compiled set
// against it. Against an empty cache (first deploy, or a standby's takeover
// repair) the diff is every rule as an add; a one-worker rebalance emits
// only the O(worker-degree) adds/mods/dels that actually changed —
// including the explicit deletes for removed workers' rules (the
// to-controller rule and emptied broadcast receivers don't mention the
// worker's address in their match, so an address sweep alone leaks them).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "openflow/flow.h"
#include "stream/physical.h"

namespace typhoon::controller {

// Rules grouped by the host (switch) they must be installed on.
using RulesByHost = std::map<HostId, std::vector<openflow::FlowRule>>;

// Rule priorities, lowest to highest: data, SDN-load-balancer redirects,
// control-tuple paths.
inline constexpr std::uint16_t kPrioData = 100;
inline constexpr std::uint16_t kPrioLoadBalance = 300;
inline constexpr std::uint16_t kPrioControl = 400;

// Identity of one installed rule: where it lives plus the (match, priority,
// cookie) triple the switch's FlowTable replaces/erases on. Two compiled
// sets are diffed by this key; a key present in both with different actions
// is a modification.
struct RuleKey {
  HostId host = 0;
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;
  std::optional<PortId> in_port;
  std::optional<std::uint64_t> dl_src;
  std::optional<std::uint64_t> dl_dst;
  std::optional<std::uint16_t> ether_type;

  static RuleKey Of(HostId host, const openflow::FlowRule& r) {
    return RuleKey{host,           r.priority,       r.cookie,
                   r.match.in_port, r.match.dl_src,  r.match.dl_dst,
                   r.match.ether_type};
  }
  auto operator<=>(const RuleKey&) const = default;
};

// The FlowMods a reconfiguration must emit: adds (new keys), mods (same key,
// changed actions; installed with kAdd, which replaces in place) and
// dels (keys gone from the new set; installed with kDelete).
struct RuleDelta {
  RulesByHost adds;
  RulesByHost mods;
  RulesByHost dels;

  [[nodiscard]] std::size_t total() const {
    std::size_t n = 0;
    for (const auto* part : {&adds, &mods, &dels}) {
      for (const auto& [h, rs] : *part) n += rs.size();
    }
    return n;
  }
  [[nodiscard]] bool empty() const { return total() == 0; }
};

// Last emitted rule set of one topology, keyed for diffing. A standby
// controller rebuilds it during takeover by diffing against an empty cache.
using CompiledRuleState = std::map<RuleKey, openflow::FlowRule>;

class RuleCompiler {
 public:
  // Full Table 3 rule set for a topology. Pure; does not touch the cache.
  [[nodiscard]] RulesByHost compile(
      const stream::TopologySpec& spec,
      const stream::PhysicalTopology& phys) const;

  // Compile, diff the fresh set against the cached state and replace the
  // cache with it. Without cached state every rule is an add.
  RuleDelta compile_delta(const stream::TopologySpec& spec,
                          const stream::PhysicalTopology& phys);

  // Diff two keyed sets without touching the cache.
  static RuleDelta Diff(const CompiledRuleState& old_state,
                        const CompiledRuleState& fresh);

  // Keyed view of a compiled set.
  static CompiledRuleState Keyed(RulesByHost rules);

  // Drop the cached state of a killed topology.
  void forget(TopologyId id) { state_.erase(id); }

  // Cached state of a topology; nullptr before its first compile_delta.
  [[nodiscard]] const CompiledRuleState* state(TopologyId id) const {
    auto it = state_.find(id);
    return it == state_.end() ? nullptr : &it->second;
  }

 private:
  void emit_data_rules(const stream::TopologySpec& spec,
                       const stream::PhysicalTopology& phys,
                       const stream::PhysicalWorker& src,
                       RulesByHost& out) const;
  void emit_control_rules(const stream::TopologySpec& spec,
                          const stream::PhysicalWorker& w,
                          RulesByHost& out) const;

  std::map<TopologyId, CompiledRuleState> state_;
};

}  // namespace typhoon::controller
