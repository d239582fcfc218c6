// Priority-ordered flow table with wildcard matching and per-rule counters.
// Rules are permanent until a FlowMod or sweep deletes them. Mutations are
// serialized by the owning switch (under its control-state mutex); the
// forwarding path never touches this class directly — it classifies
// against the immutable FlowSnapshot published after every mutation
// (FlowSnapshot::lookup_batch) and bumps the rule's shared atomic counters
// on a hit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "openflow/flow.h"

namespace typhoon::openflow {

// Hit counters shared between a table entry and every snapshot that names
// it. Plain atomics so lock-free forwarding threads can account while
// control threads read stats.
struct RuleStats {
  std::atomic<std::uint64_t> packets{0};
  std::atomic<std::uint64_t> bytes{0};
};

// One row of the immutable, priority-ordered table view consumed by the
// lock-free forwarding path. Shares the rule's action list and stat block
// with the master table; the row itself is never mutated after publication.
struct FlowSnapshotEntry {
  FlowMatch match;
  SharedActions::Ptr actions;
  std::shared_ptr<RuleStats> stats;
};

struct FlowSnapshot {
  // Priority desc, then specificity desc, then insertion order: the first
  // matching entry is the winning rule.
  std::vector<FlowSnapshotEntry> entries;

  // Batched lookup for a burst of packets sharing one ingress port: a
  // single priority-ordered pass over the table resolves every packet
  // (each entry's match fields are loaded once for the whole burst instead
  // of once per packet). out[i] receives the highest-priority match for
  // pkts[i], or nullptr on a table miss. out.size() must equal
  // pkts.size(); the pass exits early once every packet is resolved. Pure
  // read — callers account via the entry's stats block.
  void lookup_batch(std::span<const net::Packet* const> pkts, PortId in_port,
                    std::span<const FlowSnapshotEntry*> out) const;
};

class FlowTable {
 public:
  // Install or replace (same match + priority) a rule. A replace keeps the
  // existing counters but swaps the action list. Returns true when an
  // existing rule was replaced, false for a fresh install — the switch uses
  // this to report per-FlowMod added/modified deltas to the controller.
  bool add(FlowRule rule);

  // Modify actions of rules whose match equals `match`; true if any changed.
  bool modify(const FlowMatch& match, SharedActions actions);

  // Delete rules matching the given match exactly (and cookie, if nonzero).
  // Returns the number of removed rules.
  std::size_t erase(const FlowMatch& match, std::uint64_t cookie = 0);
  std::size_t erase_by_cookie(std::uint64_t cookie);
  // Delete every rule whose match names `addr` as dl_src or dl_dst — the
  // sweep used when a worker leaves the cluster. A nonzero `priority`
  // restricts the sweep to rules at exactly that priority (used to clear
  // app-installed rules without touching compiler-owned ones).
  std::size_t erase_mentioning(std::uint64_t addr, std::uint16_t priority = 0);

  // Immutable ordered view sharing action lists and stat blocks with this
  // table. O(n) to build; call once per mutation, not per packet.
  [[nodiscard]] std::shared_ptr<const FlowSnapshot> snapshot() const;

  [[nodiscard]] std::vector<FlowStats> stats(
      std::optional<std::uint64_t> cookie = std::nullopt) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::vector<FlowRule> rules() const;

 private:
  struct Entry {
    FlowRule rule;
    std::shared_ptr<RuleStats> stats;
    std::uint64_t seq = 0;  // insertion order for stable tie-breaking
  };

  void sort_entries();

  std::vector<Entry> entries_;  // kept sorted: priority desc, specificity desc
  std::uint64_t next_seq_ = 0;
};

}  // namespace typhoon::openflow
