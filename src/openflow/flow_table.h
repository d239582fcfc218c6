// Priority-ordered flow table with wildcard matching and per-rule counters.
// Rules are permanent until a bundle deletes them. A bundle is the one way
// to change the table; the owning switch serializes bundles under its
// control-state mutex. The forwarding path never touches this class
// directly — it classifies against the immutable FlowSnapshot published
// after each bundle that changed something (FlowSnapshot::lookup_batch) and
// bumps the rule's shared atomic counters on a hit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
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
  // Move-only: order_ points into rules_'s nodes, which a move keeps.
  FlowTable() = default;
  FlowTable(FlowTable&&) = default;
  FlowTable& operator=(FlowTable&&) = default;

  // Apply the flow part of a bundle: its cookie deletes, then its FlowMods
  // in order (FlowModCommand says what each does). Each FlowMod finds its
  // rule by (match, priority) in O(log n); the priority order is rebuilt
  // once at the end, and only if rules came or went. Returns the number of
  // rules added, changed or removed: 0 means the table is as it was.
  std::size_t apply(const Bundle& b);
  // A one-rule kAdd bundle.
  void add(FlowRule rule);

  // Immutable ordered view sharing action lists and stat blocks with this
  // table. O(n) to build; call once per change, not per packet.
  [[nodiscard]] std::shared_ptr<const FlowSnapshot> snapshot() const;

  [[nodiscard]] std::vector<FlowStats> stats(
      std::optional<std::uint64_t> cookie = std::nullopt) const;
  [[nodiscard]] std::size_t size() const { return rules_.size(); }
  [[nodiscard]] std::vector<FlowRule> rules() const;

 private:
  struct Key {
    FlowMatch match;
    std::uint16_t priority = 0;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    FlowRule rule;
    std::shared_ptr<RuleStats> stats;
    std::uint64_t seq = 0;  // insertion order for stable tie-breaking
  };

  std::map<Key, Entry> rules_;
  // rules_ by priority desc, specificity desc, seq asc: the lookup order.
  std::vector<const Entry*> order_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace typhoon::openflow
