// OpenFlow group table. Typhoon's load-balancer app (Sec 4) uses select-type
// groups with weighted round-robin bucket selection to rewrite tuple
// destinations at the network layer; all-type groups replicate to every
// bucket.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "openflow/flow.h"

namespace typhoon::openflow {

class GroupTable {
 public:
  // Returns false only for a kDelete of an absent group (nothing changed).
  bool apply(const GroupMod& mod);

  struct Group {
    GroupType type = GroupType::kSelect;
    std::vector<GroupBucket> buckets;
    // Weighted round-robin scheduling state (smooth WRR).
    std::vector<std::int64_t> wrr_credit;
  };

  [[nodiscard]] bool contains(std::uint32_t group_id) const {
    return groups_.contains(group_id);
  }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }

  // For select groups: pick the next bucket by smooth weighted round-robin.
  // For all groups: callers should use `buckets()` and apply each.
  const GroupBucket* select(std::uint32_t group_id);

  [[nodiscard]] const std::vector<GroupBucket>* buckets(
      std::uint32_t group_id) const;
  [[nodiscard]] std::optional<GroupType> type(std::uint32_t group_id) const;

 private:
  std::unordered_map<std::uint32_t, Group> groups_;
};

}  // namespace typhoon::openflow
