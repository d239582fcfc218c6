#include "openflow/group_table.h"

namespace typhoon::openflow {

bool GroupTable::apply(const GroupMod& mod) {
  switch (mod.command) {
    case GroupMod::Command::kAdd:
    case GroupMod::Command::kModify: {
      Group g;
      g.type = mod.type;
      g.buckets = mod.buckets;
      g.wrr_credit.assign(g.buckets.size(), 0);
      groups_[mod.group_id] = std::move(g);
      return true;
    }
    case GroupMod::Command::kDelete:
      return groups_.erase(mod.group_id) != 0;
  }
  return false;
}

const GroupBucket* GroupTable::select(std::uint32_t group_id) {
  auto it = groups_.find(group_id);
  if (it == groups_.end() || it->second.buckets.empty()) return nullptr;
  Group& g = it->second;

  // Smooth weighted round-robin: every bucket gains its weight in credit;
  // the bucket with the highest credit is picked and pays the total weight.
  std::int64_t total = 0;
  std::size_t best = 0;
  for (std::size_t i = 0; i < g.buckets.size(); ++i) {
    g.wrr_credit[i] += g.buckets[i].weight;
    total += g.buckets[i].weight;
    if (g.wrr_credit[i] > g.wrr_credit[best]) best = i;
  }
  g.wrr_credit[best] -= total;
  return &g.buckets[best];
}

const std::vector<GroupBucket>* GroupTable::buckets(
    std::uint32_t group_id) const {
  auto it = groups_.find(group_id);
  return it == groups_.end() ? nullptr : &it->second.buckets;
}

std::optional<GroupType> GroupTable::type(std::uint32_t group_id) const {
  auto it = groups_.find(group_id);
  if (it == groups_.end()) return std::nullopt;
  return it->second.type;
}

}  // namespace typhoon::openflow
