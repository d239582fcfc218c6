#include "openflow/flow_table.h"

#include <algorithm>

namespace typhoon::openflow {

void FlowSnapshot::lookup_batch(std::span<const net::Packet* const> pkts,
                                PortId in_port,
                                std::span<const FlowSnapshotEntry*> out) const {
  std::size_t unresolved = pkts.size();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = nullptr;
  for (const FlowSnapshotEntry& e : entries) {
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      if (out[i] != nullptr) continue;
      if (e.match.matches(*pkts[i], in_port)) {
        out[i] = &e;
        if (--unresolved == 0) return;
      }
    }
  }
}

std::size_t FlowTable::apply(const Bundle& b) {
  std::size_t changed = 0;
  bool reorder = false;
  for (std::uint64_t cookie : b.delete_cookies) {
    const std::size_t n = std::erase_if(
        rules_, [&](const auto& kv) { return kv.second.rule.cookie == cookie; });
    changed += n;
    reorder |= n != 0;
  }
  for (const FlowMod& mod : b.flows) {
    Key key{mod.rule.match, mod.rule.priority};
    auto it = rules_.find(key);
    if (mod.command == FlowModCommand::kDelete) {
      if (it == rules_.end() ||
          (mod.rule.cookie != 0 && it->second.rule.cookie != mod.rule.cookie)) {
        continue;
      }
      rules_.erase(it);
      ++changed;
      reorder = true;
    } else if (it == rules_.end()) {
      rules_.emplace(std::move(key), Entry{mod.rule,
                                           std::make_shared<RuleStats>(),
                                           next_seq_++});
      ++changed;
      reorder = true;
    } else if (!(it->second.rule.actions == mod.rule.actions) ||
               it->second.rule.cookie != mod.rule.cookie) {
      it->second.rule = mod.rule;  // same key: keeps counters and position
      ++changed;
    }
  }
  if (reorder) {
    order_.clear();
    order_.reserve(rules_.size());
    for (const auto& [key, e] : rules_) order_.push_back(&e);
    std::sort(order_.begin(), order_.end(), [](const Entry* a, const Entry* b) {
      if (a->rule.priority != b->rule.priority) {
        return a->rule.priority > b->rule.priority;
      }
      const int sa = a->rule.match.specificity();
      const int sb = b->rule.match.specificity();
      if (sa != sb) return sa > sb;
      return a->seq < b->seq;
    });
  }
  return changed;
}

void FlowTable::add(FlowRule rule) {
  apply({.flows = {{FlowModCommand::kAdd, std::move(rule)}}});
}

std::shared_ptr<const FlowSnapshot> FlowTable::snapshot() const {
  auto snap = std::make_shared<FlowSnapshot>();
  snap->entries.reserve(order_.size());
  for (const Entry* e : order_) {
    snap->entries.push_back({e->rule.match, e->rule.actions.shared(), e->stats});
  }
  return snap;
}

std::vector<FlowStats> FlowTable::stats(
    std::optional<std::uint64_t> cookie) const {
  std::vector<FlowStats> out;
  for (const Entry* e : order_) {
    if (cookie && e->rule.cookie != *cookie) continue;
    out.push_back({e->rule, e->stats->packets.load(std::memory_order_relaxed),
                   e->stats->bytes.load(std::memory_order_relaxed)});
  }
  return out;
}

std::vector<FlowRule> FlowTable::rules() const {
  std::vector<FlowRule> out;
  out.reserve(order_.size());
  for (const Entry* e : order_) out.push_back(e->rule);
  return out;
}

}  // namespace typhoon::openflow
