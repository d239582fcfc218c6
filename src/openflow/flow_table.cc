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

void FlowTable::sort_entries() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const Entry& a, const Entry& b) {
                     if (a.rule.priority != b.rule.priority)
                       return a.rule.priority > b.rule.priority;
                     if (a.rule.match.specificity() != b.rule.match.specificity())
                       return a.rule.match.specificity() > b.rule.match.specificity();
                     return a.seq < b.seq;
                   });
}

bool FlowTable::add(FlowRule rule) {
  for (Entry& e : entries_) {
    if (e.rule.match == rule.match && e.rule.priority == rule.priority) {
      e.rule = std::move(rule);
      return true;
    }
  }
  Entry e;
  e.rule = std::move(rule);
  e.stats = std::make_shared<RuleStats>();
  e.seq = next_seq_++;
  entries_.push_back(std::move(e));
  sort_entries();
  return false;
}

bool FlowTable::modify(const FlowMatch& match, SharedActions actions) {
  bool any = false;
  for (Entry& e : entries_) {
    if (e.rule.match == match) {
      e.rule.actions = actions;
      any = true;
    }
  }
  return any;
}

std::size_t FlowTable::erase(const FlowMatch& match, std::uint64_t cookie) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [&](const Entry& e) {
    if (e.rule.match != match) return false;
    return cookie == 0 || e.rule.cookie == cookie;
  });
  return before - entries_.size();
}

std::size_t FlowTable::erase_by_cookie(std::uint64_t cookie) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_,
                [&](const Entry& e) { return e.rule.cookie == cookie; });
  return before - entries_.size();
}

std::size_t FlowTable::erase_mentioning(std::uint64_t addr,
                                        std::uint16_t priority) {
  const std::size_t before = entries_.size();
  std::erase_if(entries_, [&](const Entry& e) {
    if (priority != 0 && e.rule.priority != priority) return false;
    const FlowMatch& m = e.rule.match;
    return (m.dl_src && *m.dl_src == addr) || (m.dl_dst && *m.dl_dst == addr);
  });
  return before - entries_.size();
}

std::shared_ptr<const FlowSnapshot> FlowTable::snapshot() const {
  auto snap = std::make_shared<FlowSnapshot>();
  snap->entries.reserve(entries_.size());
  for (const Entry& e : entries_) {
    snap->entries.push_back({e.rule.match, e.rule.actions.shared(), e.stats});
  }
  return snap;
}

std::vector<FlowStats> FlowTable::stats(
    std::optional<std::uint64_t> cookie) const {
  std::vector<FlowStats> out;
  for (const Entry& e : entries_) {
    if (cookie && e.rule.cookie != *cookie) continue;
    out.push_back({e.rule, e.stats->packets.load(std::memory_order_relaxed),
                   e.stats->bytes.load(std::memory_order_relaxed)});
  }
  return out;
}

std::vector<FlowRule> FlowTable::rules() const {
  std::vector<FlowRule> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.rule);
  return out;
}

}  // namespace typhoon::openflow
