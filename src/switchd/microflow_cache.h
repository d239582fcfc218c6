// Exact-match microflow action cache — the OVS EMC analog for the soft
// switch's fast path. Keyed by the full header tuple (in_port, dst, src,
// ether_type); a hit maps straight to the matched rule's shared action list
// and stat block with no wildcard scan, no mutex, and no refcount traffic.
//
// Correctness rides on the owning switch's table epoch: every entry is
// stamped with the epoch of the table snapshot it was filled from, and a
// lookup only hits when the stamp equals the current epoch. A rule bundle
// that changes a flow or group publishes a new snapshot under a new epoch,
// so every cached entry goes stale at once — stable-update semantics
// (Sec 4) are preserved without explicit per-entry invalidation.
//
// Single-consumer by design: only the switch's forwarding thread reads or
// writes entries. Hit/miss counters are relaxed atomics so control threads
// can observe the hit rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/ids.h"
#include "openflow/flow.h"
#include "openflow/flow_table.h"

namespace typhoon::switchd {

struct MicroflowKey {
  PortId in_port = 0;
  std::uint16_t ether_type = 0;
  std::uint64_t src = 0;  // packed WorkerAddress
  std::uint64_t dst = 0;

  friend bool operator==(const MicroflowKey&, const MicroflowKey&) = default;

  [[nodiscard]] std::uint64_t hash() const {
    return common::HashCombine(
        common::HashCombine(src, dst),
        (std::uint64_t{in_port} << 16) | ether_type);
  }
};

class MicroflowCache {
 public:
  struct Entry {
    std::uint64_t generation = 0;  // 0 = empty slot
    MicroflowKey key;
    // nullptr = cached wildcard-table miss (the flow is a known drop).
    openflow::SharedActions::Ptr actions;
    std::shared_ptr<openflow::RuleStats> stats;
  };

  explicit MicroflowCache(std::size_t entries = kDefaultEntries)
      : slots_(round_pow2(entries)), mask_(slots_.size() - 1) {}

  // Returns the live entry for `key` under `gen`, or nullptr on miss
  // (no slot, stale generation, or different flow in the way).
  Entry* lookup(const MicroflowKey& key, std::uint64_t gen) {
    Entry* e = probe(key, gen);
    if (e != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return e;
  }

  // Non-counting lookup for batched pipelines: the caller accounts once per
  // burst via count_hits/count_misses, so packets resolved by a burst-local
  // duplicate of an earlier miss (they never reach the wildcard table)
  // count as hits, matching the per-packet path's one-compulsory-miss-per-
  // flow accounting.
  Entry* probe(const MicroflowKey& key, std::uint64_t gen) {
    const std::uint64_t h = key.hash();
    for (std::size_t i = 0; i < kWays; ++i) {
      Entry& e = slots_[(h + i) & mask_];
      if (e.generation == gen && e.key == key) return &e;
    }
    return nullptr;
  }

  void count_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_misses(std::uint64_t n) {
    misses_.fetch_add(n, std::memory_order_relaxed);
  }

  // Fill a way for `key` (preferring empty/stale ways, evicting the first
  // way on a full set — collisions only cost a re-scan, never correctness).
  Entry* insert(const MicroflowKey& key, std::uint64_t gen,
                openflow::SharedActions::Ptr actions,
                std::shared_ptr<openflow::RuleStats> stats) {
    const std::uint64_t h = key.hash();
    Entry* victim = &slots_[h & mask_];
    for (std::size_t i = 0; i < kWays; ++i) {
      Entry& e = slots_[(h + i) & mask_];
      if (e.generation != gen) {
        victim = &e;
        break;
      }
    }
    victim->generation = gen;
    victim->key = key;
    victim->actions = std::move(actions);
    victim->stats = std::move(stats);
    return victim;
  }

  void clear() {
    for (Entry& e : slots_) e = Entry{};
  }

  [[nodiscard]] std::uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  static constexpr std::size_t kDefaultEntries = 4096;

 private:
  static constexpr std::size_t kWays = 2;

  static std::size_t round_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<Entry> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace typhoon::switchd
