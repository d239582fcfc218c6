// RootTable — a flat open-addressing map keyed by tuple-tree root ids.
//
// Guaranteed processing keeps one entry per in-flight tuple tree: the
// spout's pending roots and the acker's XOR trees. Both insert and erase
// once per tuple, so a node-based map would allocate and free once per
// tuple. This table keeps its entries in one power-of-two array instead:
//   - keys are never zero (root ids are `rng | 1`), so key 0 marks an
//     empty slot and no separate occupancy bitmap is needed;
//   - collisions probe linearly, wrapping past the end of the array;
//   - erase shifts the rest of the cluster back into the hole (Knuth's
//     Algorithm R), so there are no tombstones and lookups never scan
//     deleted slots;
//   - the array doubles when it would pass half full and never shrinks,
//     so a steady-state workload stops allocating once warm.
// Not thread-safe: each table belongs to one worker thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace typhoon::common {

template <typename V>
class RootTable {
 public:
  explicit RootTable(std::size_t min_capacity = 64) {
    std::size_t cap = 8;
    while (cap < min_capacity) cap *= 2;
    reset(cap);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // The slot a key's probe sequence starts at (Fibonacci hashing: the top
  // bits of key * 2^64/phi).
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // The entry for `key`, or nullptr (always for key 0).
  [[nodiscard]] V* find(std::uint64_t key) {
    if (key == 0) return nullptr;
    const std::size_t i = probe(key);
    return slots_[i].key == key ? &slots_[i].value : nullptr;
  }

  // The entry for `key`, value-initialized if absent. `key` must be
  // non-zero. The reference is valid until the next insertion or erase.
  V& operator[](std::uint64_t key) {
    std::size_t i = probe(key);
    if (slots_[i].key == key) return slots_[i].value;
    if (2 * (size_ + 1) > slots_.size()) {
      grow();
      i = probe(key);
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  // Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (key == 0) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    const std::size_t mask = slots_.size() - 1;
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose home lies cyclically at or before the hole, so each
    // remaining key stays reachable from its home without a gap.
    for (std::size_t j = (hole + 1) & mask; slots_[j].key != 0;
         j = (j + 1) & mask) {
      const std::size_t h = home(slots_[j].key);
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // Calls f(key, value) for every entry, in slot order. `f` must not insert
  // or erase; collect keys and erase them after the walk instead.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.key != 0) f(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };

  // The slot holding `key`, or the empty slot ending its probe sequence.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(key);
    while (slots_[i].key != 0 && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void reset(std::size_t cap) {
    slots_.assign(cap, Slot{});
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c /= 2) --shift_;
    size_ = 0;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    reset(old.size() * 2);
    for (Slot& s : old) {
      if (s.key == 0) continue;
      slots_[probe(s.key)] = std::move(s);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace typhoon::common
