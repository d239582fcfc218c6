// Deterministic netem-style impairment stage (tc-netem analog for the
// simulated wire). An Impairment draws a fixed number of PRNG values per
// admitted frame from a per-instance seeded xorshift generator, so the full
// drop/duplicate/reorder/corrupt schedule is a pure function of
// (seed, frame index): two runs that offer the same frame sequence observe
// bit-identical fault schedules. A running fingerprint over the decision
// stream lets tests assert replay identity directly.
//
// The typed Shaper<T> wrapper applies decisions to a concrete frame type
// and owns the reorder holdback queue. Decision counters are atomics so
// harness threads can read them while the owning data-path thread shapes
// traffic; the shaping calls themselves are not thread-safe — each
// attachment point has one owner thread (tunnel TX, the switch's
// forwarding thread for port ingress).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace typhoon::faultinject {

struct ImpairmentConfig {
  double drop = 0.0;       // P(frame silently dropped)
  double duplicate = 0.0;  // P(frame delivered twice)
  double reorder = 0.0;    // P(frame held back, released out of order)
  double corrupt = 0.0;    // P(one frame byte bit-flipped)
  // A held-back frame is released after this many later frames pass it.
  std::uint32_t reorder_span = 3;
  // Extra delivery latency expressed in frame counts (every frame is held
  // behind this many successors), modeling link delay without wall time so
  // replays stay deterministic.
  std::uint32_t delay_frames = 0;
  std::uint64_t seed = 0x747970686f6f6eull;  // "typhoon"
};

class Impairment {
 public:
  // Per-frame verdict. `hold` and `release_after` implement reorder/delay;
  // the Shaper turns them into holdback-queue entries.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    bool hold = false;
    std::uint32_t release_after = 0;
    std::uint32_t corrupt_offset = 0;  // byte index (mod frame size)
    std::uint8_t corrupt_mask = 0;     // xor mask, never zero
  };

  explicit Impairment(ImpairmentConfig cfg)
      : cfg_(cfg), rng_(cfg.seed) {}

  [[nodiscard]] const ImpairmentConfig& config() const { return cfg_; }

  // Draw the decision for the next frame. Always consumes the same number
  // of PRNG values regardless of configuration, so the schedule for frame i
  // depends only on (seed, i) — raising one probability never shifts the
  // other impairments' schedules.
  Decision next() {
    const double u_drop = rng_.uniform();
    const double u_dup = rng_.uniform();
    const double u_reorder = rng_.uniform();
    const double u_corrupt = rng_.uniform();
    const std::uint64_t corrupt_bits = rng_.next();

    Decision d;
    d.drop = u_drop < cfg_.drop;
    d.duplicate = !d.drop && u_dup < cfg_.duplicate;
    d.corrupt = !d.drop && u_corrupt < cfg_.corrupt;
    d.corrupt_offset = static_cast<std::uint32_t>(corrupt_bits >> 8);
    d.corrupt_mask = static_cast<std::uint8_t>(corrupt_bits | 1);  // != 0
    if (!d.drop) {
      if (u_reorder < cfg_.reorder) {
        d.hold = true;
        d.release_after = cfg_.reorder_span + cfg_.delay_frames;
      } else if (cfg_.delay_frames != 0) {
        d.hold = true;
        d.release_after = cfg_.delay_frames;
      }
    }

    seen_.fetch_add(1, std::memory_order_relaxed);
    if (d.drop) drops_.fetch_add(1, std::memory_order_relaxed);
    if (d.duplicate) duplicates_.fetch_add(1, std::memory_order_relaxed);
    if (d.corrupt) corruptions_.fetch_add(1, std::memory_order_relaxed);
    if (d.hold && d.release_after > cfg_.delay_frames) {
      reorders_.fetch_add(1, std::memory_order_relaxed);
    }

    // Fingerprint folds every decision bit, so any schedule divergence —
    // even a changed corrupt offset — changes the final value.
    std::uint64_t enc = (d.drop ? 1u : 0u) | (d.duplicate ? 2u : 0u) |
                        (d.corrupt ? 4u : 0u) | (d.hold ? 8u : 0u);
    enc |= static_cast<std::uint64_t>(d.release_after) << 8;
    enc ^= static_cast<std::uint64_t>(d.corrupt_offset) << 24;
    enc ^= static_cast<std::uint64_t>(d.corrupt_mask) << 56;
    std::uint64_t fp = fingerprint_.load(std::memory_order_relaxed);
    fingerprint_.store(common::HashCombine(fp, enc),
                       std::memory_order_relaxed);
    return d;
  }

  [[nodiscard]] std::uint64_t seen() const { return seen_.load(); }
  [[nodiscard]] std::uint64_t drops() const { return drops_.load(); }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_.load(); }
  [[nodiscard]] std::uint64_t reorders() const { return reorders_.load(); }
  [[nodiscard]] std::uint64_t corruptions() const {
    return corruptions_.load();
  }
  // Hash of the full decision stream so far (replay-identity probe).
  [[nodiscard]] std::uint64_t fingerprint() const {
    return fingerprint_.load();
  }

 private:
  ImpairmentConfig cfg_;
  common::Rng rng_;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> reorders_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> fingerprint_{common::kFnvOffset};
};

// Applies an Impairment's decisions to frames of type T. `Mutate` is a
// callable `void(T&, std::uint32_t offset, std::uint8_t mask)` implementing
// the corrupt action for the concrete frame type. Driven by a single
// data-path thread, or by several under an external lock.
template <typename T>
class Shaper {
 public:
  explicit Shaper(ImpairmentConfig cfg) : impairment_(cfg) {}

  [[nodiscard]] Impairment& impairment() { return impairment_; }

  // Admit one frame; frames ready for delivery (this one, duplicates, and
  // any holdback entries whose release point passed) are appended to `out`
  // in delivery order.
  template <typename Mutate>
  void admit(T frame, std::vector<T>& out, Mutate&& mutate) {
    const Impairment::Decision d = impairment_.next();
    ++admitted_;
    if (!d.drop) {
      if (d.corrupt) {
        mutate(frame, d.corrupt_offset, d.corrupt_mask);
      }
      if (d.hold) {
        held_.push_back({admitted_ + d.release_after, std::move(frame),
                         d.duplicate});
      } else {
        if (d.duplicate) out.push_back(frame);
        out.push_back(std::move(frame));
      }
    }
    release(out);
  }

  // Release every held frame regardless of its release point (link drain on
  // close/teardown).
  void flush(std::vector<T>& out) {
    for (Held& h : held_) {
      if (h.duplicate) out.push_back(h.frame);
      out.push_back(std::move(h.frame));
    }
    held_.clear();
  }

  [[nodiscard]] std::size_t held() const { return held_.size(); }

 private:
  struct Held {
    std::uint64_t release_at;  // admitted_ value at which the frame departs
    T frame;
    bool duplicate;
  };

  void release(std::vector<T>& out) {
    while (!held_.empty() && held_.front().release_at <= admitted_) {
      Held& h = held_.front();
      if (h.duplicate) out.push_back(h.frame);
      out.push_back(std::move(h.frame));
      held_.pop_front();
    }
  }

  Impairment impairment_;
  std::uint64_t admitted_ = 0;
  std::deque<Held> held_;
};

}  // namespace typhoon::faultinject
