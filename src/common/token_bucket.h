// TokenBucket — the one token bucket. It backs tuple-rate limits (the
// INPUT_RATE control tuple throttles a worker's input processing rate,
// Table 2, and ACTIVATE/DEACTIVATE (un)throttle the first workers of a
// topology; paced spouts) and byte-rate shaping (the per-port shaper rates
// the QoS controller app programs, and tunnel TX capacity caps).
//
// One refill/set_rate core, two admission rules:
//   - strict (`try_acquire`/`acquire`): admitted only when the bucket holds
//     the whole cost, so the balance never goes negative — an exact
//     per-item rate.
//   - debt-based (`try_spend`/`spend`): admitted whenever the bucket holds
//     *any* credit, with the full cost charged even if it overdraws the
//     bucket. Debt carries into the next window, so the long-run rate is
//     exact without the caller having to know frame sizes before polling —
//     the idiom a burst-polling datapath needs (admit a whole burst, charge
//     what it actually weighed, skip the port until the debt clears).
//
// set_rate re-seeds the remaining tokens proportionally to the rate change,
// so a rate cut binds within one refill interval instead of after the old
// token window drains.
#pragma once

#include <algorithm>
#include <mutex>

#include "common/clock.h"

namespace typhoon::common {

// Burst floors: the bucket never holds less than this much credit, so tiny
// rates still make forward progress — a few dozen tuples, or a few frames.
inline constexpr double kTupleBurstFloor = 64.0;
inline constexpr double kByteBurstFloor = 4096.0;

class TokenBucket {
 public:
  // rate == 0 means unlimited. Burst capacity is ~20 ms of credit, never
  // below `burst_floor`. The bucket starts empty: no start-up burst
  // distorting rates.
  TokenBucket(double rate, double burst_floor)
      : rate_(rate),
        floor_(burst_floor),
        tokens_(0.0),
        burst_(BurstFor(rate)),
        last_refill_(Now()) {}

  // Strict: take `n` tokens if the bucket holds them all.
  bool try_acquire(double n = 1.0) {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return true;
    refill_locked();
    if (tokens_ < n) return false;
    tokens_ -= n;
    return true;
  }

  // Strict, blocking: sleep until `n` tokens are available. Returns
  // immediately when unlimited. Not intended for many concurrent callers.
  void acquire(double n = 1.0) {
    while (!try_acquire(n)) {
      double wait_s;
      {
        std::lock_guard lk(mu_);
        if (rate_ <= 0.0) return;
        wait_s = (n - tokens_) / rate_;
      }
      wait_s = std::clamp(wait_s, 1e-5, 0.05);
      SleepFor(std::chrono::duration_cast<Duration>(
          std::chrono::duration<double>(wait_s)));
    }
  }

  // Debt-based: admitted whenever the refilled bucket is positive,
  // charging the full `cost` (the balance may go negative — debt).
  bool try_spend(double cost) {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return true;
    refill_locked();
    if (tokens_ <= 0.0) return false;
    tokens_ -= cost;
    return true;
  }

  // Unconditional charge (the caller already admitted the cost); a
  // negative cost refunds credit.
  void spend(double cost) {
    std::lock_guard lk(mu_);
    if (rate_ <= 0.0) return;
    refill_locked();
    tokens_ -= cost;
  }

  // True while the bucket holds credit (or is unlimited). Pure read — no
  // token mutation — so park predicates can poll it concurrently with the
  // admitting thread.
  [[nodiscard]] bool ready() const {
    std::lock_guard lk(mu_);
    return rate_ <= 0.0 || refilled_locked() > 0.0;
  }

  void set_rate(double rate) {
    std::lock_guard lk(mu_);
    refill_locked();
    const double old_rate = rate_;
    rate_ = rate;
    burst_ = BurstFor(rate);
    // Re-seed proportionally: credit (or debt) denominated in *time at the
    // old rate* keeps its time meaning at the new rate, so a cut applies
    // within one refill interval instead of after the old window drains.
    if (old_rate > 0.0 && rate > 0.0 && tokens_ != 0.0) {
      tokens_ *= rate / old_rate;
    } else if (old_rate <= 0.0) {
      tokens_ = 0.0;  // newly limited: start empty, like construction
    }
    tokens_ = std::min(tokens_, burst_);
  }

  [[nodiscard]] double rate() const {
    std::lock_guard lk(mu_);
    return rate_;
  }

  // Current credit, refilled to now without mutating the bucket (0 when
  // unlimited).
  [[nodiscard]] double tokens() const {
    std::lock_guard lk(mu_);
    return rate_ <= 0.0 ? 0.0 : refilled_locked();
  }

 private:
  double BurstFor(double rate) const {
    return std::max(rate / 50.0, floor_);  // ~20 ms of smoothing
  }

  [[nodiscard]] double refilled_locked() const {
    const double elapsed =
        std::chrono::duration<double>(Now() - last_refill_).count();
    return std::min(burst_, tokens_ + elapsed * rate_);
  }

  void refill_locked() {
    const TimePoint now = Now();
    const double elapsed =
        std::chrono::duration<double>(now - last_refill_).count();
    last_refill_ = now;
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  }

  mutable std::mutex mu_;
  double rate_;         // units per second; 0 = unlimited
  const double floor_;  // minimum burst capacity
  double tokens_;       // current credit; negative = debt carried forward
  double burst_;        // bucket capacity
  TimePoint last_refill_;
};

}  // namespace typhoon::common
