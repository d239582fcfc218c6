// The one slow-vs-dead rule shared by the heartbeat monitors: the streaming
// manager's failure detector (reschedules a dead worker) and the
// controller's FaultDetector app (reroutes around it). Each monitor round
// observes every worker's heartbeat age. An age at or past `stale_after`
// is one more consecutive miss; a fresh age clears the count. The count
// reports kSlow once on reaching `slow_at` and kDead once on reaching
// `dead_at`, then starts over.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/ids.h"
#include "stream/physical.h"

namespace typhoon::stream {

// Drain rule: depth 0 from a record younger than kDrainProbeFreshness, so
// a hung worker's last zero goes stale instead of passing for an empty
// queue, and a manager seed (depth unknown) never counts as drained.
inline constexpr std::chrono::microseconds kDrainProbeFreshness{300'000};
inline bool Drained(const Heartbeat& hb, std::int64_t now_us) {
  return hb.queue_depth == 0 &&
         now_us - hb.t_us < kDrainProbeFreshness.count();
}

class MissCounter {
 public:
  enum class Verdict { kFresh, kMissed, kSlow, kDead };
  using Key = std::pair<std::string, WorkerId>;  // (topology, worker)

  // slow_at 0: no slow report, every miss short of dead_at is kMissed.
  MissCounter(std::chrono::microseconds stale_after, int slow_at, int dead_at)
      : stale_after_us_(stale_after.count()),
        slow_at_(slow_at),
        dead_at_(dead_at) {}

  Verdict observe(const Key& key, std::int64_t age_us) {
    if (age_us < stale_after_us_) {
      misses_.erase(key);
      return Verdict::kFresh;
    }
    const int misses = ++misses_[key];
    if (misses >= dead_at_) {
      misses_.erase(key);
      return Verdict::kDead;
    }
    return misses == slow_at_ ? Verdict::kSlow : Verdict::kMissed;
  }

  [[nodiscard]] int misses(const Key& key) const {
    auto it = misses_.find(key);
    return it == misses_.end() ? 0 : it->second;
  }

 private:
  std::int64_t stale_after_us_;
  int slow_at_;
  int dead_at_;
  std::map<Key, int> misses_;
};

}  // namespace typhoon::stream
