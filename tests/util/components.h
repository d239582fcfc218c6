// Shared spouts/bolts used by tests and benchmark harnesses: the word-count
// topology of Fig 2, max-rate sequence sources, counting sinks, and fault-
// injectable variants for the Sec 6.2 experiments.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/token_bucket.h"
#include "stream/api.h"

namespace typhoon::testutil {

using stream::Bolt;
using stream::Emitter;
using stream::Spout;
using stream::Tuple;
using stream::TupleMeta;
using stream::WorkerContext;

// Shared mutable knobs a harness flips at runtime (fault flags, rates).
struct SharedFlags {
  std::atomic<bool> crash_split{false};       // split workers throw
  std::atomic<int> crash_task_index{-1};      // -1 = any task
  std::atomic<bool> oom_on_overload{false};   // split crashes at high input
  std::atomic<std::int64_t> oom_threshold{200000};
  std::atomic<std::int64_t> spout_limit{0};   // 0 = unlimited tuples
  std::atomic<double> spout_rate{0.0};        // tuples/sec, 0 = max speed
};

// Emits "the quick brown fox ..." style sentences at max speed (optionally
// bounded via SharedFlags, optionally rate limited).
class SentenceSpout : public Spout {
 public:
  explicit SentenceSpout(std::shared_ptr<SharedFlags> flags = nullptr,
                         int batch = 16, double rate_per_sec = 0.0)
      : flags_(std::move(flags)),
        batch_(batch),
        rate_(rate_per_sec, common::kTupleBurstFloor) {}

  bool next(Emitter& out) override {
    static const char* kSentences[] = {
        "the quick brown fox jumps over the lazy dog",
        "a stream processing framework routes data tuples",
        "typhoon integrates sdn into stream processing",
        "the lazy dog sleeps while the fox runs",
    };
    if (flags_ && flags_->spout_limit.load() > 0 &&
        emitted_ >= flags_->spout_limit.load()) {
      return false;
    }
    if (!rate_.try_acquire(batch_)) return false;
    for (int i = 0; i < batch_; ++i) {
      out.emit(Tuple{std::string(kSentences[seq_ % 4]),
                     static_cast<std::int64_t>(seq_)});
      ++seq_;
      ++emitted_;
    }
    return true;
  }

 private:
  std::shared_ptr<SharedFlags> flags_;
  int batch_;
  common::TokenBucket rate_;
  std::uint64_t seq_ = 0;
  std::int64_t emitted_ = 0;
};

// Monotonic sequence source for loss/ordering checks. A nonzero
// `rate_per_sec` throttles emission (token bucket) so a downstream stage of
// known capacity is not overrun — overruns drop at switch RX rings, which
// is faithful (paper Sec 8) but not what loss-freedom tests want to measure.
class SequenceSpout : public Spout {
 public:
  explicit SequenceSpout(std::int64_t limit = 0, int batch = 16,
                         int payload_len = 0, double rate_per_sec = 0.0)
      : limit_(limit),
        batch_(batch),
        payload_(payload_len, 'x'),
        rate_(rate_per_sec, common::kTupleBurstFloor) {}

  bool next(Emitter& out) override {
    if (limit_ > 0 && seq_ >= limit_) return false;
    if (!rate_.try_acquire(batch_)) return false;
    for (int i = 0; i < batch_ && (limit_ == 0 || seq_ < limit_); ++i) {
      if (payload_.empty()) {
        out.emit(Tuple{seq_});
      } else {
        out.emit(Tuple{seq_, payload_});
      }
      ++seq_;
    }
    return true;
  }

  void ack(std::uint64_t, std::int64_t latency_us) override {
    acked_.fetch_add(1);
    latency_sum_us_.fetch_add(latency_us);
  }
  void fail(std::uint64_t) override { failed_.fetch_add(1); }

  [[nodiscard]] std::int64_t emitted() const { return seq_; }
  [[nodiscard]] std::int64_t acked() const { return acked_.load(); }
  [[nodiscard]] std::int64_t failed() const { return failed_.load(); }

 private:
  std::int64_t limit_;
  int batch_;
  std::string payload_;
  common::TokenBucket rate_;
  std::int64_t seq_ = 0;
  std::atomic<std::int64_t> acked_{0};
  std::atomic<std::int64_t> failed_{0};
  std::atomic<std::int64_t> latency_sum_us_{0};
};

// Reliable source with replay: keeps every in-flight tuple keyed by its
// root id; fail() re-queues it (the "lost tuples are detected and
// recovered" path of Sec 3.5). Delivery becomes at-least-once.
class ReplayableSpout : public Spout {
 public:
  explicit ReplayableSpout(std::int64_t limit, int batch = 8,
                           double rate = 0.0)
      : limit_(limit),
        batch_(batch),
        rate_(rate, common::kTupleBurstFloor) {}

  bool next(Emitter& out) override {
    if (!rate_.try_acquire(batch_)) return false;
    int emitted_now = 0;
    // Replays first.
    while (!replay_.empty() && emitted_now < batch_) {
      const std::int64_t seq = replay_.front();
      replay_.pop_front();
      current_seq_ = seq;
      out.emit(Tuple{seq});
      ++emitted_now;
    }
    while (next_seq_ < limit_ && emitted_now < batch_) {
      current_seq_ = next_seq_;
      out.emit(Tuple{next_seq_++});
      ++emitted_now;
    }
    return emitted_now > 0;
  }

  // The framework assigns root ids and reports them synchronously after
  // each emit; we map them back to sequence numbers for replay.
  void anchored(std::uint64_t root) override {
    in_flight_[root] = current_seq_;
  }
  void ack(std::uint64_t root, std::int64_t) override {
    in_flight_.erase(root);
    acked_.fetch_add(1);
  }
  void fail(std::uint64_t root) override {
    auto it = in_flight_.find(root);
    if (it == in_flight_.end()) return;
    replay_.push_back(it->second);
    in_flight_.erase(it);
    replays_.fetch_add(1);
  }

  [[nodiscard]] std::int64_t acked() const { return acked_.load(); }
  [[nodiscard]] std::int64_t replays() const { return replays_.load(); }

 private:
  std::int64_t limit_;
  int batch_;
  common::TokenBucket rate_;
  std::int64_t next_seq_ = 0;
  std::int64_t current_seq_ = 0;
  std::deque<std::int64_t> replay_;
  std::unordered_map<std::uint64_t, std::int64_t> in_flight_;
  std::atomic<std::int64_t> acked_{0};
  std::atomic<std::int64_t> replays_{0};
};

// Fixed sentence table shared by the replayable word-count components so
// tests can compute exact expected counts.
inline const std::vector<std::string>& ChaosSentences() {
  static const std::vector<std::string> kSentences = {
      "the quick brown fox jumps over the lazy dog",
      "a stream processing framework routes data tuples",
      "typhoon integrates sdn into stream processing",
      "the lazy dog sleeps while the fox runs",
  };
  return kSentences;
}

// Reliable sentence source for chaos tests: emits (sentence, seq) with
// replay on failure (at-least-once), and publishes emission progress to a
// shared counter so a FaultPlan's at_tuples triggers can key off it.
class ReplayableSentenceSpout : public Spout {
 public:
  ReplayableSentenceSpout(std::int64_t limit,
                          std::shared_ptr<std::atomic<std::int64_t>> progress,
                          int batch = 8, double rate = 0.0)
      : limit_(limit), progress_(std::move(progress)), batch_(batch),
        rate_(rate, common::kTupleBurstFloor) {}

  bool next(Emitter& out) override {
    if (!rate_.try_acquire(batch_)) return false;
    const auto& sentences = ChaosSentences();
    int emitted_now = 0;
    while (!replay_.empty() && emitted_now < batch_) {
      const std::int64_t seq = replay_.front();
      replay_.pop_front();
      current_seq_ = seq;
      out.emit(Tuple{sentences[seq % sentences.size()], seq});
      ++emitted_now;
    }
    while (next_seq_ < limit_ && emitted_now < batch_) {
      current_seq_ = next_seq_;
      out.emit(Tuple{sentences[next_seq_ % sentences.size()], next_seq_});
      ++next_seq_;
      ++emitted_now;
      if (progress_) progress_->store(next_seq_);
    }
    return emitted_now > 0;
  }

  void anchored(std::uint64_t root) override {
    in_flight_[root] = current_seq_;
  }
  void ack(std::uint64_t root, std::int64_t) override {
    in_flight_.erase(root);
    acked_.fetch_add(1);
  }
  void fail(std::uint64_t root) override {
    auto it = in_flight_.find(root);
    if (it == in_flight_.end()) return;
    replay_.push_back(it->second);
    in_flight_.erase(it);
    replays_.fetch_add(1);
  }

  [[nodiscard]] std::int64_t acked() const { return acked_.load(); }
  [[nodiscard]] std::int64_t replays() const { return replays_.load(); }

 private:
  std::int64_t limit_;
  std::shared_ptr<std::atomic<std::int64_t>> progress_;
  int batch_;
  common::TokenBucket rate_;
  std::int64_t next_seq_ = 0;
  std::int64_t current_seq_ = 0;
  std::deque<std::int64_t> replay_;
  std::unordered_map<std::uint64_t, std::int64_t> in_flight_;
  std::atomic<std::int64_t> acked_{0};
  std::atomic<std::int64_t> replays_{0};
};

// Splits (sentence, seq) into (word, occurrence_id) where occurrence_id =
// seq * 32 + word_index — globally unique per word occurrence, so a
// downstream dedup stage can count exactly once under at-least-once replay.
class DedupSplitBolt : public Bolt {
 public:
  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    const std::string sentence(input.str(0));
    const std::int64_t seq = input.i64(1);
    std::istringstream is(sentence);
    std::string word;
    std::int64_t index = 0;
    while (is >> word) {
      out.emit(Tuple{word, seq * 32 + index});
      ++index;
    }
  }
};

// Shared exactly-once word-count state (the paper keeps reconfigurable
// state in external storage, Sec 8; this is its in-process stand-in).
struct DedupCountState {
  std::mutex mu;
  std::map<std::string, std::int64_t> counts;
  std::set<std::int64_t> seen;
  std::atomic<std::int64_t> unique{0};
};

class DedupCountBolt : public Bolt {
 public:
  explicit DedupCountBolt(std::shared_ptr<DedupCountState> state)
      : state_(std::move(state)) {}

  void execute(const Tuple& input, const TupleMeta&, Emitter&) override {
    const std::int64_t occ = input.i64(1);
    std::lock_guard lk(state_->mu);
    if (!state_->seen.insert(occ).second) return;  // replayed occurrence
    ++state_->counts[std::string(input.str(0))];
    state_->unique.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<DedupCountState> state_;
};

// Splits sentences into words; fault-injectable (NullPointerException /
// OutOfMemoryError analogs from Sec 6.2).
class SplitBolt : public Bolt {
 public:
  explicit SplitBolt(std::shared_ptr<SharedFlags> flags = nullptr)
      : flags_(std::move(flags)) {}

  void prepare(const WorkerContext& ctx) override { task_ = ctx.task_index; }

  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    if (flags_ && flags_->crash_split.load()) {
      const int want = flags_->crash_task_index.load();
      if (want < 0 || want == task_) {
        throw std::runtime_error("NullPointerException in split");
      }
    }
    ++processed_;
    if (flags_ && flags_->oom_on_overload.load() &&
        processed_ > flags_->oom_threshold.load()) {
      processed_ = 0;
      throw std::runtime_error("OutOfMemoryError in split");
    }
    const std::string sentence(input.str(0));
    std::istringstream is(sentence);
    std::string word;
    while (is >> word) {
      out.emit(Tuple{word, std::int64_t{1}});
    }
  }

 private:
  std::shared_ptr<SharedFlags> flags_;
  int task_ = 0;
  std::int64_t processed_ = 0;
};

// Stateful word counter (Table 4 / Listing 2): in-memory cache keyed by
// word, flushed downstream on SIGNAL.
class CountBolt : public Bolt {
 public:
  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    (void)out;
    ++counts_[std::string(input.str(0))];
  }

  void on_signal(const std::string&, Emitter& out) override {
    for (const auto& [word, count] : counts_) {
      out.emit(Tuple{word, count});
    }
    counts_.clear();
  }

  [[nodiscard]] std::int64_t total() const {
    std::int64_t t = 0;
    for (const auto& [w, c] : counts_) t += c;
    return t;
  }

 private:
  std::map<std::string, std::int64_t> counts_;
};

// Terminal sink counting received tuples; with sequence checking it records
// duplicates and gaps (shared across restarts via SinkState).
struct SinkState {
  std::atomic<std::int64_t> received{0};
  std::mutex mu;
  std::set<std::int64_t> seen;
  std::atomic<std::int64_t> duplicates{0};
  std::atomic<std::int64_t> max_seq{-1};
};

class CollectingSink : public Bolt {
 public:
  explicit CollectingSink(std::shared_ptr<SinkState> state,
                          bool track_sequences = false)
      : state_(std::move(state)), track_(track_sequences) {}

  void execute(const Tuple& input, const TupleMeta&, Emitter&) override {
    state_->received.fetch_add(1, std::memory_order_relaxed);
    if (track_ && input.size() >= 1 && input.at(0).is_i64()) {
      const std::int64_t seq = input.i64(0);
      std::lock_guard lk(state_->mu);
      if (!state_->seen.insert(seq).second) state_->duplicates.fetch_add(1);
      if (seq > state_->max_seq.load()) state_->max_seq.store(seq);
    }
  }

 private:
  std::shared_ptr<SinkState> state_;
  bool track_;
};

// Pass-through bolt (adds a hop).
class ForwardBolt : public Bolt {
 public:
  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    out.emit(Tuple{input});
  }
};

}  // namespace typhoon::testutil
