// Guaranteed processing (Sec 6.1 "Tuple forwarding with reliability
// guarantee"): Storm-style acker workers track XOR-folded tuple trees and
// notify source workers on completion; unfinished trees time out and fail.
//
// Ack algebra (adapted for broadcast payload identity): when a worker emits
// a tuple copy with edge id e to destination d, the pending contribution is
// mix(e, d). The receiving worker contributes mix(e, self). Because the
// sender knows its destination set even for an all-grouping broadcast, a
// single destination-independent payload still acks correctly at every
// replica — N copies contribute N distinct mix values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/root_table.h"
#include "stream/api.h"

namespace typhoon::stream {

// Mix an edge id with the receiving worker id (see header comment).
inline std::uint64_t AckContribution(std::uint64_t edge_id, WorkerId dst) {
  return common::HashCombine(edge_id, dst);
}

// Ack messages on kAckStream are plain data tuples of i64 values. Each
// carries n >= 1 entries of one kind behind a short prefix:
//   [kInit][spout_worker] ([root][xor])...  spout registered n tuple trees
//   [kAck] ([root][xor])...                 bolt hops, XOR-folded per root
//   [kComplete] [root]...                   acker -> spout: trees finished
// The Make* builders below produce the one-entry case.
enum class AckKind : std::int64_t {
  kInit = 0,      // spout registered new tuple trees
  kAck = 1,       // bolt processed hops
  kComplete = 2,  // acker -> spout: trees fully processed
};

// Entries per ack message. The largest message (kInit, 512 entries) is
// ~9.3 KB on the wire, so every ack message fits one packet (16 KB
// max_payload) and is never segmented or reassembled.
inline constexpr std::size_t kMaxAckEntries = 512;

Tuple MakeAckInit(std::uint64_t root, std::uint64_t xor_val,
                  WorkerId spout_worker);
Tuple MakeAck(std::uint64_t root, std::uint64_t xor_val);
Tuple MakeAckComplete(std::uint64_t root);

// The (root, xor) entries one worker produces between two flush points.
// flush() folds the entries of each root into one (exact: XOR is
// associative and commutative) and hands out n-entry messages.
class AckBuffer {
 public:
  void add(std::uint64_t root, std::uint64_t xor_val) {
    entries_.push_back({root, xor_val});
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  // Hands the folded entries to send(const Tuple&) as `kind` (kInit or
  // kAck) messages of at most kMaxAckEntries entries; `spout` is the sender
  // a kInit names. The message tuple is reused across calls (its capacity
  // is kept), so `send` copies it if it needs it later. Leaves the buffer
  // empty.
  template <typename Send>
  void flush(AckKind kind, WorkerId spout, Send&& send) {
    fold();
    for (std::size_t i = 0; i < entries_.size(); i += kMaxAckEntries) {
      const std::size_t end = std::min(entries_.size(), i + kMaxAckEntries);
      msg_.clear();
      msg_.reserve(2 + 2 * (end - i));
      msg_.push(static_cast<std::int64_t>(kind));
      if (kind == AckKind::kInit) msg_.push(static_cast<std::int64_t>(spout));
      for (std::size_t j = i; j < end; ++j) {
        msg_.push(static_cast<std::int64_t>(entries_[j].root));
        msg_.push(static_cast<std::int64_t>(entries_[j].xor_val));
      }
      send(std::as_const(msg_));
    }
    entries_.clear();
  }

 private:
  struct Entry {
    std::uint64_t root;
    std::uint64_t xor_val;
  };
  void fold();

  std::vector<Entry> entries_;
  Tuple msg_;
};

// The acker node's computation logic, deployed like any bolt under the
// reserved node name kAckerNodeName.
class AckerBolt : public Bolt {
 public:
  void prepare(const WorkerContext& ctx) override;
  void execute(const Tuple& input, const TupleMeta& meta,
               Emitter& out) override;

  [[nodiscard]] std::size_t pending() const { return trees_.size(); }

 private:
  struct Tree {
    std::uint64_t value = 0;
    WorkerId spout = 0;
    bool init_seen = false;
    common::TimePoint first_seen;
  };

  void sweep(common::TimePoint now);

  common::RootTable<Tree> trees_;
  // Completion messages built by one execute(), one per spout; kept across
  // calls so the buffer's capacity is reused.
  std::vector<std::pair<WorkerId, Tuple>> done_;
  common::TimePoint last_sweep_;
  std::chrono::milliseconds tree_timeout_{30000};
};

inline constexpr const char* kAckerNodeName = "__acker";

}  // namespace typhoon::stream
