#include "stream/acker.h"

namespace typhoon::stream {

namespace {
std::int64_t AsI64(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::uint64_t AsU64(std::int64_t v) { return static_cast<std::uint64_t>(v); }
}  // namespace

Tuple MakeAckInit(std::uint64_t root, std::uint64_t xor_val,
                  WorkerId spout_worker) {
  return Tuple{static_cast<std::int64_t>(AckKind::kInit), AsI64(spout_worker),
               AsI64(root), AsI64(xor_val)};
}

Tuple MakeAck(std::uint64_t root, std::uint64_t xor_val) {
  return Tuple{static_cast<std::int64_t>(AckKind::kAck), AsI64(root),
               AsI64(xor_val)};
}

Tuple MakeAckComplete(std::uint64_t root) {
  return Tuple{static_cast<std::int64_t>(AckKind::kComplete), AsI64(root)};
}

void AckBuffer::fold() {
  if (entries_.size() < 2) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.root < b.root; });
  std::size_t out = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].root == entries_[out].root) {
      entries_[out].xor_val ^= entries_[i].xor_val;
    } else {
      entries_[++out] = entries_[i];
    }
  }
  entries_.resize(out + 1);
}

void AckerBolt::prepare(const WorkerContext&) {
  last_sweep_ = common::Now();
}

void AckerBolt::sweep(common::TimePoint now) {
  std::vector<std::uint64_t> expired;
  trees_.for_each([&](std::uint64_t root, const Tree& tree) {
    if (now - tree.first_seen > tree_timeout_) expired.push_back(root);
  });
  for (std::uint64_t root : expired) trees_.erase(root);
}

void AckerBolt::execute(const Tuple& input, const TupleMeta&, Emitter& out) {
  if (input.empty()) return;
  const auto kind = static_cast<AckKind>(input.i64(0));
  std::size_t first = 1;  // index of the first [root][xor] entry
  WorkerId init_spout = 0;
  switch (kind) {
    case AckKind::kInit:
      if (input.size() < 2) return;
      init_spout = AsU64(input.i64(1));
      first = 2;
      break;
    case AckKind::kAck:
      break;
    default:
      return;  // completions are not addressed to ackers
  }

  // One completion message per spout, listing every root this message
  // finished for it. Input messages are capped at kMaxAckEntries entries,
  // so completion messages are too.
  done_.clear();
  const common::TimePoint now = common::Now();
  for (std::size_t i = first; i + 1 < input.size(); i += 2) {
    const std::uint64_t root = AsU64(input.i64(i));
    if (root == 0) continue;  // never a real root id; 0 marks free slots
    Tree& tree = trees_[root];
    if (tree.first_seen == common::TimePoint{}) tree.first_seen = now;
    tree.value ^= AsU64(input.i64(i + 1));
    if (kind == AckKind::kInit) {
      tree.spout = init_spout;
      tree.init_seen = true;
    }
    if (tree.init_seen && tree.value == 0) {
      auto it = std::find_if(done_.begin(), done_.end(), [&](const auto& d) {
        return d.first == tree.spout;
      });
      if (it == done_.end()) {
        done_.emplace_back(tree.spout, MakeAckComplete(root));
      } else {
        it->second.push(AsI64(root));
      }
      trees_.erase(root);
    }
  }
  for (auto& [spout, msg] : done_) {
    out.emit_direct(spout, kAckStream, std::move(msg));
  }

  if (now - last_sweep_ > std::chrono::seconds(5)) {
    last_sweep_ = now;
    sweep(now);
  }
}

}  // namespace typhoon::stream
