// AckerBolt algebra: XOR-folded tuple trees with the mix(edge, dst)
// contribution scheme that keeps broadcast payloads destination-independent
// (see acker.h header comment).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "stream/acker.h"

namespace typhoon::stream {
namespace {

// Captures direct emissions (acker completions go to spout workers).
class CaptureEmitter : public Emitter {
 public:
  void emit(Tuple) override {}
  void emit(StreamId, Tuple) override {}
  void emit_direct(WorkerId dst, StreamId stream, Tuple t) override {
    completions.push_back({dst, stream, std::move(t)});
  }
  struct Item {
    WorkerId dst;
    StreamId stream;
    Tuple tuple;
  };
  std::vector<Item> completions;
};

TupleMeta Meta() { return {}; }

TEST(Acker, SingleHopTreeCompletes) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});

  // Spout 100 emits tuple (root=1, edge=7) to worker 200.
  const std::uint64_t root = 1;
  const std::uint64_t c = AckContribution(7, 200);
  acker.execute(MakeAckInit(root, c, 100), Meta(), out);
  EXPECT_TRUE(out.completions.empty());
  EXPECT_EQ(acker.pending(), 1u);

  // Worker 200 consumes it and emits nothing.
  acker.execute(MakeAck(root, AckContribution(7, 200)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 100u);
  EXPECT_EQ(out.completions[0].stream, kAckStream);
  EXPECT_EQ(static_cast<AckKind>(out.completions[0].tuple.i64(0)),
            AckKind::kComplete);
  EXPECT_EQ(out.completions[0].tuple.i64(1), 1);
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(Acker, MultiHopTreeNeedsEveryAck) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 42;

  // Spout -> A (edge e1); A -> B (edge e2); B emits nothing.
  const std::uint64_t e1 = 0x1111;
  const std::uint64_t e2 = 0x2222;
  const WorkerId a = 201;
  const WorkerId b = 202;

  acker.execute(MakeAckInit(root, AckContribution(e1, a), 100), Meta(), out);
  // A acks consumption of e1 and registers child e2 -> b.
  acker.execute(
      MakeAck(root, AckContribution(e1, a) ^ AckContribution(e2, b)), Meta(),
      out);
  EXPECT_TRUE(out.completions.empty());
  // B acks consumption of e2.
  acker.execute(MakeAck(root, AckContribution(e2, b)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, BroadcastFanoutAcksPerReplica) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 7;
  const std::uint64_t e = 0xabcd;  // one edge id, identical payloads
  const std::vector<WorkerId> dests{301, 302, 303, 304};

  std::uint64_t init = 0;
  for (WorkerId d : dests) init ^= AckContribution(e, d);
  acker.execute(MakeAckInit(root, init, 100), Meta(), out);

  for (std::size_t i = 0; i < dests.size(); ++i) {
    EXPECT_TRUE(out.completions.empty()) << "completed after " << i;
    acker.execute(MakeAck(root, AckContribution(e, dests[i])), Meta(), out);
  }
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, OutOfOrderAckBeforeInitStillCompletes) {
  AckerBolt acker;
  CaptureEmitter out;
  const std::uint64_t root = 9;
  const std::uint64_t c = AckContribution(5, 200);

  acker.execute(MakeAck(root, c), Meta(), out);  // ack arrives first
  EXPECT_TRUE(out.completions.empty());
  acker.execute(MakeAckInit(root, c, 100), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
}

TEST(Acker, IndependentTreesDoNotInterfere) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.execute(MakeAckInit(1, AckContribution(10, 200), 100), Meta(), out);
  acker.execute(MakeAckInit(2, AckContribution(20, 200), 101), Meta(), out);
  EXPECT_EQ(acker.pending(), 2u);

  acker.execute(MakeAck(2, AckContribution(20, 200)), Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(out.completions[0].dst, 101u);
  EXPECT_EQ(acker.pending(), 1u);
}

TEST(Acker, IgnoresMalformedTuples) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.execute(Tuple{}, Meta(), out);
  acker.execute(Tuple{std::int64_t{0}}, Meta(), out);  // too short for INIT
  acker.execute(Tuple{std::int64_t{99}, std::int64_t{1}}, Meta(), out);
  EXPECT_TRUE(out.completions.empty());
}

TEST(Acker, ContributionMixDistinguishesReplicas) {
  // The broadcast fix: same edge, different destination => different
  // contribution, so N identical payloads don't XOR-cancel.
  EXPECT_NE(AckContribution(5, 1), AckContribution(5, 2));
  EXPECT_NE(AckContribution(5, 1), AckContribution(6, 1));
  EXPECT_EQ(AckContribution(5, 1), AckContribution(5, 1));
  EXPECT_EQ(AckContribution(5, 1) ^ AckContribution(5, 1), 0u);
}

// ---- n-entry ack messages ----

std::int64_t I(std::uint64_t v) { return static_cast<std::int64_t>(v); }
std::int64_t I(AckKind k) { return static_cast<std::int64_t>(k); }

// Roots listed by one completion message, in message order.
std::vector<std::uint64_t> CompletedRoots(const Tuple& msg) {
  std::vector<std::uint64_t> roots;
  for (std::size_t i = 1; i < msg.size(); ++i) {
    roots.push_back(static_cast<std::uint64_t>(msg.i64(i)));
  }
  return roots;
}

TEST(Acker, OneMessageCompletesTreesOfTwoSpouts) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  const std::uint64_t c1 = AckContribution(11, 200);
  const std::uint64_t c2 = AckContribution(12, 200);
  const std::uint64_t c3 = AckContribution(13, 201);

  // Spout 100 registers roots 1 and 2 in one message; spout 101 root 3.
  acker.execute(Tuple{I(AckKind::kInit), 100, 1, I(c1), 2, I(c2)}, Meta(),
                out);
  acker.execute(Tuple{I(AckKind::kInit), 101, 3, I(c3)}, Meta(), out);
  EXPECT_EQ(acker.pending(), 3u);

  // One batched ack message finishes all three trees.
  acker.execute(Tuple{I(AckKind::kAck), 1, I(c1), 3, I(c3), 2, I(c2)}, Meta(),
                out);
  ASSERT_EQ(out.completions.size(), 2u);
  std::map<WorkerId, std::vector<std::uint64_t>> by_spout;
  for (const auto& c : out.completions) {
    EXPECT_EQ(c.stream, kAckStream);
    EXPECT_EQ(static_cast<AckKind>(c.tuple.i64(0)), AckKind::kComplete);
    by_spout[c.dst] = CompletedRoots(c.tuple);
  }
  EXPECT_EQ(by_spout[100], (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(by_spout[101], (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(acker.pending(), 0u);
}

TEST(Acker, BatchedAcksWaitForInitInLaterBatch) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  const std::uint64_t c5 = AckContribution(50, 200);
  const std::uint64_t c6 = AckContribution(60, 200);
  acker.execute(MakeAckInit(6, c6, 100), Meta(), out);

  // Root 5's ack arrives in the same batch as root 6's, before its init.
  acker.execute(Tuple{I(AckKind::kAck), 5, I(c5), 6, I(c6)}, Meta(), out);
  ASSERT_EQ(out.completions.size(), 1u);
  EXPECT_EQ(CompletedRoots(out.completions[0].tuple),
            (std::vector<std::uint64_t>{6}));
  EXPECT_EQ(acker.pending(), 1u);

  // A later init batch registers root 5 together with a fresh root 7.
  acker.execute(Tuple{I(AckKind::kInit), 100, 7, I(c6), 5, I(c5)}, Meta(),
                out);
  ASSERT_EQ(out.completions.size(), 2u);
  EXPECT_EQ(out.completions[1].dst, 100u);
  EXPECT_EQ(CompletedRoots(out.completions[1].tuple),
            (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(acker.pending(), 1u);  // root 7 still open
}

TEST(AckBuffer, FoldsEntriesPerRootAndCapsMessages) {
  AckBuffer buf;
  buf.add(9, 0x0f);
  buf.add(4, 0x30);
  buf.add(9, 0xf0);
  std::vector<Tuple> msgs;
  buf.flush(AckKind::kAck, 0, [&](Tuple t) { msgs.push_back(std::move(t)); });
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], (Tuple{I(AckKind::kAck), 4, 0x30, 9, 0xff}));
  EXPECT_TRUE(buf.empty());

  msgs.clear();
  for (std::uint64_t r = 1; r <= kMaxAckEntries + 1; ++r) buf.add(r, r);
  buf.flush(AckKind::kInit, 100,
            [&](Tuple t) { msgs.push_back(std::move(t)); });
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].size(), 2 + 2 * kMaxAckEntries);
  EXPECT_EQ(msgs[1], (Tuple{I(AckKind::kInit), 100, I(kMaxAckEntries + 1),
                            I(kMaxAckEntries + 1)}));
}

// ---- property: batched delivery behaves like per-record delivery ----

// One acker input record before batching.
struct AckRecord {
  WorkerId producer;  // the spout for an init, the bolt worker for an ack
  bool init;
  std::uint64_t root;
  std::uint64_t xor_val;
};

constexpr WorkerId kFirstBolt = 200;
constexpr int kBolts = 8;

template <typename T>
void Shuffle(common::Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// A tuple copy in flight: its edge id, receiving worker and tree depth.
struct Hop {
  std::uint64_t edge;
  WorkerId dst;
  int depth;
};

// One emission of a tuple to 1-8 distinct bolt workers under one edge id
// (as an all-grouping emit does). Queues the copies and returns their
// XOR-folded pending contribution.
std::uint64_t EmitCopies(common::Rng& rng, int depth, std::vector<Hop>& hops) {
  std::vector<WorkerId> dests;
  for (int b = 0; b < kBolts; ++b) dests.push_back(kFirstBolt + b);
  Shuffle(rng, dests);
  dests.resize(1 + rng.below(kBolts));
  const std::uint64_t edge = rng.next();
  std::uint64_t x = 0;
  for (WorkerId d : dests) {
    x ^= AckContribution(edge, d);
    hops.push_back({edge, d, depth});
  }
  return x;
}

// A random tuple tree of depth <= 3: the init record, then one ack record
// per handled copy. A copy at depth 1 or 2 emits children half the time.
void BuildTree(common::Rng& rng, WorkerId spout, std::uint64_t root,
               std::vector<AckRecord>& out) {
  std::vector<Hop> hops;
  out.push_back({spout, true, root, EmitCopies(rng, 1, hops)});
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const Hop h = hops[i];  // a copy: EmitCopies may grow `hops`
    std::uint64_t ack = AckContribution(h.edge, h.dst);
    if (h.depth < 3 && rng.below(2) == 0) {
      ack ^= EmitCopies(rng, h.depth + 1, hops);
    }
    out.push_back({h.dst, false, root, ack});
  }
}

// Feeds `msgs` to a fresh acker; returns root -> spouts it completed at.
std::map<std::uint64_t, std::vector<WorkerId>> Deliver(
    const std::vector<Tuple>& msgs, std::size_t& pending_after) {
  AckerBolt acker;
  CaptureEmitter out;
  acker.prepare({});
  for (const Tuple& m : msgs) acker.execute(m, Meta(), out);
  std::map<std::uint64_t, std::vector<WorkerId>> done;
  for (const auto& c : out.completions) {
    EXPECT_EQ(c.stream, kAckStream);
    for (std::uint64_t r : CompletedRoots(c.tuple)) done[r].push_back(c.dst);
  }
  pending_after = acker.pending();
  return done;
}

TEST(AckerProperty, BatchedDeliveryMatchesPerRecordDelivery) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    std::vector<AckRecord> records;
    std::map<std::uint64_t, WorkerId> spout_of;
    const int roots = 1 + static_cast<int>(rng.below(60));
    for (int r = 0; r < roots; ++r) {
      const WorkerId spout = 100 + static_cast<WorkerId>(rng.below(3));
      const std::uint64_t root = rng.next() | 1;
      spout_of[root] = spout;
      BuildTree(rng, spout, root, records);
    }

    // Per-record delivery in random order.
    Shuffle(rng, records);
    std::vector<Tuple> singles;
    for (const AckRecord& rec : records) {
      singles.push_back(rec.init ? MakeAckInit(rec.root, rec.xor_val,
                                               rec.producer)
                                 : MakeAck(rec.root, rec.xor_val));
    }

    // Batched delivery: each producer folds its records into batches of
    // random size; all messages then arrive in random order.
    std::map<WorkerId, AckBuffer> buffers;
    std::vector<Tuple> batched;
    const auto flush = [&](WorkerId producer, AckBuffer& buf) {
      buf.flush(producer < kFirstBolt ? AckKind::kInit : AckKind::kAck,
                producer, [&](Tuple t) { batched.push_back(std::move(t)); });
    };
    for (const AckRecord& rec : records) {
      AckBuffer& buf = buffers[rec.producer];
      buf.add(rec.root, rec.xor_val);
      if (rng.below(4) == 0) flush(rec.producer, buf);
    }
    for (auto& [producer, buf] : buffers) flush(producer, buf);
    Shuffle(rng, batched);
    EXPECT_LE(batched.size(), singles.size());

    std::size_t pending_single = 0;
    std::size_t pending_batched = 0;
    const auto per_record = Deliver(singles, pending_single);
    const auto per_batch = Deliver(batched, pending_batched);
    EXPECT_EQ(pending_single, 0u);
    EXPECT_EQ(pending_batched, 0u);
    EXPECT_EQ(per_batch, per_record);
    ASSERT_EQ(per_batch.size(), spout_of.size());
    for (const auto& [root, spouts] : per_batch) {
      ASSERT_EQ(spouts.size(), 1u) << "root " << root;
      EXPECT_EQ(spouts[0], spout_of.at(root)) << "root " << root;
    }
  }
}

}  // namespace
}  // namespace typhoon::stream
