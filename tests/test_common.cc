// Unit tests for the common substrate: byte codec, hashing, SPSC ring,
// MPMC queue, rate limiter, latency recorder, metrics registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/latency_recorder.h"
#include "common/metrics.h"
#include "common/mpmc_queue.h"
#include "common/token_bucket.h"
#include "common/result.h"
#include "common/root_table.h"
#include "common/spsc_ring.h"
#include "common/token_bucket.h"

namespace typhoon::common {
namespace {

TEST(Bytes, RoundTripsAllPrimitives) {
  Bytes buf;
  BufWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(3.25);
  w.str("hello");
  w.bytes(Bytes{1, 2, 3});

  BufReader r(buf);
  std::uint8_t u8v = 0;
  std::uint16_t u16v = 0;
  std::uint32_t u32v = 0;
  std::uint64_t u64v = 0;
  std::int64_t i64v = 0;
  double f64v = 0;
  std::string s;
  Bytes b;
  ASSERT_TRUE(r.u8(u8v));
  ASSERT_TRUE(r.u16(u16v));
  ASSERT_TRUE(r.u32(u32v));
  ASSERT_TRUE(r.u64(u64v));
  ASSERT_TRUE(r.i64(i64v));
  ASSERT_TRUE(r.f64(f64v));
  ASSERT_TRUE(r.str(s));
  ASSERT_TRUE(r.bytes(b));
  EXPECT_EQ(u8v, 0xab);
  EXPECT_EQ(u16v, 0x1234);
  EXPECT_EQ(u32v, 0xdeadbeefu);
  EXPECT_EQ(u64v, 0x0123456789abcdefull);
  EXPECT_EQ(i64v, -42);
  EXPECT_DOUBLE_EQ(f64v, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(b, (Bytes{1, 2, 3}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderRejectsTruncatedInput) {
  Bytes buf;
  BufWriter w(buf);
  w.str("payload");
  buf.resize(buf.size() - 2);  // corrupt: declared length exceeds data
  BufReader r(buf);
  std::string s;
  EXPECT_FALSE(r.str(s));
}

TEST(Bytes, ViewDoesNotCopy) {
  Bytes buf{1, 2, 3, 4, 5};
  BufReader r(buf);
  std::span<const std::uint8_t> v;
  ASSERT_TRUE(r.view(3, v));
  EXPECT_EQ(v.data(), buf.data());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.view(3, v));
}

TEST(Bytes, HexDumpTruncates) {
  Bytes buf(100, 0xff);
  const std::string dump = HexDump(buf, 4);
  EXPECT_EQ(dump, "ff ff ff ff ...");
}

TEST(Hash, Fnv1aIsStableAndSensitive) {
  EXPECT_EQ(Fnv1a("abc"), Fnv1a("abc"));
  EXPECT_NE(Fnv1a("abc"), Fnv1a("abd"));
  EXPECT_NE(Fnv1a(""), 0u);
}

TEST(Hash, RngIsDeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t av = a.next();
    EXPECT_EQ(av, b.next());
    if (av != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Hash, RngUniformInUnitInterval) {
  Rng r(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SpscRing, PushPopPreservesOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, RejectsWhenFull) {
  SpscRing<int> ring(4);
  const std::size_t cap = ring.capacity();
  for (std::size_t i = 0; i < cap; ++i) {
    EXPECT_TRUE(ring.try_push(static_cast<int>(i)));
  }
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size(), cap);
}

TEST(SpscRing, PopBulkDrains) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.try_push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.pop_bulk(std::back_inserter(out), 6), 6u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  out.clear();
  EXPECT_EQ(ring.pop_bulk(std::back_inserter(out), 100), 4u);
}

TEST(SpscRing, ConcurrentProducerConsumerLosesNothing) {
  SpscRing<std::uint64_t> ring(256);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount;) {
      if (ring.try_push(i)) ++i;
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t sum = 0;
  while (expected < kCount) {
    auto v = ring.try_pop();
    if (!v) continue;
    ASSERT_EQ(*v, expected);
    sum += *v;
    ++expected;
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

TEST(MpmcQueue, BlockingPushPopAcrossThreads) {
  MpmcQueue<int> q(4);
  std::thread t([&] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int count = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, count++);
  }
  EXPECT_EQ(count, 100);
  t.join();
}

TEST(MpmcQueue, TryPushFailsWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.try_pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpmcQueue, CloseReleasesBlockedConsumers) {
  MpmcQueue<int> q(2);
  std::thread t([&] {
    auto v = q.pop();
    EXPECT_FALSE(v.has_value());
  });
  q.close();
  t.join();
  EXPECT_FALSE(q.push(1));
}

TEST(MpmcQueue, PopForTimesOut) {
  MpmcQueue<int> q(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(15));
}

TEST(RateLimiter, UnlimitedAlwaysAllows) {
  TokenBucket rl(0.0, kTupleBurstFloor);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(rl.try_acquire());
}

TEST(RateLimiter, EnforcesApproximateRate) {
  TokenBucket rl(1000.0, kTupleBurstFloor);  // 1k/s
  // Drain the initial burst.
  while (rl.try_acquire()) {
  }
  int allowed = 0;
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < end) {
    if (rl.try_acquire()) ++allowed;
  }
  EXPECT_GT(allowed, 100);
  EXPECT_LT(allowed, 400);
}

TEST(RateLimiter, SetRateTakesEffect) {
  TokenBucket rl(1.0, kTupleBurstFloor);
  while (rl.try_acquire()) {
  }
  EXPECT_FALSE(rl.try_acquire());
  rl.set_rate(0.0);
  EXPECT_TRUE(rl.try_acquire());
}

TEST(RateLimiter, RateCutRescalesLeftoverTokens) {
  // Regression: a rate cut used to inherit the old rate's leftover tokens
  // (clamped only to the new burst), letting a throttled worker coast far
  // past the new rate for a whole burst window. set_rate must re-seed the
  // balance proportionally so the cut binds within one refill interval.
  TokenBucket rl(1'000'000.0, kTupleBurstFloor);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // fill burst
  rl.set_rate(100.0);
  // Proportional re-seed leaves ~20000 * (100 / 1e6) = ~2 tokens — not the
  // 64-token floor burst the old clamp allowed through.
  int allowed = 0;
  while (rl.try_acquire() && allowed < 1000) ++allowed;
  EXPECT_LE(allowed, 8);
}

TEST(ByteBucket, UnlimitedAdmitsEverything) {
  TokenBucket b(0.0, kByteBurstFloor);
  EXPECT_TRUE(b.ready());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(b.try_spend(1e9));
  EXPECT_DOUBLE_EQ(b.rate(), 0.0);
}

TEST(ByteBucket, DebtAdmissionChargesTrueWeight) {
  TokenBucket b(100'000.0, kByteBurstFloor);  // burst = 4096 bytes
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // fill burst
  // One oversized frame is admitted on positive credit and overdraws the
  // bucket into debt...
  EXPECT_TRUE(b.try_spend(50'000.0));
  // ...and the debt gates everything until it amortizes.
  EXPECT_FALSE(b.ready());
  EXPECT_FALSE(b.try_spend(1.0));
  // ~46k of debt at 100 kB/s clears in under a second.
  const auto deadline = Now() + std::chrono::seconds(2);
  while (!b.ready() && Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(b.ready());
  EXPECT_TRUE(b.try_spend(1.0));
}

TEST(ByteBucket, RefundRestoresCredit) {
  TokenBucket b(100'000.0, kByteBurstFloor);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(b.try_spend(50'000.0));
  EXPECT_FALSE(b.ready());
  b.spend(-50'000.0);  // the frames never reached the wire
  EXPECT_TRUE(b.ready());
}

TEST(ByteBucket, RateCutBindsWithinOneRefillInterval) {
  TokenBucket b(10'000'000.0, kByteBurstFloor);  // burst = 200 kB
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  b.set_rate(10'000.0);
  // Proportional re-seed: 200 kB of credit at 10 MB/s becomes ~200 B at
  // 10 kB/s — not a 200 kB coast-through.
  EXPECT_LT(b.tokens(), 1'000.0);
  // And an uncapped->capped transition starts empty (no start-up burst).
  TokenBucket fresh(0.0, kByteBurstFloor);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  fresh.set_rate(10'000.0);
  EXPECT_LE(fresh.tokens(), 100.0);
}

TEST(ByteBucket, ReadyIsPureRead) {
  TokenBucket b(1'000'000.0, kByteBurstFloor);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // However often polled, ready() must not consume or refill-reset state:
  // a subsequent spend sees the full accumulated credit.
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(b.ready());
  const double before = b.tokens();
  EXPECT_GT(before, 10'000.0);
  EXPECT_TRUE(b.try_spend(before - 1.0));
  EXPECT_TRUE(b.ready());  // still a sliver of credit left
}

TEST(LatencyRecorder, PercentilesAreMonotone) {
  LatencyRecorder rec;
  for (int i = 1; i <= 1000; ++i) rec.record(i * 10);  // 10us..10ms
  EXPECT_EQ(rec.count(), 1000);
  const double p50 = rec.percentile_ms(0.5);
  const double p90 = rec.percentile_ms(0.9);
  const double p99 = rec.percentile_ms(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(p50, 5.0, 1.5);
}

TEST(LatencyRecorder, CdfIsNondecreasingAndEndsAtOne) {
  LatencyRecorder rec;
  for (int i = 0; i < 500; ++i) rec.record(100 + i * 37);
  auto cdf = rec.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0;
  for (const auto& pt : cdf) {
    EXPECT_GE(pt.fraction, prev);
    prev = pt.fraction;
  }
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
}

TEST(LatencyRecorder, MergeCombinesCounts) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.record(100);
  b.record(200);
  b.record(300);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
}

// ---- property tests (Sec 11 locks these invariants down) ------------------

TEST(LatencyRecorder, MergedRecorderMatchesUnionRecorder) {
  // merge(a, b) must be indistinguishable from recording a's and b's
  // samples into one recorder: same count, same CDF, same percentiles.
  LatencyRecorder a;
  LatencyRecorder b;
  LatencyRecorder whole;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const auto v = static_cast<std::int64_t>(1 + rng.uniform() * 1e6);
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    whole.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile_ms(q), whole.percentile_ms(q)) << q;
  }
  const auto ca = a.cdf();
  const auto cw = whole.cdf();
  ASSERT_EQ(ca.size(), cw.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    EXPECT_DOUBLE_EQ(ca[i].latency_ms, cw[i].latency_ms);
    EXPECT_DOUBLE_EQ(ca[i].fraction, cw[i].fraction);
  }
}

TEST(LatencyRecorder, PercentileIsMonotoneInQ) {
  LatencyRecorder rec;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    rec.record(static_cast<std::int64_t>(1 + rng.uniform() * 3e5));
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.005) {
    const double p = rec.percentile_ms(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(LatencyRecorder, LogBucketsHaveBoundedRelativeError) {
  // A 1.07x geometric table reports each sample as its bucket's upper
  // bound: never below the true value, never more than ~7% above it.
  for (double v = 2.0; v < 1e7; v *= 1.37) {
    LatencyRecorder rec;
    const auto sample = static_cast<std::int64_t>(v);
    rec.record(sample);
    const double reported_us = rec.percentile_ms(1.0) * 1000.0;
    const double rel =
        (reported_us - static_cast<double>(sample)) / static_cast<double>(sample);
    EXPECT_GE(rel, 0.0) << "v=" << sample;
    EXPECT_LE(rel, 0.075) << "v=" << sample;
  }
}

TEST(LatencyRecorder, ResetThenMergeRestoresOriginal) {
  LatencyRecorder rec;
  Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    rec.record(static_cast<std::int64_t>(1 + rng.uniform() * 1e5));
  }
  LatencyRecorder saved;
  saved.merge(rec);
  const auto before = rec.cdf();
  const double mean_before = rec.mean_ms();

  rec.reset();
  EXPECT_EQ(rec.count(), 0);
  EXPECT_TRUE(rec.cdf().empty());
  EXPECT_DOUBLE_EQ(rec.percentile_ms(0.5), 0.0);

  rec.merge(saved);
  const auto after = rec.cdf();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i].latency_ms, after[i].latency_ms);
    EXPECT_DOUBLE_EQ(before[i].fraction, after[i].fraction);
  }
  EXPECT_DOUBLE_EQ(rec.mean_ms(), mean_before);
}

TEST(LatencyRecorder, BatchFlushMatchesDirectRecording) {
  LatencyRecorder direct;
  LatencyRecorder batched;
  std::vector<std::int64_t> samples;
  Rng rng(17);
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(static_cast<std::int64_t>(1 + rng.uniform() * 1e6));
  }
  for (std::int64_t v : samples) direct.record(v);
  {
    LatencyRecorder::Batch batch(&batched);
    for (std::int64_t v : samples) batch.record(v);
    EXPECT_EQ(batch.pending(), static_cast<std::int64_t>(samples.size()));
    EXPECT_EQ(batched.count(), 0);  // nothing published before flush
    batch.flush();
    EXPECT_EQ(batch.pending(), 0);
  }
  EXPECT_EQ(batched.count(), direct.count());
  EXPECT_DOUBLE_EQ(batched.mean_ms(), direct.mean_ms());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(batched.percentile_ms(q), direct.percentile_ms(q));
  }
}

TEST(LatencyRecorder, ConcurrentWritersAndReadersStayConsistent) {
  // TSan regression for the lock-free hot path: four writer threads (two
  // plain, one long-lived Batch, one Batch per 500-sample chunk) race a
  // reader that continuously derives percentiles. Every percentile must be
  // internally consistent (monotone) and the final count exact.
  LatencyRecorder rec;
  constexpr int kPerThread = 25000;
  std::atomic<bool> done{false};

  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const double p50 = rec.percentile_ms(0.5);
      const double p99 = rec.percentile_ms(0.99);
      EXPECT_LE(p50, p99);
      (void)rec.cdf();
      (void)rec.mean_ms();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) rec.record(1 + (i + t) % 10000);
    });
  }
  writers.emplace_back([&rec] {
    LatencyRecorder::Batch batch(&rec);
    for (int i = 0; i < kPerThread; ++i) {
      batch.record(1 + i % 10000);
      if (i % 512 == 0) batch.flush();
    }
  });
  writers.emplace_back([&rec] {
    for (int base = 0; base < kPerThread; base += 500) {
      LatencyRecorder::Batch batch(&rec);
      for (int i = 0; i < 500; ++i) batch.record(1 + (base + i) % 10000);
    }
  });
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(rec.count(), 4 * kPerThread);
  EXPECT_GT(rec.percentile_ms(0.99), 0.0);
}

TEST(Metrics, CountersAndGaugesByName) {
  MetricsRegistry reg;
  reg.counter("emitted").add(5);
  reg.counter("emitted").add(1);
  reg.gauge("queue").set(17);
  EXPECT_EQ(reg.value("emitted"), 6);
  EXPECT_EQ(reg.value("queue"), 17);
  EXPECT_EQ(reg.value("missing"), 0);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.size(), 2u);
}

// One writer bumps an owned counter while another thread reads it: every
// read is a whole value, reads never go backwards, and no increment is lost.
TEST(Metrics, OwnedCounterIsExactUnderConcurrentReads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("received");
  constexpr std::int64_t kIncs = 200000;
  std::atomic<bool> done{false};
  std::int64_t last = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load()) {
      const std::int64_t v = reg.value("received");
      if (v < last) monotone = false;
      last = v;
    }
  });
  for (std::int64_t i = 0; i < kIncs; ++i) c.inc_owned();
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(c.value(), kIncs);
}

// ---- RootTable --------------------------------------------------------------

using RefMap = std::unordered_map<std::uint64_t, std::uint64_t>;

// `t` holds exactly the entries of `ref`: same size, every key found with
// its value, and for_each visits each key once.
void ExpectSameEntries(RootTable<std::uint64_t>& t, const RefMap& ref) {
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [k, v] : ref) {
    const std::uint64_t* got = t.find(k);
    ASSERT_NE(got, nullptr) << "key " << k;
    ASSERT_EQ(*got, v) << "key " << k;
  }
  RefMap seen;
  t.for_each([&](std::uint64_t k, const std::uint64_t& v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "key visited twice: " << k;
  });
  EXPECT_EQ(seen, ref);
}

// `n` distinct non-zero keys whose home slot, in a table of capacity `cap`,
// is one of the last `tail` slots: inserted together they form a cluster
// that wraps past the end of the table.
std::vector<std::uint64_t> TailKeys(std::size_t cap, std::size_t tail,
                                    std::size_t n, std::mt19937_64& rng) {
  RootTable<std::uint64_t> shape(cap);
  EXPECT_EQ(shape.capacity(), cap);
  std::vector<std::uint64_t> keys;
  while (keys.size() < n) {
    const std::uint64_t k = rng() | 1;
    if (shape.home(k) >= cap - tail &&
        std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

// Slot order is visible through for_each: a cluster homed at the last slot
// of an 8-slot table wraps to slots 0 and 1, and backward-shift erase
// across the wrap keeps every key reachable.
TEST(RootTable, ClusterWrapsAndEraseShiftsBackAcrossTheEnd) {
  std::mt19937_64 rng(7);
  RootTable<std::uint64_t> t(8);
  ASSERT_EQ(t.capacity(), 8u);
  const std::vector<std::uint64_t> last = TailKeys(8, 1, 3, rng);
  for (std::size_t i = 0; i < last.size(); ++i) t[last[i]] = i + 1;
  std::vector<std::uint64_t> order;
  t.for_each([&](std::uint64_t k, const std::uint64_t&) { order.push_back(k); });
  // Slots 0, 1 (wrapped) come before slot 7.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{last[1], last[2], last[0]}));

  // Erase the head of the cluster at slot 7: both wrapped keys shift back.
  ASSERT_TRUE(t.erase(last[0]));
  order.clear();
  t.for_each([&](std::uint64_t k, const std::uint64_t&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{last[2], last[1]}));
  RefMap ref{{last[1], 2}, {last[2], 3}};
  ExpectSameEntries(t, ref);

  // A key homed at slot 0 lands behind the wrapped key in slot 0; erasing
  // the key at slot 7 must pull slot 0 back to 7 and slot 1 back to 0.
  std::uint64_t zero_home = 0;
  while (zero_home == 0) {
    const std::uint64_t k = rng() | 1;
    if (t.home(k) == 0) zero_home = k;
  }
  t[zero_home] = 9;
  ref[zero_home] = 9;
  ExpectSameEntries(t, ref);
  ASSERT_TRUE(t.erase(last[1]));
  ref.erase(last[1]);
  ExpectSameEntries(t, ref);
  order.clear();
  t.for_each([&](std::uint64_t k, const std::uint64_t&) { order.push_back(k); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{zero_home, last[2]}));
  EXPECT_FALSE(t.erase(last[1]));
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_FALSE(t.erase(0));
}

// Growth triggered by an insert into the middle of a wrapped cluster
// rehashes every entry, including the one being inserted.
TEST(RootTable, GrowthInTheMiddleOfAClusterKeepsEveryEntry) {
  std::mt19937_64 rng(11);
  RootTable<std::uint64_t> t(8);
  const std::vector<std::uint64_t> keys = TailKeys(8, 2, 5, rng);
  RefMap ref;
  for (std::size_t i = 0; i < 4; ++i) {
    t[keys[i]] = 100 + i;
    ref[keys[i]] = 100 + i;
  }
  EXPECT_EQ(t.capacity(), 8u);  // half full: no growth yet
  t[keys[4]] = 104;
  ref[keys[4]] = 104;
  EXPECT_EQ(t.capacity(), 16u);
  ExpectSameEntries(t, ref);
  // Re-assigning a present key never grows.
  for (const std::uint64_t k : keys) t[k] += 1;
  for (auto& [k, v] : ref) v += 1;
  EXPECT_EQ(t.capacity(), 16u);
  ExpectSameEntries(t, ref);
}

// Random insert/assign/find/erase/sweep sequences against
// std::unordered_map. Half of every seed's key pool is homed at the tail of
// some capacity the table passes through (8 .. 1024), so clusters wrap past
// the end, erases shift back across the wrap, and growth lands mid-cluster;
// the sweep collects matching keys during for_each and erases them after,
// as the spout's pending sweep and the acker's tree sweep do.
TEST(RootTable, PropertyMatchesUnorderedMapOver40Seeds) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> pool;
    for (std::size_t cap = 8; cap <= 1024; cap *= 2) {
      const std::vector<std::uint64_t> tail = TailKeys(cap, 2, 12, rng);
      pool.insert(pool.end(), tail.begin(), tail.end());
    }
    while (pool.size() < 200) pool.push_back(rng() | 1);

    RootTable<std::uint64_t> t(8);
    RefMap ref;
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t k = pool[pick(rng)];
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2:
        case 3: {  // insert or assign
          const std::uint64_t v = rng();
          t[k] = v;
          ref[k] = v;
          break;
        }
        case 4: {  // read-modify-write through operator[] (acker idiom)
          const std::uint64_t x = rng();
          t[k] ^= x;
          ref[k] ^= x;
          break;
        }
        case 5:
        case 6: {
          const std::uint64_t* got = t.find(k);
          const auto it = ref.find(k);
          ASSERT_EQ(got != nullptr, it != ref.end());
          if (got != nullptr) {
            ASSERT_EQ(*got, it->second);
          }
          break;
        }
        case 7:
        case 8:
          ASSERT_EQ(t.erase(k), ref.erase(k) == 1);
          break;
        default: {  // sweep: collect during the walk, erase after
          const std::uint64_t bit = rng() % 4;
          std::vector<std::uint64_t> expired;
          t.for_each([&](std::uint64_t key, const std::uint64_t& v) {
            if ((v >> bit) & 1) expired.push_back(key);
          });
          for (const std::uint64_t key : expired) {
            ASSERT_TRUE(t.erase(key));
            ASSERT_EQ(ref.erase(key), 1u);
          }
          break;
        }
      }
      if (op % 97 == 0) ExpectSameEntries(t, ref);
      if (testing::Test::HasFatalFailure()) return;
    }
    ExpectSameEntries(t, ref);
    EXPECT_LE(2 * t.size(), t.capacity());
  }
}

TEST(Result, StatusAndValueSemantics) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNotFound);
  EXPECT_NE(bad.status().str().find("nope"), std::string::npos);
}

}  // namespace
}  // namespace typhoon::common
