// End-to-end observability tests (DESIGN.md Sec 11): a multi-host word
// count must yield a complete emit -> switch -> execute hop chain for every
// sampled tuple; chains must survive a mid-run SDN rebalance and a scripted
// drop burst (dropped-tuple spans stay incomplete, never leak); trace
// completeness under an impaired wire must be deterministic across two
// identical-seed runs; and dump_json() must render parseable JSON with
// per-stage percentiles.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>

#include "net/tunnel.h"
#include "stream/topology.h"
#include "typhoon/cluster.h"
#include "typhoon/fault_runner.h"
#include "util/components.h"
#include "util/tunnel_io.h"

namespace typhoon {
namespace {

using namespace std::chrono_literals;
using testutil::ChaosSentences;
using testutil::CountBolt;
using testutil::DedupCountBolt;
using testutil::DedupCountState;
using testutil::DedupSplitBolt;
using testutil::ReplayableSentenceSpout;
using testutil::SentenceSpout;
using testutil::SharedFlags;
using testutil::SplitBolt;
using testutil::TryRecv;

// Sanitizer instrumentation slows the replay-heavy chaos run ~10x. Scaling
// only the convergence deadline is not enough: if the spout's offered rate
// stays above the slowed pipeline's capacity, the pending window fills until
// end-to-end latency exceeds pending_timeout_ms and the acker fails tuples
// that are still in flight. Replays then compete with originals for the
// same capacity (a replay storm) — the dedup counts still converge, but at
// a crawl no deadline multiplier covers. So the chaos test scales its
// offered rate down and its pending timeout up by the same factor, keeping
// the assertions themselves identical.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kDeadlineScale = 4;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kDeadlineScale = 4;
#else
constexpr int kDeadlineScale = 1;
#endif
#else
constexpr int kDeadlineScale = 1;
#endif

template <typename F>
bool WaitFor(F&& pred, std::chrono::milliseconds timeout) {
  const auto deadline = common::Now() + timeout * kDeadlineScale;
  while (common::Now() < deadline) {
    if (pred()) return true;
    common::SleepMillis(10);
  }
  return pred();
}

// ---- minimal JSON syntax validator ---------------------------------------
// Recursive-descent checker for the dump_json() output; value semantics are
// asserted separately via substring probes.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : 0; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::map<std::string, std::int64_t> ExpectedCounts(std::int64_t limit) {
  std::map<std::string, std::int64_t> expected;
  const auto& sentences = ChaosSentences();
  for (std::int64_t seq = 0; seq < limit; ++seq) {
    std::istringstream is(sentences[seq % sentences.size()]);
    std::string word;
    while (is >> word) ++expected[word];
  }
  return expected;
}

std::int64_t TotalOccurrences(std::int64_t limit) {
  std::int64_t total = 0;
  for (const auto& [w, c] : ExpectedCounts(limit)) total += c;
  return total;
}

std::int64_t TraceSampledAt(Cluster& cluster, const std::string& topo,
                            const std::string& node) {
  std::int64_t total = 0;
  for (stream::Worker* w : cluster.workers_of_node(topo, node)) {
    total += w->metrics().counter("trace_sampled").value();
  }
  return total;
}

// ---- 3-host word count: every sampled tuple completes --------------------

TEST(Observability, WordCountYieldsCompleteChainForEverySampledTuple) {
  ClusterConfig cfg;
  cfg.num_hosts = 3;
  Cluster cluster(cfg);
  cluster.start();

  constexpr std::int64_t kSentences = 2000;
  // Wider than any packet's tuple capacity: packet-level switch spans carry
  // the first traced chunk's id, so two sampled tuples sharing a packet
  // would leave the second without switch hops. 1-in-64 guarantees every
  // sampled sentence owns its packets.
  constexpr std::uint32_t kEvery = 64;
  auto flags = std::make_shared<SharedFlags>();
  flags->spout_limit.store(kSentences);

  stream::TopologyBuilder b("wc");
  const NodeId src = b.add_spout(
      "src",
      [flags] { return std::make_unique<SentenceSpout>(flags, 16, 10000.0); },
      1);
  const NodeId split = b.add_bolt(
      "split", [] { return std::make_unique<SplitBolt>(); }, 2);
  const NodeId count = b.add_bolt(
      "count", [] { return std::make_unique<CountBolt>(); }, 2);
  b.shuffle(src, split);
  b.fields(split, count, {0});

  stream::SubmitOptions opts;
  opts.trace_sample_every = kEvery;
  ASSERT_TRUE(cluster.submit(b.build().value(), opts).ok());

  // Each 4-sentence cycle carries 30 words.
  const std::int64_t expected_words = kSentences / 4 * 30;
  trace::TraceCollector& col = cluster.observability().collector();
  ASSERT_TRUE(WaitFor(
      [&] {
        col.collect();  // keep draining so rings never lap the reader
        std::int64_t received = 0;
        for (stream::Worker* w : cluster.workers_of_node("wc", "count")) {
          received += w->received();
        }
        return received >= expected_words;
      },
      60s));

  // Everything executed; every sampled sentence must now be a complete
  // chain: spout emit at hop 0, at least one switch traversal, and a count
  // execute at the terminal hop.
  col.collect();
  const auto sampled =
      static_cast<std::size_t>(TraceSampledAt(cluster, "wc", "src"));
  EXPECT_EQ(sampled, kSentences / kEvery);
  EXPECT_EQ(col.chains(), sampled);
  EXPECT_EQ(col.complete(), col.chains());
  EXPECT_EQ(col.incomplete(), 0u);
  for (const trace::HopChain& c : col.snapshot()) {
    EXPECT_TRUE(c.complete);
    EXPECT_TRUE(c.has(trace::Stage::kEmit, 0));
    EXPECT_TRUE(c.has(trace::Stage::kExecute, 1));
    bool crossed_switch = false;
    for (const trace::Span& s : c.spans) {
      crossed_switch |= s.stage == trace::Stage::kSwitchIn;
    }
    EXPECT_TRUE(crossed_switch);
  }

  // The JSON export of this live run parses and carries p50/p99 for every
  // hop stage (the spout sits alone on host 1, so sampled tuples always
  // cross a tunnel and tunnel_rx must be populated too).
  cluster.sample_observability();
  const std::string json = cluster.observability().dump_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
  for (const char* stage :
       {"emit", "switch_in", "switch_out", "tunnel_rx", "deserialize",
        "execute", "execute_duration", "end_to_end"}) {
    const std::string key = std::string("\"") + stage + "\":{\"count\":";
    EXPECT_NE(json.find(key), std::string::npos) << stage;
  }
  EXPECT_NE(json.find("\"p50_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"typhoon.observability.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"rate_per_sec\""), std::string::npos);
  cluster.stop();
}

// ---- chains survive a rebalance and a scripted drop burst ----------------

TEST(Observability, ChainsSurviveRebalanceAndDropBurst) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  Cluster cluster(cfg);
  cluster.start();

  static constexpr std::int64_t kSentences = 3000;
  auto progress = std::make_shared<std::atomic<std::int64_t>>(0);
  auto counts = std::make_shared<DedupCountState>();

  stream::TopologyBuilder b("obschaos");
  const NodeId src = b.add_spout(
      "src",
      [progress] {
        return std::make_unique<ReplayableSentenceSpout>(
            kSentences, progress, 8, 15000.0 / kDeadlineScale);
      },
      1);
  const NodeId split = b.add_bolt(
      "split", [] { return std::make_unique<DedupSplitBolt>(); }, 2);
  const NodeId count = b.add_bolt(
      "count", [counts] { return std::make_unique<DedupCountBolt>(counts); },
      2);
  b.shuffle(src, split);
  b.fields(split, count, {0});

  stream::SubmitOptions sopts;
  sopts.reliable = true;
  sopts.pending_timeout_ms = 800 * kDeadlineScale;
  sopts.trace_sample_every = 4;
  auto submitted = cluster.submit(b.build().value(), sopts);
  ASSERT_TRUE(submitted.ok());
  const TopologyId topo = submitted.value();

  // Mid-run rebalance: SDN-level weighted round robin on the src -> split
  // edge, with auto-rebalance deriving weights from the EWMA-smoothed
  // queue-depth series each controller tick.
  controller::LoadBalancer* lb = cluster.load_balancer();
  ASSERT_NE(lb, nullptr);
  ASSERT_TRUE(lb->enable(topo, "src", "split").ok());
  lb->set_auto_rebalance(true);

  // Scripted drop burst on the only tunnel, healing itself after 600 ms.
  auto plan = faultinject::FaultPlan::Parse(
      "at_ms=100 fault=impair_tunnel hosts=1-2 drop=0.20 seed=13 "
      "duration_ms=600\n");
  ASSERT_TRUE(plan.ok()) << plan.status().str();
  FaultPlanRunner faults(&cluster, std::move(plan.value()));
  faults.set_tuple_probe([progress] { return progress->load(); });
  faults.start();

  const std::int64_t expected_total = TotalOccurrences(kSentences);
  trace::TraceCollector& col = cluster.observability().collector();
  ASSERT_TRUE(WaitFor(
      [&] {
        col.collect();
        return counts->unique.load() >= expected_total;
      },
      90s))
      << "counted " << counts->unique.load() << "/" << expected_total;
  EXPECT_TRUE(WaitFor([&] { return faults.done(); }, 10s));
  faults.stop();

  {
    std::lock_guard lk(counts->mu);
    EXPECT_EQ(counts->counts, ExpectedCounts(kSentences));
  }

  // The faults and the rebalance genuinely happened. wire_drops() rather
  // than impairments(): the duration_ms auto-heal has already destroyed the
  // engines, banking their totals.
  EXPECT_GT(faults.wire_drops(), 0u);
  EXPECT_GE(lb->rebalances(), 1);

  // Trace accounting under loss: every sampled emission became exactly one
  // chain (sampled == chains), complete + incomplete == chains (dropped
  // tuples stay incomplete instead of leaking), and plenty completed.
  // The topology is still live here: acks lost to the drop burst replay up
  // to pending_timeout after the count target is met, and each replay bumps
  // the sampled counter before its emit span reaches the recorder ring. So
  // poll until the counter and the chain table agree — emission quiesced —
  // rather than asserting one mid-replay snapshot.
  std::size_t sampled = 0;
  EXPECT_TRUE(WaitFor(
      [&] {
        sampled = static_cast<std::size_t>(
            TraceSampledAt(cluster, "obschaos", "src"));
        col.collect();
        return sampled > 0 && col.chains() == sampled;
      },
      20s));
  EXPECT_GT(sampled, 0u);
  EXPECT_EQ(col.chains(), sampled);
  EXPECT_EQ(col.complete() + col.incomplete(), col.chains());
  EXPECT_GT(col.complete(), col.chains() / 2);
  cluster.stop();
}

// ---- determinism: identical seeds, identical completeness ----------------

struct WireRunResult {
  std::uint64_t fingerprint = 0;
  std::size_t chains = 0;
  std::size_t complete = 0;
  std::size_t incomplete = 0;
};

// Drive a fixed traced-frame sequence through an impaired tunnel; which
// trace ids survive is purely a function of the impairment seed, so the
// resulting completeness stats are a determinism fingerprint of their own.
WireRunResult RunImpairedWire(std::uint64_t seed) {
  auto [tx, rx] = net::CreateTunnel();
  faultinject::ImpairmentConfig icfg;
  icfg.drop = 0.5;
  icfg.seed = seed;
  faultinject::Impairment* imp = tx->set_impairment(icfg);

  trace::TraceDomain domain(4096);
  trace::TraceCollector col(&domain, /*terminal_hop=*/0);
  auto sender = domain.acquire("sender");
  auto receiver = domain.acquire("receiver");

  constexpr int kFrames = 400;
  for (int i = 0; i < kFrames; ++i) {
    net::Packet p;
    p.src = WorkerAddress{1, 1};
    p.dst = WorkerAddress{2, 2};
    p.trace_id = (static_cast<std::uint64_t>(i) << 1) | 1;
    p.trace_hop = 0;
    p.payload = {static_cast<std::uint8_t>(i)};
    sender->record({p.trace_id, trace::Stage::kEmit, 0, 1,
                    static_cast<std::int64_t>(i), 0});
    tx->send(net::MakePacket(p));
  }
  while (auto p = TryRecv(*rx)) {
    EXPECT_EQ(p->trace_id & 1, 1u);  // trace context survived the wire
    receiver->record({p->trace_id, trace::Stage::kExecute, 0, 2,
                      static_cast<std::int64_t>(kFrames + p->trace_id), 0});
  }

  col.collect();
  WireRunResult r;
  r.fingerprint = imp->fingerprint();
  r.chains = col.chains();
  r.complete = col.complete();
  r.incomplete = col.incomplete();
  EXPECT_EQ(r.chains, static_cast<std::size_t>(kFrames));
  EXPECT_GT(r.complete, 0u);
  EXPECT_GT(r.incomplete, 0u);  // drop=0.5 over 400 frames
  tx->close();
  rx->close();
  return r;
}

TEST(Observability, TraceCompletenessIdenticalAcrossSeededRuns) {
  const WireRunResult a = RunImpairedWire(17);
  const WireRunResult b = RunImpairedWire(17);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.incomplete, b.incomplete);

  // A different seed produces a different schedule (and very likely a
  // different completeness split).
  const WireRunResult c = RunImpairedWire(18);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

// ---- dump_json unit-level schema check -----------------------------------

TEST(Observability, DumpJsonEscapesAndParses) {
  trace::ClusterObservability obs;
  auto rec = obs.domain().acquire("worker-1");
  rec->record({0x11, trace::Stage::kEmit, 0, 1, 100, 0});
  rec->record({0x11, trace::Stage::kExecute, 1, 1, 250, 40});
  rec->record({0x21, trace::Stage::kEmit, 0, 1, 300, 0});  // incomplete

  // Series names flow into JSON keys; include characters that must be
  // escaped to prove the writer handles them.
  obs.observe_worker("worker\"1\\x", 1'000'000, {{"received", 10}});
  obs.observe_worker("worker\"1\\x", 2'000'000, {{"received", 30}});

  const std::string json = obs.dump_json();
  JsonChecker checker(json);
  ASSERT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":1"), std::string::npos);
  EXPECT_NE(json.find("\"incomplete\":1"), std::string::npos);
  EXPECT_NE(json.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\\\"1\\\\x.received\""), std::string::npos);
  // 20 counter increments over one second.
  EXPECT_NE(json.find("\"rate_per_sec\":20"), std::string::npos);
}

}  // namespace
}  // namespace typhoon
