#include "typhoon/yahoo_benchmark.h"

#include <map>
#include <sstream>

#include "common/hash.h"

namespace typhoon::yahoo {

namespace {

using stream::Bolt;
using stream::Emitter;
using stream::Spout;
using stream::Tuple;
using stream::TupleMeta;
using stream::WorkerContext;

const char* kEventTypes[] = {"view", "click", "purchase"};

// Workers per stage of the filter -> projection -> join middle (Fig 13).
constexpr int kParallelism = 3;
// Aggregation window in event-time milliseconds (paper: 10 s windows;
// compressed here).
constexpr std::int64_t kWindowMs = 1000;

std::string CampaignFor(int ad, int num_campaigns) {
  return "campaign" + std::to_string(ad % num_campaigns);
}

// ---- pipeline stages ----

class KafkaSpout final : public Spout {
 public:
  explicit KafkaSpout(kafkalite::Broker* broker) : broker_(broker) {}

  void open(const WorkerContext& ctx) override {
    consumer_ = std::make_unique<kafkalite::Consumer>(
        broker_, "yahoo-group", kEventTopic, static_cast<std::uint32_t>(ctx.task_index),
        static_cast<std::uint32_t>(ctx.parallelism));
  }

  bool next(Emitter& out) override {
    auto records = consumer_->poll(32);
    if (records.empty()) return false;
    for (kafkalite::Record& r : records) {
      out.emit(Tuple{std::move(r.value)});
    }
    return true;
  }

 private:
  kafkalite::Broker* broker_;
  std::unique_ptr<kafkalite::Consumer> consumer_;
};

// "user,page,ad,ad_type,event_type,ts" -> (ad, event_type, ts).
class ParseBolt final : public Bolt {
 public:
  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    const std::string_view line = input.str(0);
    std::array<std::string, 6> fields;
    std::size_t field = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size() && field < 6; ++i) {
      if (i == line.size() || line[i] == ',') {
        fields[field++] = std::string(line.substr(start, i - start));
        start = i + 1;
      }
    }
    if (field < 6) return;  // malformed line dropped (data sanitization)
    out.emit(Tuple{fields[2], fields[4],
                   std::strtoll(fields[5].c_str(), nullptr, 10)});
  }
};

class FilterBolt final : public Bolt {
 public:
  explicit FilterBolt(std::set<std::string> allowed)
      : allowed_(allowed.begin(), allowed.end()) {}

  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    if (allowed_.contains(input.str(1))) {
      out.emit(Tuple{input});
    }
  }

 private:
  // Transparent comparator: lookups take the borrowed string_view directly.
  std::set<std::string, std::less<>> allowed_;
};

// (ad, event_type, ts) -> (ad, ts).
class ProjectionBolt final : public Bolt {
 public:
  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    out.emit(Tuple{input.str(0), input.i64(2)});
  }
};

// (ad, ts) -> (campaign, ts) via the RedisLite join table.
class JoinBolt final : public Bolt {
 public:
  explicit JoinBolt(redislite::Store* store) : store_(store) {}

  void execute(const Tuple& input, const TupleMeta&, Emitter& out) override {
    // Local cache in front of the store (the paper's join workers keep a
    // local cache, Sec 6.2).
    const std::string ad(input.str(0));
    auto it = cache_.find(ad);
    if (it == cache_.end()) {
      auto campaign = store_->hget("ads", ad);
      if (!campaign) return;  // unknown ad
      it = cache_.emplace(ad, *campaign).first;
    }
    out.emit(Tuple{it->second, input.i64(1)});
  }

  void on_signal(const std::string&, Emitter&) override { cache_.clear(); }

 private:
  redislite::Store* store_;
  std::map<std::string, std::string> cache_;
};

// (campaign, ts) -> windowed counts flushed into RedisLite.
class AggregateStoreBolt final : public Bolt {
 public:
  AggregateStoreBolt(redislite::Store* store, std::int64_t window_ms)
      : store_(store), window_ms_(window_ms) {}

  void execute(const Tuple& input, const TupleMeta&, Emitter&) override {
    const std::int64_t window = input.i64(1) / window_ms_;
    ++window_counts_[{std::string(input.str(0)), window}];
    // Write-behind: flush a (campaign, window) bucket every 64 updates so
    // the store sees progress without a per-tuple round trip.
    if ((++updates_ & 0x3f) == 0) flush();
  }

  void on_signal(const std::string&, Emitter& out) override {
    (void)out;
    flush();
  }

  void close() override { flush(); }

 private:
  void flush() {
    for (const auto& [key, count] : window_counts_) {
      store_->hincrby("counts:" + key.first,
                      "w" + std::to_string(key.second), count);
    }
    window_counts_.clear();
  }

  redislite::Store* store_;
  std::int64_t window_ms_;
  std::map<std::pair<std::string, std::int64_t>, std::int64_t>
      window_counts_;
  std::uint64_t updates_ = 0;
};

}  // namespace

void GenerateEvents(kafkalite::Broker* broker, const std::string& topic,
                    std::int64_t n, int num_ads, std::uint64_t seed) {
  if (!broker->has_topic(topic)) {
    (void)broker->create_topic(topic, 4);
  }
  common::Rng rng(seed);
  for (std::int64_t i = 0; i < n; ++i) {
    const int ad = static_cast<int>(rng.below(num_ads));
    const char* type = kEventTypes[rng.below(3)];
    std::ostringstream line;
    line << "user" << rng.below(1000) << ",page" << rng.below(100) << ",ad"
         << ad << ",banner," << type << "," << i;
    (void)broker->produce(topic, "", line.str());
  }
}

void PopulateCampaigns(redislite::Store* store, int num_ads,
                       int num_campaigns) {
  for (int ad = 0; ad < num_ads; ++ad) {
    store->hset("ads", "ad" + std::to_string(ad),
                CampaignFor(ad, num_campaigns));
  }
}

stream::BoltFactory MakeFilterFactory(std::set<std::string> allowed_events) {
  return [allowed = std::move(allowed_events)] {
    return std::make_unique<FilterBolt>(allowed);
  };
}

stream::LogicalTopology BuildPipeline(const PipelineConfig& cfg) {
  stream::TopologyBuilder b(kPipelineName);
  kafkalite::Broker* broker = cfg.broker;
  redislite::Store* store = cfg.store;
  const NodeId kafka = b.add_spout(
      "kafka",
      [broker] { return std::make_unique<KafkaSpout>(broker); },
      1);
  const NodeId parse = b.add_bolt(
      "parse", [] { return std::make_unique<ParseBolt>(); }, 1);
  const NodeId filter =
      b.add_bolt("filter", MakeFilterFactory(cfg.allowed_events), kParallelism);
  const NodeId projection = b.add_bolt(
      "projection", [] { return std::make_unique<ProjectionBolt>(); },
      kParallelism);
  const NodeId join = b.add_bolt(
      "join", [store] { return std::make_unique<JoinBolt>(store); },
      kParallelism, /*stateful=*/true);
  const NodeId store_node = b.add_bolt(
      "store",
      [store] { return std::make_unique<AggregateStoreBolt>(store, kWindowMs); },
      1, /*stateful=*/true);

  b.shuffle(kafka, parse);
  b.shuffle(parse, filter);
  b.shuffle(filter, projection);
  b.fields(projection, join, {0});
  b.global(join, store_node);
  return b.build().value();
}

std::int64_t StoredCount(redislite::Store* store, const std::string& campaign,
                         std::int64_t window) {
  auto v = store->hget("counts:" + campaign, "w" + std::to_string(window));
  return v ? std::strtoll(v->c_str(), nullptr, 10) : 0;
}

std::int64_t TotalStoredCount(redislite::Store* store, int num_campaigns,
                              std::int64_t max_window) {
  std::int64_t total = 0;
  for (int c = 0; c < num_campaigns; ++c) {
    for (std::int64_t w = 0; w <= max_window; ++w) {
      total += StoredCount(store, "campaign" + std::to_string(c), w);
    }
  }
  return total;
}

}  // namespace typhoon::yahoo
