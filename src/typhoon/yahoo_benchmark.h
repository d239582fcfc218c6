// Yahoo streaming-benchmark pipeline (Fig 13): an advertisement-analytics
// application with KafkaLite as the input source and RedisLite as the
// database for join and aggregation workers.
//
//   kafka client (1) -> parse (1) -> filter (3) -> projection (3)
//                    -> join (3) -> aggregation & store (1)
//
// Events are CSV lines "user_id,page_id,ad_id,ad_type,event_type,ts_ms".
// The filter initially admits only "view" events; the Fig 14 experiment
// swaps its computation logic at runtime to admit "view" and "click".
#pragma once

#include <memory>
#include <set>
#include <string>

#include "kafkalite/broker.h"
#include "redislite/store.h"
#include "stream/topology.h"

namespace typhoon::yahoo {

// Generate `n` ad events into the broker topic, round-robin over event
// types view/click/purchase and `num_ads` distinct ad ids.
void GenerateEvents(kafkalite::Broker* broker, const std::string& topic,
                    std::int64_t n, int num_ads, std::uint64_t seed = 1);

// Populate the ad -> campaign join table ("ads" hash) in RedisLite.
void PopulateCampaigns(redislite::Store* store, int num_ads,
                       int num_campaigns);

// The broker topic the pipeline's kafka spout consumes.
inline constexpr char kEventTopic[] = "ad-events";
// The pipeline's topology name.
inline constexpr char kPipelineName[] = "yahoo";

struct PipelineConfig {
  kafkalite::Broker* broker = nullptr;
  redislite::Store* store = nullptr;
  // Event types the filter admits (the Fig 14 swap changes this set).
  std::set<std::string> allowed_events = {"view"};
};

// Build the Fig 13 logical topology. Node names: kafka, parse, filter,
// projection, join, store.
stream::LogicalTopology BuildPipeline(const PipelineConfig& cfg);

// Factory for the filter bolt alone — registered into the AppRegistry to
// perform the runtime computation-logic swap of Fig 14.
stream::BoltFactory MakeFilterFactory(std::set<std::string> allowed_events);

// Read back an aggregated windowed count from RedisLite.
std::int64_t StoredCount(redislite::Store* store,
                         const std::string& campaign, std::int64_t window);
// Sum of all stored windowed counts.
std::int64_t TotalStoredCount(redislite::Store* store, int num_campaigns,
                              std::int64_t max_window);

}  // namespace typhoon::yahoo
