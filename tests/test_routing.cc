// Routing-policy semantics (Listing 1) and their runtime-swappable state —
// including property-style sweeps: shuffle fairness, key-routing
// consistency, and behaviour across next-hop changes.
#include <gtest/gtest.h>

#include <map>

#include "stream/routing.h"
#include "stream/tuple.h"

namespace typhoon::stream {
namespace {

RoutingState State(GroupingType type, std::vector<WorkerId> hops,
                   std::vector<std::uint32_t> keys = {}) {
  RoutingState s;
  s.type = type;
  s.next_hops = std::move(hops);
  s.key_indices = std::move(keys);
  return s;
}

TEST(Routing, ShuffleRoundRobinsExactly) {
  RoutingState s = State(GroupingType::kShuffle, {10, 11, 12});
  std::vector<WorkerId> got;
  for (int i = 0; i < 6; ++i) {
    auto d = Router::route(s, Tuple{std::int64_t{i}});
    ASSERT_EQ(d.dests.size(), 1u);
    got.push_back(d.dests[0]);
  }
  EXPECT_EQ(got, (std::vector<WorkerId>{10, 11, 12, 10, 11, 12}));
}

TEST(Routing, ShuffleIsFairOverManyTuples) {
  RoutingState s = State(GroupingType::kShuffle, {1, 2, 3, 4});
  std::map<WorkerId, int> counts;
  for (int i = 0; i < 4000; ++i) {
    counts[Router::route(s, Tuple{}).dests[0]]++;
  }
  for (const auto& [w, c] : counts) EXPECT_EQ(c, 1000);
}

TEST(Routing, FieldsSameKeySameWorker) {
  RoutingState s = State(GroupingType::kFields, {1, 2, 3}, {0});
  const WorkerId first =
      Router::route(s, Tuple{std::string("alpha")}).dests[0];
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Router::route(s, Tuple{std::string("alpha"),
                                     std::int64_t{i}})
                  .dests[0],
              first);
  }
}

TEST(Routing, FieldsSpreadAcrossWorkers) {
  RoutingState s = State(GroupingType::kFields, {1, 2, 3, 4}, {0});
  std::map<WorkerId, int> counts;
  for (int i = 0; i < 2000; ++i) {
    counts[Router::route(s, Tuple{std::string("key" + std::to_string(i))})
               .dests[0]]++;
  }
  EXPECT_EQ(counts.size(), 4u);
  for (const auto& [w, c] : counts) EXPECT_GT(c, 2000 / 8);
}

TEST(Routing, GlobalAlwaysPicksFirst) {
  RoutingState s = State(GroupingType::kGlobal, {7, 8, 9});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Router::route(s, Tuple{std::int64_t{i}}).dests[0], 7u);
  }
}

TEST(Routing, AllBroadcastsToEveryHop) {
  RoutingState s = State(GroupingType::kAll, {4, 5, 6});
  auto d = Router::route(s, Tuple{});
  EXPECT_TRUE(d.broadcast);
  EXPECT_EQ(std::vector<WorkerId>(d.dests.begin(), d.dests.end()),
            (std::vector<WorkerId>{4, 5, 6}));
  // A view of the edge's next hops, not a copy.
  EXPECT_EQ(d.dests.data(), s.next_hops.data());
}

TEST(Routing, DirectPicksSomeHop) {
  RoutingState s = State(GroupingType::kDirect, {1, 2, 3});
  std::map<WorkerId, int> counts;
  for (int i = 0; i < 300; ++i) {
    auto d = Router::route(s, Tuple{}, /*seed=*/42);
    ASSERT_EQ(d.dests.size(), 1u);
    counts[d.dests[0]]++;
  }
  EXPECT_GE(counts.size(), 2u);  // random spread, not stuck
}

TEST(Routing, EmptyNextHopsYieldsNothing) {
  RoutingState s = State(GroupingType::kShuffle, {});
  EXPECT_TRUE(Router::route(s, Tuple{}).dests.empty());
}

TEST(Routing, RuntimeUpdatePreservesNothingButWorks) {
  // Swapping routing state mid-stream (what a ROUTING control tuple does).
  RoutingState s = State(GroupingType::kShuffle, {1, 2});
  Router::route(s, Tuple{});
  s = State(GroupingType::kGlobal, {9});
  EXPECT_EQ(Router::route(s, Tuple{}).dests[0], 9u);
}

TEST(Routing, StateCodecRoundTrips) {
  RoutingState s = State(GroupingType::kFields, {10, 20, 30}, {1, 3});
  s.rr_counter = 77;
  RoutingState out;
  ASSERT_TRUE(DecodeRoutingState(EncodeRoutingState(s), out));
  EXPECT_EQ(out.type, GroupingType::kFields);
  EXPECT_EQ(out.next_hops, s.next_hops);
  EXPECT_EQ(out.key_indices, s.key_indices);
  EXPECT_EQ(out.rr_counter, 77u);
}

TEST(Routing, CodecRejectsTruncation) {
  common::Bytes data = EncodeRoutingState(State(GroupingType::kShuffle, {1}));
  data.resize(3);
  RoutingState out;
  EXPECT_FALSE(DecodeRoutingState(data, out));
}

// Property sweep: for every policy and hop count, destinations are always
// members of next_hops.
class RoutingPropertyTest
    : public ::testing::TestWithParam<std::tuple<GroupingType, int>> {};

TEST_P(RoutingPropertyTest, DestinationsAlwaysValid) {
  const auto [type, hops] = GetParam();
  std::vector<WorkerId> next;
  for (int i = 0; i < hops; ++i) next.push_back(100 + i);
  RoutingState s = State(type, next, {0});
  for (int i = 0; i < 500; ++i) {
    auto d = Router::route(s, Tuple{std::string("k" + std::to_string(i))});
    ASSERT_FALSE(d.dests.empty());
    for (WorkerId w : d.dests) {
      EXPECT_TRUE(std::find(next.begin(), next.end(), w) != next.end());
    }
    if (type == GroupingType::kAll) {
      EXPECT_EQ(d.dests.size(), next.size());
    } else {
      EXPECT_EQ(d.dests.size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingPropertyTest,
    ::testing::Combine(::testing::Values(GroupingType::kShuffle,
                                         GroupingType::kFields,
                                         GroupingType::kGlobal,
                                         GroupingType::kAll,
                                         GroupingType::kDirect),
                       ::testing::Values(1, 2, 5, 16)));

// Key-routing consistency across a scale-up: keys that hash to surviving
// slots keep their worker when hop count is unchanged; after a SIGNAL-style
// flush the new mapping is internally consistent.
TEST(Routing, KeyMappingStableForFixedHopCount) {
  RoutingState a = State(GroupingType::kFields, {1, 2, 3}, {0});
  RoutingState b = State(GroupingType::kFields, {1, 2, 3}, {0});
  for (int i = 0; i < 200; ++i) {
    Tuple t{std::string("k" + std::to_string(i))};
    EXPECT_EQ(Router::route(a, t).dests[0], Router::route(b, t).dests[0]);
  }
}

}  // namespace
}  // namespace typhoon::stream
