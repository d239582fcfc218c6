// Routing policies of the framework layer (Sec 2 "Data tuple routing
// policies", Listing 1). A worker keeps one RoutingState per outgoing
// logical edge; the Router turns (state, tuple) into destination worker(s).
//
// In Typhoon mode the state is owned by the network control plane and
// swapped at runtime by ROUTING control tuples; in Storm mode it is fixed at
// deployment, as in stock Storm.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"

namespace typhoon::stream {

class Tuple;

enum class GroupingType : std::uint8_t {
  kShuffle = 1,  // round-robin load balancing (stateless workers)
  kFields = 2,   // key-based: same key -> same next hop (stateful workers)
  kGlobal = 3,   // everything to one specific worker (sinks/aggregators)
  kAll = 4,      // copy to every next-hop worker (broadcast)
  kDirect = 5,   // destinations chosen randomly; the network rewrites them
                 // (SDN-offloaded load balancing, Sec 4 "Load balancer")
};

[[nodiscard]] const char* GroupingName(GroupingType g);

struct Grouping {
  GroupingType type = GroupingType::kShuffle;
  // Field indices hashed for kFields.
  std::vector<std::uint32_t> key_indices;
};

// The decoupled per-edge routing state (policy-independent nextHops /
// numNextHops plus policy-specific fields, Listing 1).
struct RoutingState {
  GroupingType type = GroupingType::kShuffle;
  std::vector<WorkerId> next_hops;
  std::vector<std::uint32_t> key_indices;  // kFields
  std::uint64_t rr_counter = 0;            // kShuffle round-robin state
};

// Routing decision for one tuple on one edge. Owns no storage: `dests` views
// the edge's RoutingState::next_hops, which only the owning worker thread
// mutates, so a decision stays valid until that thread applies the next
// ROUTING update.
struct RouteDecision {
  // When true the tuple goes to all next hops; in Typhoon mode the I/O layer
  // emits a single broadcast-addressed packet instead of N copies.
  bool broadcast = false;
  // Destinations (exactly one unless broadcast; then all next hops, used by
  // the Storm transport which must address each copy).
  std::span<const WorkerId> dests;
};

class Router {
 public:
  // Applies the policy, mutating policy-specific state (rr counter). The
  // decision views `state.next_hops`.
  static RouteDecision route(RoutingState& state, const Tuple& t,
                             std::uint64_t shuffle_seed = 0);
};

common::Bytes EncodeRoutingState(const RoutingState& s);
bool DecodeRoutingState(std::span<const std::uint8_t> data, RoutingState& s);

}  // namespace typhoon::stream
