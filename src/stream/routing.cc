#include "stream/routing.h"

#include "common/hash.h"
#include "stream/tuple.h"

namespace typhoon::stream {

const char* GroupingName(GroupingType g) {
  switch (g) {
    case GroupingType::kShuffle: return "shuffle";
    case GroupingType::kFields: return "fields";
    case GroupingType::kGlobal: return "global";
    case GroupingType::kAll: return "all";
    case GroupingType::kDirect: return "direct";
  }
  return "?";
}

RouteDecision Router::route(RoutingState& state, const Tuple& t,
                            std::uint64_t shuffle_seed) {
  RouteDecision d;
  const std::span<const WorkerId> hops = state.next_hops;
  if (hops.empty()) return d;
  const std::size_t n = hops.size();

  switch (state.type) {
    case GroupingType::kShuffle: {
      // Listing 1: index = (counter++) % numNextHops.
      d.dests = hops.subspan((state.rr_counter++) % n, 1);
      break;
    }
    case GroupingType::kFields: {
      // Listing 1: hash(fields) % numNextHops.
      const std::uint64_t h = t.hash_fields(state.key_indices);
      d.dests = hops.subspan(h % n, 1);
      break;
    }
    case GroupingType::kGlobal:
      d.dests = hops.first(1);
      break;
    case GroupingType::kAll:
      d.broadcast = true;
      d.dests = hops;
      break;
    case GroupingType::kDirect: {
      // Random pick; under SDN load balancing the switch group rewrites the
      // destination in a weighted round-robin fashion anyway.
      const std::uint64_t h =
          common::SplitMix64(state.rr_counter++ ^ shuffle_seed);
      d.dests = hops.subspan(h % n, 1);
      break;
    }
  }
  return d;
}

common::Bytes EncodeRoutingState(const RoutingState& s) {
  common::Bytes out;
  common::BufWriter w(out);
  w.u8(static_cast<std::uint8_t>(s.type));
  w.u32(static_cast<std::uint32_t>(s.next_hops.size()));
  for (WorkerId h : s.next_hops) w.u64(h);
  w.u32(static_cast<std::uint32_t>(s.key_indices.size()));
  for (std::uint32_t k : s.key_indices) w.u32(k);
  w.u64(s.rr_counter);
  return out;
}

bool DecodeRoutingState(std::span<const std::uint8_t> data, RoutingState& s) {
  common::BufReader r(data);
  std::uint8_t type = 0;
  std::uint32_t n = 0;
  if (!r.u8(type) || !r.u32(n)) return false;
  s.type = static_cast<GroupingType>(type);
  s.next_hops.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!r.u64(s.next_hops[i])) return false;
  }
  std::uint32_t k = 0;
  if (!r.u32(k)) return false;
  s.key_indices.resize(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    if (!r.u32(s.key_indices[i])) return false;
  }
  return r.u64(s.rr_counter);
}

}  // namespace typhoon::stream
