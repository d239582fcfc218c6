// LoadBalancer control-plane app (Sec 4): fully offloads application-level
// routing to SDN. Upstream workers populate destination IDs randomly (the
// kDirect grouping); the switch rewrites them in a weighted-round-robin
// fashion using select-type OpenFlow groups whose bucket weights the
// controller adjusts from application-level load (worker queue depths) —
// useful when tuple sizes are skewed or the cluster is heterogeneous.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <vector>

#include "controller/controller.h"
#include "trace/time_series.h"

namespace typhoon::controller {

class LoadBalancer final : public ControlPlaneApp {
 public:
  [[nodiscard]] const char* name() const override { return "load-balancer"; }

  // Offload the (from_node -> to_node) edge of a topology to SDN-level
  // weighted round-robin. Initial weights are equal.
  common::Status enable(TopologyId topology, const std::string& from_node,
                        const std::string& to_node);
  common::Status disable(TopologyId topology, const std::string& from_node,
                         const std::string& to_node);

  // Set destination weights (keyed by destination worker id).
  common::Status set_weights(TopologyId topology,
                             const std::string& from_node,
                             const std::string& to_node,
                             const std::map<WorkerId, std::uint32_t>& weights);

  // When enabled, tick() recomputes weights inversely proportional to each
  // destination's queue depth.
  void set_auto_rebalance(bool on) { auto_rebalance_.store(on); }
  void tick() override;

  [[nodiscard]] std::int64_t rebalances() const { return rebalances_.load(); }

 private:
  struct Key {
    TopologyId topology;
    NodeId from;
    NodeId to;
    auto operator<=>(const Key&) const = default;
  };
  struct SrcGroup {
    HostId host = 0;
    std::uint32_t group_id = 0;
    PortId src_port = 0;
    std::uint64_t src_addr = 0;
  };
  struct Session {
    std::vector<SrcGroup> groups;
    std::vector<stream::PhysicalWorker> dests;
  };

  common::Status apply_weights(
      const Session& s, TopologyId topology,
      const std::map<WorkerId, std::uint32_t>& weights);
  // The redirect rule's key (match, priority, cookie) for one destination;
  // actions are the caller's.
  static openflow::FlowRule Redirect(TopologyId topology, const SrcGroup& g,
                                     WorkerId dst);
  static std::vector<openflow::GroupBucket> make_buckets(
      TopologyId topology, HostId src_host,
      const std::vector<stream::PhysicalWorker>& dests,
      const std::map<WorkerId, std::uint32_t>& weights);

  std::mutex mu_;
  std::map<Key, Session> sessions_;
  std::atomic<bool> auto_rebalance_{false};
  std::atomic<std::int64_t> rebalances_{0};
  // Per-destination smoothed queue depths (tick thread only): weights are
  // computed from EWMAs, so one noisy coordinator read cannot swing the
  // whole bucket distribution for a tick.
  trace::SeriesSet depth_series_;
};

}  // namespace typhoon::controller
