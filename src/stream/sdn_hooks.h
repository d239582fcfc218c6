// SdnHooks — the boundary the streaming manager uses to drive the SDN
// control plane during deployment and stable topology updates (Sec 3.2's
// "Notification" / "Network setup" steps and Sec 3.5's update procedures).
// Implemented by controller::TyphoonController; null in Storm-baseline mode,
// where none of these operations exist.
#pragma once

#include <vector>

#include "stream/control_tuple.h"
#include "stream/physical.h"

namespace typhoon::stream {

class SdnHooks {
 public:
  virtual ~SdnHooks() = default;

  // Converge the switches on the Table 3 rule set of (spec, physical): the
  // first call for a topology installs every rule, later calls emit only
  // the rules that changed (adds, mods, and deletes for workers that left).
  // `removed` names the workers that left since the last call, so rules
  // that control-plane apps installed for them are swept too.
  virtual void on_topology_updated(
      const TopologySpec& spec, const PhysicalTopology& physical,
      const std::vector<PhysicalWorker>& removed) = 0;

  // Deliver a control tuple (Table 2) to one worker over the reliable
  // control channel (PacketOut): ROUTING to predecessors, SIGNAL for a
  // stateful-worker cache flush (Fig 6(b)), and the rest.
  virtual void send_control_tuple(const PhysicalTopology& physical,
                                  WorkerId target,
                                  const ControlTuple& ct) = 0;

  // Drop every rule belonging to a killed topology.
  virtual void on_topology_killed(TopologyId id) = 0;
};

}  // namespace typhoon::stream
