// ControlPlaneApp — base class for SDN control-plane applications (Sec 4).
// Apps extend the framework "without modifying the framework itself": they
// observe cross-layer information (switch events + worker metrics) through
// the controller and act via flow mods, group mods, and control tuples.
//
// All callbacks run on the controller's event thread; app state needs no
// extra synchronization unless shared with harness threads.
#pragma once

#include "openflow/flow.h"

namespace typhoon::controller {

class TyphoonController;

class ControlPlaneApp {
 public:
  virtual ~ControlPlaneApp() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  virtual void on_start(TyphoonController& controller) { ctl_ = &controller; }
  virtual void on_stop() {}

  // Network-layer events.
  virtual void on_port_status(HostId host, const openflow::PortStatus& ev) {
    (void)host;
    (void)ev;
  }
  virtual void on_packet_in(HostId host, const openflow::PacketIn& ev) {
    (void)host;
    (void)ev;
  }

  // Periodic work (stat pulls, threshold checks).
  virtual void tick() {}

 protected:
  TyphoonController* ctl_ = nullptr;
};

}  // namespace typhoon::controller
