// SwitchControl — the control-plane view of one host's datapath: exactly
// the OpenFlow-ish surface the controller layer programs (rule bundles,
// packet-out, stats reads, the event sink, and the QoS ingress shaper),
// abstracted from where the datapath runs. `apply` is the one call that
// changes the flow and group tables.
//
// Two implementations:
//   - switchd::SoftSwitch — the in-process datapath (single-process
//     deployments, and the host-process side of a multi-process one).
//   - typhoon::RemoteSwitch — the parent-side proxy that serializes each
//     call over a host's control channel in multi-process deployments
//     (DESIGN.md Sec 17).
// Controller code (TyphoonController, ControlPlane, the control-plane apps)
// only sees this interface, so the same control plane drives both.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "openflow/flow.h"

namespace typhoon::switchd {

class PortHandle;

// Async events a datapath raises toward its controller.
using SwitchEvent = std::variant<openflow::PacketIn, openflow::PortStatus>;

class SwitchControl {
 public:
  virtual ~SwitchControl() = default;

  [[nodiscard]] virtual HostId host() const = 0;

  // ---- OpenFlow control interface ----
  // Apply one bundle atomically: once this returns, every packet the switch
  // classifies sees all of it, and none saw part of it.
  virtual void apply(const openflow::Bundle& b) = 0;
  // A one-FlowMod bundle.
  void handle_flow_mod(const openflow::FlowMod& mod) { apply({.flows = {mod}}); }
  virtual void handle_packet_out(const openflow::PacketOut& po) = 0;
  [[nodiscard]] virtual std::vector<openflow::PortStats> port_stats()
      const = 0;
  [[nodiscard]] virtual std::vector<openflow::FlowStats> flow_stats(
      std::optional<std::uint64_t> cookie = std::nullopt) const = 0;
  [[nodiscard]] virtual std::vector<openflow::FlowRule> flow_rules() const = 0;
  [[nodiscard]] virtual std::size_t flow_count() const = 0;

  // Controller event channel; invoked from switch or caller threads. A
  // remote proxy delivers the peer datapath's events from its channel
  // reader thread.
  virtual void set_event_sink(
      std::function<void(HostId, SwitchEvent)> sink) = 0;

  // ---- QoS: per-port ingress rate shaping ----
  virtual void set_port_ingress_rate(PortId port, double bytes_per_sec) = 0;
  [[nodiscard]] virtual double port_ingress_rate(PortId port) const = 0;

  // ---- local-datapath extras ----
  // Attach a harness/debug port (next free id, or a specific one). Only
  // meaningful against an in-process datapath; a remote proxy returns
  // nullptr (the live debugger's tap then reports unsupported instead of
  // crashing).
  virtual std::shared_ptr<PortHandle> attach_port() = 0;
  virtual std::shared_ptr<PortHandle> attach_port(PortId requested) = 0;
  virtual void detach_port(PortId port) = 0;
};

}  // namespace typhoon::switchd
