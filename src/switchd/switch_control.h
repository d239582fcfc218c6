// SwitchControl — the control-plane view of one host's datapath: exactly
// the OpenFlow-ish surface the controller layer programs (flow/group mods,
// packet-out, rule sweeps, stats reads, the event sink, and the QoS ingress
// shaper), abstracted from where the datapath runs.
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

// What one FlowMod actually changed in the table — kAdd reports added or
// modified (replace-in-place), kModify/kDelete report the rule count
// touched. The control plane sums these into its rules_touched stat.
struct FlowModDelta {
  std::size_t added = 0;
  std::size_t modified = 0;
  std::size_t removed = 0;
  [[nodiscard]] std::size_t total() const { return added + modified + removed; }
};

class SwitchControl {
 public:
  virtual ~SwitchControl() = default;

  [[nodiscard]] virtual HostId host() const = 0;

  // ---- OpenFlow control interface ----
  virtual FlowModDelta handle_flow_mod(const openflow::FlowMod& mod) = 0;
  virtual void handle_group_mod(const openflow::GroupMod& mod) = 0;
  virtual void handle_packet_out(const openflow::PacketOut& po) = 0;
  // Remove every rule whose match names the worker address (departures).
  // Nonzero `priority` restricts the sweep to that exact priority.
  virtual std::size_t remove_rules_mentioning(std::uint64_t addr,
                                              std::uint16_t priority = 0) = 0;
  virtual std::size_t remove_rules_by_cookie(std::uint64_t cookie) = 0;
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
