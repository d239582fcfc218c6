// RemoteSwitch — the parent-side switchd::SwitchControl proxy for one host
// process's SoftSwitch (DESIGN.md Sec 17). Every control call serializes
// over the host's CtlChannel as a blocking RPC; the child dispatches it to
// its in-process datapath and replies. Async datapath events (packet-in,
// port status, flow removed) arrive as one-way kSwEvent frames which
// ProcessCluster routes to deliver_event().
//
// Failure behavior: when the host's channel is down (child killed or not
// yet bootstrapped), mutating calls become no-ops and reads return empty —
// exactly what the control plane sees from a dead switch. The controller's
// fault handling (port-down events synthesized from the channel teardown,
// heartbeat timeouts) owns recovery.
#pragma once

#include <memory>
#include <mutex>

#include "switchd/switch_control.h"
#include "typhoon/ctl_channel.h"

namespace typhoon::proc {

class RemoteSwitch final : public switchd::SwitchControl {
 public:
  RemoteSwitch(HostId host, CtlChannel* channel)
      : host_(host), channel_(channel) {}

  [[nodiscard]] HostId host() const override { return host_; }

  // One kSwApply round trip per bundle.
  void apply(const openflow::Bundle& b) override;
  void handle_packet_out(const openflow::PacketOut& po) override;
  [[nodiscard]] std::vector<openflow::PortStats> port_stats() const override;
  [[nodiscard]] std::vector<openflow::FlowStats> flow_stats(
      std::optional<std::uint64_t> cookie = std::nullopt) const override;
  [[nodiscard]] std::vector<openflow::FlowRule> flow_rules() const override;
  [[nodiscard]] std::size_t flow_count() const override;

  void set_event_sink(
      std::function<void(HostId, switchd::SwitchEvent)> sink) override;

  void set_port_ingress_rate(PortId port, double bytes_per_sec) override;
  [[nodiscard]] double port_ingress_rate(PortId port) const override;

  // Harness ports only exist against an in-process datapath.
  std::shared_ptr<switchd::PortHandle> attach_port() override {
    return nullptr;
  }
  std::shared_ptr<switchd::PortHandle> attach_port(PortId) override {
    return nullptr;
  }
  void detach_port(PortId) override {}

  // Called by ProcessCluster's channel handler for kSwEvent frames.
  void deliver_event(const common::Bytes& payload);

  // Swap the transport after a host restart (the old channel is gone).
  void rebind(CtlChannel* channel);

 private:
  common::Result<common::Bytes> call(std::uint8_t type,
                                     const common::Bytes& payload) const;

  HostId host_;
  mutable std::mutex mu_;  // guards channel_ swap and sink_
  CtlChannel* channel_;
  std::function<void(HostId, switchd::SwitchEvent)> sink_;
};

}  // namespace typhoon::proc
