#include "typhoon/remote_switch.h"

#include "openflow/wire.h"
#include "typhoon/proc_proto.h"

namespace typhoon::proc {

common::Result<common::Bytes> RemoteSwitch::call(
    std::uint8_t type, const common::Bytes& payload) const {
  CtlChannel* ch = nullptr;
  {
    std::lock_guard lk(mu_);
    ch = channel_;
  }
  if (ch == nullptr || ch->closed()) {
    return common::Unavailable("host channel down");
  }
  return ch->call(type, payload);
}

void RemoteSwitch::rebind(CtlChannel* channel) {
  std::lock_guard lk(mu_);
  channel_ = channel;
}

void RemoteSwitch::apply(const openflow::Bundle& b) {
  common::Bytes payload;
  common::BufWriter w(payload);
  openflow::WriteBundle(w, b);
  (void)call(kSwApply, payload);
}

void RemoteSwitch::handle_packet_out(const openflow::PacketOut& po) {
  common::Bytes payload;
  common::BufWriter w(payload);
  openflow::WritePacketOut(w, po);
  (void)call(kSwPacketOut, payload);
}

std::vector<openflow::PortStats> RemoteSwitch::port_stats() const {
  std::vector<openflow::PortStats> out;
  auto r = call(kSwPortStats, {});
  if (!r.ok()) return out;
  common::BufReader br(r.value());
  std::uint32_t n = 0;
  if (!br.u32(n)) return out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    openflow::PortStats s;
    if (!openflow::ReadPortStats(br, s)) break;
    out.push_back(s);
  }
  return out;
}

std::vector<openflow::FlowStats> RemoteSwitch::flow_stats(
    std::optional<std::uint64_t> cookie) const {
  std::vector<openflow::FlowStats> out;
  common::Bytes payload;
  common::BufWriter w(payload);
  w.u8(cookie.has_value() ? 1 : 0);
  if (cookie) w.u64(*cookie);
  auto r = call(kSwFlowStats, payload);
  if (!r.ok()) return out;
  common::BufReader br(r.value());
  std::uint32_t n = 0;
  if (!br.u32(n)) return out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    openflow::FlowStats s;
    if (!openflow::ReadFlowStats(br, s)) break;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<openflow::FlowRule> RemoteSwitch::flow_rules() const {
  std::vector<openflow::FlowRule> out;
  auto r = call(kSwFlowRules, {});
  if (!r.ok()) return out;
  common::BufReader br(r.value());
  std::uint32_t n = 0;
  if (!br.u32(n)) return out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    openflow::FlowRule rule;
    if (!openflow::ReadFlowRule(br, rule)) break;
    out.push_back(std::move(rule));
  }
  return out;
}

std::size_t RemoteSwitch::flow_count() const {
  auto r = call(kSwFlowCount, {});
  if (!r.ok()) return 0;
  common::BufReader br(r.value());
  std::uint64_t n = 0;
  return br.u64(n) ? static_cast<std::size_t>(n) : 0;
}

void RemoteSwitch::set_event_sink(
    std::function<void(HostId, switchd::SwitchEvent)> sink) {
  std::lock_guard lk(mu_);
  sink_ = std::move(sink);
}

void RemoteSwitch::set_port_ingress_rate(PortId port, double bytes_per_sec) {
  common::Bytes payload;
  common::BufWriter w(payload);
  w.u32(port);
  w.f64(bytes_per_sec);
  (void)call(kSwSetIngressRate, payload);
}

double RemoteSwitch::port_ingress_rate(PortId port) const {
  common::Bytes payload;
  common::BufWriter w(payload);
  w.u32(port);
  auto r = call(kSwGetIngressRate, payload);
  if (!r.ok()) return 0.0;
  common::BufReader br(r.value());
  double rate = 0.0;
  return br.f64(rate) ? rate : 0.0;
}

void RemoteSwitch::deliver_event(const common::Bytes& payload) {
  common::BufReader br(payload);
  switchd::SwitchEvent ev;
  if (!ReadSwitchEvent(br, ev)) return;
  std::function<void(HostId, switchd::SwitchEvent)> sink;
  {
    std::lock_guard lk(mu_);
    sink = sink_;
  }
  if (sink) sink(host_, std::move(ev));
}

}  // namespace typhoon::proc
