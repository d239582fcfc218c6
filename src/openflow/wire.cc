#include "openflow/wire.h"

namespace typhoon::openflow {

namespace {

// Variant tags for FlowAction; wire values, never reorder.
enum : std::uint8_t {
  kActOutput = 0,
  kActOutputController = 1,
  kActSetTunDst = 2,
  kActGroup = 3,
  kActSetDlDst = 4,
};

template <typename T, typename WriteFn>
void WriteOpt(common::BufWriter& w, const std::optional<T>& v, WriteFn fn) {
  w.u8(v.has_value() ? 1 : 0);
  if (v) fn(*v);
}

}  // namespace

void WriteFlowMatch(common::BufWriter& w, const FlowMatch& m) {
  WriteOpt(w, m.in_port, [&](PortId v) { w.u32(v); });
  WriteOpt(w, m.dl_src, [&](std::uint64_t v) { w.u64(v); });
  WriteOpt(w, m.dl_dst, [&](std::uint64_t v) { w.u64(v); });
  WriteOpt(w, m.ether_type, [&](std::uint16_t v) { w.u16(v); });
}

bool ReadFlowMatch(common::BufReader& r, FlowMatch& m) {
  std::uint8_t has = 0;
  m = {};
  if (!r.u8(has)) return false;
  if (has != 0) {
    std::uint32_t v = 0;
    if (!r.u32(v)) return false;
    m.in_port = v;
  }
  if (!r.u8(has)) return false;
  if (has != 0) {
    std::uint64_t v = 0;
    if (!r.u64(v)) return false;
    m.dl_src = v;
  }
  if (!r.u8(has)) return false;
  if (has != 0) {
    std::uint64_t v = 0;
    if (!r.u64(v)) return false;
    m.dl_dst = v;
  }
  if (!r.u8(has)) return false;
  if (has != 0) {
    std::uint16_t v = 0;
    if (!r.u16(v)) return false;
    m.ether_type = v;
  }
  return true;
}

void WriteFlowAction(common::BufWriter& w, const FlowAction& a) {
  if (const auto* out = std::get_if<ActionOutput>(&a)) {
    w.u8(kActOutput);
    w.u32(out->port);
  } else if (std::holds_alternative<ActionOutputController>(a)) {
    w.u8(kActOutputController);
  } else if (const auto* tun = std::get_if<ActionSetTunDst>(&a)) {
    w.u8(kActSetTunDst);
    w.u32(tun->host);
  } else if (const auto* grp = std::get_if<ActionGroup>(&a)) {
    w.u8(kActGroup);
    w.u32(grp->group_id);
  } else if (const auto* dst = std::get_if<ActionSetDlDst>(&a)) {
    w.u8(kActSetDlDst);
    w.u64(dst->dl_dst);
  }
}

bool ReadFlowAction(common::BufReader& r, FlowAction& a) {
  std::uint8_t tag = 0;
  if (!r.u8(tag)) return false;
  switch (tag) {
    case kActOutput: {
      std::uint32_t port = 0;
      if (!r.u32(port)) return false;
      a = ActionOutput{port};
      return true;
    }
    case kActOutputController:
      a = ActionOutputController{};
      return true;
    case kActSetTunDst: {
      std::uint32_t host = 0;
      if (!r.u32(host)) return false;
      a = ActionSetTunDst{host};
      return true;
    }
    case kActGroup: {
      std::uint32_t gid = 0;
      if (!r.u32(gid)) return false;
      a = ActionGroup{gid};
      return true;
    }
    case kActSetDlDst: {
      std::uint64_t dst = 0;
      if (!r.u64(dst)) return false;
      a = ActionSetDlDst{dst};
      return true;
    }
    default:
      return false;
  }
}

void WriteFlowRule(common::BufWriter& w, const FlowRule& rule) {
  WriteFlowMatch(w, rule.match);
  w.u32(static_cast<std::uint32_t>(rule.actions.size()));
  for (const FlowAction& a : rule.actions) WriteFlowAction(w, a);
  w.u16(rule.priority);
  w.u64(rule.cookie);
}

bool ReadFlowRule(common::BufReader& r, FlowRule& rule) {
  rule = {};
  if (!ReadFlowMatch(r, rule.match)) return false;
  std::uint32_t n = 0;
  if (!r.u32(n)) return false;
  // Each action is at least a tag byte; reject counts the buffer cannot hold.
  if (n > r.remaining()) return false;
  SharedActions::List actions;
  actions.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FlowAction a;
    if (!ReadFlowAction(r, a)) return false;
    actions.push_back(std::move(a));
  }
  rule.actions = SharedActions(std::move(actions));
  return r.u16(rule.priority) && r.u64(rule.cookie);
}

void WriteFlowMod(common::BufWriter& w, const FlowMod& mod) {
  w.u8(static_cast<std::uint8_t>(mod.command));
  WriteFlowRule(w, mod.rule);
}

bool ReadFlowMod(common::BufReader& r, FlowMod& mod) {
  std::uint8_t cmd = 0;
  if (!r.u8(cmd) || cmd > static_cast<std::uint8_t>(FlowModCommand::kDelete)) {
    return false;
  }
  mod.command = static_cast<FlowModCommand>(cmd);
  return ReadFlowRule(r, mod.rule);
}

void WriteGroupMod(common::BufWriter& w, const GroupMod& mod) {
  w.u8(static_cast<std::uint8_t>(mod.command));
  w.u32(mod.group_id);
  w.u8(static_cast<std::uint8_t>(mod.type));
  w.u32(static_cast<std::uint32_t>(mod.buckets.size()));
  for (const GroupBucket& b : mod.buckets) {
    w.u32(b.weight);
    w.u32(static_cast<std::uint32_t>(b.actions.size()));
    for (const FlowAction& a : b.actions) WriteFlowAction(w, a);
  }
}

bool ReadGroupMod(common::BufReader& r, GroupMod& mod) {
  mod = {};
  std::uint8_t cmd = 0;
  std::uint8_t type = 0;
  std::uint32_t buckets = 0;
  if (!r.u8(cmd) ||
      cmd > static_cast<std::uint8_t>(GroupMod::Command::kDelete) ||
      !r.u32(mod.group_id) || !r.u8(type) ||
      type > static_cast<std::uint8_t>(GroupType::kSelect) ||
      !r.u32(buckets) || buckets > r.remaining()) {
    return false;
  }
  mod.command = static_cast<GroupMod::Command>(cmd);
  mod.type = static_cast<GroupType>(type);
  mod.buckets.reserve(buckets);
  for (std::uint32_t i = 0; i < buckets; ++i) {
    GroupBucket b;
    std::uint32_t n = 0;
    if (!r.u32(b.weight) || !r.u32(n) || n > r.remaining()) return false;
    b.actions.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      FlowAction a;
      if (!ReadFlowAction(r, a)) return false;
      b.actions.push_back(std::move(a));
    }
    mod.buckets.push_back(std::move(b));
  }
  return true;
}

void WriteBundle(common::BufWriter& w, const Bundle& b) {
  w.u32(static_cast<std::uint32_t>(b.flows.size()));
  for (const FlowMod& mod : b.flows) WriteFlowMod(w, mod);
  w.u32(static_cast<std::uint32_t>(b.groups.size()));
  for (const GroupMod& mod : b.groups) WriteGroupMod(w, mod);
  w.u32(static_cast<std::uint32_t>(b.delete_cookies.size()));
  for (std::uint64_t cookie : b.delete_cookies) w.u64(cookie);
}

bool ReadBundle(common::BufReader& r, Bundle& b) {
  b = {};
  // Every FlowMod and GroupMod takes at least one byte, a cookie eight:
  // reject counts the buffer cannot hold before reserving for them.
  std::uint32_t n = 0;
  if (!r.u32(n) || n > r.remaining()) return false;
  b.flows.resize(n);
  for (FlowMod& mod : b.flows) {
    if (!ReadFlowMod(r, mod)) return false;
  }
  if (!r.u32(n) || n > r.remaining()) return false;
  b.groups.resize(n);
  for (GroupMod& mod : b.groups) {
    if (!ReadGroupMod(r, mod)) return false;
  }
  if (!r.u32(n) || n > r.remaining() / 8) return false;
  b.delete_cookies.resize(n);
  for (std::uint64_t& cookie : b.delete_cookies) {
    if (!r.u64(cookie)) return false;
  }
  return true;
}

void WritePacket(common::BufWriter& w, const net::PacketPtr& p) {
  if (!p) {
    w.u8(0);
    return;
  }
  w.u8(1);
  common::Bytes frame;
  frame.reserve(p->wire_size());
  net::EncodeFrame(*p, frame);
  w.bytes(frame);
}

bool ReadPacket(common::BufReader& r, net::PacketPtr& p) {
  std::uint8_t has = 0;
  if (!r.u8(has)) return false;
  if (has == 0) {
    p = nullptr;
    return true;
  }
  std::span<const std::uint8_t> frame;
  if (!r.bytes_view(frame)) return false;
  auto pkt = net::DecodeFrame(frame);
  if (!pkt) return false;
  p = net::MakePacket(std::move(*pkt));
  return true;
}

void WritePacketOut(common::BufWriter& w, const PacketOut& po) {
  WritePacket(w, po.packet);
  w.u32(po.in_port);
}

bool ReadPacketOut(common::BufReader& r, PacketOut& po) {
  return ReadPacket(r, po.packet) && r.u32(po.in_port);
}

void WritePortStats(common::BufWriter& w, const PortStats& s) {
  w.u32(s.port);
  w.u64(s.rx_packets);
  w.u64(s.tx_packets);
  w.u64(s.rx_bytes);
  w.u64(s.tx_bytes);
  w.u64(s.tx_dropped);
  w.u64(s.rx_backlog);
}

bool ReadPortStats(common::BufReader& r, PortStats& s) {
  return r.u32(s.port) && r.u64(s.rx_packets) && r.u64(s.tx_packets) &&
         r.u64(s.rx_bytes) && r.u64(s.tx_bytes) && r.u64(s.tx_dropped) &&
         r.u64(s.rx_backlog);
}

void WriteFlowStats(common::BufWriter& w, const FlowStats& s) {
  WriteFlowRule(w, s.rule);
  w.u64(s.packets);
  w.u64(s.bytes);
}

bool ReadFlowStats(common::BufReader& r, FlowStats& s) {
  return ReadFlowRule(r, s.rule) && r.u64(s.packets) && r.u64(s.bytes);
}

void WritePacketIn(common::BufWriter& w, const PacketIn& pi) {
  WritePacket(w, pi.packet);
  w.u32(pi.in_port);
}

bool ReadPacketIn(common::BufReader& r, PacketIn& pi) {
  return ReadPacket(r, pi.packet) && r.u32(pi.in_port);
}

void WritePortStatus(common::BufWriter& w, const PortStatus& ps) {
  w.u32(ps.port);
  w.u8(static_cast<std::uint8_t>(ps.reason));
}

bool ReadPortStatus(common::BufReader& r, PortStatus& ps) {
  std::uint8_t reason = 0;
  if (!r.u32(ps.port) || !r.u8(reason) ||
      reason > static_cast<std::uint8_t>(PortReason::kModify)) {
    return false;
  }
  ps.reason = static_cast<PortReason>(reason);
  return true;
}

}  // namespace typhoon::openflow
