#include "typhoon/proc_proto.h"

#include "openflow/wire.h"

namespace typhoon::proc {

void WriteStatus(common::BufWriter& w, const common::Status& st) {
  w.u8(static_cast<std::uint8_t>(st.code()));
  w.str(st.message());
}

bool ReadStatus(common::BufReader& r, common::Status& st) {
  std::uint8_t code = 0;
  std::string msg;
  if (!r.u8(code) ||
      code > static_cast<std::uint8_t>(common::ErrorCode::kInternal) ||
      !r.str(msg)) {
    return false;
  }
  st = common::Status(static_cast<common::ErrorCode>(code), std::move(msg));
  return true;
}

void WriteHello(common::BufWriter& w, const HelloMsg& m) { w.u32(m.host); }

bool ReadHello(common::BufReader& r, HelloMsg& m) { return r.u32(m.host); }

void WriteConfigure(common::BufWriter& w, const ConfigureMsg& m) {
  w.u8(static_cast<std::uint8_t>(m.transport));
  w.str(m.shm_prefix);
  w.u32(static_cast<std::uint32_t>(m.hosts.size()));
  for (HostId h : m.hosts) w.u32(h);
}

bool ReadConfigure(common::BufReader& r, ConfigureMsg& m) {
  m = {};
  std::uint8_t transport = 0;
  std::uint32_t n = 0;
  if (!r.u8(transport) ||
      transport > static_cast<std::uint8_t>(ProcTransport::kShmRing) ||
      !r.str(m.shm_prefix) || !r.u32(n) || n > r.remaining()) {
    return false;
  }
  m.transport = static_cast<ProcTransport>(transport);
  m.hosts.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    HostId h = 0;
    if (!r.u32(h)) return false;
    m.hosts.push_back(h);
  }
  return true;
}

void WriteListening(common::BufWriter& w, const ListeningMsg& m) {
  w.u16(m.data_port);
}

bool ReadListening(common::BufReader& r, ListeningMsg& m) {
  return r.u16(m.data_port);
}

void WritePeers(common::BufWriter& w, const PeersMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.peers.size()));
  for (const PeerEndpoint& p : m.peers) {
    w.u32(p.host);
    w.str(p.addr);
    w.u16(p.data_port);
  }
}

bool ReadPeers(common::BufReader& r, PeersMsg& m) {
  m = {};
  std::uint32_t n = 0;
  if (!r.u32(n) || n > r.remaining()) return false;
  m.peers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PeerEndpoint p;
    if (!r.u32(p.host) || !r.str(p.addr) || !r.u16(p.data_port)) {
      return false;
    }
    m.peers.push_back(std::move(p));
  }
  return true;
}

void WriteCoordCreate(common::BufWriter& w, const CoordCreateMsg& m) {
  w.str(m.path);
  w.bytes(m.data);
  w.u8(m.ephemeral ? 1 : 0);
  w.u64(m.owner);
}

bool ReadCoordCreate(common::BufReader& r, CoordCreateMsg& m) {
  m = {};
  std::uint8_t eph = 0;
  if (!r.str(m.path) || !r.bytes(m.data) || !r.u8(eph) || !r.u64(m.owner)) {
    return false;
  }
  m.ephemeral = eph != 0;
  return true;
}

void WriteCoordData(common::BufWriter& w, const CoordDataMsg& m) {
  w.str(m.path);
  w.bytes(m.data);
}

bool ReadCoordData(common::BufReader& r, CoordDataMsg& m) {
  m = {};
  return r.str(m.path) && r.bytes(m.data);
}

void WriteCoordRemove(common::BufWriter& w, const CoordRemoveMsg& m) {
  w.str(m.path);
  w.u8(m.recursive ? 1 : 0);
}

bool ReadCoordRemove(common::BufReader& r, CoordRemoveMsg& m) {
  m = {};
  std::uint8_t rec = 0;
  if (!r.str(m.path) || !r.u8(rec)) return false;
  m.recursive = rec != 0;
  return true;
}

void WriteCoordEcho(common::BufWriter& w, const CoordEchoMsg& m) {
  w.u8(static_cast<std::uint8_t>(m.op));
  w.str(m.path);
  w.bytes(m.data);
}

bool ReadCoordEcho(common::BufReader& r, CoordEchoMsg& m) {
  m = {};
  std::uint8_t op = 0;
  if (!r.u8(op) ||
      op > static_cast<std::uint8_t>(CoordEchoMsg::Op::kRemove) ||
      !r.str(m.path) || !r.bytes(m.data)) {
    return false;
  }
  m.op = static_cast<CoordEchoMsg::Op>(op);
  return true;
}

void WriteCoordSnapshot(common::BufWriter& w, const CoordSnapshotMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.nodes.size()));
  for (const auto& [path, data] : m.nodes) {
    w.str(path);
    w.bytes(data);
  }
}

bool ReadCoordSnapshot(common::BufReader& r, CoordSnapshotMsg& m) {
  m = {};
  std::uint32_t n = 0;
  if (!r.u32(n) || n > r.remaining()) return false;
  m.nodes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string path;
    common::Bytes data;
    if (!r.str(path) || !r.bytes(data)) return false;
    m.nodes.emplace_back(std::move(path), std::move(data));
  }
  return true;
}

namespace {
enum : std::uint8_t {
  kEvPacketIn = 0,
  kEvPortStatus = 1,
};
}  // namespace

void WriteSwitchEvent(common::BufWriter& w, const switchd::SwitchEvent& ev) {
  if (const auto* pi = std::get_if<openflow::PacketIn>(&ev)) {
    w.u8(kEvPacketIn);
    openflow::WritePacketIn(w, *pi);
  } else if (const auto* ps = std::get_if<openflow::PortStatus>(&ev)) {
    w.u8(kEvPortStatus);
    openflow::WritePortStatus(w, *ps);
  }
}

bool ReadSwitchEvent(common::BufReader& r, switchd::SwitchEvent& ev) {
  std::uint8_t kind = 0;
  if (!r.u8(kind)) return false;
  switch (kind) {
    case kEvPacketIn: {
      openflow::PacketIn pi;
      if (!openflow::ReadPacketIn(r, pi)) return false;
      ev = std::move(pi);
      return true;
    }
    case kEvPortStatus: {
      openflow::PortStatus ps;
      if (!openflow::ReadPortStatus(r, ps)) return false;
      ev = ps;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace typhoon::proc
