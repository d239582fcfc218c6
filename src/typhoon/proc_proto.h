// Payload codecs for the multi-process control channel (DESIGN.md Sec 17).
// Every frame on a CtlChannel has one of these types; the payload layouts
// use common::BufWriter/BufReader (little-endian, length-prefixed strings)
// and openflow/wire.h for the OpenFlow-modeled structures.
//
// Bootstrap handshake (in order, per host):
//   child  -> parent : kHello      [u32 host]
//   parent -> child  : kCoordSnapshot (mirror seed; ordered before echoes)
//   parent -> child  : kConfigure  (transport, shm prefix, peer host ids)
//   child  -> parent : kListening  [u16 data_port]   (socket transport)
//   parent -> child  : kPeers      (every host's data endpoint)
//   child  -> parent : kReady      []
//   parent -> child  : kShutdown   []                (teardown)
//
// Coordinator mirroring: children forward mutations as RPCs; the parent
// applies them to the authoritative tree and broadcasts kCoordEcho frames
// to every child in mutation order. The issuing child's echo precedes its
// RPC reply on the same TCP stream, so a returned RPC implies the local
// mirror already reflects the write (read-your-writes).
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "switchd/switch_control.h"

namespace typhoon::proc {

// Frame types. Wire values — never reorder. 0xFF is CtlChannel's reply.
enum MsgType : std::uint8_t {
  // bootstrap
  kHello = 1,         // rpc: child -> parent, reply = status
  kConfigure = 2,     // one-way: parent -> child
  kListening = 3,     // one-way: child -> parent
  kPeers = 4,         // one-way: parent -> child (also re-sent on restarts)
  kReady = 5,         // one-way: child -> parent
  kShutdown = 6,      // one-way: parent -> child

  // coordinator mirroring
  kCoordCreateSession = 16,  // rpc, reply = [status][u64 session]
  kCoordCloseSession = 17,   // rpc, reply = [status]
  kCoordCreate = 18,         // rpc, reply = [status]
  kCoordSet = 19,            // rpc, reply = [status]
  kCoordPut = 20,            // rpc, reply = [status]
  kCoordRemove = 21,         // rpc, reply = [status]
  kCoordEcho = 22,           // one-way: parent -> child
  kCoordSnapshot = 23,       // one-way: parent -> child

  // switch control (parent -> child rpc, except kSwEvent). kSwApply
  // carries one openflow::Bundle, the only table change; 33, 35 and 36
  // are retired.
  kSwApply = 32,             // reply = []
  kSwPacketOut = 34,         // reply = []
  kSwPortStats = 37,         // reply = [u32 n][PortStats...]
  kSwFlowStats = 38,         // reply = [u32 n][FlowStats...]
  kSwFlowRules = 39,         // reply = [u32 n][FlowRule...]
  kSwFlowCount = 40,         // reply = [u64 count]
  kSwSetIngressRate = 41,    // reply = []
  kSwGetIngressRate = 42,    // reply = [f64]
  kSwEvent = 43,             // one-way: child -> parent
};

// Bootstrap waits. A child gets one kChildBootstrapTimeout budget for its
// whole handshake (dial, hello, configure, peers); the parent's wait for a
// host to report ready outlasts it, so a child that gives up exits with its
// own failure code, naming the step, before the parent declares it lost.
inline constexpr std::chrono::milliseconds kParentBootstrapWait{20000};
inline constexpr std::chrono::milliseconds kChildBootstrapTimeout{15000};
static_assert(kParentBootstrapWait > kChildBootstrapTimeout);

// ---- status ----
void WriteStatus(common::BufWriter& w, const common::Status& st);
bool ReadStatus(common::BufReader& r, common::Status& st);

// ---- bootstrap ----
struct HelloMsg {
  HostId host = 0;
};

enum class ProcTransport : std::uint8_t { kSocket = 0, kShmRing = 1 };

struct ConfigureMsg {
  ProcTransport transport = ProcTransport::kSocket;
  std::string shm_prefix;               // shm segment name prefix
  std::vector<HostId> hosts;            // all cluster hosts, sorted
};

struct ListeningMsg {
  std::uint16_t data_port = 0;
};

struct PeerEndpoint {
  HostId host = 0;
  std::string addr;
  std::uint16_t data_port = 0;
};

struct PeersMsg {
  std::vector<PeerEndpoint> peers;
};

void WriteHello(common::BufWriter& w, const HelloMsg& m);
bool ReadHello(common::BufReader& r, HelloMsg& m);
void WriteConfigure(common::BufWriter& w, const ConfigureMsg& m);
bool ReadConfigure(common::BufReader& r, ConfigureMsg& m);
void WriteListening(common::BufWriter& w, const ListeningMsg& m);
bool ReadListening(common::BufReader& r, ListeningMsg& m);
void WritePeers(common::BufWriter& w, const PeersMsg& m);
bool ReadPeers(common::BufReader& r, PeersMsg& m);

// ---- coordinator ----
struct CoordCreateMsg {
  std::string path;
  common::Bytes data;
  bool ephemeral = false;
  std::uint64_t owner = 0;
};

struct CoordDataMsg {  // set / put
  std::string path;
  common::Bytes data;
};

struct CoordRemoveMsg {
  std::string path;
  bool recursive = false;
};

// Echoed mutation a mirror applies through the base Coordinator.
struct CoordEchoMsg {
  enum class Op : std::uint8_t { kPut = 0, kRemove = 1 };
  Op op = Op::kPut;
  std::string path;
  common::Bytes data;
};

struct CoordSnapshotMsg {
  std::vector<std::pair<std::string, common::Bytes>> nodes;
};

void WriteCoordCreate(common::BufWriter& w, const CoordCreateMsg& m);
bool ReadCoordCreate(common::BufReader& r, CoordCreateMsg& m);
void WriteCoordData(common::BufWriter& w, const CoordDataMsg& m);
bool ReadCoordData(common::BufReader& r, CoordDataMsg& m);
void WriteCoordRemove(common::BufWriter& w, const CoordRemoveMsg& m);
bool ReadCoordRemove(common::BufReader& r, CoordRemoveMsg& m);
void WriteCoordEcho(common::BufWriter& w, const CoordEchoMsg& m);
bool ReadCoordEcho(common::BufReader& r, CoordEchoMsg& m);
void WriteCoordSnapshot(common::BufWriter& w, const CoordSnapshotMsg& m);
bool ReadCoordSnapshot(common::BufReader& r, CoordSnapshotMsg& m);

// ---- switch events ----
void WriteSwitchEvent(common::BufWriter& w, const switchd::SwitchEvent& ev);
bool ReadSwitchEvent(common::BufReader& r, switchd::SwitchEvent& ev);

}  // namespace typhoon::proc
