// Wire codec for OpenFlow-modeled control messages (openflow/flow.h) —
// the payload layer of the multi-process control channel (DESIGN.md
// Sec 17). Little-endian fixed-width fields via common::BufWriter /
// BufReader; optionals carry a presence byte, variants a tag byte, vectors
// a u32 count. Packets ride their existing frame codec (net::EncodeFrame).
//
// Readers are bounds-checked and return false on truncated or malformed
// input instead of throwing, like the rest of the codec layer.
#pragma once

#include "common/bytes.h"
#include "openflow/flow.h"

namespace typhoon::openflow {

void WriteFlowMatch(common::BufWriter& w, const FlowMatch& m);
bool ReadFlowMatch(common::BufReader& r, FlowMatch& m);

void WriteFlowAction(common::BufWriter& w, const FlowAction& a);
bool ReadFlowAction(common::BufReader& r, FlowAction& a);

void WriteFlowRule(common::BufWriter& w, const FlowRule& rule);
bool ReadFlowRule(common::BufReader& r, FlowRule& rule);

void WriteFlowMod(common::BufWriter& w, const FlowMod& mod);
bool ReadFlowMod(common::BufReader& r, FlowMod& mod);

void WriteGroupMod(common::BufWriter& w, const GroupMod& mod);
bool ReadGroupMod(common::BufReader& r, GroupMod& mod);

// [u32 n][FlowMod...][u32 n][GroupMod...][u32 n][u64 cookie...]
void WriteBundle(common::BufWriter& w, const Bundle& b);
bool ReadBundle(common::BufReader& r, Bundle& b);

// Null packets encode as an empty frame (presence byte 0).
void WritePacket(common::BufWriter& w, const net::PacketPtr& p);
bool ReadPacket(common::BufReader& r, net::PacketPtr& p);

void WritePacketOut(common::BufWriter& w, const PacketOut& po);
bool ReadPacketOut(common::BufReader& r, PacketOut& po);

void WritePortStats(common::BufWriter& w, const PortStats& s);
bool ReadPortStats(common::BufReader& r, PortStats& s);

void WriteFlowStats(common::BufWriter& w, const FlowStats& s);
bool ReadFlowStats(common::BufReader& r, FlowStats& s);

void WritePacketIn(common::BufWriter& w, const PacketIn& pi);
bool ReadPacketIn(common::BufReader& r, PacketIn& pi);

void WritePortStatus(common::BufWriter& w, const PortStatus& ps);
bool ReadPortStatus(common::BufReader& r, PortStatus& ps);

}  // namespace typhoon::openflow
