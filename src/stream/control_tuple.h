// Control tuples (paper Table 2) — injected by the SDN controller via
// PacketOut and consumed by the worker framework layer (or forwarded to the
// application layer, in SIGNAL's case). They share the data-tuple packet
// format but travel on kControlStream with the control chunk flag set.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "stream/routing.h"

namespace typhoon::stream {

enum class ControlType : std::uint8_t {
  kRouting = 1,      // update application routing information
  kSignal = 2,       // flush in-memory cache in stateful workers
  kMetricReq = 3,    // request worker's internal statistics
  kMetricResp = 4,   // response (queue status, emitted tuple counts, ...)
  kInputRate = 5,    // throttle a worker's input processing rate
  kActivate = 6,     // unthrottle the first workers of a topology
  kDeactivate = 7,   // throttle them
  kBatchSize = 8,    // adjust I/O-layer tuple batch size
  kControlAck = 9,   // worker -> controller: ack of a sequenced control
                     // tuple (request_id carries the acked seq)
};

[[nodiscard]] const char* ControlTypeName(ControlType t);

// ROUTING payload: replaces the worker's routing state for the edge
// targeting `to_node` (Listing 1's nextHops/numNextHops/policy fields).
// With `remove` set the edge is unplugged entirely (detaching a dynamic
// query sub-pipeline), rather than paused.
struct RoutingUpdate {
  NodeId to_node = 0;
  bool remove = false;
  RoutingState state;
};

// METRIC_RESP payload.
struct MetricReport {
  WorkerId worker = 0;
  std::uint64_t request_id = 0;
  std::vector<std::pair<std::string, std::int64_t>> metrics;
};

struct ControlTuple {
  ControlType type = ControlType::kSignal;
  // Set for kRouting.
  std::optional<RoutingUpdate> routing;
  // Set for kMetricResp.
  std::optional<MetricReport> report;
  // kMetricReq correlation id (kControlAck: the acked sequence number).
  std::uint64_t request_id = 0;
  // Reliable-delivery sequence number. Zero means fire-and-forget; nonzero
  // makes the receiving worker ack the tuple and apply it at most once,
  // letting the controller retransmit safely (idempotent control channel).
  std::uint64_t seq = 0;
  // kInputRate: tuples/sec (0 = unlimited).
  double input_rate = 0.0;
  // kBatchSize: new I/O batch size.
  std::uint32_t batch_size = 0;
  // kSignal: opaque tag passed to the application (e.g. window flush kind).
  std::string signal_tag;
};

// The two stable-update tuples (Sec 3.5).
ControlTuple MakeRouting(RoutingUpdate update);
ControlTuple MakeSignal(std::string tag);

common::Bytes EncodeControl(const ControlTuple& ct);
bool DecodeControl(std::span<const std::uint8_t> data, ControlTuple& ct);

}  // namespace typhoon::stream
