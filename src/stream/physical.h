// Physical topology (Fig 2(b)) and its serializable companion TopologySpec.
//
// The scheduler converts a logical topology into a physical one by expanding
// node parallelism and assigning each physical worker a unique worker ID, a
// compute host, and a dedicated SDN switch port. Both structures are stored
// in the coordinator (Table 1) so the SDN controller and worker agents can
// read them without touching in-memory manager state.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "stream/routing.h"

namespace typhoon::stream {

struct PhysicalWorker {
  WorkerId id = 0;
  NodeId node = 0;
  int task_index = 0;
  HostId host = 0;
  PortId port = 0;

  friend bool operator==(const PhysicalWorker&,
                         const PhysicalWorker&) = default;
};

struct PhysicalTopology {
  TopologyId id = 0;
  std::string name;
  std::uint64_t version = 0;  // bumped on every reschedule/reconfiguration
  std::vector<PhysicalWorker> workers;

  [[nodiscard]] const PhysicalWorker* worker(WorkerId w) const;
  // Workers of one logical node, ordered by task index — this ordering is
  // the nextHops array used in routing state, so it must be deterministic.
  [[nodiscard]] std::vector<PhysicalWorker> workers_of(NodeId node) const;
  [[nodiscard]] std::vector<WorkerId> worker_ids_of(NodeId node) const;
};

// Serializable view of the logical topology (structure only — computation
// factories stay in the submitting process and are resolved through the
// AppRegistry, our analog of "fetching application binaries").
struct NodeSpec {
  NodeId id = 0;
  std::string name;
  int parallelism = 1;
  bool is_spout = false;
  bool stateful = false;
};

struct EdgeSpec {
  NodeId from = 0;
  NodeId to = 0;
  GroupingType grouping = GroupingType::kShuffle;
  std::vector<std::uint32_t> key_indices;
  StreamId stream = 0;
};

struct TopologySpec {
  TopologyId id = 0;
  std::string name;
  std::uint64_t version = 0;
  bool reliable = false;      // guaranteed processing (acker) enabled
  std::uint32_t batch_size = 100;  // initial I/O-layer batch size
  // Timer flush for partially filled batches (latency floor when traffic is
  // slow); large values expose the batch-size latency trade-off of Fig 8.
  std::uint32_t flush_interval_us = 200;
  // Cap on outstanding (un-acked) spout tuples in reliable mode.
  std::uint32_t max_pending = 2048;
  // Un-acked spout tuples older than this are failed (and typically
  // replayed) — the recovery latency knob for lossy links.
  std::uint32_t pending_timeout_ms = 5000;
  // Spouts stamp a TraceContext on 1-in-N emitted tuples (0 = tracing off).
  std::uint32_t trace_sample_every = 1024;
  std::vector<NodeSpec> nodes;
  std::vector<EdgeSpec> edges;

  [[nodiscard]] const NodeSpec* node(NodeId id) const;
  [[nodiscard]] const NodeSpec* node_by_name(const std::string& name) const;
  [[nodiscard]] std::vector<EdgeSpec> out_edges(NodeId id) const;
  [[nodiscard]] std::vector<EdgeSpec> in_edges(NodeId id) const;
};

common::Bytes EncodePhysical(const PhysicalTopology& p);
bool DecodePhysical(std::span<const std::uint8_t> data, PhysicalTopology& p);

common::Bytes EncodeSpec(const TopologySpec& s);
bool DecodeSpec(std::span<const std::uint8_t> data, TopologySpec& s);

// Coordinator path helpers (Table 1 global states).
std::string SpecPath(const std::string& topology);
std::string PhysicalPath(const std::string& topology);
std::string AssignmentsPath(HostId host);
std::string AssignmentPath(HostId host, WorkerId worker);
std::string WorkerStatePath(const std::string& topology, WorkerId worker);
std::string WorkerHeartbeatPath(const std::string& topology, WorkerId worker);

// The record at WorkerHeartbeatPath, a worker's only liveness and load
// signal: "<t_us> <queue_depth>", written with one put every
// kHeartbeatInterval. The manager seeds a new assignment with "<t_us>"
// alone, which parses as depth unknown: a timestamp the manager wrote never
// vouches for a queue depth the worker did not publish.
inline constexpr std::chrono::milliseconds kHeartbeatInterval{25};

struct Heartbeat {
  // common::NowMicros() at publish time; 0 for a malformed record, which
  // therefore reads as stale.
  std::int64_t t_us = 0;
  std::optional<std::int64_t> queue_depth;  // nullopt: unknown
};

std::string EncodeHeartbeat(const Heartbeat& hb);
Heartbeat ParseHeartbeat(std::string_view record);

}  // namespace typhoon::stream
