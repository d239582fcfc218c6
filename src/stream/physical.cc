#include "stream/physical.h"

#include <algorithm>
#include <charconv>

namespace typhoon::stream {

const PhysicalWorker* PhysicalTopology::worker(WorkerId w) const {
  for (const PhysicalWorker& pw : workers) {
    if (pw.id == w) return &pw;
  }
  return nullptr;
}

std::vector<PhysicalWorker> PhysicalTopology::workers_of(NodeId node) const {
  std::vector<PhysicalWorker> out;
  for (const PhysicalWorker& pw : workers) {
    if (pw.node == node) out.push_back(pw);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.task_index < b.task_index;
  });
  return out;
}

std::vector<WorkerId> PhysicalTopology::worker_ids_of(NodeId node) const {
  std::vector<WorkerId> out;
  for (const PhysicalWorker& pw : workers_of(node)) out.push_back(pw.id);
  return out;
}

const NodeSpec* TopologySpec::node(NodeId node_id) const {
  for (const NodeSpec& n : nodes) {
    if (n.id == node_id) return &n;
  }
  return nullptr;
}

const NodeSpec* TopologySpec::node_by_name(const std::string& node_name) const {
  for (const NodeSpec& n : nodes) {
    if (n.name == node_name) return &n;
  }
  return nullptr;
}

std::vector<EdgeSpec> TopologySpec::out_edges(NodeId node_id) const {
  std::vector<EdgeSpec> out;
  for (const EdgeSpec& e : edges) {
    if (e.from == node_id) out.push_back(e);
  }
  return out;
}

std::vector<EdgeSpec> TopologySpec::in_edges(NodeId node_id) const {
  std::vector<EdgeSpec> out;
  for (const EdgeSpec& e : edges) {
    if (e.to == node_id) out.push_back(e);
  }
  return out;
}

common::Bytes EncodePhysical(const PhysicalTopology& p) {
  common::Bytes out;
  common::BufWriter w(out);
  w.u16(p.id);
  w.str(p.name);
  w.u64(p.version);
  w.u32(static_cast<std::uint32_t>(p.workers.size()));
  for (const PhysicalWorker& pw : p.workers) {
    w.u64(pw.id);
    w.u32(pw.node);
    w.u32(static_cast<std::uint32_t>(pw.task_index));
    w.u32(pw.host);
    w.u32(pw.port);
  }
  return out;
}

bool DecodePhysical(std::span<const std::uint8_t> data, PhysicalTopology& p) {
  common::BufReader r(data);
  std::uint32_t n = 0;
  if (!r.u16(p.id) || !r.str(p.name) || !r.u64(p.version) || !r.u32(n)) {
    return false;
  }
  p.workers.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PhysicalWorker& pw = p.workers[i];
    std::uint32_t task = 0;
    if (!r.u64(pw.id) || !r.u32(pw.node) || !r.u32(task) || !r.u32(pw.host) ||
        !r.u32(pw.port)) {
      return false;
    }
    pw.task_index = static_cast<int>(task);
  }
  return true;
}

common::Bytes EncodeSpec(const TopologySpec& s) {
  common::Bytes out;
  common::BufWriter w(out);
  w.u16(s.id);
  w.str(s.name);
  w.u64(s.version);
  w.u8(s.reliable ? 1 : 0);
  w.u32(s.batch_size);
  w.u32(s.flush_interval_us);
  w.u32(s.max_pending);
  w.u32(s.pending_timeout_ms);
  w.u32(s.trace_sample_every);
  w.u32(static_cast<std::uint32_t>(s.nodes.size()));
  for (const NodeSpec& n : s.nodes) {
    w.u32(n.id);
    w.str(n.name);
    w.u32(static_cast<std::uint32_t>(n.parallelism));
    w.u8(n.is_spout ? 1 : 0);
    w.u8(n.stateful ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(s.edges.size()));
  for (const EdgeSpec& e : s.edges) {
    w.u32(e.from);
    w.u32(e.to);
    w.u8(static_cast<std::uint8_t>(e.grouping));
    w.u32(static_cast<std::uint32_t>(e.key_indices.size()));
    for (std::uint32_t k : e.key_indices) w.u32(k);
    w.u16(e.stream);
  }
  return out;
}

bool DecodeSpec(std::span<const std::uint8_t> data, TopologySpec& s) {
  common::BufReader r(data);
  std::uint8_t reliable = 0;
  std::uint32_t nn = 0;
  if (!r.u16(s.id) || !r.str(s.name) || !r.u64(s.version) ||
      !r.u8(reliable) || !r.u32(s.batch_size) ||
      !r.u32(s.flush_interval_us) || !r.u32(s.max_pending) ||
      !r.u32(s.pending_timeout_ms) || !r.u32(s.trace_sample_every) ||
      !r.u32(nn)) {
    return false;
  }
  s.reliable = reliable != 0;
  s.nodes.resize(nn);
  for (std::uint32_t i = 0; i < nn; ++i) {
    NodeSpec& n = s.nodes[i];
    std::uint32_t par = 0;
    std::uint8_t spout = 0;
    std::uint8_t stateful = 0;
    if (!r.u32(n.id) || !r.str(n.name) || !r.u32(par) || !r.u8(spout) ||
        !r.u8(stateful)) {
      return false;
    }
    n.parallelism = static_cast<int>(par);
    n.is_spout = spout != 0;
    n.stateful = stateful != 0;
  }
  std::uint32_t ne = 0;
  if (!r.u32(ne)) return false;
  s.edges.resize(ne);
  for (std::uint32_t i = 0; i < ne; ++i) {
    EdgeSpec& e = s.edges[i];
    std::uint8_t g = 0;
    std::uint32_t nk = 0;
    if (!r.u32(e.from) || !r.u32(e.to) || !r.u8(g) || !r.u32(nk)) {
      return false;
    }
    e.grouping = static_cast<GroupingType>(g);
    e.key_indices.resize(nk);
    for (std::uint32_t k = 0; k < nk; ++k) {
      if (!r.u32(e.key_indices[k])) return false;
    }
    if (!r.u16(e.stream)) return false;
  }
  return true;
}

std::string SpecPath(const std::string& topology) {
  return "/topologies/" + topology + "/spec";
}
std::string PhysicalPath(const std::string& topology) {
  return "/topologies/" + topology + "/physical";
}
std::string AssignmentsPath(HostId host) {
  return "/assignments/host" + std::to_string(host);
}
std::string AssignmentPath(HostId host, WorkerId worker) {
  return AssignmentsPath(host) + "/w" + std::to_string(worker);
}
std::string WorkerStatePath(const std::string& topology, WorkerId worker) {
  return "/workers/" + topology + "/w" + std::to_string(worker) + "/state";
}
std::string WorkerHeartbeatPath(const std::string& topology, WorkerId worker) {
  return "/workers/" + topology + "/w" + std::to_string(worker) + "/heartbeat";
}

std::string EncodeHeartbeat(const Heartbeat& hb) {
  std::string out = std::to_string(hb.t_us);
  if (hb.queue_depth) out += " " + std::to_string(*hb.queue_depth);
  return out;
}

Heartbeat ParseHeartbeat(std::string_view record) {
  const char* p = record.data();
  const char* end = p + record.size();
  Heartbeat hb;
  auto [t_end, t_ec] = std::from_chars(p, end, hb.t_us);
  if (t_ec != std::errc{}) return {};
  if (t_end == end) return hb;
  if (*t_end != ' ') return {};
  std::int64_t depth = 0;
  auto [d_end, d_ec] = std::from_chars(t_end + 1, end, depth);
  if (d_ec != std::errc{} || d_end != end) return {};
  hb.queue_depth = depth;
  return hb;
}

}  // namespace typhoon::stream
