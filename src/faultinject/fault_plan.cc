#include "faultinject/fault_plan.h"

#include <charconv>
#include <cstdlib>

namespace typhoon::faultinject {

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kImpairTunnel: return "impair_tunnel";
    case FaultKind::kImpairPort: return "impair_port";
    case FaultKind::kCrashWorker: return "crash";
    case FaultKind::kHangWorker: return "hang";
    case FaultKind::kSlowWorker: return "slow";
    case FaultKind::kPartitionController: return "partition";
    case FaultKind::kHealController: return "heal";
    case FaultKind::kFailHost: return "fail_host";
    case FaultKind::kCrashController: return "controller_crash";
  }
  return "?";
}

namespace {

bool ParseI64(std::string_view v, std::int64_t& out) {
  // Accept scientific shorthand (2e4) alongside plain integers.
  if (v.find('e') != std::string_view::npos ||
      v.find('E') != std::string_view::npos) {
    char* end = nullptr;
    const std::string s(v);
    const double d = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size()) return false;
    out = static_cast<std::int64_t>(d);
    return true;
  }
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc{} && p == v.data() + v.size();
}

bool ParseF64(std::string_view v, double& out) {
  char* end = nullptr;
  const std::string s(v);
  out = std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size() && !s.empty();
}

bool ParseKind(std::string_view v, FaultKind& out) {
  if (v == "impair_tunnel") out = FaultKind::kImpairTunnel;
  else if (v == "impair_port") out = FaultKind::kImpairPort;
  else if (v == "crash") out = FaultKind::kCrashWorker;
  else if (v == "hang") out = FaultKind::kHangWorker;
  else if (v == "slow") out = FaultKind::kSlowWorker;
  else if (v == "partition") out = FaultKind::kPartitionController;
  else if (v == "heal") out = FaultKind::kHealController;
  else if (v == "fail_host") out = FaultKind::kFailHost;
  else if (v == "controller_crash") out = FaultKind::kCrashController;
  else return false;
  return true;
}

// worker=topology/node/task_index
bool ParseWorker(std::string_view v, FaultEvent& ev) {
  const std::size_t s1 = v.find('/');
  if (s1 == std::string_view::npos) return false;
  const std::size_t s2 = v.find('/', s1 + 1);
  if (s2 == std::string_view::npos) return false;
  ev.topology = std::string(v.substr(0, s1));
  ev.node = std::string(v.substr(s1 + 1, s2 - s1 - 1));
  std::int64_t task = 0;
  if (!ParseI64(v.substr(s2 + 1), task) || task < 0) return false;
  ev.task_index = static_cast<int>(task);
  return ev.topology.size() != 0 && ev.node.size() != 0;
}

// hosts=a-b
bool ParseHostPair(std::string_view v, FaultEvent& ev) {
  const std::size_t dash = v.find('-');
  if (dash == std::string_view::npos) return false;
  std::int64_t a = 0;
  std::int64_t b = 0;
  if (!ParseI64(v.substr(0, dash), a) || !ParseI64(v.substr(dash + 1), b)) {
    return false;
  }
  if (a <= 0 || b <= 0 || a == b) return false;
  ev.host_a = static_cast<HostId>(a);
  ev.host_b = static_cast<HostId>(b);
  return true;
}

bool ApplyKey(std::string_view key, std::string_view value, FaultEvent& ev) {
  std::int64_t i = 0;
  double f = 0.0;
  if (key == "at_ms") return ParseI64(value, ev.at_ms) && ev.at_ms >= 0;
  if (key == "at_tuples") {
    return ParseI64(value, ev.at_tuples) && ev.at_tuples >= 0;
  }
  if (key == "fault") return ParseKind(value, ev.kind);
  if (key == "worker") return ParseWorker(value, ev);
  if (key == "hosts") return ParseHostPair(value, ev);
  if (key == "host") {
    if (!ParseI64(value, i) || i <= 0) return false;
    ev.host_a = static_cast<HostId>(i);
    return true;
  }
  if (key == "port") {
    if (!ParseI64(value, i) || i <= 0) return false;
    ev.port = static_cast<PortId>(i);
    return true;
  }
  if (key == "drop") return ParseF64(value, ev.impair.drop);
  if (key == "duplicate") return ParseF64(value, ev.impair.duplicate);
  if (key == "reorder") return ParseF64(value, ev.impair.reorder);
  if (key == "corrupt") return ParseF64(value, ev.impair.corrupt);
  if (key == "reorder_span") {
    if (!ParseI64(value, i) || i < 0) return false;
    ev.impair.reorder_span = static_cast<std::uint32_t>(i);
    return true;
  }
  if (key == "delay_frames") {
    if (!ParseI64(value, i) || i < 0) return false;
    ev.impair.delay_frames = static_cast<std::uint32_t>(i);
    return true;
  }
  if (key == "seed") {
    if (!ParseI64(value, i)) return false;
    ev.impair.seed = static_cast<std::uint64_t>(i);
    return true;
  }
  if (key == "duration_ms") {
    return ParseI64(value, ev.duration_ms) && ev.duration_ms >= 0;
  }
  if (key == "repeat_ms") {
    return ParseI64(value, ev.repeat_ms) && ev.repeat_ms >= 0;
  }
  if (key == "slow_us") return ParseI64(value, ev.slow_us) && ev.slow_us >= 0;
  (void)f;
  return false;
}

common::Status ValidateEvent(const FaultEvent& ev, std::size_t line_no) {
  const std::string where = "fault plan line " + std::to_string(line_no);
  if (ev.at_tuples < 0 && ev.at_ms < 0) {
    return common::InvalidArgument(where + ": no at_ms/at_tuples trigger");
  }
  switch (ev.kind) {
    case FaultKind::kImpairTunnel:
      if (ev.host_a == 0 || ev.host_b == 0) {
        return common::InvalidArgument(where + ": impair_tunnel needs hosts=a-b");
      }
      break;
    case FaultKind::kImpairPort:
      if (ev.host_a == 0 || ev.port == 0) {
        return common::InvalidArgument(where + ": impair_port needs host= port=");
      }
      break;
    case FaultKind::kCrashWorker:
    case FaultKind::kHangWorker:
    case FaultKind::kSlowWorker:
      if (ev.topology.empty()) {
        return common::InvalidArgument(where + ": needs worker=topo/node/task");
      }
      break;
    case FaultKind::kPartitionController:
    case FaultKind::kHealController:
    case FaultKind::kFailHost:
      if (ev.host_a == 0) {
        return common::InvalidArgument(where + ": needs host=");
      }
      break;
    case FaultKind::kCrashController:
      break;
  }
  return common::Status::Ok();
}

}  // namespace

common::Result<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  std::size_t line_no = 0;
  while (!text.empty()) {
    ++line_no;
    const std::size_t nl = text.find('\n');
    std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{}
                                        : text.substr(nl + 1);
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }

    FaultEvent ev;
    bool any = false;
    while (!line.empty()) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string_view::npos) break;
      line.remove_prefix(start);
      std::size_t end = line.find_first_of(" \t\r");
      if (end == std::string_view::npos) end = line.size();
      const std::string_view token = line.substr(0, end);
      line.remove_prefix(end);

      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        return common::InvalidArgument("fault plan line " +
                                       std::to_string(line_no) +
                                       ": bad token '" + std::string(token) +
                                       "'");
      }
      if (!ApplyKey(token.substr(0, eq), token.substr(eq + 1), ev)) {
        return common::InvalidArgument("fault plan line " +
                                       std::to_string(line_no) +
                                       ": bad key/value '" +
                                       std::string(token) + "'");
      }
      any = true;
    }
    if (!any) continue;  // blank / comment-only line
    if (common::Status st = ValidateEvent(ev, line_no); !st.ok()) return st;
    plan.events.push_back(std::move(ev));
  }
  return plan;
}

}  // namespace typhoon::faultinject
