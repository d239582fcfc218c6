#include "stream/control_tuple.h"

namespace typhoon::stream {

const char* ControlTypeName(ControlType t) {
  switch (t) {
    case ControlType::kRouting: return "ROUTING";
    case ControlType::kSignal: return "SIGNAL";
    case ControlType::kMetricReq: return "METRIC_REQ";
    case ControlType::kMetricResp: return "METRIC_RESP";
    case ControlType::kInputRate: return "INPUT_RATE";
    case ControlType::kActivate: return "ACTIVATE";
    case ControlType::kDeactivate: return "DEACTIVATE";
    case ControlType::kBatchSize: return "BATCH_SIZE";
    case ControlType::kControlAck: return "CONTROL_ACK";
  }
  return "?";
}

ControlTuple MakeRouting(RoutingUpdate update) {
  ControlTuple ct;
  ct.type = ControlType::kRouting;
  ct.routing = std::move(update);
  return ct;
}

ControlTuple MakeSignal(std::string tag) {
  ControlTuple ct;
  ct.type = ControlType::kSignal;
  ct.signal_tag = std::move(tag);
  return ct;
}

common::Bytes EncodeControl(const ControlTuple& ct) {
  common::Bytes out;
  common::BufWriter w(out);
  w.u8(static_cast<std::uint8_t>(ct.type));
  w.u64(ct.request_id);
  w.u64(ct.seq);
  switch (ct.type) {
    case ControlType::kRouting: {
      const RoutingUpdate& ru = ct.routing.value();
      w.u32(ru.to_node);
      w.u8(ru.remove ? 1 : 0);
      const common::Bytes state = EncodeRoutingState(ru.state);
      w.bytes(state);
      break;
    }
    case ControlType::kMetricResp: {
      const MetricReport& mr = ct.report.value();
      w.u64(mr.worker);
      w.u64(mr.request_id);
      w.u32(static_cast<std::uint32_t>(mr.metrics.size()));
      for (const auto& [name, value] : mr.metrics) {
        w.str(name);
        w.i64(value);
      }
      break;
    }
    case ControlType::kInputRate:
      w.f64(ct.input_rate);
      break;
    case ControlType::kBatchSize:
      w.u32(ct.batch_size);
      break;
    case ControlType::kSignal:
      w.str(ct.signal_tag);
      break;
    default:
      break;
  }
  return out;
}

bool DecodeControl(std::span<const std::uint8_t> data, ControlTuple& ct) {
  common::BufReader r(data);
  std::uint8_t type = 0;
  if (!r.u8(type) || !r.u64(ct.request_id) || !r.u64(ct.seq)) return false;
  ct.type = static_cast<ControlType>(type);
  switch (ct.type) {
    case ControlType::kRouting: {
      RoutingUpdate ru;
      std::uint8_t remove = 0;
      common::Bytes state;
      if (!r.u32(ru.to_node) || !r.u8(remove) || !r.bytes(state)) {
        return false;
      }
      ru.remove = remove != 0;
      if (!DecodeRoutingState(state, ru.state)) return false;
      ct.routing = std::move(ru);
      break;
    }
    case ControlType::kMetricResp: {
      MetricReport mr;
      std::uint32_t n = 0;
      if (!r.u64(mr.worker) || !r.u64(mr.request_id) || !r.u32(n)) {
        return false;
      }
      mr.metrics.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::int64_t value = 0;
        if (!r.str(name) || !r.i64(value)) return false;
        mr.metrics.emplace_back(std::move(name), value);
      }
      ct.report = std::move(mr);
      break;
    }
    case ControlType::kInputRate:
      if (!r.f64(ct.input_rate)) return false;
      break;
    case ControlType::kBatchSize:
      if (!r.u32(ct.batch_size)) return false;
      break;
    case ControlType::kSignal:
      if (!r.str(ct.signal_tag)) return false;
      break;
    case ControlType::kMetricReq:
    case ControlType::kActivate:
    case ControlType::kDeactivate:
    case ControlType::kControlAck:
      break;
    default:
      return false;
  }
  return true;
}

}  // namespace typhoon::stream
