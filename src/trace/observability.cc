#include "trace/observability.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace typhoon::trace {

namespace {

// Render a double as a JSON number; NaN/inf (never expected, but a
// histogram bug must not produce an unparseable document) become 0.
void AppendNumber(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) v = 0.0;
  os << v;
}

void AppendString(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void ClusterObservability::set_terminal_hop(std::uint8_t hop) {
  collector_.set_terminal_hop(hop);
}

void ClusterObservability::observe_worker(
    const std::string& worker_name, std::int64_t t_us,
    const std::vector<std::pair<std::string, std::int64_t>>& snapshot) {
  series_.observe_snapshot(worker_name, t_us, snapshot);
}

double ClusterObservability::stage_p99_ms(const std::string& stage) {
  std::lock_guard lk(mu_);
  collector_.collect();
  const common::LatencyRecorder* rec = collector_.stage_latency(stage);
  if (rec == nullptr || rec->count() == 0) return 0.0;
  const double p99 = rec->percentile_ms(0.99);
  return std::isfinite(p99) ? p99 : 0.0;
}

void ClusterObservability::set_qos_provider(
    std::function<std::string()> provider) {
  std::lock_guard lk(mu_);
  qos_provider_ = std::move(provider);
}

std::string ClusterObservability::dump_json() {
  std::lock_guard lk(mu_);
  collector_.collect();

  std::ostringstream os;
  os.precision(6);
  os << "{";
  AppendString(os, "schema");
  os << ":";
  AppendString(os, "typhoon.observability.v1");

  os << ",";
  AppendString(os, "chains");
  os << ":{";
  AppendString(os, "total");
  os << ":" << collector_.chains() << ",";
  AppendString(os, "complete");
  os << ":" << collector_.complete() << ",";
  AppendString(os, "incomplete");
  os << ":" << collector_.incomplete() << ",";
  AppendString(os, "overwritten");
  os << ":" << domain_.total_overwritten() << "}";

  os << ",";
  AppendString(os, "stages");
  os << ":{";
  bool first = true;
  for (const std::string& name : collector_.stage_names()) {
    const common::LatencyRecorder* rec = collector_.stage_latency(name);
    if (rec == nullptr) continue;
    if (!first) os << ",";
    first = false;
    AppendString(os, name);
    os << ":{";
    AppendString(os, "count");
    os << ":" << rec->count() << ",";
    AppendString(os, "p50_ms");
    os << ":";
    AppendNumber(os, rec->percentile_ms(0.50));
    os << ",";
    AppendString(os, "p99_ms");
    os << ":";
    AppendNumber(os, rec->percentile_ms(0.99));
    os << ",";
    AppendString(os, "mean_ms");
    os << ":";
    AppendNumber(os, rec->mean_ms());
    os << "}";
  }
  os << "}";

  os << ",";
  AppendString(os, "series");
  os << ":{";
  first = true;
  for (const std::string& name : series_.names()) {
    const TimeSeries* s = series_.find(name);
    if (s == nullptr) continue;
    if (!first) os << ",";
    first = false;
    AppendString(os, name);
    os << ":{";
    AppendString(os, "last");
    os << ":";
    AppendNumber(os, s->last());
    os << ",";
    AppendString(os, "ewma");
    os << ":";
    AppendNumber(os, s->ewma());
    os << ",";
    AppendString(os, "rate_per_sec");
    os << ":";
    AppendNumber(os, s->rate_per_sec());
    os << "}";
  }
  os << "}";

  if (qos_provider_) {
    // The provider returns a self-contained JSON value (the QoS app
    // renders its own fragment); splice it in verbatim.
    const std::string qos = qos_provider_();
    if (!qos.empty()) {
      os << ",";
      AppendString(os, "qos");
      os << ":" << qos;
    }
  }
  os << "}";
  return os.str();
}

}  // namespace typhoon::trace
