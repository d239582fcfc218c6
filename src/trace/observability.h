// ClusterObservability — the aggregation point for everything this layer
// produces: the TraceDomain's flight recorders, the TraceCollector's hop
// chains and stage histograms, and the SeriesSet of windowed worker
// metrics. dump_json() renders it all as one JSON document (the export the
// live debugger and the bench harnesses consume); the schema is documented
// in DESIGN.md Sec 11.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "trace/collector.h"
#include "trace/time_series.h"

namespace typhoon::trace {

class ClusterObservability {
 public:
  [[nodiscard]] TraceDomain& domain() { return domain_; }
  [[nodiscard]] TraceCollector& collector() { return collector_; }
  [[nodiscard]] SeriesSet& series() { return series_; }

  // Terminal execute hop for chain completeness (edges from spout to
  // sink); 1 until set.
  void set_terminal_hop(std::uint8_t hop);

  // Fold one worker's metrics snapshot into the time-series layer.
  void observe_worker(
      const std::string& worker_name, std::int64_t t_us,
      const std::vector<std::pair<std::string, std::int64_t>>& snapshot);

  // Latest end-to-end p99 (ms) of one collected stage, draining pending
  // recorders first. 0 until the stage has samples. This is the QoS app's
  // latency probe; serialized with dump_json() on an internal mutex, so it
  // is safe to call from the controller event thread while a harness
  // thread renders the export.
  [[nodiscard]] double stage_p99_ms(const std::string& stage);

  // Register a provider whose returned string (a complete JSON value) is
  // rendered as a "qos" member of dump_json — how the QoS app's epoch /
  // allocation / shaped-port state joins the observability export without
  // the trace layer depending on the controller. Pass nullptr to clear.
  void set_qos_provider(std::function<std::string()> provider);

  // Drain recorders, fold chains, and render the whole state:
  //   {"schema":"typhoon.observability.v1",
  //    "chains":{"total":N,"complete":N,"incomplete":N,"overwritten":N},
  //    "stages":{"<stage>":{"count":N,"p50_ms":X,"p99_ms":X,"mean_ms":X}},
  //    "series":{"<name>":{"last":X,"ewma":X,"rate_per_sec":X}},
  //    "qos":<provider fragment, when registered>}
  [[nodiscard]] std::string dump_json();

 private:
  TraceDomain domain_;
  TraceCollector collector_{&domain_};
  SeriesSet series_;

  // Serializes collect() callers (dump_json / stage_p99_ms) and guards the
  // provider hook against concurrent registration.
  std::mutex mu_;
  std::function<std::string()> qos_provider_;
};

}  // namespace typhoon::trace
