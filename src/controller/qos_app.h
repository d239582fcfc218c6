// QosApp — the online bandwidth-allocation control-plane application (the
// bandwidth manager of "On SDN-Enabled Online and Dynamic Bandwidth
// Allocation for Stream Analytics", PAPERS.md; ROADMAP item 3).
//
// The first standing closed-loop controller app: every control epoch it
//   1. SENSES per-topology demand from the switches' port stats — windowed
//      worker->switch byte rates per port, with a latent-demand probe
//      (rx_backlog under an active shaper means the worker wants more than
//      its programmed rate, so demand is boosted multiplicatively rather
//      than collapsing to the shaped rate), plus optional end-to-end
//      latency percentiles that engage SLO floors;
//   2. DECIDES a weighted max-min fair division of the fabric capacity
//      across topologies, in strict priority classes (higher class drains
//      its demand before a lower class gets more than its floor) with
//      per-topology weights and floors — the water-filling allocator is a
//      pure deterministic function, separable for property tests;
//   3. ACTUATES by programming per-port ingress shaper rates through
//      TyphoonController::program_port_rate, DeltaPath-style: rates are
//      quantized and only the ports whose quantized rate changed since the
//      previous epoch are reprogrammed.
//
// Failover: the app checkpoints {epoch, per-topology allocation, programmed
// port rates} as a blob znode under the controller's checkpoint prefix after
// every epoch that changed anything. The failover winner's re-created app
// restores it in on_start, so the standby neither reprograms unchanged
// ports nor loses the epoch counter — and under saturation the allocation
// is a pure function of capacity/weights/priorities, so the restored
// leader reconverges to bit-identical rates (alloc_fingerprint).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "controller/controller.h"
#include "trace/time_series.h"

namespace typhoon::controller {

// Per-topology QoS class (looked up by topology name; unlisted topologies
// get a default-constructed class).
struct QosClass {
  int priority = 0;     // strict class ordering; higher drains first
  double weight = 1.0;  // weighted max-min share within the class
  double floor_bps = 0.0;  // granted before any water-filling
  // Optional latency SLO: while the observed end-to-end p99 exceeds
  // slo_p99_ms, the class floor is raised to at least slo_floor_bps.
  double slo_p99_ms = 0.0;
  double slo_floor_bps = 0.0;
};

struct QosPolicy {
  // Fabric capacity (bytes/s) the allocator divides. 0 disables
  // the app (sense-only).
  double capacity_bps = 0.0;
  // Control epoch; ticks between epochs are no-ops.
  std::chrono::milliseconds epoch{100};
  // Programmed rates are rounded up to a multiple of this, both to absorb
  // EWMA noise (delta emission stays quiet in steady state) and to keep
  // reconverged allocations bit-comparable.
  double rate_quantum_bps = 8192.0;
  // Demand smoothing window (per-port byte-rate series).
  std::int64_t window_us = 1'000'000;
  std::map<std::string, QosClass> classes;  // by topology name
  // Optional end-to-end latency probe (p99 ms for a topology name);
  // typically wired to ClusterObservability. Null = SLO floors inert.
  std::function<double(const std::string&)> latency_p99_ms;
};

// One topology's input to the allocator.
struct QosDemand {
  TopologyId id = 0;
  int priority = 0;
  double weight = 1.0;
  double demand_bps = 0.0;
  double floor_bps = 0.0;
};

// Deterministic weighted max-min with strict priority classes and floors.
// Invariants (property-tested in tests/test_qos.cc):
//   - work conservation: sum(alloc) == min(capacity, sum(demand));
//   - no topology is allocated above its demand;
//   - effective floors (min(floor, demand)) are granted in descending
//     priority order before any water-filling;
//   - priority dominance: a lower class receives only floors until every
//     higher class's demand is fully satisfied;
//   - within a class, unsaturated topologies get rates proportional to
//     their weights (weighted max-min / water-filling).
class QosAllocator {
 public:
  static std::map<TopologyId, double> Allocate(double capacity_bps,
                                               std::vector<QosDemand> demands);
};

class QosApp final : public ControlPlaneApp {
 public:
  using PortKey = std::pair<HostId, PortId>;  // a shaped port, cluster-wide

  explicit QosApp(QosPolicy policy);

  [[nodiscard]] const char* name() const override { return "qos"; }

  void on_start(TyphoonController& controller) override;
  void tick() override;

  // DeltaPath-style diff: entries of `next` whose quantized rate differs
  // from `prev`, plus 0-rate clears for ports `next` no longer shapes.
  static std::map<PortKey, double> DiffRates(
      const std::map<PortKey, double>& prev,
      const std::map<PortKey, double>& next);

  // ---- probes (any thread) ----
  [[nodiscard]] std::uint64_t epochs() const;
  // Shaper reprogram calls actually emitted (the delta evidence: compare
  // against epochs * shaped ports).
  [[nodiscard]] std::int64_t rate_updates() const;
  [[nodiscard]] std::map<TopologyId, double> last_allocation() const;
  [[nodiscard]] std::map<PortKey, double> programmed_rates() const;
  [[nodiscard]] double demand_bps(TopologyId id) const;
  // Order-independent fold over the current (topology, quantized rate)
  // allocation — the PR 2 fingerprint idiom, used by the chaos test to
  // assert a failover's restored allocation reconverges bit-identically.
  [[nodiscard]] std::uint64_t alloc_fingerprint() const;
  // The `qos` object rendered into ClusterObservability::dump_json.
  [[nodiscard]] std::string dump_json_fragment() const;

 private:
  struct PortSense {
    trace::TimeSeries rx_series;
    double demand_bps = 0.0;
    TopologyId topology = 0;
    bool live = false;  // seen this epoch
  };

  void restore_checkpoint();
  void write_checkpoint();
  static std::uint64_t Fingerprint(const std::map<TopologyId, double>& alloc);
  [[nodiscard]] const QosClass& class_of(const std::string& name) const;
  [[nodiscard]] double quantize(double bps) const;

  QosPolicy policy_;

  mutable std::mutex mu_;
  common::TimePoint last_epoch_{};
  std::uint64_t epoch_ = 0;
  std::int64_t updates_ = 0;
  std::map<PortKey, PortSense> ports_;
  std::map<TopologyId, double> demand_;
  std::map<TopologyId, double> alloc_;
  std::map<PortKey, double> programmed_;
  std::map<TopologyId, bool> slo_engaged_;
  // Consecutive epochs a programmed port's demand signal has been absent;
  // its rate is held (not cleared) until the grace runs out.
  std::map<PortKey, int> stale_;
  // Post-restore hold-down: epochs left during which the app senses but
  // does not reallocate (the restored rate ledger stays authoritative
  // until the demand window is warm).
  int holddown_left_ = 0;
};

}  // namespace typhoon::controller
