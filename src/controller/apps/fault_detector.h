// FaultDetector control-plane app (Sec 4, evaluated in Sec 6.2 / Fig 10).
//
// Instead of waiting for heartbeat timeouts, it reacts to the switch's
// unexpected port-removal event (SwitchPortChanged): the dead worker is
// immediately removed from every predecessor's routing state via ROUTING
// control tuples, so traffic shifts to surviving siblings well before the
// streaming manager re-schedules the worker. When the port reappears (local
// restart or reschedule), the worker is re-included.
//
// It additionally watches worker heartbeats from the coordinator mirror and
// distinguishes *slow* workers from *dead* ones with the shared
// consecutive-miss rule (stream::MissCounter): a stale heartbeat first marks
// the worker suspect (logged), and only sustained silence reroutes its
// traffic as if its port had vanished. A fresh heartbeat clears the
// suspicion and re-includes a rerouted worker.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <set>

#include "controller/controller.h"
#include "stream/liveness.h"

namespace typhoon::controller {

class FaultDetector final : public ControlPlaneApp {
 public:
  [[nodiscard]] const char* name() const override { return "fault-detector"; }

  void on_port_status(HostId host, const openflow::PortStatus& ev) override;
  void tick() override;

  [[nodiscard]] std::int64_t faults_detected() const {
    return detected_.load();
  }
  [[nodiscard]] std::int64_t recoveries() const { return recovered_.load(); }

 private:
  void push_routing(TopologyId topology, const stream::PhysicalWorker& w);

  // The heartbeat monitor's slow-vs-dead thresholds: a heartbeat older than
  // kStaleAfter is one miss per controller tick; kSlowAt misses log the
  // worker as slow, kDeadAt misses reroute around it.
  static constexpr std::chrono::milliseconds kStaleAfter{800};
  static constexpr int kSlowAt = 4;
  static constexpr int kDeadAt = 8;

  std::mutex mu_;
  std::map<TopologyId, std::set<WorkerId>> down_;
  // Heartbeat-monitor state (tick thread only, except down_ overlap above).
  stream::MissCounter hb_misses_{kStaleAfter, kSlowAt, kDeadAt};
  std::map<TopologyId, std::set<WorkerId>> hb_down_;
  std::atomic<std::int64_t> detected_{0};
  std::atomic<std::int64_t> recovered_{0};
};

}  // namespace typhoon::controller
