// AutoScaler control-plane app (Sec 4, evaluated in Sec 6.2 / Fig 11).
//
// Network-level stats cannot tell whether workers are overloaded, so this
// app watches application-layer metrics — worker input-queue depth published
// to the coordinator (the "retrieved from ZooKeeper or workers" path) — and
// initiates a scale-up through the framework's reconfiguration service when
// the threshold holds for several consecutive ticks.
#pragma once

#include <atomic>
#include <functional>
#include <thread>

#include "controller/controller.h"
#include "stream/streaming_manager.h"
#include "trace/time_series.h"

namespace typhoon::controller {

struct AutoScalerPolicy {
  std::string topology;
  std::string node;  // the node whose workers are watched and scaled
  std::int64_t queue_high = 4000;
  int consecutive = 3;         // ticks over threshold before acting
  int max_parallelism = 8;
  std::chrono::milliseconds cooldown{2000};
};

class AutoScaler final : public ControlPlaneApp {
 public:
  // `reconfigure` is the framework's reconfiguration entry point (the REST
  // service of Sec 5, in-process).
  using ReconfigureFn =
      std::function<common::Status(const stream::ReconfigRequest&)>;

  AutoScaler(AutoScalerPolicy policy, ReconfigureFn reconfigure);
  ~AutoScaler() override;

  [[nodiscard]] const char* name() const override { return "auto-scaler"; }

  void tick() override;
  void on_stop() override;

  [[nodiscard]] std::int64_t scale_ups() const { return scale_ups_.load(); }
  [[nodiscard]] std::int64_t last_avg_queue() const {
    return last_avg_queue_.load();
  }

 private:
  void launch(stream::ReconfigRequest req);
  void join_worker();

  AutoScalerPolicy policy_;
  ReconfigureFn reconfigure_;

  // Smoothed cluster-wide queue depth for the watched node; the threshold
  // acts on its EWMA, not the instantaneous coordinator read.
  trace::TimeSeries queue_series_;

  int high_streak_ = 0;
  common::TimePoint last_action_{};
  std::atomic<bool> in_flight_{false};
  std::thread op_thread_;

  std::atomic<std::int64_t> scale_ups_{0};
  std::atomic<std::int64_t> last_avg_queue_{0};
};

}  // namespace typhoon::controller
