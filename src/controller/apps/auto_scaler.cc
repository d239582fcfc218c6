#include "controller/apps/auto_scaler.h"

#include "common/log.h"
#include "stream/physical.h"

namespace typhoon::controller {
namespace {

// EWMA weight of the queue-depth series the threshold compares against.
// Smoothing keeps one burst-y sample from starting a streak.
constexpr double kSmoothingAlpha = 0.5;

}  // namespace

AutoScaler::AutoScaler(AutoScalerPolicy policy, ReconfigureFn reconfigure)
    : policy_(std::move(policy)),
      reconfigure_(std::move(reconfigure)),
      queue_series_(trace::TimeSeriesConfig{
          .window_us = 5'000'000,
          .alpha = kSmoothingAlpha,
          .max_samples = 256}) {}

AutoScaler::~AutoScaler() { join_worker(); }

void AutoScaler::join_worker() {
  if (op_thread_.joinable()) op_thread_.join();
}

void AutoScaler::on_stop() { join_worker(); }

void AutoScaler::launch(stream::ReconfigRequest req) {
  join_worker();
  in_flight_.store(true);
  op_thread_ = std::thread([this, req = std::move(req)] {
    const common::Status st = reconfigure_(req);
    if (st.ok()) {
      scale_ups_.fetch_add(1);
      LOG_INFO("auto-scaler") << "scaled up " << req.topology << "/"
                              << req.node;
    } else {
      LOG_WARN("auto-scaler") << "reconfiguration failed: " << st.str();
    }
    in_flight_.store(false);
  });
}

void AutoScaler::tick() {
  if (in_flight_.load()) return;

  // Resolve the watched node's workers from the controller's mirrored
  // global state.
  std::optional<stream::TopologySpec> spec;
  std::optional<stream::PhysicalTopology> phys;
  for (TopologyId id : ctl_->topology_ids()) {
    auto s = ctl_->spec(id);
    if (s && s->name == policy_.topology) {
      spec = s;
      phys = ctl_->physical(id);
      break;
    }
  }
  if (!spec || !phys) return;
  const stream::NodeSpec* node = spec->node_by_name(policy_.node);
  if (node == nullptr) return;
  const std::vector<WorkerId> workers = phys->worker_ids_of(node->id);
  if (workers.empty()) return;

  // Application-layer metric pull: queue depths from the workers'
  // heartbeat records (a manager seed carries no depth and is skipped).
  std::int64_t total = 0;
  int counted = 0;
  for (WorkerId w : workers) {
    auto hb = ctl_->coord()->get_str(
        stream::WorkerHeartbeatPath(policy_.topology, w));
    if (!hb) continue;
    const std::optional<std::int64_t> depth =
        stream::ParseHeartbeat(*hb).queue_depth;
    if (!depth) continue;
    total += *depth;
    ++counted;
  }
  if (counted == 0) return;
  // The threshold compares against the windowed EWMA, not the raw sample:
  // one momentary spike cannot start a streak on its own.
  queue_series_.observe(common::NowMicros(),
                        static_cast<double>(total / counted));
  const auto avg = static_cast<std::int64_t>(queue_series_.ewma());
  last_avg_queue_.store(avg);

  high_streak_ = avg >= policy_.queue_high ? high_streak_ + 1 : 0;

  const common::TimePoint now = common::Now();
  if (last_action_ != common::TimePoint{} &&
      now - last_action_ < policy_.cooldown) {
    return;
  }

  if (high_streak_ >= policy_.consecutive &&
      node->parallelism < policy_.max_parallelism) {
    high_streak_ = 0;
    last_action_ = now;
    stream::ReconfigRequest req;
    req.kind = stream::ReconfigRequest::Kind::kScaleUp;
    req.topology = policy_.topology;
    req.node = policy_.node;
    req.count = 1;
    launch(std::move(req));
  }
}

}  // namespace typhoon::controller
