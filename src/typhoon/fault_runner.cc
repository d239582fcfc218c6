#include "typhoon/fault_runner.h"

#include "common/clock.h"
#include "common/log.h"

namespace typhoon {

namespace fi = faultinject;

namespace {

// Trigger resolution: how often the runner thread checks armed events.
constexpr std::chrono::milliseconds kPollInterval{2};

}  // namespace

FaultPlanRunner::FaultPlanRunner(Cluster* cluster, fi::FaultPlan plan)
    : cluster_(cluster) {
  armed_.reserve(plan.events.size());
  for (fi::FaultEvent& ev : plan.events) {
    armed_.push_back(Armed{std::move(ev), /*is_reversal=*/false});
  }
}

FaultPlanRunner::~FaultPlanRunner() { stop(); }

void FaultPlanRunner::start() {
  if (running_.exchange(true)) return;
  thread_ = std::thread([this] { run(); });
}

void FaultPlanRunner::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

std::vector<fi::Impairment*> FaultPlanRunner::impairments() const {
  std::lock_guard lk(mu_);
  std::vector<fi::Impairment*> out;
  out.reserve(attached_.size());
  for (const Attached& a : attached_) out.push_back(a.imp);
  return out;
}

std::uint64_t FaultPlanRunner::wire_drops() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = healed_drops_;
  for (const Attached& a : attached_) total += a.imp->drops();
  return total;
}

void FaultPlanRunner::retire_impairments_locked(const fi::FaultEvent& ev) {
  for (auto it = attached_.begin(); it != attached_.end();) {
    const bool match =
        it->kind == ev.kind &&
        (ev.kind == fi::FaultKind::kImpairTunnel
             ? it->host_a == ev.host_a && it->host_b == ev.host_b
             : it->host_a == ev.host_a && it->port == ev.port);
    if (match) {
      healed_drops_ += it->imp->drops();
      it = attached_.erase(it);
    } else {
      ++it;
    }
  }
}

bool FaultPlanRunner::done() const {
  std::lock_guard lk(mu_);
  return armed_.empty();
}

void FaultPlanRunner::run() {
  const common::TimePoint t0 = common::Now();
  while (running_.load(std::memory_order_relaxed)) {
    const std::int64_t elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(common::Now() -
                                                              t0)
            .count();
    const std::int64_t tuples = probe_ ? probe_() : -1;

    std::vector<Armed> due;
    {
      std::lock_guard lk(mu_);
      for (auto it = armed_.begin(); it != armed_.end();) {
        const fi::FaultEvent& ev = it->ev;
        const bool time_hit = ev.at_ms >= 0 && elapsed_ms >= ev.at_ms;
        const bool tuple_hit =
            ev.at_tuples >= 0 && tuples >= 0 && tuples >= ev.at_tuples;
        if (time_hit || tuple_hit) {
          due.push_back(std::move(*it));
          it = armed_.erase(it);
        } else {
          ++it;
        }
      }
    }

    std::vector<Armed> rearm;
    for (const Armed& a : due) apply(a, elapsed_ms, rearm);
    if (!rearm.empty()) {
      std::lock_guard lk(mu_);
      for (Armed& a : rearm) armed_.push_back(std::move(a));
    }

    common::SleepFor(kPollInterval);
  }
}

void FaultPlanRunner::apply(const Armed& armed, std::int64_t elapsed_ms,
                            std::vector<Armed>& rearm) {
  const fi::FaultEvent& ev = armed.ev;
  bool applied = true;

  switch (ev.kind) {
    case fi::FaultKind::kImpairTunnel: {
      if (armed.is_reversal) {
        // Bank the engines' counters before clear destroys them.
        {
          std::lock_guard lk(mu_);
          retire_impairments_locked(ev);
        }
        cluster_->clear_tunnel_impairments(ev.host_a, ev.host_b);
        break;
      }
      auto [fwd, rev] = cluster_->impair_tunnel(ev.host_a, ev.host_b,
                                                ev.impair);
      applied = fwd != nullptr;
      if (applied) {
        std::lock_guard lk(mu_);
        attached_.push_back({fwd, ev.kind, ev.host_a, ev.host_b, 0});
        attached_.push_back({rev, ev.kind, ev.host_a, ev.host_b, 0});
      }
      break;
    }
    case fi::FaultKind::kImpairPort: {
      switchd::SoftSwitch* sw = cluster_->switch_at(ev.host_a);
      if (sw == nullptr) {
        applied = false;
        break;
      }
      if (armed.is_reversal) {
        {
          std::lock_guard lk(mu_);
          retire_impairments_locked(ev);
        }
        sw->clear_port_impairments(ev.port);
        break;
      }
      fi::Impairment* imp = sw->set_port_ingress_impairment(ev.port,
                                                            ev.impair);
      applied = imp != nullptr;
      if (applied) {
        std::lock_guard lk(mu_);
        attached_.push_back({imp, ev.kind, ev.host_a, 0, ev.port});
      }
      break;
    }
    case fi::FaultKind::kCrashWorker:
      applied = cluster_->probe_worker(
          ev.topology, ev.node, ev.task_index,
          [](stream::Worker& w) { w.inject_crash(); });
      break;
    case fi::FaultKind::kHangWorker:
      applied = cluster_->probe_worker(
          ev.topology, ev.node, ev.task_index, [&](stream::Worker& w) {
            w.inject_hang(std::chrono::milliseconds(
                ev.duration_ms > 0 ? ev.duration_ms : 1000));
          });
      break;
    case fi::FaultKind::kSlowWorker:
      applied = cluster_->probe_worker(
          ev.topology, ev.node, ev.task_index, [&](stream::Worker& w) {
            w.inject_slowdown(std::chrono::microseconds(
                armed.is_reversal ? 0 : ev.slow_us));
          });
      break;
    case fi::FaultKind::kPartitionController:
      cluster_->set_controller_partition(ev.host_a, !armed.is_reversal);
      break;
    case fi::FaultKind::kHealController:
      cluster_->set_controller_partition(ev.host_a, false);
      break;
    case fi::FaultKind::kFailHost:
      cluster_->fail_host(ev.host_a);
      break;
    case fi::FaultKind::kCrashController:
      applied = cluster_->crash_controller();
      break;
  }

  if (applied) {
    fired_.fetch_add(1);
    LOG_INFO("fault-runner")
        << (armed.is_reversal ? "reversed " : "fired ")
        << fi::FaultKindName(ev.kind) << " at t+" << elapsed_ms << "ms";
  } else {
    misses_.fetch_add(1);
    LOG_WARN("fault-runner") << "could not apply " << fi::FaultKindName(ev.kind)
                             << " at t+" << elapsed_ms
                             << "ms (target unresolved)";
  }

  // Auto-reversal: impairments, slowdowns, and partitions with a duration
  // heal themselves that many ms after firing.
  const bool reversible = ev.kind == fi::FaultKind::kImpairTunnel ||
                          ev.kind == fi::FaultKind::kImpairPort ||
                          ev.kind == fi::FaultKind::kSlowWorker ||
                          ev.kind == fi::FaultKind::kPartitionController;
  if (!armed.is_reversal && applied && reversible && ev.duration_ms > 0) {
    Armed heal{ev, /*is_reversal=*/true};
    heal.ev.at_tuples = -1;
    heal.ev.at_ms = elapsed_ms + ev.duration_ms;
    rearm.push_back(std::move(heal));
  }

  // Persistent faults: re-fire every repeat_ms (crash of a restarted worker
  // being the canonical case). Misses re-arm too — the worker may simply be
  // mid-restart.
  if (!armed.is_reversal && ev.repeat_ms > 0) {
    Armed again{ev, /*is_reversal=*/false};
    again.ev.at_tuples = -1;
    again.ev.at_ms = elapsed_ms + ev.repeat_ms;
    rearm.push_back(std::move(again));
  }
}

}  // namespace typhoon
