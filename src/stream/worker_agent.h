// WorkerAgent — the per-host supervisor daemon (Fig 1/3). It watches the
// coordinator for worker assignments targeting its host, "fetches
// application binaries" (resolves factories from the AppRegistry), launches
// and kills workers, and locally restarts crashed workers a bounded number
// of times (the Storm supervisor behaviour of Sec 6.2: "when a worker dies,
// it is locally detected and the worker gets restarted on the same server").
//
// In Typhoon mode a launched worker is attached to the host's SDN switch on
// its scheduler-assigned port; a crash detaches the port, producing the
// PortStatus event the fault-detector app consumes.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "coordinator/coordinator.h"
#include "stream/app_registry.h"
#include "stream/transport_storm.h"
#include "stream/worker.h"
#include "switchd/soft_switch.h"
#include "trace/collector.h"

namespace typhoon::stream {

struct AgentOptions {
  HostId host = 0;
  // Typhoon mode attaches workers to this switch; without one (Storm
  // mode) they connect through `fabric`.
  switchd::SoftSwitch* sw = nullptr;
  StormFabric* fabric = nullptr;
  coordinator::Coordinator* coord = nullptr;
  AppRegistry* registry = nullptr;

  // Local restart policy for crashed workers (0 restarts = give up at once).
  int max_local_restarts = 3;
  std::chrono::milliseconds restart_delay{150};

  // Cross-layer tracing registry (usually the cluster's). Each launched
  // worker acquires the "worker-<id>" recorder — a restart reuses its
  // predecessor's ring, keeping the single-writer contract (writers are
  // sequential across a restart). Null disables worker-side tracing.
  trace::TraceDomain* trace = nullptr;
};

class WorkerAgent {
 public:
  explicit WorkerAgent(AgentOptions opts);
  ~WorkerAgent();

  void start();
  void stop();

  [[nodiscard]] HostId host() const { return opts_.host; }

  // Harness access to a live worker (nullptr if not on this host / dead).
  // The returned pointer is only safe while no restart can run — the
  // monitor thread frees a crashed worker under the agent lock. Pollers
  // racing restarts must use probe_worker instead.
  [[nodiscard]] Worker* find_worker(WorkerId id) const;
  // Run `fn` on the live worker under the agent lock, so the monitor
  // thread cannot free it mid-read (or mid-fault-injection: a crash
  // injected this way flows through the normal crash machinery). False
  // when the worker is not (or no longer) hosted here.
  bool probe_worker(WorkerId id, const std::function<void(Worker&)>& fn) const;
  [[nodiscard]] std::vector<WorkerId> worker_ids() const;
  [[nodiscard]] std::int64_t restarts() const { return restarts_.load(); }

 private:
  struct Managed {
    std::unique_ptr<Worker> worker;
    std::shared_ptr<switchd::PortHandle> port;  // Typhoon mode
    std::string topology;
    int restart_count = 0;
    common::TimePoint last_restart{};
    bool gave_up = false;
  };

  void on_assignment_event(const std::string& path,
                           coordinator::WatchEvent ev);
  bool launch(WorkerId id, const std::string& topology, Managed& slot);
  void remove_worker(WorkerId id);
  void monitor();

  AgentOptions opts_;
  coordinator::Coordinator::SessionId session_ = 0;
  coordinator::Coordinator::WatchId watch_ = 0;

  mutable std::mutex mu_;
  std::map<WorkerId, Managed> workers_;

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> restarts_{0};
  std::thread monitor_thread_;
};

}  // namespace typhoon::stream
