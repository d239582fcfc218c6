// StreamingManager — the central job manager (Nimbus analog) plus Typhoon's
// dynamic topology manager (Sec 3.2).
//
// Submission: builds the physical topology via the pluggable scheduler,
// writes global state to the coordinator (Table 1), notifies the SDN
// control plane (SdnHooks), and rolls out assignments bolts-first so no
// spout emits into a half-deployed pipeline.
//
// Reconfiguration (Typhoon only): per-node parallelism, computation logic,
// and routing policy, each following the stable-update procedures of
// Sec 3.5 (rules -> launch -> [SIGNAL for stateful] -> ROUTING to
// predecessors; removals update predecessors first and drain before kill),
// built from three shared steps: add_workers, route_predecessors and
// retire_workers.
//
// Failure detection: scans worker heartbeats; a stale worker is re-scheduled
// onto another host (Storm's Nimbus-timeout path, used by both modes — the
// Typhoon fault-detector app additionally reroutes traffic instantly).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "coordinator/coordinator.h"
#include "stream/app_registry.h"
#include "stream/liveness.h"
#include "stream/scheduler.h"
#include "stream/sdn_hooks.h"
#include "stream/topology.h"

namespace typhoon::stream {

struct SubmitOptions {
  bool reliable = false;        // deploy an acker; anchor + ack every tuple
  std::uint32_t batch_size = 100;  // initial I/O batch size (Fig 8 knob)
  // Timer flush for partial batches; raise to expose batch-size latency.
  std::uint32_t flush_interval_us = 200;
  // Outstanding-tuple cap for reliable spouts (max.spout.pending analog).
  std::uint32_t max_pending = 2048;
  // Un-acked spout tuples older than this fail and replay (recovery-latency
  // knob: chaos tests on lossy links lower it to converge quickly).
  std::uint32_t pending_timeout_ms = 5000;
  // Spouts trace 1-in-N emitted tuples end to end (0 disables tracing).
  // Cheap enough to stay on by default at 1/1024.
  std::uint32_t trace_sample_every = 1024;
  std::chrono::milliseconds launch_timeout{5000};
};

struct ReconfigRequest {
  enum class Kind {
    kScaleUp,         // node, count
    kScaleDown,       // node, count
    kChangeGrouping,  // from_node -> node edge gets new_grouping
    kSwapLogic,       // node: relaunch with the factory currently registered
    kRelocate,        // node + task_index: move one worker to target_host
                      // (paper Sec 8: pause-and-resume via control tuples,
                      // state kept in external storage)
    kAttachQuery,     // plug a new node (factory pre-registered under
                      // `node`) consuming from_node's stream — the paper's
                      // "interactive data mining" scenario
    kDetachQuery,     // unplug a previously attached query node
  };
  Kind kind = Kind::kScaleUp;
  std::string topology;
  std::string node;       // target node name
  int count = 1;          // scale delta
  std::string from_node;  // kChangeGrouping: upstream node name
  Grouping new_grouping;  // kChangeGrouping
  int task_index = 0;     // kRelocate: which worker of the node
  HostId target_host = 0; // kRelocate: destination host
};

struct ManagerOptions {
  std::vector<HostId> hosts;
  std::unique_ptr<Scheduler> scheduler;  // defaults to RoundRobinScheduler
  bool enable_failure_detector = true;
  std::chrono::milliseconds heartbeat_timeout{1500};
  std::chrono::milliseconds monitor_interval{100};
};

class StreamingManager {
 public:
  StreamingManager(coordinator::Coordinator* coord, AppRegistry* registry,
                   ManagerOptions opts);
  ~StreamingManager();

  void set_sdn_hooks(SdnHooks* hooks) { hooks_ = hooks; }

  void start();
  void stop();

  common::Result<TopologyId> submit(const LogicalTopology& topology,
                                    SubmitOptions options = {});
  common::Status kill(const std::string& topology);
  common::Status reconfigure(const ReconfigRequest& request);

  // (Un)throttle a topology by sending ACTIVATE/DEACTIVATE control tuples
  // to its first workers — Table 2's topology-level gate. Typhoon mode
  // only (the baseline has no control-tuple path).
  common::Status activate(const std::string& topology);
  common::Status deactivate(const std::string& topology);

  [[nodiscard]] common::Result<PhysicalTopology> physical(
      const std::string& topology) const;
  [[nodiscard]] common::Result<TopologySpec> spec(
      const std::string& topology) const;

  // Number of heartbeat-timeout reschedules performed (test/bench probe).
  [[nodiscard]] std::int64_t reschedules() const { return reschedules_.load(); }

 private:
  struct Deployed {
    TopologySpec spec;
    PhysicalTopology physical;
    SubmitOptions options;
  };

  // Wait until each worker has drained its in-flight tuples (or the
  // topology's launch_timeout passes).
  common::Status wait_for_drain(const Deployed& d,
                                const std::vector<PhysicalWorker>& workers);
  void write_global_state(const Deployed& d);
  // Seed the worker's heartbeat, then assign it to `host`: the manager's
  // stale-heartbeat clock starts before the agent launches the worker.
  void assign_worker(const std::string& topology, HostId host, WorkerId w);
  // Assign every worker, then wait until all report RUNNING (or the
  // topology's launch_timeout passes).
  common::Status launch(const Deployed& d,
                        const std::vector<PhysicalWorker>& workers);
  // Stable-update steps shared by the reconfigurations (DESIGN.md Sec 6).
  // Place `count` more workers of `node`, publish the global state,
  // install their rules, then launch them; returns their ids.
  common::Result<std::vector<WorkerId>> add_workers(Deployed& d, NodeId node,
                                                    int count);
  // ROUTING to every predecessor worker of `node`: `hops` is the node's
  // new worker list; nullopt drops the edge entirely.
  void route_predecessors(const Deployed& d, NodeId node,
                          const std::optional<std::vector<WorkerId>>& hops);
  // Take drained workers out of the topology: the control plane drops
  // their rules, their assignments go, then the global state is published.
  void retire_workers(Deployed& d, const std::vector<PhysicalWorker>& victims);
  void failure_detector();
  common::Status scale_up(Deployed& d, const ReconfigRequest& req);
  common::Status scale_down(Deployed& d, const ReconfigRequest& req);
  common::Status change_grouping(Deployed& d, const ReconfigRequest& req);
  common::Status swap_logic(Deployed& d, const ReconfigRequest& req);
  common::Status relocate(Deployed& d, const ReconfigRequest& req);
  common::Status attach_query(Deployed& d, const ReconfigRequest& req);
  common::Status detach_query(Deployed& d, const ReconfigRequest& req);
  common::Status set_active(const std::string& topology, bool active);

  coordinator::Coordinator* coord_;
  AppRegistry* registry_;
  ManagerOptions opts_;
  SdnHooks* hooks_ = nullptr;

  mutable std::mutex mu_;
  std::map<std::string, Deployed> topologies_;
  IdAllocator ids_;
  TopologyId next_topology_ = 1;
  // Rescheduled workers awaiting RUNNING before predecessors re-route to
  // them: (topology, worker).
  std::vector<std::pair<std::string, WorkerId>> pending_reinclude_;
  // Consecutive stale-heartbeat rounds per (topology, worker); guarded by
  // mu_ (monitor thread only).
  MissCounter hb_misses_;

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> reschedules_{0};
  std::thread monitor_thread_;
};

}  // namespace typhoon::stream
