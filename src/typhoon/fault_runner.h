// FaultPlanRunner — executes a faultinject::FaultPlan against a live
// Cluster. A background thread polls elapsed time and an optional progress
// probe (e.g. "tuples emitted so far") every couple of milliseconds and
// fires each event when its trigger is reached:
//
//   - impair_tunnel / impair_port attach deterministic wire impairments
//     (auto-cleared after duration_ms when set);
//   - crash / hang / slow are process-level worker faults, with repeat_ms
//     re-arming a crash so restarted workers die again (the persistent code
//     bug of Sec 6.2);
//   - partition / heal toggle the controller channel of a host, partition
//     auto-healing after duration_ms when set;
//   - fail_host takes a whole host down.
//
// The runner only *applies* faults; the schedule itself is pure data
// (faultinject/fault_plan.h) so benches and chaos tests share plans.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "faultinject/fault_plan.h"
#include "typhoon/cluster.h"

namespace typhoon {

class FaultPlanRunner {
 public:
  // Progress probe for at_tuples triggers; called from the runner thread.
  using TupleProbe = std::function<std::int64_t()>;

  FaultPlanRunner(Cluster* cluster, faultinject::FaultPlan plan);
  ~FaultPlanRunner();

  FaultPlanRunner(const FaultPlanRunner&) = delete;
  FaultPlanRunner& operator=(const FaultPlanRunner&) = delete;

  void set_tuple_probe(TupleProbe probe) { probe_ = std::move(probe); }

  void start();
  void stop();

  // Events applied so far (repeats and auto-heals included).
  [[nodiscard]] std::int64_t fired() const { return fired_.load(); }
  // Events whose trigger fired but whose target could not be resolved
  // (e.g. crash of a worker that is mid-restart).
  [[nodiscard]] std::int64_t misses() const { return misses_.load(); }
  // Decision engines of every impairment this runner currently has
  // attached, in firing order — chaos tests assert their counters moved.
  // An auto-heal (duration_ms) destroys the engine, so healed entries are
  // dropped from this list; their drop totals live on in wire_drops().
  [[nodiscard]] std::vector<faultinject::Impairment*> impairments() const;
  // Frames dropped across every impairment this runner attached, including
  // ones already auto-healed.
  [[nodiscard]] std::uint64_t wire_drops() const;
  // True once every armed event has fired (repeating events never finish).
  [[nodiscard]] bool done() const;

 private:
  struct Armed {
    faultinject::FaultEvent ev;
    bool is_reversal = false;  // synthesized auto-heal / auto-clear
  };

  void run();
  void apply(const Armed& armed, std::int64_t elapsed_ms,
             std::vector<Armed>& rearm);

  Cluster* cluster_;
  TupleProbe probe_;

  // One live impairment engine plus the target it is attached to, so a
  // reversal can retire exactly the engines it is about to destroy.
  struct Attached {
    faultinject::Impairment* imp = nullptr;
    faultinject::FaultKind kind{};
    HostId host_a = 0;
    HostId host_b = 0;
    PortId port = 0;
  };
  // Snapshot counters of, then forget, every attached engine matching the
  // reversal `ev`; call with mu_ held, just before the engines die.
  void retire_impairments_locked(const faultinject::FaultEvent& ev);

  mutable std::mutex mu_;
  std::vector<Armed> armed_;
  std::vector<Attached> attached_;
  std::uint64_t healed_drops_ = 0;  // guarded by mu_

  std::atomic<bool> running_{false};
  std::atomic<std::int64_t> fired_{0};
  std::atomic<std::int64_t> misses_{0};
  std::thread thread_;
};

}  // namespace typhoon
