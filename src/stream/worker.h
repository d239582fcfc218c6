// Worker — one physical node of a running topology, executing on its own
// thread. Implements the three-layer design of Fig 4:
//
//   application computation layer : the user Spout/Bolt
//   framework layer               : routing policies (runtime-swappable via
//                                   ROUTING control tuples), control-tuple
//                                   handling (Table 2), guaranteed-
//                                   processing bookkeeping, stats reporting,
//                                   input-rate controller
//   I/O layer                     : the Transport (Typhoon packets or
//                                   Storm-style connections)
//
// A crash in user code (the induced NullPointerException of Sec 6.2) marks
// the worker dead and exits the thread; the worker agent and, in Typhoon
// mode, the switch port-status event take it from there.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/root_table.h"
#include "common/token_bucket.h"
#include "coordinator/coordinator.h"
#include "stream/acker.h"
#include "stream/api.h"
#include "stream/routing.h"
#include "stream/transport.h"
#include "trace/flight_recorder.h"
#include "trace/trace.h"

namespace typhoon::stream {

// Routing runtime for one outgoing logical edge. When the edge has no
// routable next hops (a "paused" edge during pause-and-resume relocation,
// Sec 8), emitted tuples park here until a ROUTING control tuple supplies
// destinations again.
struct EdgeRuntime {
  NodeId to_node = 0;
  StreamId stream = kDefaultStream;
  RoutingState state;
  std::deque<Tuple> parked;
};

// Cap on parked tuples per edge; beyond it the oldest are dropped (counted
// in the worker's "parked_dropped" metric).
inline constexpr std::size_t kMaxParkedPerEdge = 65536;

struct WorkerOptions {
  WorkerContext ctx;
  bool is_spout = false;
  std::unique_ptr<Spout> spout;
  std::unique_ptr<Bolt> bolt;
  std::unique_ptr<Transport> transport;
  std::vector<EdgeRuntime> out_edges;

  // Guaranteed processing.
  bool reliable = false;
  WorkerId acker = 0;  // acker worker id (0 = none even if reliable)
  std::size_t max_pending = 2048;
  std::chrono::milliseconds pending_timeout{5000};

  // Coordination (optional: tests can run bare workers). The worker writes
  // its heartbeat record every kHeartbeatInterval.
  coordinator::Coordinator* coord = nullptr;
  std::chrono::microseconds flush_interval{200};

  // Cross-layer tracing. The recorder is shared with this worker's
  // transport (send/poll run on the worker thread, so the single-writer
  // contract holds). Spouts sample 1-in-`trace_sample_every` emitted
  // tuples; 0 disables sampling. Bolts only propagate contexts.
  std::shared_ptr<trace::FlightRecorder> trace_recorder;
  std::uint32_t trace_sample_every = 0;
};

class Worker final : public Emitter {
 public:
  explicit Worker(WorkerOptions opts);
  ~Worker() override;

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void start();
  // Signal the loop to exit and join the thread.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] bool crashed() const { return crashed_.load(); }
  [[nodiscard]] WorkerId id() const { return opts_.ctx.worker; }
  [[nodiscard]] NodeId node() const { return opts_.ctx.node; }
  [[nodiscard]] const WorkerContext& context() const { return opts_.ctx; }
  [[nodiscard]] common::MetricsRegistry& metrics() { return metrics_; }

  // Emitter interface (invoked from the worker thread during next/execute
  // and on_signal).
  void emit(Tuple t) override;
  void emit(StreamId stream, Tuple t) override;
  void emit_direct(WorkerId dst, StreamId stream, Tuple t) override;

  // Counters exposed for harnesses (also published to the coordinator).
  [[nodiscard]] std::int64_t emitted() const { return emitted_.value(); }
  [[nodiscard]] std::int64_t received() const { return received_.value(); }

  // ---- process-level fault injection (faultinject layer) ----
  // Crash: the worker dies exactly as if user code threw (thread exits,
  // coordinator state DEAD; the agent and switch-port teardown take the
  // same path as a real crash).
  void inject_crash() { fault_crash_.store(true, std::memory_order_relaxed); }
  // Hang: the event loop stalls for `d` — no processing, no heartbeats —
  // then resumes, modeling a long GC-style pause ("slow, not dead").
  void inject_hang(std::chrono::milliseconds d) {
    fault_hang_ms_.store(d.count(), std::memory_order_relaxed);
  }
  // Slow-down: stall this long per handled data tuple (zero clears it).
  void inject_slowdown(std::chrono::microseconds per_tuple) {
    fault_slow_us_.store(per_tuple.count(), std::memory_order_relaxed);
  }

 private:
  void run();
  void mark_crashed();
  // Both emit overloads land here: one tuple, one pass over the edges.
  void route_and_send(StreamId stream, const Tuple& t);
  void handle_item(ReceivedItem& item);
  void handle_control(const ControlTuple& ct);
  void handle_ack_stream(const Tuple& t);
  void flush_acks();
  void publish_stats();
  void sweep_pending(common::TimePoint now);
  bool spout_turn();

  WorkerOptions opts_;
  common::MetricsRegistry metrics_;
  // Cached registry entries, all written by the worker thread only
  // (Counter::inc_owned); looking one up takes the registry mutex.
  common::Counter& emitted_;
  common::Counter& received_;
  common::Counter& acked_;
  common::Counter& failed_;
  common::Counter& parked_;
  common::Counter& parked_dropped_;
  common::Counter& trace_sampled_;
  common::Counter& control_dups_dropped_;
  common::Counter& routing_updates_;
  common::Counter& signals_;
  // INPUT_RATE: the bucket is consulted only while `rate_limited_` is set,
  // so an unthrottled worker takes no lock per tuple. Both are touched by
  // the worker thread only.
  common::TokenBucket input_rate_{0.0, common::kTupleBurstFloor};
  bool rate_limited_ = false;
  common::Rng rng_;

  // Guaranteed processing is on (reliable, acker deployed); the acker's
  // own worker acks nothing.
  const bool acking_;
  const bool is_acker_;
  // Ack entries since the last flush point: tree inits on a spout, hop
  // acks on a bolt. flush_acks() sends them as n-entry ack messages.
  AckBuffer acks_;

  // Guaranteed-processing state for the in-flight tuple tree being built by
  // the current execute()/next() call.
  std::uint64_t current_root_ = 0;
  std::uint64_t child_xor_ = 0;

  // Trace context of the data tuple currently being executed; re-emits
  // inherit it one hop further. Zero outside execute().
  trace::TraceContext current_trace_;
  // Spout emissions since start, the counter behind 1-in-N sampling.
  std::uint64_t trace_seq_ = 0;

  struct PendingRoot {
    common::TimePoint emitted_at;
  };
  common::RootTable<PendingRoot> pending_;

  // Idempotent-delivery window for reliable control tuples: every sequenced
  // control tuple is acked, but only the first copy is applied (duplicates
  // come from the controller's retransmit path).
  static constexpr std::size_t kControlSeqWindow = 512;
  std::deque<std::uint64_t> seen_seq_order_;
  std::unordered_set<std::uint64_t> seen_seq_;

  std::atomic<bool> fault_crash_{false};
  std::atomic<std::int64_t> fault_hang_ms_{0};
  std::atomic<std::int64_t> fault_slow_us_{0};

  std::atomic<bool> active_{true};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> crashed_{false};
  std::thread thread_;
};

}  // namespace typhoon::stream
