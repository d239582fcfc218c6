#include "stream/worker.h"

#include <deque>
#include <exception>

#include "common/log.h"
#include "stream/acker.h"
#include "stream/physical.h"

namespace typhoon::stream {

Worker::Worker(WorkerOptions opts)
    : opts_(std::move(opts)),
      emitted_(metrics_.counter("emitted")),
      received_(metrics_.counter("received")),
      acked_(metrics_.counter("acked")),
      failed_(metrics_.counter("failed")),
      parked_(metrics_.counter("parked")),
      parked_dropped_(metrics_.counter("parked_dropped")),
      trace_sampled_(metrics_.counter("trace_sampled")),
      control_dups_dropped_(metrics_.counter("control_dups_dropped")),
      routing_updates_(metrics_.counter("routing_updates")),
      signals_(metrics_.counter("signals")),
      rng_(common::HashCombine(opts_.ctx.worker, 0x7970686f6f6eull)),
      acking_(opts_.reliable && opts_.acker != 0),
      is_acker_(opts_.ctx.node_name == kAckerNodeName) {
  opts_.ctx.metrics = &metrics_;
}

Worker::~Worker() { stop(); }

void Worker::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  stop_requested_.store(false);
  thread_ = std::thread([this] { run(); });
}

void Worker::stop() {
  stop_requested_.store(true);
  if (thread_.joinable()) thread_.join();
  running_.store(false);
}

void Worker::emit(Tuple t) { route_and_send(kDefaultStream, t); }

void Worker::emit(StreamId stream, Tuple t) { route_and_send(stream, t); }

void Worker::route_and_send(StreamId stream, const Tuple& t) {
  std::uint64_t root = 0;
  bool spout_root = false;
  if (acking_) {
    if (opts_.is_spout) {
      root = rng_.next() | 1;  // never zero
      spout_root = true;
    } else {
      root = current_root_;
    }
  }

  // Sampling decision (spouts) or propagation (bolts, one hop further).
  // The emit span is stamped here, before routing: a sampled tuple that
  // parks on a paused edge or is dropped downstream still owns a chain —
  // an incomplete one — so sampled counts and chain counts always agree.
  trace::TraceContext trace;
  if (opts_.trace_recorder != nullptr) {
    if (opts_.is_spout) {
      if (opts_.trace_sample_every != 0 &&
          ++trace_seq_ % opts_.trace_sample_every == 0) {
        trace.id = common::HashCombine(opts_.ctx.worker, trace_seq_) | 1;
        trace.hop = 0;
        trace_sampled_.inc_owned();
      }
    } else if (current_trace_.sampled()) {
      trace.id = current_trace_.id;
      trace.hop = static_cast<std::uint8_t>(current_trace_.hop + 1);
    }
    if (trace.sampled()) {
      opts_.trace_recorder->record({trace.id, trace::Stage::kEmit, trace.hop,
                                    opts_.ctx.worker, common::NowMicros(),
                                    0});
    }
  }

  std::uint64_t init_xor = 0;
  bool sent_any = false;
  for (EdgeRuntime& e : opts_.out_edges) {
    if (e.stream != stream) continue;
    if (e.state.next_hops.empty()) {
      // Paused edge: park until a ROUTING update supplies destinations.
      if (e.parked.size() >= kMaxParkedPerEdge) {
        e.parked.pop_front();
        parked_dropped_.inc_owned();
      }
      e.parked.push_back(t);
      parked_.inc_owned();
      continue;
    }
    RouteDecision d = Router::route(e.state, t, opts_.ctx.worker);
    if (d.dests.empty()) continue;
    std::uint64_t edge_id = 0;
    if (root != 0) {
      edge_id = rng_.next();
      for (WorkerId dst : d.dests) {
        const std::uint64_t c = AckContribution(edge_id, dst);
        if (spout_root) {
          init_xor ^= c;
        } else {
          child_xor_ ^= c;
        }
      }
    }
    opts_.transport->send(t, stream, root, edge_id, d.dests, d.broadcast,
                          trace);
    sent_any = true;
  }
  if (sent_any) emitted_.inc_owned();

  if (spout_root && sent_any) {
    pending_[root].emitted_at = common::Now();
    opts_.spout->anchored(root);
    acks_.add(root, init_xor);
  }
}

void Worker::emit_direct(WorkerId dst, StreamId stream, Tuple t) {
  opts_.transport->send(t, stream, 0, 0, std::span(&dst, 1), false);
  emitted_.inc_owned();
}

void Worker::handle_control(const ControlTuple& ct) {
  if (ct.type == ControlType::kControlAck) return;  // controller-bound only
  if (ct.seq != 0) {
    // Reliable control delivery: every copy is acked (the retransmitter
    // needs the ack even when the original got through), but only the
    // first copy is applied.
    ControlTuple ack;
    ack.type = ControlType::kControlAck;
    ack.request_id = ct.seq;
    opts_.transport->send_to_controller(ack);
    if (seen_seq_.contains(ct.seq)) {
      control_dups_dropped_.inc_owned();
      return;
    }
    seen_seq_.insert(ct.seq);
    seen_seq_order_.push_back(ct.seq);
    if (seen_seq_order_.size() > kControlSeqWindow) {
      seen_seq_.erase(seen_seq_order_.front());
      seen_seq_order_.pop_front();
    }
  }
  switch (ct.type) {
    case ControlType::kRouting: {
      if (!ct.routing) return;
      const RoutingUpdate& ru = *ct.routing;
      if (ru.remove) {
        // Unplug the edge (dynamic query detach); parked tuples for it are
        // discarded with it.
        std::erase_if(opts_.out_edges, [&](const EdgeRuntime& e) {
          return e.to_node == ru.to_node;
        });
        routing_updates_.inc_owned();
        break;
      }
      bool found = false;
      for (EdgeRuntime& e : opts_.out_edges) {
        if (e.to_node == ru.to_node) {
          // Preserve the round-robin counter so shuffle routing does not
          // restart at index 0 (which would skew fairness briefly).
          const std::uint64_t rr = e.state.rr_counter;
          e.state = ru.state;
          e.state.rr_counter = rr;
          found = true;
        }
      }
      if (!found) {
        // Reconfiguration added a brand-new downstream node.
        EdgeRuntime e;
        e.to_node = ru.to_node;
        e.stream = kDefaultStream;
        e.state = ru.state;
        opts_.out_edges.push_back(std::move(e));
      }
      // Resume: flush tuples parked while the edge had no destinations.
      // (Re-emitted unanchored; a reliable topology replays any that are
      // lost downstream.)
      for (EdgeRuntime& e : opts_.out_edges) {
        if (e.to_node != ru.to_node || e.state.next_hops.empty()) continue;
        std::deque<Tuple> parked;
        parked.swap(e.parked);
        for (Tuple& t : parked) {
          RouteDecision d = Router::route(e.state, t, opts_.ctx.worker);
          if (d.dests.empty()) continue;
          opts_.transport->send(t, e.stream, 0, 0, d.dests, d.broadcast);
          emitted_.inc_owned();
        }
      }
      routing_updates_.inc_owned();
      break;
    }
    case ControlType::kSignal:
      if (opts_.bolt) {
        opts_.bolt->on_signal(ct.signal_tag, *this);
      }
      signals_.inc_owned();
      break;
    case ControlType::kMetricReq: {
      MetricReport report;
      report.worker = opts_.ctx.worker;
      report.request_id = ct.request_id;
      report.metrics = metrics_.snapshot();
      report.metrics.emplace_back(
          "queue_depth",
          static_cast<std::int64_t>(opts_.transport->input_queue_depth()));
      ControlTuple resp;
      resp.type = ControlType::kMetricResp;
      resp.request_id = ct.request_id;
      resp.report = std::move(report);
      opts_.transport->send_to_controller(resp);
      break;
    }
    case ControlType::kInputRate:
      input_rate_.set_rate(ct.input_rate);
      rate_limited_ = ct.input_rate > 0.0;
      break;
    case ControlType::kActivate:
      active_.store(true);
      break;
    case ControlType::kDeactivate:
      active_.store(false);
      break;
    case ControlType::kBatchSize:
      opts_.transport->set_batch_size(ct.batch_size);
      break;
    default:
      break;
  }
}

void Worker::handle_ack_stream(const Tuple& t) {
  if (t.empty() || static_cast<AckKind>(t.i64(0)) != AckKind::kComplete) {
    return;
  }
  const common::TimePoint now = common::Now();
  for (std::size_t i = 1; i < t.size(); ++i) {
    const auto root = static_cast<std::uint64_t>(t.i64(i));
    const PendingRoot* p = pending_.find(root);
    if (p == nullptr) continue;
    const std::int64_t latency_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - p->emitted_at)
            .count();
    pending_.erase(root);
    acked_.inc_owned();
    opts_.spout->ack(root, latency_us);
  }
}

void Worker::flush_acks() {
  if (acks_.empty()) return;
  acks_.flush(opts_.is_spout ? AckKind::kInit : AckKind::kAck,
              opts_.ctx.worker, [&](const Tuple& msg) {
                opts_.transport->send(msg, kAckStream, 0, 0,
                                      std::span(&opts_.acker, 1), false);
              });
}

void Worker::handle_item(ReceivedItem& item) {
  if (item.is_control) {
    handle_control(*item.control);
    return;
  }
  if (const std::int64_t slow = fault_slow_us_.load(std::memory_order_relaxed);
      slow > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(slow));
  }
  received_.inc_owned();
  if (item.meta.stream == kAckStream && opts_.is_spout) {
    handle_ack_stream(item.tuple);
    return;
  }
  if (opts_.is_spout) return;  // spouts consume no other data streams

  current_root_ = item.meta.root_id;
  child_xor_ = 0;
  current_trace_ = trace::TraceContext{item.meta.trace_id,
                                       item.meta.trace_hop};
  const bool traced =
      current_trace_.sampled() && opts_.trace_recorder != nullptr;
  const std::int64_t exec_t0 = traced ? common::NowMicros() : 0;
  opts_.bolt->execute(item.tuple, item.meta, *this);
  if (traced) {
    opts_.trace_recorder->record(
        {current_trace_.id, trace::Stage::kExecute, current_trace_.hop,
         opts_.ctx.worker, exec_t0, common::NowMicros() - exec_t0});
  }
  current_trace_ = trace::TraceContext{};

  if (acking_ && !is_acker_ && item.meta.root_id != 0) {
    acks_.add(item.meta.root_id,
              AckContribution(item.meta.edge_id, opts_.ctx.worker) ^
                  child_xor_);
  }
  current_root_ = 0;
}

void Worker::publish_stats() {
  // Local gauge first: user code (e.g. memory-pressure simulation) and
  // harness probes read it without touching the coordinator.
  const auto depth =
      static_cast<std::int64_t>(opts_.transport->input_queue_depth());
  metrics_.gauge("queue_depth").set(depth);
  // Zero-copy data-plane counters, surfaced as gauges so observability
  // snapshots (ClusterObservability::dump_json, fig08's summary) can show
  // the pool hit rate and residual RX copy volume per worker.
  const TransportIoStats io = opts_.transport->io_stats();
  metrics_.gauge("pool_hits").set(static_cast<std::int64_t>(io.pool_hits));
  metrics_.gauge("pool_misses")
      .set(static_cast<std::int64_t>(io.pool_misses));
  metrics_.gauge("bytes_copied_rx")
      .set(static_cast<std::int64_t>(io.bytes_copied_rx));
  metrics_.gauge("reassembly_evicted")
      .set(static_cast<std::int64_t>(io.reassembly_evicted));
  if (opts_.coord == nullptr) return;
  opts_.coord->put_str(
      WorkerHeartbeatPath(opts_.ctx.topology_name, opts_.ctx.worker),
      EncodeHeartbeat({common::NowMicros(), depth}));
}

void Worker::sweep_pending(common::TimePoint now) {
  std::vector<std::uint64_t> expired;
  pending_.for_each([&](std::uint64_t root, const PendingRoot& p) {
    if (now - p.emitted_at > opts_.pending_timeout) expired.push_back(root);
  });
  for (std::uint64_t root : expired) {
    pending_.erase(root);
    failed_.inc_owned();
    opts_.spout->fail(root);
  }
}

bool Worker::spout_turn() {
  if (!active_.load(std::memory_order_relaxed)) return false;
  if (opts_.reliable && opts_.acker != 0 &&
      pending_.size() >= opts_.max_pending) {
    return false;
  }
  if (rate_limited_ && !input_rate_.try_acquire()) return false;
  return opts_.spout->next(*this);
}

// Publish DEAD before crashed_ flips: anything polling crashed() must
// find the coordinator record already in place once it reads true.
void Worker::mark_crashed() {
  if (opts_.coord) {
    opts_.coord->put_str(
        WorkerStatePath(opts_.ctx.topology_name, opts_.ctx.worker), "DEAD");
  }
  crashed_.store(true);
}

void Worker::run() {
  const std::string& topo = opts_.ctx.topology_name;
  const WorkerId w = opts_.ctx.worker;

  try {
    if (opts_.is_spout) {
      opts_.spout->open(opts_.ctx);
    } else {
      opts_.bolt->prepare(opts_.ctx);
    }
  } catch (const std::exception& e) {
    LOG_ERROR("worker") << "w" << w << " crashed in open/prepare: "
                        << e.what();
    mark_crashed();
    return;
  }

  // Heartbeat before RUNNING: whoever sees RUNNING also finds this
  // worker's first heartbeat record.
  if (opts_.coord) {
    publish_stats();
    opts_.coord->put_str(WorkerStatePath(topo, w), "RUNNING");
  }

  // One poll batch, consumed in place: `next` indexes the first unhandled
  // item, so a throttled or crashing item stays put for the next pass.
  std::vector<ReceivedItem> buf;
  std::size_t next = 0;
  common::TimePoint last_flush = common::Now();
  common::TimePoint last_hb = last_flush;
  common::TimePoint last_sweep = last_flush;

  while (!stop_requested_.load(std::memory_order_relaxed)) {
    std::size_t work = 0;

    if (fault_crash_.load(std::memory_order_relaxed)) {
      LOG_WARN("worker") << "w" << w << " crashed (injected fault)";
      mark_crashed();
      break;
    }
    if (const std::int64_t hang_ms = fault_hang_ms_.exchange(0);
        hang_ms > 0) {
      // Stall with no processing and no heartbeats ("slow, not dead");
      // stop() still interrupts promptly.
      const common::TimePoint until =
          common::Now() + std::chrono::milliseconds(hang_ms);
      while (common::Now() < until &&
             !stop_requested_.load(std::memory_order_relaxed)) {
        common::SleepMillis(1);
      }
    }

    if (next == buf.size()) {
      buf.clear();
      next = 0;
      opts_.transport->poll(buf, 256);
    }
    while (next < buf.size() &&
           !stop_requested_.load(std::memory_order_relaxed)) {
      ReceivedItem& item = buf[next];
      // INPUT_RATE throttling applies to data tuples; control tuples are
      // processed unconditionally so the throttle itself can be lifted.
      if (!item.is_control && !opts_.is_spout && rate_limited_ &&
          !input_rate_.try_acquire()) {
        break;
      }
      try {
        handle_item(item);
      } catch (const std::exception& e) {
        LOG_WARN("worker") << "w" << w << " crashed in execute: " << e.what();
        mark_crashed();
        break;
      }
      ++next;
      ++work;
    }
    if (crashed_.load()) break;

    if (opts_.is_spout) {
      try {
        if (spout_turn()) ++work;
      } catch (const std::exception& e) {
        LOG_WARN("worker") << "w" << w << " crashed in next: " << e.what();
        mark_crashed();
        break;
      }
    }
    // One ack message per drain pass (bolts) or spout turn (spouts); both
    // land before the flush_interval timer below ships the packet.
    flush_acks();

    const common::TimePoint now = common::Now();
    if (now - last_flush >= opts_.flush_interval) {
      opts_.transport->flush();
      last_flush = now;
    }
    if (opts_.coord && now - last_hb >= kHeartbeatInterval) {
      publish_stats();
      last_hb = now;
    }
    if (opts_.reliable && opts_.is_spout &&
        now - last_sweep >= std::chrono::milliseconds(100)) {
      sweep_pending(now);
      last_sweep = now;
    }
    if (work == 0) {
      // Idle: park briefly. Buffered output is NOT force-flushed here —
      // the flush_interval timer above owns that, so the batching
      // latency/throughput knob keeps its meaning on quiet streams.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  if (crashed_.load()) return;  // mark_crashed already published DEAD

  flush_acks();
  opts_.transport->flush();
  try {
    if (opts_.is_spout) {
      opts_.spout->close();
    } else {
      opts_.bolt->close();
    }
  } catch (const std::exception&) {
    // Shutdown-path failures are logged but do not change outcome.
  }
  if (opts_.coord) opts_.coord->put_str(WorkerStatePath(topo, w), "STOPPED");
}

}  // namespace typhoon::stream
