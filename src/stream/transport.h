// Transport — the boundary between the worker framework layer and the
// network. Two implementations embody the paper's comparison:
//
//  * TyphoonTransport (transport_typhoon.h): custom Ethernet packets through
//    the host SDN switch; one serialization per tuple regardless of fanout;
//    control tuples in-band.
//  * StormTransport (transport_storm.h): per-worker-pair connections with
//    per-destination serialization (each copy carries distinct metadata).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/ids.h"
#include "net/packet.h"
#include "stream/control_tuple.h"
#include "stream/tuple.h"
#include "trace/trace.h"

namespace typhoon::stream {

// One received tuple, as poll() hands it to the worker.
//
// Items are single-thread values. A borrowed tuple's pin shares its packet
// with the other items of the same poll through a non-atomic count (see
// net::PacketPin), so an item and its copies are used and destroyed by the
// polling thread, or handed to another thread whole under a happens-before
// edge (a lock, a join). Items may outlive the transport that made them.
struct ReceivedItem {
  // Data tuple (is_control == false). May borrow string/bytes data from
  // `backing` (zero-copy receive); copying the Tuple materializes it.
  Tuple tuple;
  TupleMeta meta;
  // Control tuple (is_control == true). Heap-held: control tuples are rare,
  // and holding one inline would more than double every data item.
  std::shared_ptr<ControlTuple> control;
  // Pins the packet a borrowed tuple's values point into. Must outlive
  // `tuple`; empty when no value borrows (owning or inline values).
  net::PacketPin backing;
  bool is_control = false;
};

// Data-plane I/O counters a transport can expose (all monotonically
// increasing; zero when a transport has no such concept).
struct TransportIoStats {
  std::uint64_t pool_hits = 0;       // packets served from the frame pool
  std::uint64_t pool_misses = 0;     // packets freshly allocated
  std::uint64_t bytes_copied_rx = 0; // tuple bytes copied out of payloads
  std::uint64_t reassembly_evicted = 0;
  std::uint64_t packetizer_buffers_evicted = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Send one logical tuple to the given destinations. `broadcast` marks an
  // all-grouping emission whose payload is destination-independent. The
  // span is read during the call only (the worker passes a view into its
  // routing state). A non-default `trace` context (sampled tuple) rides
  // with the tuple so the receiver's TupleMeta carries it onward.
  virtual void send(const Tuple& t, StreamId stream, std::uint64_t root_id,
                    std::uint64_t edge_id, std::span<const WorkerId> dests,
                    bool broadcast, trace::TraceContext trace = {}) = 0;

  // Send a control tuple up to the SDN controller (METRIC_RESP). A no-op on
  // transports without a control plane.
  virtual void send_to_controller(const ControlTuple& ct) = 0;

  // Drain up to `max` received tuples, appended to `out`. Non-blocking.
  // The items obey ReceivedItem's thread contract.
  virtual std::size_t poll(std::vector<ReceivedItem>& out,
                           std::size_t max) = 0;

  // Push out any batched/buffered output.
  virtual void flush() = 0;

  // BATCH_SIZE control knob (Typhoon I/O layer).
  virtual void set_batch_size(std::uint32_t n) { (void)n; }
  [[nodiscard]] virtual std::uint32_t batch_size() const { return 0; }

  // Approximate number of items waiting in the input queue.
  [[nodiscard]] virtual std::size_t input_queue_depth() const = 0;

  // Packets/messages dropped on send (ring or queue overflow).
  [[nodiscard]] virtual std::uint64_t send_drops() const { return 0; }

  // Zero-copy / pooling counters (all-zero default for transports without
  // a frame pool).
  [[nodiscard]] virtual TransportIoStats io_stats() const { return {}; }
};

}  // namespace typhoon::stream
