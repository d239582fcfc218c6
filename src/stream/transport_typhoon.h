// TyphoonTransport — the worker I/O layer of Fig 4/7.
//
// Northbound: tuple objects from the framework layer are serialized once
// (destination-independent payload) and handed to the packetizer.
// Southbound: the packetizer multiplexes/segments/batches them into custom
// Ethernet packets pushed into the host switch via the port's SPSC ring.
// Receive side reverses the path: ring -> depacketizer -> deserialize.
//
// An all-grouping emission produces a single packet addressed to the
// broadcast worker address; replication happens in the switch.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "net/packetizer.h"
#include "stream/transport.h"
#include "switchd/soft_switch.h"
#include "trace/flight_recorder.h"

namespace typhoon::stream {

class TyphoonTransport : public Transport {
 public:
  // `recorder` (optional) receives kDeserialize spans for sampled tuples;
  // it must be the same single-writer ring as the owning worker's, since
  // send/poll run on the worker thread.
  TyphoonTransport(WorkerAddress self,
                   std::shared_ptr<switchd::PortHandle> port,
                   net::PacketizerConfig cfg,
                   std::shared_ptr<trace::FlightRecorder> recorder = nullptr);

  void send(const Tuple& t, StreamId stream, std::uint64_t root_id,
            std::uint64_t edge_id, std::span<const WorkerId> dests,
            bool broadcast, trace::TraceContext trace = {}) override;
  void send_to_controller(const ControlTuple& ct) override;
  std::size_t poll(std::vector<ReceivedItem>& out, std::size_t max) override;
  void flush() override;
  void set_batch_size(std::uint32_t n) override;
  [[nodiscard]] std::uint32_t batch_size() const override;
  [[nodiscard]] std::size_t input_queue_depth() const override;
  [[nodiscard]] std::uint64_t send_drops() const override { return drops_; }
  [[nodiscard]] TransportIoStats io_stats() const override;

  // Deliver a control tuple directly into the receive path, bypassing the
  // switch (thread-safe; used by tests and local tooling).
  void inject_control(const ControlTuple& ct);

 private:
  WorkerAddress self_;
  std::shared_ptr<switchd::PortHandle> port_;
  std::shared_ptr<trace::FlightRecorder> recorder_;
  net::Packetizer packetizer_;
  net::Depacketizer depacketizer_;
  // Tuples staged between RX-ring drain and delivery to the worker: the
  // live records are inbound_[inbound_head_..]. Kept near the per-poll
  // budget by poll(); only the blocked-send drain may grow it, up to
  // kBlockedStageCap. The buffer keeps its capacity across polls, so
  // staging allocates nothing per tuple.
  static constexpr std::size_t kBlockedStageCap = 65536;
  std::vector<net::TupleRecord> inbound_;
  std::size_t inbound_head_ = 0;
  [[nodiscard]] std::size_t staged() const {
    return inbound_.size() - inbound_head_;
  }
  // Scratch record reused across send() calls (send is only invoked from
  // the owning worker thread): the serialization buffer keeps its capacity,
  // so steady-state emission allocates nothing per tuple.
  net::TupleRecord send_scratch_;
  std::uint64_t drops_ = 0;

  // Control tuples handed in by inject_control; the flag lets poll() skip
  // the lock when nothing was injected.
  std::mutex injected_mu_;
  std::atomic<bool> has_injected_{false};
  std::vector<net::TupleRecord> injected_;
};

}  // namespace typhoon::stream
