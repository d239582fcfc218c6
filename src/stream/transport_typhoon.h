// TyphoonTransport — the worker I/O layer of Fig 4/7.
//
// Northbound: tuple objects from the framework layer are serialized once
// (destination-independent payload) and handed to the packetizer.
// Southbound: the packetizer multiplexes/segments/batches them into custom
// Ethernet packets pushed into the host switch via the port's SPSC ring.
// Receive side reverses the path: ring -> depacketizer -> deserialize, with
// unsegmented tuples decoded straight into the caller's items (DESIGN.md,
// "Receive path").
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
  // Pin nodes for received packets (see net::PacketPin). Declared before
  // inbound_, so staged pins drop first; pins held in items past this
  // transport keep the pool alive on their own.
  net::PinPool::Owner pins_ = net::PinPool::Create();
  // A tuple waiting in inbound_: its head, and either owning bytes
  // (reassembled or injected) or a view into the packet `pin` holds.
  struct Staged {
    WorkerId src = 0;
    net::ChunkHeader head;
    common::Bytes data;
    std::span<const std::uint8_t> view;
    net::PacketPin pin;
  };

  // Pins `p` and decodes its tuples straight into `out` while `budget`
  // lasts and nothing is staged ahead of them; the rest are staged, so
  // FIFO order holds. Returns the number of items appended.
  std::size_t take(net::PacketPtr p, std::vector<ReceivedItem>* out,
                   std::size_t budget);
  // Moves up to `budget` staged tuples, oldest first, into `out`.
  std::size_t deliver_staged(std::vector<ReceivedItem>& out,
                             std::size_t budget);
  // Decodes one tuple into a new slot at the back of `out`; false (slot
  // given back) if it does not decode. A non-null `pin` means `bytes` lie
  // in the packet it pins: long values borrow them, and only an item that
  // borrows copies the pin.
  bool decode_into(std::vector<ReceivedItem>& out, WorkerId src,
                   const net::ChunkHeader& head,
                   std::span<const std::uint8_t> bytes,
                   const net::PacketPin* pin);

  // Tuples that could not go straight into a caller's items: the overflow
  // tail of a poll's last packet, packets drained during a blocked send,
  // reassembled tuples and injected control tuples. The live ones are
  // inbound_[inbound_head_..]. Kept near the per-poll budget by poll();
  // only the blocked-send drain may grow it, up to kBlockedStageCap. The
  // buffer keeps its capacity across polls.
  static constexpr std::size_t kBlockedStageCap = 65536;
  std::vector<Staged> inbound_;
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
  std::vector<Staged> injected_;
};

}  // namespace typhoon::stream
